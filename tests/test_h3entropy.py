import functools
import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_scaled_moment
from heatent import bounds as bd
from heatent import h3entropy as h3
from heatent.quadrature import QuadratureConvergenceError, integrate_batch
from heatent.verify import _mass_prefactor, _radial_mass
from oracles import (
    I1_quadrature,
    entropy_quadrature,
    eta_quadrature,
    heat_kernel,
    normalization_quadrature,
)

P1 = h3.H3Params(kappa=1.0)
LOG_SQRT2 = 0.5 * math.log(2.0)

# Frozen from the tight-tolerance quadrature oracle (direct integrand path).
ETA_1_1 = 1.176065713266882
ETAP_1_1 = 3.6480132188834977


def unscaled(value, p, t):
    """eta, eta' or an envelope at t as a plain float: the scaled value
    times exp(kappa^2 t/2)."""
    return value * math.exp(0.5 * p.kappa * p.kappa * t)


def xi_closed(kappa, t):
    """(xi, xi') times exp(kappa^2 t/2) at t, by their formulas
    sqrt(2/pi)/(kappa t^{3/2}) and -(kappa^2 t + 3)/(sqrt(2 pi) kappa t^{5/2})."""
    return (math.sqrt(2.0 / math.pi) / (kappa * t ** 1.5),
            -(kappa * kappa * t + 3.0) / (math.sqrt(2.0 * math.pi) * kappa * t ** 2.5))


def xi_rows(p, times):
    """(xi, xi') as plain values at the times, read from the rows of
    ``evaluate_records``: xi = I2/eta, and xi' from the rate's cross term
    xi' eta + xi eta' = rate_direct - 3/(2t) - kappa^2."""
    sweep = h3.evaluate_records(p, times)
    xi = sweep.I2 / sweep.eta
    xi_prime = (sweep.rate_direct - 1.5 / sweep.t - p.kappa ** 2 - xi * sweep.etap) / sweep.eta
    shrink = np.exp(-0.5 * p.kappa * p.kappa * sweep.t)
    return xi * shrink, xi_prime * shrink


def test_params_validation():
    with pytest.raises(ValueError):
        h3.H3Params(kappa=0.0)
    with pytest.raises(ValueError):
        h3.H3Params(kappa=-2.0)
    for kappa in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            h3.H3Params(kappa=kappa)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_at_origin():
    expected = (2.0 * math.pi) ** -1.5 * math.exp(-0.5)
    assert heat_kernel(P1, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_kernel_flat_limit():
    # kappa -> 0 recovers the flat Gaussian kernel
    p = h3.H3Params(kappa=1e-7)
    for d in (0.0, 0.7, 2.0):
        gauss = (2.0 * math.pi) ** -1.5 * math.exp(-0.5 * d * d)
        assert heat_kernel(p, 1.0, d) == pytest.approx(gauss, rel=1e-6)


def test_kernel_domain():
    with pytest.raises(ValueError):
        heat_kernel(P1, 0.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel(P1, 1.0, -0.1)


def test_normalization_unit_params():
    assert normalization_quadrature(P1, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_normalization_grid():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        for t in (0.1, 1.0, 10.0, 50.0):
            assert normalization_quadrature(p, t) == pytest.approx(
                1.0, abs=1e-8), (kappa, t)


def test_normalization_at_a_far_peak():
    # kappa sqrt t up to 1e75: the mass below the peak r = kappa t is kept
    for t in (1e110, 1e120, 1e150):
        assert normalization_quadrature(P1, t) == pytest.approx(1.0, abs=1e-15), t


def test_radial_mass_matches_kernel_times_shell():
    # the log-combined radial density equals h * 4 pi sinh^2(kr)/k^2 where the
    # naive product is representable
    for kappa, t, r in ((1.0, 1.0, 0.5), (0.5, 2.0, 3.0), (2.0, 0.3, 1.2)):
        p = h3.H3Params(kappa)
        naive = (heat_kernel(p, t, r)
                 * 4.0 * math.pi * math.sinh(kappa * r) ** 2 / kappa ** 2)
        pref = _mass_prefactor(kappa, t)
        assert _radial_mass(kappa, t, r - kappa * t, pref) == pytest.approx(naive, rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms


def test_I1_pinned_values():
    assert h3.I1(P1, 1.0) == 2.0
    assert h3.I1(h3.H3Params(2.0), 0.25) == 2.0


def test_I1_matches_quadrature():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        for t in (0.1, 1.0, 10.0):
            assert I1_quadrature(p, t) == pytest.approx(
                h3.I1(p, t), rel=1e-8)


def test_xi_value():
    expected = math.sqrt(2.0 / math.pi) * math.exp(-0.5)
    assert xi_rows(P1, [1.0])[0][0] == pytest.approx(expected, rel=1e-14)


def test_xi_prime_negative_everywhere():
    for kappa in (0.5, 1.0, 2.0):
        _, xi_prime = xi_rows(h3.H3Params(kappa), np.geomspace(0.01, 100.0, 25))
        assert (xi_prime < 0.0).all(), kappa


def test_xi_prime_matches_finite_difference():
    for t in (0.5, 1.0, 5.0):
        h = 1e-4 * t
        xi, xi_prime = xi_rows(P1, [t, t + h, t - h])
        fd = (xi[1] - xi[2]) / (2.0 * h)
        assert xi_prime[0] == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# eta and envelopes


def test_eta_frozen_value():
    eta = h3.evaluate_records(P1, [1.0]).eta[0]
    assert unscaled(eta, P1, 1.0) == pytest.approx(ETA_1_1, rel=1e-9)


def test_eta_matches_direct_quadrature_at_moderate_t():
    # both paths work at kappa = 1, t = 10; the shifted path must agree
    t = 10.0

    def direct(d):
        # exp(-r^2/2t) sinh(r) at r = t + d with the exponentials combined:
        # the naive sinh overflows on the far nodes
        r = t + d
        gauss = -r * r / (2.0 * t)
        sinh_weighted = 0.5 * (np.exp(gauss + r) - np.exp(gauss - r))
        return r * sinh_weighted * h3.log_sinh_ratio(r)

    [oracle], _ = integrate_batch(direct, [t], [math.sqrt(t)], (), lambda i: "direct eta")
    assert unscaled(h3.evaluate_records(P1, [t]).eta[0], P1, t) == pytest.approx(oracle, rel=1e-8)


def test_eta_integrand_vanishes_at_origin():
    assert h3.log_sinh_ratio(0.0) == 0.0  # r sinh(kr) log(...) -> 0 with it


def test_eta_split_representation_at_large_t():
    # eta(100) carries a factor exp(50); the scaled value leaves it out
    sweep = h3.evaluate_records(P1, [100.0])
    e, lo, hi = sweep.eta[0], sweep.eta_lower[0], sweep.eta_upper[0]
    assert math.isfinite(e) and e > 0.0
    assert lo < e < hi


def test_eta_positive_and_inside_envelope():
    sweep = h3.evaluate_records(P1, [1.0])
    e, lo, hi = sweep.eta[0], sweep.eta_lower[0], sweep.eta_upper[0]
    assert e > 0.0
    assert lo < e < hi


def test_envelope_ordering_and_containment_on_grid():
    sweep = h3.evaluate_records(P1, np.geomspace(0.1, 100.0, 40))
    columns = (sweep.t, sweep.eta, sweep.eta_lower, sweep.eta_upper, sweep.etap,
               sweep.etap_lower, sweep.etap_upper)
    for t, eta, lo, hi, etap, plo, phi in zip(*(column.tolist() for column in columns)):
        assert lo < hi
        assert lo < eta < hi, t
        assert plo < phi
        assert plo < etap < phi, t


def test_eta_prime_frozen_value():
    etap = h3.evaluate_records(P1, [1.0]).etap[0]
    assert unscaled(etap, P1, 1.0) == pytest.approx(ETAP_1_1, rel=1e-9)


def test_eta_prime_is_derivative_of_eta():
    for t, tol in ((2.0, 1e-5), (0.5, 1e-5), (5.0, 1e-5)):
        h = 1e-4 * t
        sweep = h3.evaluate_records(P1, [t + h, t - h])
        up, down = (unscaled(eta, P1, s) for eta, s in zip(sweep.eta.tolist(), sweep.t.tolist()))
        fd = (up - down) / (2.0 * h)
        assert unscaled(h3.evaluate_records(P1, [t]).etap[0], P1, t) == pytest.approx(fd, rel=tol)


def test_eta_prime_envelope_other_curvature():
    sweep = h3.evaluate_records(h3.H3Params(0.5), [10.0])
    assert sweep.etap_lower[0] < sweep.etap[0] < sweep.etap_upper[0]


def test_envelope_gap_stays_bounded():
    # xi * (upper - lower) tends to log 2; it must stay below with 5% headroom
    sweep = h3.evaluate_records(P1, (50.0, 100.0))
    x = sweep.I2 / sweep.eta  # xi times exp(kappa^2 t/2)
    assert (x * (sweep.eta_upper - sweep.eta_lower) <= 1.05 * math.log(2.0)).all()


def test_envelope_bracket_contains_rate_cross_term():
    # xi' eta + xi eta' evaluated at envelope corners brackets the true term
    sweep = h3.evaluate_records(P1, (1.0, 10.0, 50.0, 100.0))
    columns = (sweep.t, sweep.eta_lower, sweep.eta_upper, sweep.etap_lower,
               sweep.etap_upper, sweep.rate_direct)
    for t, lo, hi, plo, phi, rate in zip(*(column.tolist() for column in columns)):
        x, xp = xi_closed(1.0, t)
        cross = rate - 1.5 / t - 1.0
        bracket_lo = xp * hi + x * plo
        bracket_hi = xp * lo + x * phi
        assert bracket_lo <= cross <= bracket_hi, t


# ---------------------------------------------------------------------------
# entropy and its rate


def test_entropy_assembly():
    sweep = h3.evaluate_records(P1, [1.0])
    expected = 1.5 * math.log(2.0 * math.pi) + 0.5 + 2.0 + xi_closed(1.0, 1.0)[0] * sweep.eta[0]
    assert sweep.entropy[0] == pytest.approx(expected, rel=1e-14)


def test_entropy_matches_direct_quadrature():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        sweep = h3.evaluate_records(p, (0.3, 1.0, 5.0))
        for t, entropy in zip(sweep.t.tolist(), sweep.entropy.tolist()):
            assert entropy == pytest.approx(entropy_quadrature(p, t), rel=1e-6)


def test_entropy_flat_limit():
    gaussian_entropy = 1.5 * math.log(2.0 * math.pi * math.e)
    assert h3.evaluate_records(h3.H3Params(1e-5), [1.0]).entropy[0] == pytest.approx(
        gaussian_entropy, rel=1e-7)


def test_entropy_increasing():
    values = h3.evaluate_records(P1, np.geomspace(0.5, 50.0, 20)).entropy.tolist()
    assert all(a < b for a, b in zip(values, values[1:]))


def test_entropy_rate_band_at_large_t():
    lo, hi = h3.asymptotic_band(P1)
    for rate in h3.evaluate_records(P1, (20.0, 50.0, 100.0)).rate_direct.tolist():
        assert lo - 0.05 <= rate <= hi + 0.05


def test_entropy_rate_scaled_curvature():
    p = h3.H3Params(2.0)
    lo, hi = h3.asymptotic_band(p)
    for rate in h3.evaluate_records(p, (5.0, 12.5, 25.0)).rate_direct.tolist():
        assert lo - 0.05 * 4.0 <= rate <= hi + 0.05 * 4.0


def test_rate_matches_finite_difference():
    sweep = h3.evaluate_records(P1, (1.0, 5.0, 20.0))
    for rate, rate_fd in zip(sweep.rate_direct.tolist(), sweep.rate_fd.tolist()):
        assert abs(rate - rate_fd) / abs(rate) <= 1e-4


def test_band_values():
    lo, hi = h3.asymptotic_band(P1)
    assert lo == pytest.approx(2.0 - LOG_SQRT2, rel=1e-14)
    assert hi == pytest.approx(2.0 + LOG_SQRT2, rel=1e-14)
    lo2, hi2 = h3.asymptotic_band(h3.H3Params(2.0))
    assert lo2 == pytest.approx(4.0 * lo, rel=1e-14)
    assert hi2 == pytest.approx(4.0 * hi, rel=1e-14)
    assert hi - lo == pytest.approx(math.log(2.0), rel=1e-14)


def test_flat_reference_rate():
    rate = h3.evaluate_records(h3.H3Params(0.01), [1.0]).rate_direct[0]
    assert abs(rate - 1.5) / 1.5 <= 0.01


# kappa^2 t from the 1e-10 floor to 1e12, ten rows a decade
RICCI_K2T = np.logspace(-10.0, 12.0, 221)


@functools.cache
def ricci_rows(kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, rate_direct, rhs) on RICCI_K2T: rhs the paper's Ricci estimate on H^3
    at q0 = inf (a heat kernel's Fisher information starts infinite), n = 3 and
    K = Ric = -2 kappa^2, that is 3 kappa^2 / (1 - exp(-2 kappa^2 t))."""
    k2 = kappa * kappa
    t = RICCI_K2T / k2
    rhs = bd.ricci_bound_rhs(3, -2.0 * k2, math.inf, t)
    return t, h3.evaluate_records(h3.H3Params(kappa), t).rate_direct, rhs


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.7])
def test_h3_rates_lie_below_the_ricci_estimate(kappa):
    # CD(-2 kappa^2, 3) bounds the rate at every t; the worst excess measured
    # is 2.2e-16 relative, at kappa^2 t between 1e-10 and 1e-9, where the two
    # sides agree to rounding
    t, rate, rhs = ricci_rows(kappa)
    assert (rate <= rhs * (1.0 + 8.0 * sys.float_info.epsilon)).all()
    # as kappa^2 t grows rhs tends to 3 kappa^2 and the rate to 2 kappa^2:
    # the gap is a third of rhs less about 1/(6 kappa^2 t)
    far = RICCI_K2T >= 100.0
    short = 1.0 / 3.0 - (rhs - rate)[far] / rhs[far]
    assert (short > 0.0).all() and (short * RICCI_K2T[far] <= 0.2).all()


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.7])
def test_ricci_gap_is_a_third_of_kappa4t_at_small_kappa2t(kappa):
    # rhs = 3/(2t) + 3 kappa^2/2 + kappa^4 t/2 + ... and the rate's series has
    # kappa^4 t/6 there, so (rhs - rate)/(kappa^4 t) = 1/3 + O(kappa^2 t).  The
    # bound is a kappa^2 t + b 1.5 eps/(kappa^2 t)^2, the second term the
    # rounding of a rate near 3/(2t) divided by kappa^4 t; a and b are twice
    # the worst read over kappa in {0.3, 1, 2.7} (0.0555 from kappa^2 t = 1e-3
    # on, 1.32 up to 1e-5) until the rate's series (ROADMAP item 17) derives
    # the kappa^2 t coefficient.  A rate error of 1e-9 relative moves the
    # ratio by about 1.5e-9/(kappa^2 t)^2, 0.15 at kappa^2 t = 1e-4.
    a, b = 0.111, 2.65
    t, rate, rhs = ricci_rows(kappa)
    near = (RICCI_K2T >= 1e-6) & (RICCI_K2T <= 1e-2)
    k2t = RICCI_K2T[near]
    ratio = (rhs - rate)[near] / (kappa ** 4 * t[near])
    bound = a * k2t + b * 1.5 * sys.float_info.epsilon / k2t ** 2
    assert (abs(ratio - 1.0 / 3.0) <= bound).all(), (ratio - 1.0 / 3.0) / bound


def test_record_consistency():
    # each column against its definition from the closed forms and eta, eta'
    sweep = h3.evaluate_records(P1, [2.0])
    eta, etap, i1, i2 = sweep.eta[0], sweep.etap[0], sweep.I1[0], sweep.I2[0]
    assert sweep.t[0] == 2.0
    x, xp = xi_closed(1.0, 2.0)
    assert i1 == h3.I1(P1, 2.0)
    assert i2 == pytest.approx(x * eta, rel=1e-12)
    assert sweep.entropy[0] == pytest.approx(
        1.5 * math.log(4.0 * math.pi) + 1.0 + i1 + i2, rel=1e-12)
    assert sweep.rate_direct[0] == pytest.approx(0.75 + 1.0 + xp * eta + x * etap, rel=1e-12)
    # each envelope is the closed part less its term, bit for bit
    ts = np.array([2.0])
    closed, ((lower, upper), (closed_prime, lower_prime, upper_prime)), _ = h3._closed_parts(
        ts, np.sqrt(ts), h3.moment_factors(1.0, ts), ...)
    assert (sweep.eta_lower[0], sweep.eta_upper[0]) == (closed[0] - lower[0], closed[0] - upper[0])
    assert (sweep.etap_lower[0], sweep.etap_upper[0]) == (closed_prime[0] - lower_prime[0],
                                                          closed_prime[0] - upper_prime[0])
    assert sweep.envelope_ok[0]
    assert sweep.band_ok[0]  # t < 20: trivially fine
    assert h3.evaluate_records(P1, [1.0, 2.0]).t.tolist() == [1.0, 2.0]


def test_evaluate_records_equals_single_records_bit_for_bit():
    # each column of an N-time sweep equals the N one-time sweeps, bit for bit
    times = [float(t) for t in np.geomspace(1e-4, 1e4, 9)]
    for p in (P1, h3.H3Params(0.3)):
        sweep = h3.evaluate_records(p, times)
        alone = [h3.evaluate_records(p, [t]) for t in times]
        assert sweep.kappa == p.kappa
        for name in [f.name for f in fields(sweep) if f.name != "kappa"]:
            together = getattr(sweep, name)
            joined = np.concatenate([getattr(one, name) for one in alone], axis=-1)
            assert together.shape == joined.shape, name
            assert together.tobytes() == joined.tobytes(), name


@pytest.mark.parametrize("count", [0, 1, 7, 40])
def test_sweep_length_is_its_row_count(count):
    times = np.geomspace(0.1, 100.0, count)
    sweep = h3.evaluate_records(P1, times)
    assert len(sweep) == len(times)
    assert sweep.margins.shape == sweep.errors.shape == (len(h3.SIDES), count)


def test_closed_forms_are_elementwise():
    # an array of times gives, element by element, what each float gives
    times = np.geomspace(1e-4, 1e4, 9)
    for p in (P1, h3.H3Params(0.3)):
        for f in (h3.I1, normalization_quadrature, I1_quadrature, entropy_quadrature):
            alone = [f(p, float(t)) for t in times]
            assert all(type(v) is float for v in alone)
            assert f(p, times).tolist() == alone
        with pytest.raises(ValueError):
            h3.I1(p, np.array([1.0, 0.0]))


def test_eta_quadrature_points_equal_their_lone_runs():
    # each point is one case of one batch; a point's value does not depend
    # on the batch it came in, nor on its place there
    p = h3.H3Params(0.7)
    points = [(float(t), prime) for t in np.geomspace(1e-6, 1e9, 16)
              for prime in (False, True)]
    batched = eta_quadrature(p, points)
    assert [eta_quadrature(p, [point])[0] for point in points] == batched
    assert eta_quadrature(p, points[::-1]) == batched[::-1]


def test_oracle_failure_names_its_point(tolerances):
    # no step of the rule meets these tolerances: the first point fails,
    # named by t and kappa
    tolerances(1e-300, 1e-300)
    p = h3.H3Params(0.5)
    with pytest.raises(QuadratureConvergenceError,
                       match=r"^log-weighted sinh integral \(power 3\) at t=3\.0, kappa=0\.5: "
                             r"error estimate"):
        eta_quadrature(p, [(3.0, True), (1.0, False)])


# ---------------------------------------------------------------------------
# the trapezoid rule against its oracles, and the three-valued verdicts


def test_trapezoid_matches_adaptive_oracle():
    k2t = np.geomspace(1e-8, 1e12, 41)
    small = np.repeat(k2t <= 1e-4, 2)
    for kappa in (0.25, 1.0, 4.0):
        p = h3.H3Params(kappa)
        sweep = h3.evaluate_records(p, k2t / kappa ** 2)
        points = [(t, prime) for t in sweep.t.tolist() for prime in (False, True)]
        rule = np.stack([sweep.eta, sweep.etap], axis=1).ravel()
        oracle = np.array(eta_quadrature(p, points))
        rel = np.abs(rule - oracle) / oracle
        assert rel[small].max() <= 2e-12, kappa
        assert rel[~small].max() <= 5e-14, kappa


def _mp_eta(mp, kappa, t, power):
    """eta (power 1) or eta' (power 3) times exp(-kappa^2 t/2), at mpmath
    precision, in the shifted variable of the module docstring."""
    k, t = mp.mpf(kappa), mp.mpf(t)
    st = mp.sqrt(t)

    def f(s):
        r = k * t + st * s
        x = abs(k * r)
        weight = mp.log(mp.sinh(x) / x) if x else mp.mpf(0)
        return mp.exp(-s * s / 2) * r ** power * weight

    edge = -k * st  # r = 0
    cuts = [-mp.inf, edge, 0, mp.inf] if edge > -40 else [-mp.inf, 0, mp.inf]
    value = st / 2 * mp.quad(f, cuts)
    return value if power == 1 else value / (2 * t * t)


def test_eta_and_rate_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for kappa in (0.3, 2.7):
            p = h3.H3Params(kappa)
            for k2t in (1.0, 1e3, 1e6, 1e9, 1e12):
                t = k2t / kappa ** 2
                sweep = h3.evaluate_records(p, [t])
                e, ep, rate_direct = (float(c[0]) for c in (sweep.eta, sweep.etap,
                                                            sweep.rate_direct))
                exact, exact_prime = _mp_eta(mp, kappa, t, 1), _mp_eta(mp, kappa, t, 3)
                assert abs(e - exact) <= 2e-15 * exact, (kappa, k2t)
                assert abs(ep - exact_prime) <= 2e-15 * exact_prime, (kappa, k2t)
                k, tt = mp.mpf(kappa), mp.mpf(t)
                xi = mp.sqrt(2 / mp.pi) / (k * tt ** 1.5)
                xi_prime = -(k * k * tt + 3) / (mp.sqrt(2 * mp.pi) * k * tt ** 2.5)
                rate = 1.5 / tt + k * k + xi_prime * exact + xi * exact_prime
                assert abs(rate_direct - rate) <= 1e-14 * rate, (kappa, k2t)


# Relative errors of eta and eta' allowed below kappa^2 t = 1, about twice
# the largest measured against mpmath over kappa in {0.3, 1, 2.7}: the odd
# part of r L(kappa |r|) cancels around r = 0, so digits go as kappa^2 t falls
# (at kappa = 1: 7e-13 at 1e-10, 6.3e-14 at 1e-8 and 1.1e-14 at 1e-4; the
# largest at 1e-10 is 1.9e-12, 40 digits, and below 1e-10 ``evaluate_records``
# refuses the time).
SMALL_KAPPA2T_TOLERANCES = {1e-10: 4e-12, 1e-8: 2.5e-12, 1e-6: 2e-13, 1e-4: 2.5e-14,
                            1e-2: 3e-15}


def test_eta_and_rate_below_kappa2t_1_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for kappa in (0.3, 1.0, 2.7):
            p = h3.H3Params(kappa)
            for k2t, tolerance in SMALL_KAPPA2T_TOLERANCES.items():
                t = k2t / kappa ** 2
                sweep = h3.evaluate_records(p, [t])
                e, ep, rate_direct = (float(c[0]) for c in (sweep.eta, sweep.etap,
                                                            sweep.rate_direct))
                exact, exact_prime = _mp_eta(mp, kappa, t, 1), _mp_eta(mp, kappa, t, 3)
                assert abs(e - exact) <= tolerance * exact, (kappa, k2t)
                assert abs(ep - exact_prime) <= tolerance * exact_prime, (kappa, k2t)
                k, tt = mp.mpf(kappa), mp.mpf(t)
                xi = mp.sqrt(2 / mp.pi) / (k * tt ** 1.5)
                xi_prime = -(k * k * tt + 3) / (mp.sqrt(2 * mp.pi) * k * tt ** 2.5)
                rate = 1.5 / tt + k * k + xi_prime * exact + xi * exact_prime
                assert abs(rate_direct - rate) <= 1e-15 * rate, (kappa, k2t)


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.7])
def test_times_below_the_kappa2t_floor_are_refused(kappa):
    # the first requested time below kappa^2 t = 1e-10 is named, whatever its place
    p = h3.H3Params(kappa)
    below = 1e-11 / kappa ** 2
    for times in ([below], [1.0, below, 0.5 * below], [below, 1.0]):
        with pytest.raises(ValueError, match=re.escape(
                f"t={below!r} puts kappa^2 t below 1e-10, where eta and eta' lose digits")):
            h3.evaluate_records(p, times)


def test_closed_form_terms_against_mpmath():
    # closed, lower and upper terms of eta and eta' against the paper's
    # envelopes in the moments M_m of sinh at 60 digits:
    #   eta:  kappa M_2, M_1 log(2 kappa^2 t + 4), M_1 log(1 + kappa M_1/M_0)
    #   eta': kappa M_4/(2t^2), M_3/(2t^2) log(1 + 2 kappa M_4/M_3),
    #         M_3/(2t^2) log(1 + kappa M_3/M_2)
    mp = pytest.importorskip("mpmath")
    k2t = np.geomspace(1e-8, 1e14, 45)
    with mp.workdps(60):
        for kappa in (0.3, 1.0, 2.7):
            p = h3.H3Params(kappa)
            times = k2t / kappa ** 2
            closed, ((lower, upper), eta_prime_terms), _ = h3._closed_parts(
                times, kappa * np.sqrt(times), h3.moment_factors(kappa, times), ...)
            terms = (closed, lower, upper) + eta_prime_terms
            for i, t in enumerate(times.tolist()):
                k, tt = mp.mpf(kappa), mp.mpf(t)
                m0, m1, m2, m3, m4 = (mp_scaled_moment(mp, m, kappa, t)
                                      for m in range(5))
                scale = 1 / (2 * tt * tt)
                exact = (k * m2, m1 * mp.log(2 * k * k * tt + 4), m1 * mp.log1p(k * m1 / m0),
                         k * m4 * scale, m3 * scale * mp.log1p(2 * k * m4 / m3),
                         m3 * scale * mp.log1p(k * m3 / m2))
                for j, (column, value) in enumerate(zip(terms, exact)):
                    assert abs(float(column[i]) - value) <= 2e-15 * value, (j, kappa, t)


def test_verdicts_resolved_inside_up_to_kappa2t_1e12():
    assert h3.SIDES == ("eta lower", "eta upper", "eta' lower", "eta' upper")
    for kappa in (0.3, 1.0, 2.7):
        p = h3.H3Params(kappa)
        times = [float(x) / kappa ** 2 for x in np.geomspace(1e-8, 1e12, 61)]
        sweep = h3.evaluate_records(p, times)
        states = h3.verdict_states(sweep.margins, sweep.errors)
        outside = np.flatnonzero(~np.all(states == "inside", axis=0))
        assert outside.size == 0, (kappa, sweep.t[outside])
        assert sweep.envelope_ok.all()


def test_verdict_states():
    # elementwise over arrays; a margin equal to its error, either sign, is unresolved
    margin = np.array([3e-16, -3e-16, 1e-16, -1e-16, -5e-17, 0.0, math.nan])
    error = np.array([1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 0.0, 1e-16])
    assert h3.verdict_states(margin, error).tolist() == [
        "inside", "outside", "unresolved", "unresolved", "unresolved", "unresolved",
        "unresolved"]
    assert h3.verdict_states(margin.reshape(7, 1), error.reshape(7, 1)).shape == (7, 1)
    assert h3.verdict_states(np.nextafter(1e-16, 1.0), 1e-16) == "inside"
    assert h3.verdict_states(-np.nextafter(1e-16, 1.0), 1e-16) == "outside"


def test_unconverged_rule_raises(tolerances):
    # an estimate |I_h - I_2h| above the tolerance is an error, never a value
    tolerances(1e-18, 1e-30)
    with pytest.raises(QuadratureConvergenceError, match="power 1"):
        h3.evaluate_records(P1, [8.0])


def test_first_unconverged_integral_in_row_order_raises(tolerances):
    # at a tolerance no rule meets every integral fails, eta(t) first
    tolerances(1e-300, 1e-300)
    with pytest.raises(QuadratureConvergenceError, match=r"\(power 1\) at t=0\.5:"):
        h3.evaluate_records(P1, [0.5, 1.0])


def test_node_sum_overflow_is_refused_before_the_convergence_check():
    # kappa^2 t is finite, but r^3 overflows on the nodes at t = 1e300 (its
    # estimate is nan, a convergence failure were it not refused first); at
    # kappa = 1e100 the eta' sum of r^3 G over the nodes overflows from
    # t = 26.8 on, where r^3 alone is only 1.9e304
    p = h3.H3Params(1e100)
    for params, times, first in ((P1, [1.0, 1e300, 2e300], 1e300),
                                 (p, [26.7, 26.9, 35.0], 26.9)):
        with pytest.raises(ValueError, match=re.escape(
                f"t={first!r} leaves the double range: a node sum of eta or eta' overflows")):
            h3.evaluate_records(params, times)
    # the refusal is where the sum itself overflows
    with np.errstate(over="ignore"):
        _, sums, _ = h3._trapezoid(p, np.array([26.7, 26.9]), 2)  # eta, eta, eta', eta'
    assert math.isfinite(sums[2]) and sums[3] == math.inf


def test_kappa2t_overflow_is_refused_before_any_integral():
    # kappa^2 overflows; then only the t + h row of the last time does
    with pytest.raises(ValueError, match=r"^t=0\.5 leaves the double range: kappa\^2 t "
                                         r"overflows$"):
        h3.evaluate_records(h3.H3Params(1e200), [0.5, 1.0])
    t = 1.7976e308
    with pytest.raises(ValueError, match=re.escape(f"t={t!r} leaves the double range: kappa")):
        h3.evaluate_records(P1, [1.0, t])


def test_times_past_double_range_are_refused():
    # below t ~ 1e-123, xi' = -(kappa^2 t + 3)/(sqrt(2 pi) kappa t^2.5) overflows
    for t in (1e-125, 1e-130, 1e-300):
        with pytest.raises(ValueError, match=f"t={t!r}"):
            h3.evaluate_records(P1, [1.0, t])
    # t = 1e-120 is inside the double range: at kappa = 1 the kappa^2 t floor
    # refuses it, and at kappa^2 t = 1e-10 it is finite
    with pytest.raises(ValueError, match=r"^t=1e-120 puts kappa\^2 t below 1e-10"):
        h3.evaluate_records(P1, [1e-120])
    assert math.isfinite(h3.evaluate_records(h3.H3Params(1e55), [1e-120]).rate_direct[0])


_DOUBLE_RANGE = "leaves the double range: "


@pytest.mark.parametrize("kappa, times, message", [
    # each refusal, and each one raised before any later one that also applies
    (1e200, [0.5, -1.0], "t must be positive and finite"),
    (1e200, [0.5, 1.0], "t=0.5 " + _DOUBLE_RANGE + "kappa^2 t overflows"),
    (1.0, [1.0, 1e300, 2e300],
     "t=1e+300 " + _DOUBLE_RANGE + "a node sum of eta or eta' overflows"),
    (1e78, [1.0, 1e-130],
     "t=1e-130 " + _DOUBLE_RANGE + "xi, xi' or the eta' scale 1/(2t^2) overflows or underflows"),
    (1e78, [1e-20, 1.0],
     "a moment factor F_0 to F_4 overflows at kappa = 1e+78, t = 1.0"),
    (1e78, [1e-20],
     "t=1e-20 " + _DOUBLE_RANGE + "a closed part, envelope term or margin is not finite"),
    (1e40, [1e61],
     "t=1e+61 " + _DOUBLE_RANGE + "a closed part, envelope term or margin is not finite"),
    (1e40, [1e61, 1e-130],
     "t=1e-130 " + _DOUBLE_RANGE + "xi, xi' or the eta' scale 1/(2t^2) overflows or underflows"),
])
def test_evaluate_records_refusals_in_order(kappa, times, message):
    with pytest.raises(ValueError) as raised:
        h3.evaluate_records(h3.H3Params(kappa), times)
    assert str(raised.value) == message


@pytest.mark.parametrize("times, message", [
    ([0.5, 1e-130], "log-weighted sinh integral (power 1) at t=0.5: error estimate 5.551e-17 "
                    "on 153 nodes"),
    ([1e-130, 0.5], "log-weighted sinh integral (power 1) at t=1e-130: error estimate "
                    "1.052e-211 on 153 nodes")])
def test_unconverged_rule_is_refused_before_the_range_of_xi(times, message, tolerances):
    tolerances(1e-300, 1e-300)
    with pytest.raises(QuadratureConvergenceError) as raised:
        h3.evaluate_records(P1, times)
    assert str(raised.value) == message


@pytest.mark.parametrize("count", [1, 63, 64, 65, 6000])
def test_blocked_trapezoid_rows_equal_lone_rows(count):
    # the kernel runs in blocks of _BLOCK_ROWS rows; at every row count, on
    # shuffled rows that put both branches and mixed blocks on either side of
    # each block boundary, each row's sums and estimates are its lone ones
    assert h3._BLOCK_ROWS == 64
    p = h3.H3Params(0.8)
    ts = np.random.default_rng(count).permutation(np.geomspace(1e-8, 1e12, count)) / 0.64
    n = (count + 2) // 3
    mask, fine, estimate = h3._trapezoid(p, ts, n)
    assert fine.shape == estimate.shape == (count + n,)
    for i, t in enumerate(ts.tolist()):
        lone_mask, lone_fine, lone_estimate = h3._trapezoid(p, np.array([t]), int(i < n))
        rows = [i, count + i] if i < n else [i]
        assert mask[i] == lone_mask[0]
        assert fine[rows].tobytes() == lone_fine.tobytes(), (count, i)
        assert estimate[rows].tobytes() == lone_estimate.tobytes(), (count, i)


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_kernel_refuses_a_non_finite_distance(d):
    with pytest.raises(ValueError, match="d must be nonnegative and finite"):
        heat_kernel(P1, 1.0, d)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_times_are_refused(t):
    for call in (lambda: h3.evaluate_records(P1, [1.0, t]),
                 lambda: h3.I1(P1, t),
                 lambda: h3.I1(P1, np.array([1.0, t])),
                 lambda: heat_kernel(P1, t, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_extreme_exponential_scale():
    # kappa^2 t = 3600: eta itself is about exp(1800), far past double range;
    # the fixed-scale floats and the peak-aware quadrature must keep the
    # whole pipeline exact
    p = h3.H3Params(6.0)
    t = 100.0
    assert normalization_quadrature(p, t) == pytest.approx(1.0, abs=1e-8)
    sweep = h3.evaluate_records(p, [t])
    assert sweep.envelope_ok[0]
    lo, hi = h3.asymptotic_band(p)
    assert lo - 0.05 * 36.0 <= sweep.rate_direct[0] <= hi + 0.05 * 36.0
    eta = sweep.eta[0]
    assert math.isfinite(eta) and eta > 0.0
    assert sweep.eta_lower[0] < eta < sweep.eta_upper[0]


# ---------------------------------------------------------------------------
# the trapezoid kernel against a frozen copy of its straightforward form:
# every node value and both rules of each row, bit for bit

_FROZEN_POLY = h3._LOG_SINH_RATIO_POLY


def frozen_poly(x2):
    """log(sinh x / x) at x^2 = x2 by Horner's rule over the 10 fitted terms."""
    poly = np.zeros_like(x2)
    for c in _FROZEN_POLY:
        poly = poly * x2 + c
    return poly * x2


def frozen_log_sinh_ratio(xs):
    small = xs <= 1.0
    if small.all():
        return frozen_poly(xs * xs)
    out = xs + np.log(-np.expm1(-2.0 * xs) / (2.0 * xs))
    if small.any():
        near = xs[small]
        out[small] = frozen_poly(near * near)
    return out


def frozen_trapezoid(p, ts, n):
    k = p.kappa
    remainder = k * k * ts >= 100.0
    r = (k * ts)[:, None] + np.sqrt(ts)[:, None] * h3._NODES
    x = k * r
    f = np.empty(r.shape)
    f[~remainder] = frozen_log_sinh_ratio(np.abs(x[~remainder]))
    far = x[remainder]
    f[remainder] = np.log(2.0 * far) - np.log(-np.expm1(-2.0 * far))
    near = r[:n]
    rules = []
    for weighted in (f * (r * h3._GAUSS), f[:n] * ((near * near * near) * h3._GAUSS)):
        fine = h3._STEP * weighted.sum(axis=1)
        rules.append((fine, np.abs(fine - 2.0 * h3._STEP * weighted[:, ::2].sum(axis=1))))
    return remainder, rules


def assert_kernel_is_frozen(p, ts, n):
    with np.errstate(all="ignore"):
        mask, fine, estimate = h3._trapezoid(p, ts, n)
        frozen_mask, frozen_rules = frozen_trapezoid(p, ts, n)
    assert mask.tolist() == frozen_mask.tolist()
    rules = [(fine[:ts.size], estimate[:ts.size]), (fine[ts.size:], estimate[ts.size:])]
    for got, want in zip(rules, frozen_rules):
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (p.kappa, ts, n)


def fd_rows(k2t, kappa):
    """evaluate_records' rows t, t + h, t - h for the times at these kappa^2 t."""
    grid = np.asarray(k2t, dtype=float) / kappa ** 2
    return np.concatenate([grid, grid + 1e-4 * grid, grid - 1e-4 * grid])


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("k2t", [
    [],  # count 0
    [3e-9],  # count 1, polynomial only
    [2e5],  # count 1, remainder only, every x past _UNIT_FROM
    np.geomspace(1e-8, 1e-7, 7),  # x below about 0.003
    np.geomspace(1e-3, 1e-2, 7),  # x up to about 0.96
    np.geomspace(0.1, 50.0, 9),  # polynomial and closed form in one row
    np.geomspace(30.0, 300.0, 9),  # straddling kappa^2 t = 100
    [100.0, np.nextafter(100.0, 0.0), 100.0 * (1 + 1e-4), 99.99],
    np.geomspace(100.0, 700.0, 9),  # remainder rows with x on both sides of _UNIT_FROM
    np.geomspace(1e3, 1e12, 9),
])
def test_trapezoid_equals_frozen_kernel_at_its_boundaries(kappa, k2t):
    ts = fd_rows(k2t, kappa)
    for n in sorted({0, 1, len(k2t)}):
        if n <= ts.size:
            assert_kernel_is_frozen(h3.H3Params(kappa), ts, n)


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_node_weights_equal_their_frozen_forms(kappa):
    # the sums above barely feel the far nodes, so pin every node value too
    for k2t, remainder in ((np.geomspace(1e-8, 99.0, 30), False),
                           (np.geomspace(100.0, 1e4, 30), True)):
        ts = fd_rows(k2t, kappa)
        x = kappa * ((kappa * ts)[:, None] + np.sqrt(ts)[:, None] * h3._NODES)
        with np.errstate(all="ignore"):
            if remainder:
                assert x[:, 0].min() < h3._UNIT_FROM < x[:, 0].max()
                got = h3._remainder_weight(x.copy())
                want = np.log(2.0 * x) - np.log(-np.expm1(-2.0 * x))
            else:
                got = h3._log_sinh_ratio(np.abs(x))
                want = frozen_log_sinh_ratio(np.abs(x))
        assert got.tobytes() == want.tobytes(), (kappa, remainder)


@pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 0.74, 0.75, 0.9, 0.999, 1.0])
def test_log_sinh_ratio_branches_equal_their_frozen_form(share):
    # at each share of elements x <= 1 (x = 0 and x = 1 among them), whether
    # the closed form runs on the large elements alone (a share of at least
    # three quarters) or on every element, each element keeps its bits
    rng = np.random.default_rng(round(1000 * share))
    count = round(share * 1000)
    small = np.concatenate([[0.0, 1.0][:count], rng.uniform(0.0, 1.0, max(0, count - 2))])
    x = rng.permutation(np.concatenate([small, rng.uniform(1.0, 60.0, 1000 - count)]))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = frozen_log_sinh_ratio(x.copy())
    assert h3._log_sinh_ratio(x.copy()).tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kappa=st.floats(0.05, 20.0), logs=st.lists(st.floats(-9.0, 13.0), max_size=12),
       window=st.floats(-9.0, 12.0), fd=st.booleans(), data=st.data())
def test_trapezoid_equals_frozen_kernel(kappa, logs, window, fd, data):
    # rows at arbitrary kappa^2 t in any order, or a one-decade window of them
    k2t = 10.0 ** np.array(logs) if logs else np.geomspace(10.0 ** window, 10.0 ** (window + 1), 40)
    ts = fd_rows(k2t, kappa) if fd else k2t / kappa ** 2
    n = data.draw(st.integers(0, min(ts.size, 40)))
    assert_kernel_is_frozen(h3.H3Params(kappa), ts, n)


def test_expm1_is_exactly_minus_one_from_unit_from_on():
    # the premise of skipping log(-expm1(-2x)) in the remainder weight
    x = np.concatenate([np.linspace(h3._UNIT_FROM, 3.0 * h3._UNIT_FROM, 200001),
                        np.geomspace(3.0 * h3._UNIT_FROM, 1e300, 2000)])
    assert np.all(-np.expm1(-2.0 * x) == 1.0)
    assert np.log(np.ones(5)).tolist() == [0.0] * 5
