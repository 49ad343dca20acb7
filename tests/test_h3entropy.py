import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_scaled_moment
from heatent import h3entropy as h3
from heatent import specfun
from heatent.quadrature import QuadratureConvergenceError, QuadratureSpec, integrate_batch
from heatent.specfun import alpha, log_sinh_ratio

P1 = h3.H3Params(kappa=1.0)
LOG_SQRT2 = 0.5 * math.log(2.0)

# Frozen from the tight-tolerance quadrature oracle (direct integrand path).
ETA_1_1 = 1.176065713266882
ETAP_1_1 = 3.6480132188834977


def unscaled(value, p, t):
    """eta, eta' or an envelope at t as a plain float: the scaled value
    times exp(kappa^2 t/2)."""
    return value * math.exp(0.5 * p.kappa * p.kappa * t)


def xi_value(f, p, t):
    """xi or xi' at t as a plain float: the scaled value times exp(-kappa^2 t/2)."""
    return f(p, t) * math.exp(-0.5 * p.kappa * p.kappa * t)


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
    assert h3.heat_kernel(P1, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_kernel_flat_limit():
    # kappa -> 0 recovers the flat Gaussian kernel
    p = h3.H3Params(kappa=1e-7)
    for d in (0.0, 0.7, 2.0):
        gauss = (2.0 * math.pi) ** -1.5 * math.exp(-0.5 * d * d)
        assert h3.heat_kernel(p, 1.0, d) == pytest.approx(gauss, rel=1e-6)


def test_kernel_domain():
    with pytest.raises(ValueError):
        h3.heat_kernel(P1, 0.0, 1.0)
    with pytest.raises(ValueError):
        h3.heat_kernel(P1, 1.0, -0.1)


def test_normalization_unit_params():
    assert h3.normalization_quadrature(P1, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_normalization_grid():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        for t in (0.1, 1.0, 10.0, 50.0):
            assert h3.normalization_quadrature(p, t) == pytest.approx(
                1.0, abs=1e-8), (kappa, t)


def test_normalization_at_a_far_peak():
    # kappa sqrt t up to 1e75: the mass below the peak r = kappa t is kept
    for t in (1e110, 1e120, 1e150):
        assert h3.normalization_quadrature(P1, t) == pytest.approx(1.0, abs=1e-15), t


def test_radial_mass_matches_kernel_times_shell():
    # the log-combined radial density equals h * 4 pi sinh^2(kr)/k^2 where the
    # naive product is representable
    for kappa, t, r in ((1.0, 1.0, 0.5), (0.5, 2.0, 3.0), (2.0, 0.3, 1.2)):
        p = h3.H3Params(kappa)
        naive = (h3.heat_kernel(p, t, r)
                 * 4.0 * math.pi * math.sinh(kappa * r) ** 2 / kappa ** 2)
        pref = h3._mass_prefactor(p, t)
        assert h3._radial_mass(p, t, r - kappa * t, pref) == pytest.approx(naive, rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms


def test_I1_pinned_values():
    assert h3.I1(P1, 1.0) == 2.0
    assert h3.I1(h3.H3Params(2.0), 0.25) == 2.0


def test_I1_matches_quadrature():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        for t in (0.1, 1.0, 10.0):
            assert h3.I1_quadrature(p, t) == pytest.approx(
                h3.I1(p, t), rel=1e-8)


def test_xi_value():
    expected = math.sqrt(2.0 / math.pi) * math.exp(-0.5)
    assert xi_value(h3.xi, P1, 1.0) == pytest.approx(expected, rel=1e-14)


def test_xi_prime_negative_everywhere():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        for t in np.geomspace(0.01, 100.0, 25):
            assert h3.xi_prime(p, float(t)) < 0.0


def test_xi_prime_matches_finite_difference():
    for t in (0.5, 1.0, 5.0):
        h = 1e-4 * t
        fd = (xi_value(h3.xi, P1, t + h) - xi_value(h3.xi, P1, t - h)) / (2.0 * h)
        assert xi_value(h3.xi_prime, P1, t) == pytest.approx(fd, rel=1e-6)


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
        return r * sinh_weighted * log_sinh_ratio(r)

    [oracle], _ = integrate_batch(direct, [t], [math.sqrt(t)], (), lambda i: "direct eta")
    assert unscaled(h3.evaluate_records(P1, [t]).eta[0], P1, t) == pytest.approx(oracle, rel=1e-8)


def test_eta_integrand_vanishes_at_origin():
    assert log_sinh_ratio(0.0) == 0.0  # r sinh(kr) log(...) -> 0 with it


def test_eta_split_representation_at_large_t():
    # eta(100) carries a factor exp(50); the scaled value leaves it out
    e = h3.evaluate_records(P1, [100.0]).eta[0]
    assert math.isfinite(e) and e > 0.0
    lo, hi = h3.eta_envelope(P1, 100.0)
    assert lo < e < hi


def test_eta_positive_and_inside_envelope():
    e = h3.evaluate_records(P1, [1.0]).eta[0]
    lo, hi = h3.eta_envelope(P1, 1.0)
    assert e > 0.0
    assert lo < e < hi


def test_envelope_ordering_and_containment_on_grid():
    sweep = h3.evaluate_records(P1, np.geomspace(0.1, 100.0, 40))
    for t, eta, etap in zip(sweep.t.tolist(), sweep.eta.tolist(), sweep.etap.tolist()):
        lo, hi = h3.eta_envelope(P1, t)
        assert lo < hi
        assert lo < eta < hi, t
        plo, phi = h3.eta_prime_envelope(P1, t)
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
    p = h3.H3Params(0.5)
    lo, hi = h3.eta_prime_envelope(p, 10.0)
    assert lo < h3.evaluate_records(p, [10.0]).etap[0] < hi


def test_envelope_gap_stays_bounded():
    # xi * (upper - lower) tends to log 2; it must stay below with 5% headroom
    for t in (50.0, 100.0):
        x = h3.xi(P1, t)
        lo, hi = h3.eta_envelope(P1, t)
        assert x * (hi - lo) <= 1.05 * math.log(2.0)


def test_envelope_bracket_contains_rate_cross_term():
    # xi' eta + xi eta' evaluated at envelope corners brackets the true term
    for t in (1.0, 10.0, 50.0, 100.0):
        x = h3.xi(P1, t)
        xp = h3.xi_prime(P1, t)
        lo, hi = h3.eta_envelope(P1, t)
        plo, phi = h3.eta_prime_envelope(P1, t)
        cross = h3.evaluate_records(P1, [t]).rate_direct[0] - 1.5 / t - 1.0
        bracket_lo = xp * hi + x * plo
        bracket_hi = xp * lo + x * phi
        assert bracket_lo <= cross <= bracket_hi, t


# ---------------------------------------------------------------------------
# entropy and its rate


def test_entropy_assembly():
    sweep = h3.evaluate_records(P1, [1.0])
    expected = 1.5 * math.log(2.0 * math.pi) + 0.5 + 2.0 + h3.xi(P1, 1.0) * sweep.eta[0]
    assert sweep.entropy[0] == pytest.approx(expected, rel=1e-14)


def test_entropy_matches_direct_quadrature():
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        sweep = h3.evaluate_records(p, (0.3, 1.0, 5.0))
        for t, entropy in zip(sweep.t.tolist(), sweep.entropy.tolist()):
            assert entropy == pytest.approx(h3.entropy_quadrature(p, t), rel=1e-6)


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


def test_record_consistency():
    # each column against its definition from the closed forms and eta, eta'
    sweep = h3.evaluate_records(P1, [2.0])
    eta, etap, i1, i2 = sweep.eta[0], sweep.etap[0], sweep.I1[0], sweep.I2[0]
    assert sweep.t[0] == 2.0
    assert i1 == h3.I1(P1, 2.0)
    assert i2 == pytest.approx(h3.xi(P1, 2.0) * eta, rel=1e-12)
    assert sweep.entropy[0] == pytest.approx(
        1.5 * math.log(4.0 * math.pi) + 1.0 + i1 + i2, rel=1e-12)
    assert sweep.rate_direct[0] == pytest.approx(
        0.75 + 1.0 + h3.xi_prime(P1, 2.0) * eta + h3.xi(P1, 2.0) * etap, rel=1e-12)
    assert (sweep.eta_lower[0], sweep.eta_upper[0]) == h3.eta_envelope(P1, 2.0)
    assert (sweep.etap_lower[0], sweep.etap_upper[0]) == h3.eta_prime_envelope(P1, 2.0)
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
        for f in (h3.I1, h3.xi, h3.xi_prime, lambda p, t: alpha(p.kappa, t),
                  h3.normalization_quadrature, h3.I1_quadrature, h3.entropy_quadrature):
            alone = [f(p, float(t)) for t in times]
            assert all(type(v) is float for v in alone)
            assert f(p, times).tolist() == alone
        for f in (h3.eta_envelope, h3.eta_prime_envelope):
            alone = [f(p, float(t)) for t in times]
            assert all(type(v) is float for pair in alone for v in pair)
            lower, upper = f(p, times)
            assert list(zip(lower.tolist(), upper.tolist())) == alone
        with pytest.raises(ValueError):
            h3.xi(p, np.array([1.0, 0.0]))


def test_eta_quadrature_points_equal_their_lone_runs():
    # each point's two shifted halves are cases of one batch; a point's value
    # does not depend on the batch it came in, nor on its place there
    p = h3.H3Params(0.7)
    points = [(float(t), prime) for t in np.geomspace(1e-6, 1e9, 16)
              for prime in (False, True)]
    batched = h3.eta_quadrature(p, points)
    assert [h3.eta_quadrature(p, [point])[0] for point in points] == batched
    assert h3.eta_quadrature(p, points[::-1]) == batched[::-1]


def test_oracle_failure_names_its_point():
    # no step of the rule meets these tolerances: the first point fails,
    # named by t and kappa
    p = h3.H3Params(0.5, QuadratureSpec(relative_tolerance=1e-300, absolute_tolerance=1e-300))
    with pytest.raises(QuadratureConvergenceError,
                       match=r"^log-weighted sinh integral \(power 3\) at t=3\.0, kappa=0\.5: "
                             r"error estimate"):
        h3.eta_quadrature(p, [(3.0, True), (1.0, False)])


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
        oracle = np.array(h3.eta_quadrature(p, points))
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
            eta_terms, eta_prime_terms, _ = h3._closed_forms(p, times)
            terms = eta_terms + eta_prime_terms
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


def test_unconverged_rule_raises():
    # an estimate |I_h - I_2h| above the tolerance is an error, never a value
    strict = h3.H3Params(1.0, QuadratureSpec(relative_tolerance=1e-18,
                                             absolute_tolerance=1e-30))
    with pytest.raises(QuadratureConvergenceError, match="power 1"):
        h3.evaluate_records(strict, [8.0])


def test_first_unconverged_integral_in_row_order_raises():
    # at a tolerance no rule meets every integral fails, eta(t) first
    unmet = h3.H3Params(1.0, QuadratureSpec(relative_tolerance=1e-300, absolute_tolerance=1e-300))
    with pytest.raises(QuadratureConvergenceError, match=r"\(power 1\) at t=0\.5:"):
        h3.evaluate_records(unmet, [0.5, 1.0])


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
        _, (_, (sums, _)) = h3._trapezoid(p, np.array([26.7, 26.9]), 2)
    assert math.isfinite(sums[0]) and sums[1] == math.inf


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
    assert math.isfinite(h3.evaluate_records(P1, [1e-120]).rate_direct[0])


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_kernel_refuses_a_non_finite_distance(d):
    with pytest.raises(ValueError, match="d must be nonnegative and finite"):
        h3.heat_kernel(P1, 1.0, d)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_times_are_refused(t):
    for call in (lambda: h3.evaluate_records(P1, [1.0, t]),
                 lambda: h3.I1(P1, t),
                 lambda: h3.xi(P1, np.array([1.0, t])),
                 lambda: h3.heat_kernel(P1, t, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_extreme_exponential_scale():
    # kappa^2 t = 3600: eta itself is about exp(1800), far past double range;
    # the fixed-scale floats and the peak-aware quadrature must keep the
    # whole pipeline exact
    p = h3.H3Params(6.0)
    t = 100.0
    assert h3.normalization_quadrature(p, t) == pytest.approx(1.0, abs=1e-8)
    sweep = h3.evaluate_records(p, [t])
    assert sweep.envelope_ok[0]
    lo, hi = h3.asymptotic_band(p)
    assert lo - 0.05 * 36.0 <= sweep.rate_direct[0] <= hi + 0.05 * 36.0
    eta = sweep.eta[0]
    assert math.isfinite(eta) and eta > 0.0
    assert sweep.eta_lower[0] < eta < sweep.eta_upper[0]


def test_custom_quadrature_spec_threads_through():
    loose = h3.H3Params(1.0, QuadratureSpec(relative_tolerance=1e-6,
                                            absolute_tolerance=1e-10))
    assert h3.evaluate_records(loose, [1.0]).entropy[0] == pytest.approx(
        h3.evaluate_records(P1, [1.0]).entropy[0], rel=1e-5)


# ---------------------------------------------------------------------------
# the trapezoid kernel against a frozen copy of its straightforward form:
# every node value and both rules of each row, bit for bit

_FROZEN_POLY = specfun._LOG_SINH_RATIO_POLY


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
        mask, rules = h3._trapezoid(p, ts, n)
        frozen_mask, frozen_rules = frozen_trapezoid(p, ts, n)
    assert mask.tolist() == frozen_mask.tolist()
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
                got = specfun._log_sinh_ratio(np.abs(x))
                want = frozen_log_sinh_ratio(np.abs(x))
        assert got.tobytes() == want.tobytes(), (kappa, remainder)


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
