import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_moment, mp_scaled_moment
from heatent.quadrature import integrate_batch
from heatent.h3entropy import (
    _LOG_SINH_RATIO_POLY,
    _LOG_SINH_RATIO_SWITCH,
    log_sinh_ratio,
    moment_factors,
)
from heatent.verify import _direct_moment_integrand, sinh_ratio_bounds_check

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

ALL_MOMENTS = range(5)  # the powers m of the sinh moments


def alpha(kappa, t):
    """F_0 of the moment table, the truncated half-Gaussian mass: the
    integral of exp(-r^2/2) over [0, kappa sqrt(t)], as a float."""
    return float(moment_factors(kappa, t)[0])


def direct_moments(cases):
    """verify's direct path: M(m) at each (m, kappa, t), times exp(-kappa^2 t/2)."""
    powers, kappas, ts = np.array(cases, dtype=float).T
    values, _ = integrate_batch(_direct_moment_integrand, kappas * ts, np.sqrt(ts),
                                (powers, kappas, ts), "case {}".format)
    return values.tolist()


# ---------------------------------------------------------------------------
# erf / alpha


def test_erf_against_quadrature_oracle(tolerances):
    tolerances(1e-13, 1e-16)
    # alpha(kappa, t) = sqrt(pi/2) erf(x) at x = kappa sqrt(t/2), and
    # erf(x) = 1 - (2/sqrt(pi)) * integral_0^inf exp(-(x+u)^2) du
    for kappa, x in zip((0.5, 1.0, 2.0) * 3, (0.25, 0.8, 1.5, 2.5, 3.7, 4.5, 6.0)):
        [tail], _ = integrate_batch(lambda u: np.exp(-((x + u) ** 2)), [0.0], [1.0], (),
                                    lambda i: "erf tail")
        oracle = SQRT_HALF_PI * (1.0 - 2.0 / math.sqrt(math.pi) * tail)
        t = 2.0 * (x / kappa) ** 2
        assert alpha(kappa, t) == pytest.approx(oracle, rel=1e-11)


def test_alpha_limits():
    assert alpha(1.0, 1e-12) == pytest.approx(0.0, abs=1e-6)
    assert alpha(1.0, 1e6) == pytest.approx(SQRT_HALF_PI, rel=1e-12)
    # strictly monotone until erf saturates at double precision (~t = 67)
    grid = np.geomspace(1e-3, 30.0, 30)
    values = [alpha(1.0, float(t)) for t in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert max(values) < SQRT_HALF_PI + 1e-15


def test_alpha_value_against_oracle():
    # frozen from the quadrature oracle sqrt(pi/2) - integral of the right tail
    assert alpha(1.0, 1.0) == pytest.approx(0.8556243918921487, rel=1e-12)


def test_alpha_domain():
    with pytest.raises(ValueError):
        alpha(0.0, 1.0)
    with pytest.raises(ValueError):
        alpha(1.0, 0.0)
    with pytest.raises(ValueError):
        moment_factors(1.0, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# moment table


# each function of the moment table, called at (kappa, t)
DOMAIN_CALLS = {
    "alpha": alpha,
    "moment_factors": lambda kappa, t: moment_factors(kappa, np.array([1.0, t])),
    "closed_form": lambda kappa, t: closed_moment(2, kappa, t),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", ["kappa", "t"])
@pytest.mark.parametrize("name", sorted(DOMAIN_CALLS))
def test_moment_functions_refuse_non_finite_arguments(name, argument, value):
    kappa, t = (value, 1.0) if argument == "kappa" else (1.0, value)
    with pytest.raises(ValueError, match="finite kappa"):
        DOMAIN_CALLS[name](kappa, t)


def test_moment_factors_refuse_overflow():
    with pytest.raises(ValueError, match=r"^a moment factor F_0 to F_4 overflows at "
                                         r"kappa = 1e\+200, t = 1e\+200$"):
        moment_factors(1e200, 1e200)
    with pytest.raises(ValueError, match=r"kappa = 1e\+50, t = 1e\+100$"):
        moment_factors(1e50, np.array([1.0, 1e100]))


def test_moment_closed_form_examples():
    # each moment comes back times exp(-kappa^2 t/2)
    v = closed_moment(1, 1.0, 1.0)
    assert v * math.exp(0.5) == pytest.approx(SQRT_HALF_PI * math.exp(0.5), rel=1e-14)
    v = closed_moment(3, 1.0, 1.0)
    assert v * math.exp(0.5) == pytest.approx(4.0 * SQRT_HALF_PI * math.exp(0.5), rel=1e-14)


def test_moment_table_against_mpmath():
    # every entry t^{(m+1)/2} F_m(kappa sqrt t) against the two Gaussian
    # partial moments at 50 digits, from x = kappa sqrt t = 1e-6 to 1e7
    mp = pytest.importorskip("mpmath")
    x = np.geomspace(1e-6, 1e7, 27)
    with mp.workdps(50):
        for kappa in (0.3, 1.0, 2.7):
            times = (x / kappa) ** 2
            for moment in ALL_MOMENTS:
                closed = closed_moment(moment, kappa, times)
                for t, value in zip(times.tolist(), closed.tolist()):
                    exact = mp_scaled_moment(mp, moment, kappa, t)
                    assert abs(value - exact) <= 2e-15 * exact, (moment, kappa, t)


def test_moment_no_overflow_at_large_scale():
    # kappa^2 t = 400: the plain value would be ~exp(200); both paths return
    # it times exp(-200) and agree without ever materialising it
    closed = closed_moment(3, 2.0, 100.0)
    [direct] = direct_moments([(3, 2.0, 100.0)])
    assert math.isfinite(closed) and math.isfinite(direct)
    rel = abs(closed - direct) / abs(closed)
    assert rel < 4e-15


def test_shifted_moments_at_a_far_peak():
    # kappa sqrt t = 1e60: the peak kappa t sits 1e60 widths past r = 0, and
    # the direct path keeps the mass on both sides of it (M(4) overflows here)
    for m in range(4):
        [direct] = direct_moments([(m, 1e30, 1e60)])
        assert direct == pytest.approx(closed_moment(m, 1e30, 1e60), rel=1e-14), m


# ---------------------------------------------------------------------------
# log sinh ratio


def test_log_sinh_ratio_basics():
    assert log_sinh_ratio(0.0) == 0.0
    assert log_sinh_ratio(1.0) == pytest.approx(math.log(math.sinh(1.0)), rel=1e-14)
    assert log_sinh_ratio(700.0) == pytest.approx(700.0 - math.log(1400.0), rel=1e-14)


def test_log_sinh_ratio_matches_naive_at_moderate_x():
    for x in (0.5, 2.0, 10.0, 30.0):
        assert log_sinh_ratio(x) == pytest.approx(
            math.log(math.sinh(x) / x), rel=1e-13)


def test_log_sinh_ratio_branch_agreement():
    switch = _LOG_SINH_RATIO_SWITCH
    poly = log_sinh_ratio(switch)  # the polynomial branch includes the switch
    log_form = switch + math.log(-math.expm1(-2.0 * switch) / (2.0 * switch))
    assert poly == pytest.approx(log_form, abs=1e-12)
    # continuity across the threshold, between its two neighbouring doubles
    assert log_sinh_ratio(math.nextafter(switch, 0.0)) == pytest.approx(
        log_sinh_ratio(math.nextafter(switch, 2.0)), rel=1e-14)


def test_log_sinh_ratio_against_mpmath():
    mp = pytest.importorskip("mpmath")

    def exact(x):
        with mp.workdps(40):
            return mp.log(mp.sinh(mp.mpf(x)) / mp.mpf(x))

    # the polynomial branch, within 2.5 ulp: uniform and log-uniform in x,
    # and both neighbours of the switch
    rng = np.random.default_rng(0)
    switch = _LOG_SINH_RATIO_SWITCH
    xs = np.concatenate([rng.uniform(0.0, 1.0, 1000), 10.0 ** rng.uniform(-8.0, 0.0, 1000),
                         [math.nextafter(switch, 0.0), switch, math.nextafter(switch, 2.0)]])
    for x, got in zip(xs.tolist(), log_sinh_ratio(xs).tolist()):
        want = exact(x)
        assert abs(mp.mpf(got) - want) <= 2.5 * math.ulp(float(want)), x
    # both branches, within 2e-15 relative
    grid = np.geomspace(1e-3, 2.0, 400)
    for x, got in zip(grid.tolist(), log_sinh_ratio(grid).tolist()):
        want = exact(x)
        assert abs((mp.mpf(got) - want) / want) <= 2e-15, x


def test_log_sinh_ratio_poly_is_its_fit():
    # the literals are mpmath's 10-term Chebyshev fit of
    # log(sinh sqrt(y) / sqrt(y)) / y on [0, 1] at 40 digits, bit for bit
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        poly, error = mp.chebyfit(lambda y: mp.log(mp.sinh(mp.sqrt(y)) / mp.sqrt(y)) / y,
                                  [0, 1], 10, error=True)
    assert float(error) < 2e-18
    assert [float(c).hex() for c in poly] == [c.hex() for c in _LOG_SINH_RATIO_POLY]


def test_log_sinh_ratio_monotone_nonnegative():
    grid = np.geomspace(1e-8, 1e3, 60)
    values = [log_sinh_ratio(float(x)) for x in grid]
    assert all(v >= 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x", [9e307, 1.7976931348623157e308])
def test_log_sinh_ratio_finite_where_2x_overflows(x):
    # 2x overflows from 2^1023 on; log(sinh x / x) = x - log 2x is still x
    # to the last bit there, and no overflow warning escapes
    assert log_sinh_ratio(x) == x - math.log(x) - math.log(2.0) == x
    below = math.nextafter(2.0 ** 1023, 0.0)
    assert log_sinh_ratio(below) == below


def test_log_sinh_ratio_mixed_array_with_huge_elements():
    xs = np.array([0.0, 0.5, 1.0, 3.0, 700.0, 1e300, 9e307, 1.7976931348623157e308])
    got = log_sinh_ratio(xs)
    # the elements below 2^1023 keep every bit they have without the huge ones
    assert got[:-2].tolist() == log_sinh_ratio(xs[:-2]).tolist()
    assert got[-2:].tolist() == [x - math.log(x) - math.log(2.0) for x in xs[-2:].tolist()]


def test_log_sinh_ratio_domain():
    with pytest.raises(ValueError):
        log_sinh_ratio(-1e-9)


# ---------------------------------------------------------------------------
# two-sided sinh ratio bound and its sharpness


def test_bounds_check_values_at_one():
    lo, mid, hi = sinh_ratio_bounds_check(1.0)
    assert lo == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert mid == pytest.approx(-math.expm1(-2.0) / 2.0, rel=1e-15)
    assert hi == pytest.approx(0.5, rel=1e-15)


def test_bounds_check_shared_limit():
    lo, mid, hi = sinh_ratio_bounds_check(1e-9)
    for v in (lo, mid, hi):
        assert v == pytest.approx(1.0, abs=1e-8)


def test_bounds_check_at_hundred():
    lo, mid, hi = sinh_ratio_bounds_check(100.0)
    assert lo == pytest.approx(1.0 / 201.0, rel=1e-12)
    assert mid == pytest.approx(1.0 / 200.0, rel=1e-12)
    assert hi == pytest.approx(1.0 / 101.0, rel=1e-12)


def test_strict_ordering_on_log_grid():
    for r in np.geomspace(1e-6, 1e3, 500):
        lo, mid, hi = sinh_ratio_bounds_check(float(r))
        assert lo < mid < hi, r


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e3))
def test_strict_ordering_property(r):
    lo, mid, hi = sinh_ratio_bounds_check(r)
    assert lo < mid < hi


def test_sharpness_of_lower_comparison():
    # inside (0, (beta-1)/beta) the middle beats 1/(1+beta r); far out it loses
    for beta in (1.25, 1.5, 1.75):
        r_edge = (beta - 1.0) / beta
        for r in np.linspace(r_edge / 50.0, r_edge * (1.0 - 1e-9), 50):
            _, mid, _ = sinh_ratio_bounds_check(float(r))
            assert mid > 1.0 / (1.0 + beta * float(r)), (beta, r)
        assert any(
            sinh_ratio_bounds_check(float(r))[1] < 1.0 / (1.0 + beta * float(r))
            for r in np.geomspace(1.0, 1e3, 50)), beta


def test_log_sandwich():
    for kappa in (0.5, 1.0, 2.0):
        for r in np.geomspace(1e-6, 1e2, 300):
            x = kappa * float(r)
            val = log_sinh_ratio(x)
            assert x - math.log1p(2.0 * x) < val < x - math.log1p(x), (kappa, r)
