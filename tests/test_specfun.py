import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_scaled_moment
from heatent.quadrature import QuadratureConvergenceError, QuadratureSpec, integrate_batch
from heatent.specfun import (
    _LOG_SINH_RATIO_SWITCH,
    HyperbolicMoment,
    alpha,
    hyperbolic_moment_closed_form,
    hyperbolic_moment_quadratures,
    log_sinh_ratio,
    sinh_ratio_bounds_check,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
TIGHT = QuadratureSpec(relative_tolerance=1e-13, absolute_tolerance=1e-16)

ALL_MOMENTS = [HyperbolicMoment(m, "sinh") for m in range(5)] + [
    HyperbolicMoment(m, "cosh") for m in range(4)]


def stable_moment_integrand(kappa, t, moment):
    """Direct-quadrature oracle integrand with the exponentials combined."""
    at_zero = 1.0 if (moment.kind == "cosh" and moment.power == 0) else 0.0

    def f(r, j):
        gauss = -r * r / (2.0 * t)
        up = np.exp(gauss + kappa * r) / 2.0
        down = np.exp(gauss - kappa * r) / 2.0
        s = up - down if moment.kind == "sinh" else up + down
        return np.where(r == 0.0, at_zero, r ** moment.power * s)
    return f


# ---------------------------------------------------------------------------
# erf / alpha


def test_erf_against_quadrature_oracle():
    # alpha(kappa, t) = sqrt(pi/2) erf(x) at x = kappa sqrt(t/2), and
    # erf(x) = 1 - (2/sqrt(pi)) * integral_0^inf exp(-(x+u)^2) du
    for kappa, x in zip((0.5, 1.0, 2.0) * 3, (0.25, 0.8, 1.5, 2.5, 3.7, 4.5, 6.0)):
        tail = integrate_batch(lambda u, j: np.exp(-((x + u) ** 2)),
                               [0.0], [1.0], TIGHT)[0].value
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
        alpha(1.0, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# moment table


def test_moment_kind_validation():
    with pytest.raises(ValueError):
        HyperbolicMoment(4, "cosh")
    with pytest.raises(ValueError):
        HyperbolicMoment(5, "sinh")
    with pytest.raises(ValueError):
        HyperbolicMoment(-1, "sinh")
    with pytest.raises(ValueError):
        HyperbolicMoment(1, "tanh")


def test_moment_closed_form_examples():
    # each moment comes back times exp(-kappa^2 t/2)
    v = hyperbolic_moment_closed_form(HyperbolicMoment(1, "sinh"), 1.0, 1.0)
    assert v * math.exp(0.5) == pytest.approx(SQRT_HALF_PI * math.exp(0.5), rel=1e-14)
    v = hyperbolic_moment_closed_form(HyperbolicMoment(3, "sinh"), 1.0, 1.0)
    assert v * math.exp(0.5) == pytest.approx(4.0 * SQRT_HALF_PI * math.exp(0.5), rel=1e-14)
    v = hyperbolic_moment_closed_form(HyperbolicMoment(0, "cosh"), 2.0, 0.5)
    assert v * math.exp(1.0) == pytest.approx(
        SQRT_HALF_PI * math.sqrt(0.5) * math.exp(1.0), rel=1e-14)


def test_moment_table_against_oracle():
    for moment in ALL_MOMENTS:
        for kappa in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 10.0):
                closed = hyperbolic_moment_closed_form(moment, kappa, t)
                direct = integrate_batch(stable_moment_integrand(kappa, t, moment),
                                         [kappa * t], [math.sqrt(t)])[0].value
                grown = math.exp(0.5 * kappa * kappa * t)
                assert closed * grown == pytest.approx(direct, rel=1e-8), (
                    moment, kappa, t)


def test_moment_table_against_mpmath():
    # every entry t^{(m+1)/2} F_m(kappa sqrt t) against the two Gaussian
    # partial moments at 50 digits, from x = kappa sqrt t = 1e-6 to 1e7
    mp = pytest.importorskip("mpmath")
    x = np.geomspace(1e-6, 1e7, 27)
    with mp.workdps(50):
        for kappa in (0.3, 1.0, 2.7):
            times = (x / kappa) ** 2
            for moment in ALL_MOMENTS:
                closed = hyperbolic_moment_closed_form(moment, kappa, times)
                for t, value in zip(times.tolist(), closed.tolist()):
                    exact = mp_scaled_moment(mp, moment.power, moment.kind, kappa, t)
                    assert abs(value - exact) <= 2e-15 * exact, (moment, kappa, t)


def test_moment_paths_agree():
    for moment in ALL_MOMENTS:
        for kappa in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 10.0):
                [shifted] = hyperbolic_moment_quadratures([(moment, kappa, t)])
                direct = integrate_batch(stable_moment_integrand(kappa, t, moment),
                                         [kappa * t], [math.sqrt(t)])[0].value
                grown = math.exp(0.5 * kappa * kappa * t)
                assert shifted * grown == pytest.approx(direct, rel=1e-8)


def test_moment_no_overflow_at_large_scale():
    # kappa^2 t = 400: the plain value would be ~exp(200); both paths return
    # it times exp(-200) and agree without ever materialising it
    closed = hyperbolic_moment_closed_form(HyperbolicMoment(3, "sinh"), 2.0, 100.0)
    [shifted] = hyperbolic_moment_quadratures([(HyperbolicMoment(3, "sinh"), 2.0, 100.0)])
    assert math.isfinite(closed) and math.isfinite(shifted)
    rel = abs(closed - shifted) / abs(closed)
    assert rel < 1e-8


def test_shifted_moments_refuse_unconverged_integrals():
    spec = QuadratureSpec(relative_tolerance=1e-14, absolute_tolerance=1e-16,
                          max_subdivisions=1)
    cases = [(moment, 0.5, 0.1) for moment in ALL_MOMENTS]
    with pytest.raises(QuadratureConvergenceError,
                       match=r"^shifted path of HyperbolicMoment\(power=0, kind='sinh'\) "
                             r"at kappa = 0\.5, t = 0\.1: "):
        hyperbolic_moment_quadratures(cases, spec)


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
    series = log_sinh_ratio(switch)  # the series branch includes the switch
    log_form = switch + math.log(-math.expm1(-2.0 * switch) / (2.0 * switch))
    assert series == pytest.approx(log_form, abs=1e-12)
    # continuity across the threshold, between its two neighbouring doubles
    assert log_sinh_ratio(math.nextafter(switch, 0.0)) == pytest.approx(
        log_sinh_ratio(math.nextafter(switch, 2.0)), rel=1e-14)


def test_log_sinh_ratio_against_mpmath():
    mp = pytest.importorskip("mpmath")
    grid = np.geomspace(1e-3, 2.0, 400)
    for x, got in zip(grid, log_sinh_ratio(grid)):
        with mp.workdps(40):
            exact = mp.log(mp.sinh(mp.mpf(float(x))) / mp.mpf(float(x)))
            err = abs((mp.mpf(float(got)) - exact) / exact)
        assert err <= 2e-15, x


def test_log_sinh_ratio_monotone_nonnegative():
    grid = np.geomspace(1e-8, 1e3, 60)
    values = [log_sinh_ratio(float(x)) for x in grid]
    assert all(v >= 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


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
