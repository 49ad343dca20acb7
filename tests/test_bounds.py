import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatent import bounds as bd
from heatent import fixtures as fx
from heatent import spectral as sp


def test_ricci_rhs_flat_branch_example():
    assert bd.ricci_bound_rhs(1, 0.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)


def test_ricci_rhs_small_time_limit():
    for k in (-1.0, -0.1, 0.0, 0.1, 1.0):
        value = bd.ricci_bound_rhs(2, k, 3.0, 1e-9)
        assert value == pytest.approx(1.5, rel=1e-6), k


def test_ricci_rhs_branch_continuity():
    flat = bd.ricci_bound_rhs(2, 0.0, 3.0, 2.0)
    near = bd.ricci_bound_rhs(2, 1e-8, 3.0, 2.0)
    assert near == pytest.approx(flat, rel=1e-6)
    near_neg = bd.ricci_bound_rhs(2, -1e-8, 3.0, 2.0)
    assert near_neg == pytest.approx(flat, rel=1e-6)


def test_ricci_rhs_monotone_in_curvature():
    ks = np.linspace(-2.0, 2.0, 41)
    values = [bd.ricci_bound_rhs(3, float(k), 5.0, 1.5) for k in ks]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    q0=st.floats(0.01, 50.0),
    t=st.floats(0.01, 50.0),
    k1=st.floats(-3.0, 3.0),
    k2=st.floats(-3.0, 3.0),
)
@example(n=1, q0=1.0, t=1.5, k1=-5e-324, k2=0.0)  # subnormal curvature
def test_ricci_rhs_monotonicity_property(n, q0, t, k1, k2):
    lo_k, hi_k = sorted((k1, k2))
    assert (bd.ricci_bound_rhs(n, hi_k, q0, t)
            <= bd.ricci_bound_rhs(n, lo_k, q0, t) * (1.0 + 1e-12) + 1e-300)


def test_ricci_rhs_validation():
    with pytest.raises(ValueError):
        bd.ricci_bound_rhs(2, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bd.ricci_bound_rhs(2, 0.0, 1.0, 0.0)


def test_ricci_rhs_no_overflow_at_extreme_times():
    # k < 0: stays finite and approaches -n k / 2 instead of overflowing
    assert math.isfinite(bd.ricci_bound_rhs(3, -1.0, 5.0, 1e6))
    # k > 0: exp(k t) overflow collapses cleanly to 0
    assert bd.ricci_bound_rhs(3, 1.0, 5.0, 1e6) == 0.0


def test_asymptote_values():
    assert bd.ricci_bound_asymptote(3, -1.0) == 1.5
    assert bd.ricci_bound_asymptote(2, 1.0) == 0.0
    assert bd.ricci_bound_asymptote(2, 0.0) == 0.0


def test_asymptote_matches_large_time_limit():
    assert bd.ricci_bound_rhs(3, -1.0, 5.0, 1e6) == pytest.approx(1.5, rel=1e-6)


def test_hamilton_examples():
    assert bd.hamilton_bound_rhs(0.0, math.e, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert bd.hamilton_bound_rhs(0.0, 1.0, 0.7) == 0.0
    assert bd.hamilton_bound_rhs(-1.0, 1.5, 2.0) == pytest.approx(
        1.5 * math.log(1.5), rel=1e-14)


def test_spectral_gap_rhs_constant_datum():
    assert bd.spectral_gap_bound_rhs(4.0 * math.pi ** 2, 0.0, 1.0, 1.0, 1.0, 3.0) == 0.0


def test_spectral_gap_rhs_circle_decay():
    lam1 = (2.0 * math.pi) ** 2
    norm = lam1 * 0.5 / math.sqrt(2.0)
    at_zero = bd.spectral_gap_bound_rhs(lam1, norm, 1.0, 0.5, 1.5, 0.0)
    expected0 = 0.5 * norm * (abs(math.log(0.5)) + abs(math.log(1.5)))
    assert at_zero == pytest.approx(expected0, rel=1e-14)
    t = 0.3
    assert bd.spectral_gap_bound_rhs(lam1, norm, 1.0, 0.5, 1.5, t) == pytest.approx(
        at_zero * math.exp(-0.5 * lam1 * t), rel=1e-14)


def test_euclidean_reference():
    assert bd.euclidean_rate_reference(3, 1.0) == 1.5
    assert bd.euclidean_rate_reference(3, 10.0) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        bd.euclidean_rate_reference(3, 0.0)


# ---------------------------------------------------------------------------
# report assembly


def test_circle_reports_all_satisfied():
    fixture = fx.circle_fixture()
    trace = sp.entropy_trace(fixture.initial, fixture.default_times)
    reports = bd.check_bounds(trace, fixture.manifold, fixture.initial)
    assert {r.bound_name for r in reports} == {
        "ricci_curvature", "gradient_log_sup", "spectral_gap"}
    for report in reports:
        assert report.all_satisfied, report.bound_name
        assert report.lhs.shape == trace.times.shape


def test_constant_datum_trivially_satisfied():
    manifold = sp.torus2(1.0, 1.0)
    field = sp.project_initial(manifold, lambda x, y: np.ones_like(x), 1)
    trace = sp.entropy_trace(field, [0.1, 1.0])
    reports = bd.check_bounds(trace, manifold, field)
    for report in reports:
        assert np.abs(report.lhs).max() < 1e-14
        assert report.all_satisfied


def test_bound_table_constant_datum_gives_zeros():
    for manifold, name in ((sp.torus2(1.0, 1.0), "ricci_curvature"),
                           (fx.drift_fixture().manifold, "drift_curvature")):
        field = sp.project_initial(manifold, lambda x, y: np.ones_like(x), 1)
        table = bd.bound_table(manifold, field, [0.1, 1.0, 1e3])
        assert table[name].tolist() == [0.0, 0.0, 0.0]


def test_drift_rhs_is_inf_past_double_range():
    fixture = fx.drift_fixture()
    assert fixture.manifold.ricci_lower_bound < 0.0
    trace = sp.entropy_trace(fixture.initial, [1.0, 1e3])
    (report,) = bd.check_bounds(trace, fixture.manifold, fixture.initial)
    assert math.isfinite(report.rhs[0]) and report.rhs[1] == math.inf
    assert report.all_satisfied


def test_sphere_reports_and_exponential_decay():
    fixture = fx.sphere_fixture()
    trace = sp.entropy_trace(fixture.initial, fixture.default_times)
    reports = {r.bound_name: r for r in
               bd.check_bounds(trace, fixture.manifold, fixture.initial)}
    assert reports["ricci_curvature"].all_satisfied
    # positive curvature: the rate must decay at least like exp(-k t)
    _, q0 = sp.entropy_and_fisher(fixture.initial)
    k = fixture.manifold.ricci_lower_bound
    for t, rate in zip(trace.times, trace.rate_direct):
        assert rate <= 0.5 * q0 * math.exp(-k * t) * (1.0 + 1e-6) + 1e-9


def test_drift_manifold_gets_only_drift_report():
    fixture = fx.drift_fixture()
    trace = sp.entropy_trace(fixture.initial, fixture.default_times)
    reports = bd.check_bounds(trace, fixture.manifold, fixture.initial)
    assert [r.bound_name for r in reports] == ["drift_curvature"]
    assert reports[0].all_satisfied


def test_comparison_exponential_beats_polynomial_on_sphere():
    fixture = fx.sphere_fixture()
    _, q0 = sp.entropy_and_fisher(fixture.initial)
    _, sup_f = sp.grid_extrema(fixture.initial)
    sup_rel = sup_f * fixture.manifold.volume
    for t in (5.0, 8.0, 12.0):
        ricci = bd.ricci_bound_rhs(2, fixture.manifold.ricci_lower_bound, q0, t)
        hamilton = bd.hamilton_bound_rhs(0.0, sup_rel, t)
        assert ricci < hamilton, t


def test_three_curvature_regimes():
    # negative curvature: on hyperbolic space the rate settles at a positive
    # constant, sitting above the compact-case floor -n k / 2 (which is what
    # makes the compact bound unsatisfying there)
    from heatent import h3entropy as h3

    floor = bd.ricci_bound_asymptote(3, -1.0)
    assert floor == 1.5
    rate_neg = h3.evaluate_records(h3.H3Params(1.0), [50.0]).rate_direct[0]
    assert rate_neg > floor > 0.0

    # zero curvature: the circle rate decays like 1/t, under n/(2t)
    circle = fx.circle_fixture()
    trace = sp.entropy_trace(circle.initial, [0.05, 0.1, 0.2])
    for t, rate in zip(trace.times, trace.rate_direct):
        assert rate <= bd.euclidean_rate_reference(1, t)

    # positive curvature: exponential decay, tested via the sphere report
    sphere = fx.sphere_fixture()
    _, q0 = sp.entropy_and_fisher(sphere.initial)
    strace = sp.entropy_trace(sphere.initial, [2.0, 4.0, 8.0])
    for t, rate in zip(strace.times, strace.rate_direct):
        assert rate <= 0.5 * q0 * math.exp(-t) * (1.0 + 1e-6) + 1e-12


def test_report_rates_nonnegative():
    for builder in (fx.circle_fixture, fx.torus_fixture, fx.sphere_fixture):
        fixture = builder()
        trace = sp.entropy_trace(fixture.initial, fixture.default_times)
        assert np.all(trace.rate_direct >= -1e-15), fixture.name
