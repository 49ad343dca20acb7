import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatent import bounds as bd
from heatent import fixtures as fx
from heatent import spectral as sp
from conftest import random_torus_potential
from oracles import ricci_bound_asymptote


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
    assert ricci_bound_asymptote(3, -1.0) == 1.5
    assert ricci_bound_asymptote(2, 1.0) == 0.0
    assert ricci_bound_asymptote(2, 0.0) == 0.0
    assert ricci_bound_asymptote(math.inf, -1.0) == math.inf


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


def test_ricci_rhs_flat_kernel_limit():
    # K = 0 and q0 = inf: the Euclidean kernel's rate n / (2 t), bit for bit,
    # also where k t is subnormal but not zero (it read NaN, inf / inf, before)
    assert bd.ricci_bound_rhs(3, 0.0, math.inf, 1.0) == 1.5
    for n, k, t in ((3, 0.0, 10.0), (3, 5e-324, 1.0), (2, 1e-310, 3.0), (1, -2.5e-309, 0.7),
                    (3, 1e-300, 1e-10)):
        assert abs(k * t) < sys.float_info.min
        assert bd.ricci_bound_rhs(n, k, math.inf, t) == n / (2.0 * t), (n, k, t)
    with pytest.raises(ValueError):
        bd.ricci_bound_rhs(3, 0.0, math.inf, 0.0)


def test_ricci_rhs_infinite_dimension_is_the_drift_bound():
    # n = inf: the CD(k, inf) bound (1/2) e^{-k t} q0, bit for bit, and inf
    # once e^{-k t} passes double range
    for k, q0, t in ((-7.9, 2.5, 0.3), (-1.0, 3.0, 709.0), (1.0, 3.0, 2.0), (0.0, 5.0, 4.0),
                     (5e-324, 1.5, 1.0), (2.0, 0.7, 400.0)):
        assert bd.ricci_bound_rhs(math.inf, k, q0, t) == 0.5 * math.exp(-k * t) * q0, (k, q0, t)
    assert bd.ricci_bound_rhs(math.inf, -1.0, 3.0, 710.0) == math.inf
    assert bd.ricci_bound_rhs(math.inf, -1.0, 3.0, np.array([709.0, 1e3])).tolist() == [
        0.5 * math.exp(709.0) * 3.0, math.inf]


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

    floor = ricci_bound_asymptote(3, -1.0)
    assert floor == 1.5
    rate_neg = h3.evaluate_records(h3.H3Params(1.0), [50.0]).rate_direct[0]
    assert rate_neg > floor > 0.0

    # zero curvature: the circle rate decays like 1/t, under n/(2t)
    circle = fx.circle_fixture()
    trace = sp.entropy_trace(circle.initial, [0.05, 0.1, 0.2])
    for t, rate in zip(trace.times, trace.rate_direct):
        assert rate <= bd.ricci_bound_rhs(1, 0.0, math.inf, t)

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


# ---------------------------------------------------------------------------
# the paper's Ricci estimate on the drifted torus: CD(rho_N, N) for every N > 2

_DIMENSIONS = (3.0, 4.0, 6.0, 10.0, 30.0)


def _rho(potential, n, grid_points=256):
    """rho_N, least over a grid_points^2 grid of the least eigenvalue of
    -2 Hess V - 4 grad V (x) grad V / (N - 2): by Bakry & Qian (Rev. Mat.
    Iberoam. 16, 2000), with W = 2 V on the flat 2-torus, 1/2 Lap + grad V . grad
    satisfies CD(rho_N, N)."""
    tr = sp._transform(potential.manifold, potential.cutoff, grid_points)
    vx, vy, vxx, vxy, vyy = tr.derivatives(potential.coefficients, (0,), (1,), (0, 0), (0, 1),
                                           (1, 1))
    c = 4.0 / (n - 2.0)
    a, b, d = -2.0 * vxx - c * vx * vx, -2.0 * vxy - c * vx * vy, -2.0 * vyy - c * vy * vy
    return float((0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)).min())


def _seeded_drift_field(seed):
    """A cutoff-2 potential of sup 0.15 and a cutoff-3 datum from one seeded
    generator, the datum re-wrapped on the drifted torus at unit mass."""
    rng = np.random.default_rng(seed)
    potential = random_torus_potential(rng, sp.torus2(1.0, 1.0), cutoff=2, amplitude=0.15)
    datum = fx.random_positive_torus_field(rng, sp.torus2(1.0, 1.0), cutoff=3)
    raw = sp.SpectralField(sp.torus2_drift(potential), datum.coefficients, datum.cutoff)
    return sp.SpectralField(raw.manifold, raw.coefficients / sp.mass(raw), raw.cutoff)


@pytest.mark.parametrize("case", ["fixture", *range(1000, 1012)])
def test_drifted_rates_obey_every_curvature_dimension_bound(case):
    # rho_N = -7.8957 on the fixture for every N (V'' peaks where V' = 0);
    # least relative margin 0.381 there and 0.521 on the seeded fields, on a
    # 256^2 grid as on a 512^2 one.  The N = inf member is the drift_curvature
    # column, whose k the potential's own grid gives.
    if case == "fixture":
        field, times = fx.drift_fixture().initial, np.geomspace(0.01, 14.0, 40)
    else:
        field, times = _seeded_drift_field(case), np.geomspace(0.005, 3.0, 30)
    manifold = field.manifold
    rates = sp.entropy_trace(field, times).rate_direct
    _, q0 = sp.entropy_and_fisher(field)
    for n in _DIMENSIONS:
        assert np.all(rates <= bd.ricci_bound_rhs(n, _rho(manifold.drift, n), q0, times)), n
    limit = bd.ricci_bound_rhs(math.inf, manifold.ricci_lower_bound, q0, times)
    assert np.all(rates <= limit)
    column = bd.bound_table(manifold, field, times)["drift_curvature"]
    assert limit.tobytes() == column.tobytes()


# ---------------------------------------------------------------------------
# the initial field's constants, built once per content


def seeded_sphere_field(seed: int) -> sp.SpectralField:
    # 1 + small zonal modes of degree up to cutoff // 2, positive on the sphere
    rng = np.random.default_rng(seed)
    cutoff = 6 + seed % 5
    coeffs = np.zeros(cutoff + 1)
    coeffs[0] = math.sqrt(4.0 * math.pi)
    coeffs[1:cutoff // 2 + 1] = 0.1 * rng.normal(size=cutoff // 2)
    return sp.SpectralField(sp.sphere2(1.0), coeffs, cutoff)


CONSTANT_FIELDS = [
    *((name, lambda name=name: fx.get_fixture(name).initial)
      for name in ("circle", "torus", "sphere", "torus-drift")),
    *((f"torus {seed}", lambda seed=seed: fx.random_positive_torus_field(
        np.random.default_rng(seed), sp.torus2(1.0, 1.0), cutoff=2 + seed % 5))
      for seed in range(10)),
    *((f"sphere {seed}", lambda seed=seed: seeded_sphere_field(seed)) for seed in range(10)),
]


# q0 and the extrema are the bits of entropy_and_fisher's Fisher information
# and of grid_extrema, the library's one-time functionals
@pytest.mark.parametrize("build", [build for _, build in CONSTANT_FIELDS],
                         ids=[name for name, _ in CONSTANT_FIELDS])
def test_initial_constants_keep_the_fisher_and_extrema_bits(build):
    field = build()
    bd._initial_constants.cache_clear()
    q0, inf_f, sup_f = bd._initial_constants(field)[:3]
    assert (q0, inf_f, sup_f) == (sp.entropy_and_fisher(field)[1], *sp.grid_extrema(field))


def test_initial_field_not_positive_is_refused_by_name():
    torus = sp.torus2(1.0, 1.0)
    coeffs = np.zeros((5, 5))
    coeffs[2, 2], coeffs[2, 3] = 1.0, 2.0  # 1 + 2 sqrt2 cos(2 pi y) dips below zero
    with pytest.raises(sp.PositivityError, match="resolved field has minimum -"):
        bd.bound_table(torus, sp.SpectralField(torus, coeffs, 2), [0.1])


def test_bound_constants_follow_in_place_changes():
    fixture = fx.torus_fixture()
    field = sp.SpectralField(fixture.manifold, fixture.initial.coefficients.copy(),
                             fixture.initial.cutoff)
    times = [0.1, 1.0]
    before = bd.bound_table(fixture.manifold, field, times)
    field.coefficients[...] *= 2.0
    after = bd.bound_table(fixture.manifold, field, times)
    bd._initial_constants.cache_clear()
    fresh = bd.bound_table(fixture.manifold, field, times)
    for name, column in after.items():
        assert column.tolist() == fresh[name].tolist(), name
        assert column.tolist() != before[name].tolist(), name


@pytest.mark.parametrize("builder", [fx.torus_fixture, fx.drift_fixture])
def test_equal_fields_share_one_constants_entry(builder):
    bd._initial_constants.cache_clear()
    tables = []
    for _ in range(3):
        fixture = builder()  # a separate build with equal contents
        tables.append(bd.bound_table(fixture.manifold, fixture.initial, [0.1, 1.0]))
    info = bd._initial_constants.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for table in tables[1:]:
        assert {k: v.tolist() for k, v in table.items()} == \
               {k: v.tolist() for k, v in tables[0].items()}


def test_bound_constants_cache_is_bounded():
    size = bd._initial_constants.cache_info().maxsize
    assert size is not None
    bd._initial_constants.cache_clear()
    torus = sp.torus2(1.0, 1.0)
    for seed in range(size + 3):
        field = fx.random_positive_torus_field(np.random.default_rng(seed), torus)
        bd.bound_table(torus, field, [0.1])
    info = bd._initial_constants.cache_info()
    assert (info.misses, info.currsize) == (size + 3, size)


# ---------------------------------------------------------------------------
# elementwise formulas: an array of times has the bits of the float calls


def _ricci_reference(n, k, q0, t):
    """Reference: the Ricci bound at one float time, branch by branch."""
    kt = k * t
    if abs(kt) < sys.float_info.min:
        return n * q0 / (2.0 * (n + q0 * t))
    if kt > 700.0:
        return 0.0
    return 0.5 / (math.exp(kt) / q0 + math.expm1(kt) / (n * k))


def _drift_reference(k, q0, t):
    """Reference: the CD(k, inf) (drift) bound at one float time."""
    try:
        return 0.5 * math.exp(-k * t) * q0
    except OverflowError:
        return math.inf


def _formulas(n, k, q0, sup_f):
    """Per bound: (its formula as a function of t, its float reference)."""
    lambda1, norm, vol, inf_f = abs(k) or 1.0, 2.5, 1.5, 0.5
    log_term = abs(math.log(inf_f)) + abs(math.log(sup_f))
    return {
        "ricci": (lambda t: bd.ricci_bound_rhs(n, k, q0, t),
                  lambda t: _ricci_reference(n, k, q0, t)),
        "gradient": (lambda t: bd.hamilton_bound_rhs(min(k, 0.0), sup_f, t),
                     lambda t: (1.0 / t - min(k, 0.0)) * math.log(sup_f)),
        "spectral_gap": (lambda t: bd.spectral_gap_bound_rhs(lambda1, norm, vol, inf_f, sup_f, t),
                         lambda t: (0.5 * math.exp(-0.5 * lambda1 * t) * norm * math.sqrt(vol)
                                    * log_term)),
        "drift": (lambda t: bd.ricci_bound_rhs(math.inf, k, q0, t),
                  lambda t: _drift_reference(k, q0, t)),
        "flat_kernel": (lambda t: bd.ricci_bound_rhs(n, 0.0, math.inf, t),
                        lambda t: n / (2.0 * t)),
    }


_TIMES = st.lists(st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 1e3),
                            st.floats(1e3, 1e300), st.floats(1e300, 1.7e308)),
                  min_size=1, max_size=9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 4),
       k=st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -2.5e-309]),
                   st.floats(-1e3, 1e3)),
       q0=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
       sup_f=st.sampled_from([1.0, 1.25, 3.0]), times=_TIMES)
@example(n=2, k=1e-310, q0=3.0, sup_f=1.25, times=[0.5, 2.0, 1e-3])  # subnormal k t
@example(n=2, k=1.0, q0=3.0, sup_f=1.25, times=[699.0, 700.0, 700.5, 1e6])  # k t past 700
@example(n=2, k=-1.0, q0=3.0, sup_f=1.25, times=[709.0, 709.8, 710.0, 1e300])  # e^{-k t} is inf
@example(n=2, k=-1.0, q0=0.0, sup_f=1.25, times=[0.5, 709.0, 710.0])  # q0 = 0
def test_bound_formulas_on_arrays_have_the_bits_of_float_calls(n, k, q0, sup_f, times):
    t = np.array(times)
    for name, (formula, reference) in _formulas(n, k, q0, sup_f).items():
        if name in ("ricci", "drift") and q0 <= 0.0:
            for argument in (t, times[0]):
                with pytest.raises(ValueError, match="q0"):
                    formula(argument)
            continue
        floats = [formula(x) for x in times]
        assert all(type(value) is float for value in floats), name
        values = formula(t)
        assert values.shape == t.shape and values.tobytes() == np.array(floats).tobytes(), name
        references = np.array([reference(x) for x in times])
        assert values.tobytes() == references.tobytes(), name


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_bound_formulas_refuse_a_non_finite_time_in_an_array(bad):
    for name, (formula, _) in _formulas(2, -1.0, 1.0, 1.5).items():
        with pytest.raises(ValueError, match="finite"):
            formula(np.array([0.5, bad, 1.0]))


# ---------------------------------------------------------------------------
# refused arguments


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_rhs_functions_refuse_non_finite_times(t):
    for rhs in (lambda: bd.ricci_bound_rhs(2, -1.0, 1.0, t),
                lambda: bd.ricci_bound_rhs(2, 0.0, 1.0, t),
                lambda: bd.hamilton_bound_rhs(0.0, 2.0, t),
                lambda: bd.spectral_gap_bound_rhs(1.0, 1.0, 1.0, 0.5, 2.0, t),
                lambda: bd.ricci_bound_rhs(math.inf, -1.0, 1.0, t),
                lambda: bd.ricci_bound_rhs(2, 0.0, math.inf, t)):
        with pytest.raises(ValueError, match="finite"):
            rhs()


@pytest.mark.parametrize("name", ["circle", "torus-drift"])
def test_bound_table_refuses_non_finite_times(name):
    fixture = fx.get_fixture(name)
    # a constant datum (q0 = 0) has zero columns, but its times are checked too
    constant = sp.project_initial(fixture.manifold, lambda x, *_: np.ones_like(x), 1)
    for initial in (fixture.initial, constant):
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                bd.bound_table(fixture.manifold, initial, [0.5, t])


@pytest.mark.parametrize("manifold", [sp.sphere2(1.0), sp.torus2(1.0, 1.5),
                                      fx.drift_fixture().manifold],
                         ids=["sphere", "torus2_1x1.5", "torus-drift"])
def test_bound_table_refuses_another_manifold(manifold):
    fixture = fx.get_fixture("torus")
    with pytest.raises(ValueError, match="the initial field's"):
        bd.bound_table(manifold, fixture.initial, [0.5])
    trace = sp.entropy_trace(fixture.initial, [0.5])
    with pytest.raises(ValueError, match="the initial field's"):
        bd.check_bounds(trace, manifold, fixture.initial)


def test_bound_table_accepts_an_equal_manifold():
    fixture = fx.get_fixture("torus")
    assert fixture.manifold is fixture.initial.manifold
    shared = bd.bound_table(fixture.manifold, fixture.initial, [0.5, 1.0])
    apart = bd.bound_table(sp.torus2(1.0, 1.0), fixture.initial, [0.5, 1.0])
    assert {k: v.tolist() for k, v in apart.items()} == \
           {k: v.tolist() for k, v in shared.items()}
