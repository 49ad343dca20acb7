import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_moment, mp_scaled_moment
from heatent import fixtures as fx
from heatent import h3entropy as h3
from heatent import spectral as sp
from heatent import verify as vf
from heatent.quadrature import QuadratureConvergenceError, integrate_batch
from heatent.verify import (
    CHECKS,
    _direct_moment_integrand,
    _mass_prefactor,
    _radial_mass,
    check_moment_table,
    run_checks,
    sinh_ratio_bounds_check,
)
from oracles import I1_quadrature, entropy_quadrature, normalization_quadrature


def name(i):
    return f"case {i}"


def test_check_registry_names_are_stable():
    expected = {
        "moment_table", "second_moment", "h3_normalization", "envelopes",
        "band", "rate_consistency", "fixture_bounds", "closed_forms", "bochner_residual",
        "hessian_trace", "cauchy_step", "sinh_ratio_bounds", "log_sandwich",
        "euclidean_limit", "entropy_decomposition",
    }
    assert set(CHECKS) == expected


def test_run_single_check():
    results = run_checks(only="log_sandwich")
    assert list(results) == ["log_sandwich"]
    assert results["log_sandwich"].passed
    assert results["log_sandwich"].max_error == 0.0


def test_hessian_trace_details_show_the_closest_approach():
    # max_error floors the errors -slack/scale at 0; the details keep the
    # least slack/scale of the group's 8 fields
    gaps = sp.hessian_trace_gaps(fx.seeded_torus_fields(vf._RANDOM_SEED + 1, (True,) * 8))
    closest = min(gaps[:, 0] / gaps[:, 1])
    result = run_checks(only="hessian_trace")["hessian_trace"]
    assert result.passed and result.max_error == 0.0 and closest > 0.0
    assert result.details.endswith(f"; least slack/scale {closest:.3e}")
    assert float(result.details.rsplit(" ", 1)[1]) == pytest.approx(closest, rel=1e-3)


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match=r"^unknown check 'nope'; choose from \["):
        run_checks(only="nope")


@pytest.mark.parametrize("only, fault, message", [
    ("log_sandwich", "bogus", r"^unsupported fault 'bogus'; supported: envelopes$"),
    ("log_sandwich", "envelopes", r"^fault 'envelopes' cannot fire in group 'log_sandwich'; "
                                  r"it acts on the 'envelopes' group only$"),
    ("nope", "bogus", r"^unsupported fault 'bogus'")])  # the fault is checked first
def test_fault_that_cannot_fire_is_rejected(only, fault, message):
    # refused by the library itself, before any check runs
    with pytest.raises(ValueError, match=message):
        run_checks(only=only, inject_fault=fault)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_sinh_ratio_bounds_check_refuses_r_not_positive(r):
    with pytest.raises(ValueError, match="requires r > 0"):
        vf.sinh_ratio_bounds_check(r)


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


def test_fault_injection_fails_envelopes():
    results = run_checks(only="envelopes", inject_fault="envelopes")
    assert not results["envelopes"].passed
    assert "fault injected" in results["envelopes"].details


def test_fast_checks_pass():
    for name in ("moment_table", "second_moment", "h3_normalization", "closed_forms",
                 "sinh_ratio_bounds", "log_sandwich", "euclidean_limit",
                 "entropy_decomposition"):
        result = run_checks(only=name)[name]
        assert result.passed, (name, result)
    # closed_forms holds the entropy at six or more of each fixture's default times
    for fixture, (_, resolved_up_to) in vf._CLOSED_FORM_TIMES.items():
        times = fx.get_fixture(fixture).default_times
        assert np.count_nonzero(times <= resolved_up_to) >= 6, fixture


def test_moment_cases_against_the_closed_form():
    # verify's direct path: the 45 sinh moments M(m) at (kappa, t), each
    # times exp(-kappa^2 t/2) as the table gives it, at the rule's default
    # tolerances, against the closed form and 40-digit mpmath; each estimate
    # bounds its actual error
    cases = [(m, kappa, t) for m in range(5) for kappa in (0.5, 1.0, 2.0)
             for t in (0.1, 1.0, 10.0)]
    powers, kappas, ts = np.array(cases).T
    values, estimates = integrate_batch(_direct_moment_integrand, kappas * ts, np.sqrt(ts),
                                        (powers, kappas, ts), name)
    for (m, kappa, t), value in zip(cases, values.tolist()):
        assert value == pytest.approx(closed_moment(m, kappa, t), rel=4e-15), (m, kappa, t)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for (m, kappa, t), value, estimate in zip(cases, values.tolist(), estimates.tolist()):
            exact = mp_scaled_moment(mp, m, kappa, t)
            error = float(abs(value - exact) / exact)
            assert error <= 4e-15, (m, kappa, t)
            assert abs(value - exact) <= estimate, (m, kappa, t)


def test_direct_moments_have_the_range_of_the_closed_forms():
    # scaled by exp(-kappa^2 t/2) inside the integrand, the direct path stays
    # finite far past kappa^2 t = 1e4, where the unscaled moment overflows;
    # at kappa sqrt t = 1e60 the peak kappa t sits 1e60 widths past r = 0,
    # and the path keeps the mass on both sides of it (M(4) overflows there)
    cases = [(m, kappa, t) for kappa, t in ((1.0, 1e3), (2.0, 1e4), (1.0, 1e6), (3.0, 1e8))
             for m in range(5)]
    cases += [(m, 1e30, 1e60) for m in range(4)] + [(3, 2.0, 100.0)]
    powers, kappas, ts = np.array(cases).T
    values, _ = integrate_batch(_direct_moment_integrand, kappas * ts, np.sqrt(ts),
                                (powers, kappas, ts), name)
    for (m, kappa, t), value in zip(cases, values.tolist()):
        assert math.isfinite(value), (m, kappa, t)
        assert value == pytest.approx(closed_moment(m, kappa, t), rel=4e-15), (m, kappa, t)


def test_mass_points_within_their_estimates():
    # verify's h3_normalization points: the radial kernel mass is 1, and the
    # rule's estimate covers its distance from 1
    for kappa in (0.5, 1.0, 2.0):
        ts = np.array([0.1, 1.0, 10.0, 50.0])
        prefs = np.array([_mass_prefactor(kappa, t) for t in ts.tolist()])
        values, estimates = integrate_batch(
            lambda d, t, pref: _radial_mass(kappa, t, d, pref), kappa * ts, np.sqrt(ts),
            (ts, prefs), name)
        assert np.all(np.abs(values - 1.0) <= estimates), kappa
        assert np.all(np.abs(values - 1.0) <= 4.5e-16), kappa


def test_moment_table_refuses_unconverged_integrals(tolerances):
    # no step of the rule meets these tolerances, so every direct integral
    # misses them; the first case is named instead of a pass on its value
    tolerances(1e-300, 1e-300)
    with pytest.raises(QuadratureConvergenceError,
                       match=r"^direct path of M\(0\) at kappa = 0\.5, t = 0\.1: "):
        check_moment_table()


def test_kappa_batched_checks_equal_the_per_kappa_oracles():
    # each radial group integrates its kappa x t grid as one batch; its
    # max_error is, bit for bit, the one of the per-kappa oracles (tests/oracles.py)
    params = [h3.H3Params(kappa) for kappa in vf._KAPPA_GRID]
    times = np.array(vf._T_GRID)
    worst = max(float(np.max(np.abs(h3.I1(p, times) - I1_quadrature(p, times))
                             / np.abs(h3.I1(p, times)))) for p in params)
    pin = abs(h3.I1(h3.H3Params(2.0), 0.25) - 2.0)
    assert vf.check_second_moment().max_error == max(worst, pin)
    times = np.array([0.1, 1.0, 10.0, 50.0])
    worst = max(float(np.max(np.abs(normalization_quadrature(p, times) - 1.0)))
                for p in params)
    assert vf.check_h3_normalization().max_error == worst
    times = np.array([0.3, 1.0, 5.0])
    worst = max(float(np.max(np.abs(h3.evaluate_records(p, times).entropy - direct)
                             / np.abs(direct)))
                for p in params for direct in [entropy_quadrature(p, times)])
    assert vf.check_entropy_decomposition().max_error == worst


# the seeded random fields of the two pointwise-identity groups
IDENTITY_DRAWS = {"bochner_residual": (vf._RANDOM_SEED, (True,) + (True, False) * 9),
                  "hessian_trace": (vf._RANDOM_SEED + 1, (True,) * 8)}


def test_identity_groups_draw_their_fields_once_per_process(monkeypatch):
    # drawn afresh once after the cache is emptied, then shared by every
    # later request of either group
    calls, draw = [], sp.random_torus_fields

    def counted(*args, **kwargs):
        calls.append(None)
        return draw(*args, **kwargs)

    monkeypatch.setattr(sp, "random_torus_fields", counted)
    fx.seeded_torus_fields.cache_clear()
    for count, group in enumerate(IDENTITY_DRAWS, 1):
        first = run_checks(only=group)[group]
        assert len(calls) == count
        assert run_checks(only=group)[group] == first
        assert len(calls) == count


@pytest.mark.parametrize("group", sorted(IDENTITY_DRAWS))
def test_shared_draws_are_read_only_fresh_draws(group):
    seed, positive = IDENTITY_DRAWS[group]
    shared = fx.seeded_torus_fields(seed, positive)
    assert fx.seeded_torus_fields(seed, positive) is shared
    fresh = sp.random_torus_fields(np.random.default_rng(seed), sp.torus2(1.0, 1.0), positive)
    assert list(shared) == fresh  # bit for bit
    for field in shared:
        with pytest.raises(ValueError, match="read-only"):
            field.coefficients[0, 0] = 0.0
