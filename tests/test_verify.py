import numpy as np
import pytest

from heatent import fixtures as fx
from heatent import h3entropy as h3
from heatent import spectral as sp
from heatent import verify as vf
from heatent.quadrature import QuadratureConvergenceError
from heatent.verify import CHECKS, check_moment_table, run_checks
from oracles import I1_quadrature, entropy_quadrature, normalization_quadrature


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


def test_fault_injection_fails_envelopes():
    results = run_checks(only="envelopes", inject_fault="envelopes")
    assert not results["envelopes"].passed
    assert "fault injected" in results["envelopes"].details


def test_fast_checks_pass():
    for name in ("moment_table", "second_moment", "h3_normalization",
                 "sinh_ratio_bounds", "log_sandwich", "euclidean_limit",
                 "entropy_decomposition"):
        result = run_checks(only=name)[name]
        assert result.passed, (name, result)


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
