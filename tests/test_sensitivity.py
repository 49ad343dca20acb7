"""Sensitivity of the verify groups: each row corrupts one case of one
library call and requires the group that reads it to fail.

A row is data: the module and attribute to wrap, the case corrupted (which
call of the attribute during the group, 0 first, and the path into its
result: attribute names and indices), and the group.  The wrapper is put in
with monkeypatch, in process, so every other call returns its true value.
A NaN row makes its case NaN, which must fail its group with ``max_error``
NaN; a factor row scales its case by 1 + 1e-9, which must fail its group
too.  Either way ``verify --only <group>`` must exit 1.
"""

import dataclasses
import math

import numpy as np
import pytest

from heatent import bounds as bd
from heatent import cli
from heatent import h3entropy as h3
from heatent import spectral as sp
from heatent import verify as vf

NAN_ROWS = [
    # the direct path's M(0) at kappa = 2, t = 1, case 7 of the table
    (vf, "integrate_batch", 0, (0, 7), "moment_table"),
    # rate_direct at the second check time of the sphere fixture, the
    # third of circle, torus, sphere and torus-drift
    (sp, "entropy_trace", 2, ("rate_direct", 1), "rate_consistency"),
    # rate_direct at the first default time of the torus fixture, the second
    # trace: every torus bound report fails
    (sp, "entropy_trace", 1, ("rate_direct", 0), "fixture_bounds"),
    # the residual, then the term scale, of the fourth random (field, drift)
    # pair of the one batched call
    (sp, "bochner_residuals", 0, (3, 0), "bochner_residual"),
    (sp, "bochner_residuals", 0, (3, 1), "bochner_residual"),
    # the slack of the sixth random field of the one batched call
    (sp, "hessian_trace_gaps", 0, (5, 0), "hessian_trace"),
    # the Fisher information of the torus fixture (the second trace) at
    # t = 0.2, its second time
    (sp, "cauchy_step_trace", 1, (1, 2), "cauchy_step"),
    # rate_direct at the first time of kappa = 2, the second sweep
    (h3, "evaluate_records", 1, ("rate_direct", 0), "band"),
]

# the relative error each factor row puts in its case
FACTOR = 1.0 + 1e-9

FACTOR_ROWS = [
    # the entropy column of the first sweep, kappa = 0.5
    (h3, "evaluate_records", 0, ("entropy",), "entropy_decomposition"),
    # F_2 at kappa = 0.5, t = 1: the closed M(2) there
    (h3, "moment_factors", 0, (2, 1), "moment_table"),
    # the direct path's M(0) at kappa = 2, t = 1, case 7 of the table
    (vf, "integrate_batch", 0, (0, 7), "moment_table"),
    # the closed I1 at kappa = 0.5, t = 1
    (h3, "I1", 0, (1,), "second_moment"),
    # the radial kernel mass at kappa = 0.5, t = 1
    (vf, "_radial_integrals", 0, (0, 1), "h3_normalization"),
    # at the first time of the circle, torus and sphere traces (calls 0, 1
    # and 2): the Fisher information, rate_direct and the entropy, whose D is
    # resolved there
    (sp, "entropy_trace", 0, ("fisher", 0), "closed_forms"),
    (sp, "entropy_trace", 1, ("rate_direct", 0), "closed_forms"),
    (sp, "entropy_trace", 2, ("entropy", 0), "closed_forms"),
]


def _changed(value, path, change):
    """value with the entry at path replaced by change(entry), the rest unchanged."""
    if not path:
        return change(value)
    key, rest = path[0], path[1:]
    if isinstance(key, str):
        return dataclasses.replace(value, **{key: _changed(getattr(value, key), rest, change)})
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[key] = _changed(value[key], rest, change)
        return value
    items = list(value)
    items[key] = _changed(items[key], rest, change)
    return type(value)(items)


def _with_nan(value, path):
    """value with the entry at path set to NaN, the rest unchanged."""
    return _changed(value, path, lambda entry: math.nan)


def _with_factor(value, path):
    """value with the entry at path multiplied by FACTOR, the rest unchanged."""
    return _changed(value, path, lambda entry: entry * FACTOR)


@pytest.fixture
def corrupt(monkeypatch):
    """``corrupt(module, name, call, path, corruption)`` wraps module.name so
    that its call-th call returns ``corruption(result, path)`` (``_with_nan``
    by default); returns the list of calls made so far, one None per call,
    which the caller may clear to count afresh."""
    def install(module, name, call, path, corruption=_with_nan):
        original = getattr(module, name)
        calls = []

        def wrapped(*args, **kwargs):
            value = original(*args, **kwargs)
            calls.append(None)
            return corruption(value, path) if len(calls) - 1 == call else value

        monkeypatch.setattr(module, name, wrapped)
        return calls

    return install


def _row_ids(rows):
    """A group's first row by the group's name, each further one by the name and its path."""
    ids = [row[-1] for row in rows]
    return [group if ids.index(group) == i else "-".join(map(str, (group, *path)))
            for i, (*_, path, group) in enumerate(rows)]


@pytest.mark.parametrize("module, name, call, path, group", NAN_ROWS, ids=_row_ids(NAN_ROWS))
def test_a_nan_case_fails_its_group(corrupt, capsys, module, name, call, path, group):
    calls = corrupt(module, name, call, path)
    result = vf.run_checks(only=group)[group]
    assert len(calls) > call  # the corrupted case was reached
    assert not result.passed
    assert math.isnan(result.max_error)
    calls.clear()  # the CLI run counts its calls afresh
    assert cli.main(["verify", "--only", group]) == 1
    captured = capsys.readouterr()
    assert '"max_error": NaN' in captured.out
    assert captured.err == f"verify: failed checks: {group}\n"


@pytest.mark.parametrize("module, name, call, path, group", FACTOR_ROWS,
                         ids=_row_ids(FACTOR_ROWS))
def test_a_factor_error_fails_its_group(corrupt, capsys, module, name, call, path, group):
    calls = corrupt(module, name, call, path, _with_factor)
    result = vf.run_checks(only=group)[group]
    assert len(calls) > call  # the corrupted case was reached
    assert not result.passed
    assert result.max_error >= 0.5 * (FACTOR - 1.0)
    calls.clear()  # the CLI run counts its calls afresh
    assert cli.main(["verify", "--only", group]) == 1
    assert capsys.readouterr().err == f"verify: failed checks: {group}\n"


def test_a_lost_sphere_comparison_fails_fixture_bounds(corrupt, capsys):
    # the Ricci column at t = 5 of the fifth bound table, the sphere's
    # comparison one after the four fixtures' reports: only the comparison
    # fails, so max_error, the reports' largest excess, stays finite
    def nan_ricci_at_5(table, _):
        ricci = table["ricci_curvature"].copy()
        ricci[0] = math.nan
        return {**table, "ricci_curvature": ricci}

    calls = corrupt(bd, "bound_table", 4, None, nan_ricci_at_5)
    result = vf.run_checks(only="fixture_bounds")["fixture_bounds"]
    assert len(calls) == 5
    assert not result.passed
    assert math.isfinite(result.max_error)
    assert result.details == "violations: comparison:t=5.0"
    calls.clear()
    assert cli.main(["verify", "--only", "fixture_bounds"]) == 1
    assert capsys.readouterr().err == "verify: failed checks: fixture_bounds\n"


@pytest.mark.parametrize("group", sorted({row[-1] for row in NAN_ROWS + FACTOR_ROWS}))
def test_the_groups_pass_uncorrupted(group):
    # so that a failing row above is the corruption's doing
    result = vf.run_checks(only=group)[group]
    assert result.passed
    assert math.isfinite(result.max_error)
