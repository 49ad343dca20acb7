"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Where ``heatent verify`` runs the same check with the same tolerance,
or a stricter one, the criterion calls that check; the other tolerances are
pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import run_cli
from heatent import bounds as bd
from heatent import fixtures as fx
from heatent import h3entropy as h3
from heatent import spectral as sp
from heatent.h3entropy import log_sinh_ratio
from heatent.verify import CHECKS, sinh_ratio_bounds_check
from oracles import I1_quadrature


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_01_moment_table():
    # the closed forms against the direct quadrature path in r, to 2 eps
    start = time.monotonic()
    result = CHECKS["moment_table"]()
    elapsed = time.monotonic() - start
    report(1, "closed-form moment table vs quadrature oracle",
           result.passed and elapsed < 10.0,
           f"max rel err {result.max_error:.2e}, {elapsed:.2f}s")


def test_02_second_moment_identity():
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa)
        for t in (0.1, 1.0, 10.0):
            closed = h3.I1(p, t)
            quad = I1_quadrature(p, t)
            worst = max(worst, abs(closed - quad) / abs(closed))
    pinned = h3.I1(h3.H3Params(2.0), 0.25)
    report(2, "second-moment identity and its value 2 at unit scale",
           worst <= 1e-8 and pinned == 2.0,
           f"max rel err {worst:.2e}, I1(kappa^2 t = 1) = {pinned}")


def test_03_kernel_normalization():
    result = CHECKS["h3_normalization"]()
    report(3, "hyperbolic kernel mass is 1", result.passed,
           f"max |mass - 1| = {result.max_error:.2e}")


def test_04_envelopes():
    result = CHECKS["envelopes"]()
    report(4, "eta and eta' strictly inside closed-form envelopes", result.passed,
           "40-point log grid, t in [0.1, 100]")


def test_05_asymptotic_band():
    # kappa = 1 at t = 20, 50, 100 and kappa = 2 at t = 5, 12.5, 25, each
    # within 0.05 kappa^2 of kappa^2 (2 -+ log sqrt 2)
    start = time.monotonic()
    result = CHECKS["band"]()
    elapsed = time.monotonic() - start
    report(5, "entropy rate inside the large-time band", result.passed and elapsed < 30.0,
           f"max excess {result.max_error:.2e}, {elapsed:.2f}s")


def test_06_rate_assembly_consistency():
    result = CHECKS["rate_consistency"]()
    report(6, "direct rate vs finite difference on all traces", result.passed,
           f"max rel err {result.max_error:.2e}")


def test_07_curvature_rate_bound():
    ok = True
    details = []
    for name in ("circle", "torus", "sphere"):
        fixture = fx.get_fixture(name)
        times = (np.geomspace(0.01, 2.0, 10) if name != "sphere"
                 else fixture.default_times)
        trace = sp.entropy_trace(fixture.initial, times)
        reports = {r.bound_name: r for r in
                   bd.check_bounds(trace, fixture.manifold, fixture.initial)}
        rep = reports["ricci_curvature"]
        ok = ok and rep.all_satisfied
        details.append(f"{name} margin {(rep.rhs - trace.rate_direct).min():.2e}")
    report(7, "curvature entropy-rate bound on every trace point", ok,
           "; ".join(details))


def test_08_drift_curvature_bound():
    fixture = fx.drift_fixture()
    times = np.geomspace(0.1, 2.0, 6)
    trace = sp.entropy_trace(fixture.initial, times)
    reports = bd.check_bounds(trace, fixture.manifold, fixture.initial)
    rep = reports[0]
    ok = (rep.bound_name == "drift_curvature" and rep.all_satisfied
          and abs(times[-1] - 2.0) < 1e-12)
    report(8, "drift-curvature bound along the exact drift trace to t = 2", ok,
           f"effective k = {fixture.manifold.ricci_lower_bound:.4f}, "
           f"margin {(rep.rhs - trace.rate_direct).min():.2e}")


def test_09_gradient_and_gap_bounds_with_comparison():
    ok = True
    for name in ("circle", "sphere"):
        fixture = fx.get_fixture(name)
        trace = sp.entropy_trace(fixture.initial, fixture.default_times)
        reports = {r.bound_name: r for r in
                   bd.check_bounds(trace, fixture.manifold, fixture.initial)}
        ok = ok and reports["gradient_log_sup"].all_satisfied
        ok = ok and reports["spectral_gap"].all_satisfied
    sphere = fx.get_fixture("sphere")
    _, q0 = sp.entropy_and_fisher(sphere.initial)
    _, sup_f = sp.grid_extrema(sphere.initial)
    comparison = all(
        bd.ricci_bound_rhs(2, sphere.manifold.ricci_lower_bound, q0, t)
        < bd.hamilton_bound_rhs(0.0, sup_f * sphere.manifold.volume, t)
        for t in (5.0, 8.0, 12.0))
    report(9, "gradient and spectral-gap bounds hold; exponential beats "
              "polynomial decay at large t", ok and comparison)


def test_10_pointwise_identity_residual():
    result = CHECKS["bochner_residual"]()
    report(10, "pointwise commutation-identity residual", result.passed,
           f"max rel residual {result.max_error:.2e} over 10 random pairs incl. zero drift")


def test_11_inequality_suite():
    violations = 0
    rng = np.random.default_rng(7)
    torus = sp.torus2(1.0, 1.0)
    for _ in range(5):
        w = fx.random_positive_torus_field(rng, torus)
        gap, scale = sp.hessian_trace_gaps([w])[0]
        if gap < -1e-12 * scale:
            violations += 1
    circle = fx.circle_fixture()
    for mean_sq, second, _ in sp.cauchy_step_trace(circle.initial, (0.02, 0.2, 1.0)):
        if mean_sq > second * (1.0 + 1e-12):
            violations += 1
    for r in np.geomspace(1e-6, 1e3, 400):
        lo, mid, hi = sinh_ratio_bounds_check(float(r))
        if not (lo < mid < hi):
            violations += 1
    for beta in (1.25, 1.5, 1.75):
        r_edge = (beta - 1.0) / beta
        for r in np.linspace(r_edge / 50.0, r_edge * (1 - 1e-9), 40):
            if not sinh_ratio_bounds_check(float(r))[1] > 1.0 / (1.0 + beta * float(r)):
                violations += 1
        if not any(sinh_ratio_bounds_check(float(r))[1] < 1.0 / (1.0 + beta * float(r))
                   for r in np.geomspace(1.0, 1e3, 40)):
            violations += 1
    for kappa in (0.5, 1.0, 2.0):
        for r in np.geomspace(1e-6, 1e2, 200):
            x = kappa * float(r)
            v = log_sinh_ratio(x)
            if not (x - math.log1p(2.0 * x) < v < x - math.log1p(x)):
                violations += 1
    report(11, "inequality suite (trace, mean-square, ratio bounds, "
               "sharpness, log sandwich)", violations == 0,
           f"{violations} violations")


def test_12_euclidean_reference():
    result = CHECKS["euclidean_limit"]()
    report(12, "flat-space reference rate at vanishing curvature", result.passed,
           f"{result.details}, rel {result.max_error:.2e}")


def test_13_verify_determinism(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        proc = run_cli("verify", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    identical = out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    all_pass = all(entry["pass"] for entry in payload.values())
    report(13, "verification report is byte-identical across runs",
           identical and all_pass,
           f"{len(payload)} checks, all passing" if all_pass else "check failures")
