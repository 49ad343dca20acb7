"""The full verification suite behind ``heatent verify``.

Each check exercises one identity, inequality or bound of the library on
built-in fixtures and returns a CheckResult; the CLI serialises the lot as a
deterministic JSON report.  Check names are stable identifiers usable with
``--only``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bounds as bd
from . import fixtures as fx
from . import h3entropy as h3
from . import spectral as sp
from .quadrature import QuadratureSpec, integrate_batch, require_converged
from .specfun import (
    HyperbolicMoment,
    hyperbolic_moment_closed_form,
    hyperbolic_moment_quadratures,
    log_sinh_ratio,
    sinh_ratio_bounds_check,
)

_MOMENTS = [HyperbolicMoment(m, "sinh") for m in range(5)] + [
    HyperbolicMoment(m, "cosh") for m in range(4)]
_KAPPA_GRID = (0.5, 1.0, 2.0)
_T_GRID = (0.1, 1.0, 10.0)

_RANDOM_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    max_error: float
    details: str


def _stable_moment_integrand(cases: list[tuple[HyperbolicMoment, float, float]]):
    """exp(-r^2/2t) r^m {sinh,cosh}(kr) for case j = (moment, kappa, t), with
    the exponentials combined, so the far tail evaluates to 0 instead of
    overflowing."""
    kappa = np.array([k for _, k, _ in cases])
    t = np.array([t for _, _, t in cases])
    power = np.array([float(m.power) for m, _, _ in cases])
    sign = np.array([1.0 if m.kind == "cosh" else -1.0 for m, _, _ in cases])
    at_zero = np.array([1.0 if (m.kind == "cosh" and m.power == 0) else 0.0
                        for m, _, _ in cases])
    log2 = math.log(2.0)

    def f(r, j):
        gauss = -r * r / (2.0 * t[j])
        up = np.exp(gauss + kappa[j] * r - log2)
        down = np.exp(gauss - kappa[j] * r - log2)
        return np.where(r == 0.0, at_zero[j], r ** power[j] * (up + sign[j] * down))

    return f


def check_moment_table(spec: QuadratureSpec) -> CheckResult:
    """Nine closed-form moments vs the quadrature oracle, both paths; an
    unconverged integral of either path raises, naming its case."""
    cases = [(moment, kappa, t) for moment in _MOMENTS
             for kappa in _KAPPA_GRID for t in _T_GRID]
    results = integrate_batch(_stable_moment_integrand(cases),
                              [kappa * t for _, kappa, t in cases],
                              [math.sqrt(t) for _, _, t in cases], spec)
    direct = [require_converged(d, f"direct path of {m} at kappa = {k!r}, t = {t!r}").value
              for (m, k, t), d in zip(cases, results)]
    shifted = hyperbolic_moment_quadratures(cases, spec)
    times = np.array(_T_GRID)
    closed = np.concatenate([hyperbolic_moment_closed_form(moment, kappa, times)
                             for moment in _MOMENTS for kappa in _KAPPA_GRID]).tolist()
    worst = 0.0
    for (moment, kappa, t), d, s, c in zip(cases, direct, shifted, closed):
        grown = math.exp(0.5 * kappa * kappa * t)
        worst = max(worst, abs(grown * c - d) / abs(d), abs(grown * s - d) / abs(d))
    return CheckResult(worst <= 1e-8, worst,
                       "closed forms and both integration paths agree on the "
                       f"{len(_MOMENTS)}x{len(_KAPPA_GRID)}x{len(_T_GRID)} grid")


def check_second_moment(spec: QuadratureSpec) -> CheckResult:
    """Closed-form scaled second moment vs radial quadrature; equals 2 at
    kappa^2 t = 1."""
    worst = 0.0
    times = np.array(_T_GRID)
    for kappa in _KAPPA_GRID:
        p = h3.H3Params(kappa, spec)
        closed = h3.I1(p, times)
        quad = h3.I1_quadrature(p, times)
        worst = max(worst, float(np.max(np.abs(closed - quad) / np.abs(closed))))
    pin = abs(h3.I1(h3.H3Params(2.0, spec), 0.25) - 2.0)
    worst = max(worst, pin)
    return CheckResult(worst <= 1e-8, worst,
                       "second moment matches quadrature; value 2 at kappa^2 t = 1")


def check_h3_normalization(spec: QuadratureSpec) -> CheckResult:
    worst = 0.0
    times = np.array([0.1, 1.0, 10.0, 50.0])
    for kappa in _KAPPA_GRID:
        mass = h3.normalization_quadrature(h3.H3Params(kappa, spec), times)
        worst = max(worst, float(np.max(np.abs(mass - 1.0))))
    return CheckResult(worst <= 1e-8, worst,
                       "radial kernel mass is 1 on the kappa x t grid")


def check_envelopes(spec: QuadratureSpec,
                    narrow_fraction: float = 0.0) -> CheckResult:
    """Quadrature values sit strictly inside the closed-form envelopes on a
    40-point log grid: every side's verdict is inside.  narrow_fraction > 0
    moves each side's margin in by that fraction of its envelope's width,
    relative to eta or eta', for the harness self-test."""
    sweep = h3.evaluate_records(h3.H3Params(1.0, spec), np.geomspace(0.1, 100.0, 40))
    narrowing = [narrow_fraction * (hi - lo) / np.abs(value)
                 for value, lo, hi in ((sweep.eta, sweep.eta_lower, sweep.eta_upper),
                                       (sweep.etap, sweep.etap_lower, sweep.etap_upper))]
    states = h3.verdict_states(sweep.margins - np.repeat(narrowing, 2, axis=0), sweep.errors)
    # a (row, eta or eta') pair fails when either of its two sides is not inside
    failures = int(np.count_nonzero(~np.all(states.reshape(2, 2, -1) == "inside", axis=1)))
    detail = "eta and eta' strictly inside their envelopes on the log grid"
    if narrow_fraction > 0.0:
        detail += f" (fault injected: narrowed by {narrow_fraction:.0%} per side)"
    return CheckResult(failures == 0, float(failures), detail)


def check_band(spec: QuadratureSpec) -> CheckResult:
    """Entropy rate inside the asymptotic band with h3's band slack."""
    margins = np.concatenate([h3.evaluate_records(h3.H3Params(kappa, spec), ts).band_margin
                              for kappa, ts in ((1.0, (20.0, 50.0, 100.0)),
                                                (2.0, (5.0, 12.5, 25.0)))])
    return CheckResult(bool(np.all(margins >= 0.0)), max(0.0, float(np.max(-margins))),
                       "large-time entropy rate inside the band at kappa = 1 and 2")


def check_rate_consistency(spec: QuadratureSpec) -> CheckResult:
    """Direct rate vs finite difference of the entropy, hyperbolic and spectral."""
    sweep = h3.evaluate_records(h3.H3Params(1.0, spec), (1.0, 5.0, 20.0))
    rel = np.abs(sweep.rate_direct - sweep.rate_fd) / np.abs(sweep.rate_direct)
    worst = float(rel.max())
    for name in ("circle", "torus", "sphere", "torus-drift"):
        fixture = fx.get_fixture(name)
        trace = sp.entropy_trace(fixture.initial, fixture.rate_check_times)
        rel = np.abs(trace.rate_direct - trace.rate_fd) / np.abs(trace.rate_direct)
        worst = max(worst, float(rel.max()))
    return CheckResult(worst <= 1e-4, worst,
                       "rate_direct and rate_fd agree on hyperbolic space and "
                       "all four spectral fixtures")


def check_fixture_bounds(spec: QuadratureSpec) -> CheckResult:
    """Every applicable bound holds along every fixture trace, and at large
    times on the sphere the curvature bound beats the gradient bound."""
    del spec
    failures = []
    worst = -math.inf
    for name in ("circle", "torus", "sphere", "torus-drift"):
        fixture = fx.get_fixture(name)
        trace = sp.entropy_trace(fixture.initial, fixture.default_times)
        for report in bd.check_bounds(trace, fixture.manifold, fixture.initial):
            if not report.all_satisfied:
                failures.append(f"{name}:{report.bound_name}")
            worst = max(worst, float(np.max(trace.rate_direct - report.rhs)))
    sphere = fx.get_fixture("sphere")
    comparison = (5.0, 8.0)
    table = bd.bound_table(sphere.manifold, sphere.initial, comparison)
    for t, ricci, gradient in zip(comparison, table["ricci_curvature"],
                                  table["gradient_log_sup"]):
        if not ricci < gradient:
            failures.append(f"comparison:t={t}")
    detail = ("all bound reports satisfied; curvature bound beats gradient "
              "bound on the sphere at large t")
    if failures:
        detail = "violations: " + ", ".join(failures)
    return CheckResult(not failures, worst, detail)


def check_bochner(spec: QuadratureSpec) -> CheckResult:
    """Pointwise commutation-identity residual for 10 random (field, drift)
    pairs on the torus, the first with zero drift."""
    del spec
    rng = np.random.default_rng(_RANDOM_SEED)
    torus = sp.torus2(1.0, 1.0)
    worst = 0.0
    for trial in range(10):
        w = fx.random_positive_torus_field(rng, torus)
        potential = None if trial == 0 else fx.random_torus_potential(rng, torus)
        report = sp.bochner_residual(w, potential=potential)
        worst = max(worst, report.relative)
    return CheckResult(worst <= 1e-8, worst,
                       "identity residual is roundoff-level for 10 random pairs "
                       "(first has zero drift)")


def check_hessian_trace(spec: QuadratureSpec) -> CheckResult:
    """Pointwise Hessian-vs-trace inequality for random positive fields."""
    del spec
    rng = np.random.default_rng(_RANDOM_SEED + 1)
    torus = sp.torus2(1.0, 1.0)
    worst = 0.0
    for _ in range(8):
        w = fx.random_positive_torus_field(rng, torus)
        gap, scale = sp.hessian_trace_gap(w)
        worst = max(worst, -gap / scale)
    return CheckResult(worst <= 1e-12, worst,
                       "squared traceless-Hessian term dominates the trace term "
                       "pointwise for 8 random positive fields")


def check_cauchy_step(spec: QuadratureSpec) -> CheckResult:
    """Mean-square step and the integration-by-parts identity on evolved
    fixture densities."""
    del spec
    worst_ineq = 0.0
    worst_ibp = 0.0
    for name in ("circle", "torus", "sphere"):
        fixture = fx.get_fixture(name)
        for t in (0.05, 0.2, 1.0):
            field = sp.evolve(fixture.initial, t)
            mean_sq, second, fisher = sp.cauchy_step_values(field)
            scale = max(second, 1e-30)
            worst_ineq = max(worst_ineq, (mean_sq - second) / scale)
            # absolute floor: once the field is flat, fisher sits at the
            # roundoff floor and a pure relative comparison is noise
            worst_ibp = max(worst_ibp,
                            abs(math.sqrt(mean_sq) - fisher) / max(fisher, 1e-10))
    passed = worst_ineq <= 1e-12 and worst_ibp <= 1e-8
    return CheckResult(passed, max(worst_ineq, worst_ibp),
                       "mean-square inequality and the integration-by-parts "
                       "identity hold on evolved fixture densities")


def check_sinh_ratio_bounds(spec: QuadratureSpec) -> CheckResult:
    """Strict two-sided bound on (1 - e^{-2r})/(2r), plus its sharpness: for
    each beta in (1, 2) the lower comparison flips once r is large enough."""
    del spec
    violations = 0
    for r in np.geomspace(1e-6, 1e3, 400):
        lo, mid, hi = sinh_ratio_bounds_check(float(r))
        if not (lo < mid < hi):
            violations += 1
    for beta in (1.25, 1.5, 1.75):
        r_max = (beta - 1.0) / beta
        inner = np.linspace(r_max / 50.0, r_max * (1.0 - 1e-9), 50)
        for r in inner:
            _, mid, _ = sinh_ratio_bounds_check(float(r))
            if not mid > 1.0 / (1.0 + beta * float(r)):
                violations += 1
        flipped = any(
            sinh_ratio_bounds_check(float(r))[1] < 1.0 / (1.0 + beta * float(r))
            for r in np.geomspace(1.0, 1e3, 40))
        if not flipped:
            violations += 1
    return CheckResult(violations == 0, float(violations),
                       "two-sided bound strict on the log grid; sharpness "
                       "exhibited for beta in {1.25, 1.5, 1.75}")


def check_log_sandwich(spec: QuadratureSpec) -> CheckResult:
    """kr + log(1/(1+2kr)) < log(sinh kr / kr) < kr + log(1/(1+kr))."""
    del spec
    x = np.multiply.outer(_KAPPA_GRID, np.geomspace(1e-6, 1e2, 200)).ravel()
    val = log_sinh_ratio(x)
    lo = x - np.log1p(2.0 * x)
    hi = x - np.log1p(x)
    violations = int(np.count_nonzero(~((lo < val) & (val < hi))))
    return CheckResult(violations == 0, float(violations),
                       "log sinh ratio sandwich strict on the kappa x r grid")


def check_euclidean_limit(spec: QuadratureSpec) -> CheckResult:
    """Small-curvature entropy rate reproduces the flat-space value n/(2t)."""
    rate = float(h3.evaluate_records(h3.H3Params(0.01, spec), [1.0]).rate_direct[0])
    reference = bd.euclidean_rate_reference(3, 1.0)
    rel = abs(rate - reference) / reference
    return CheckResult(rel <= 0.01, rel,
                       f"rate at kappa = 0.01, t = 1 is {rate:.6f} vs flat {reference}")


def check_entropy_decomposition(spec: QuadratureSpec) -> CheckResult:
    """Assembled entropy vs one direct quadrature of -h log h.

    This is also the arbiter between the two candidate Gaussian weights in
    the transcendental factor: the single-Gaussian reading used by the
    library matches the direct integral; a doubled exponent would not.
    """
    worst = 0.0
    times = np.array([0.3, 1.0, 5.0])
    for kappa in (0.5, 1.0, 2.0):
        p = h3.H3Params(kappa, spec)
        assembled = h3.evaluate_records(p, times).entropy
        direct = h3.entropy_quadrature(p, times)
        worst = max(worst, float(np.max(np.abs(assembled - direct) / np.abs(direct))))
    return CheckResult(worst <= 1e-6, worst,
                       "decomposed entropy equals the direct integral; "
                       "single-Gaussian weight confirmed")


CHECKS: dict[str, Callable[[QuadratureSpec], CheckResult]] = {
    "moment_table": check_moment_table,
    "second_moment": check_second_moment,
    "h3_normalization": check_h3_normalization,
    "envelopes": check_envelopes,
    "band": check_band,
    "rate_consistency": check_rate_consistency,
    "fixture_bounds": check_fixture_bounds,
    "bochner_residual": check_bochner,
    "hessian_trace": check_hessian_trace,
    "cauchy_step": check_cauchy_step,
    "sinh_ratio_bounds": check_sinh_ratio_bounds,
    "log_sandwich": check_log_sandwich,
    "euclidean_limit": check_euclidean_limit,
    "entropy_decomposition": check_entropy_decomposition,
}


def run_checks(only: Optional[str] = None,
               spec: QuadratureSpec = QuadratureSpec(),
               inject_fault: Optional[str] = None) -> dict[str, CheckResult]:
    """Run the suite (or one named group); inject_fault="envelopes" narrows
    the envelopes by 10% per side so failure propagation can be exercised."""
    if only is not None and only not in CHECKS:
        raise KeyError(f"unknown check {only!r}; choose from {sorted(CHECKS)}")
    names = [only] if only else list(CHECKS)
    results: dict[str, CheckResult] = {}
    for name in names:
        if name == "envelopes" and inject_fault == "envelopes":
            results[name] = check_envelopes(spec, narrow_fraction=0.10)
        else:
            results[name] = CHECKS[name](spec)
    return results
