"""The full verification suite behind ``heatent verify``.

Each check exercises one identity, inequality or bound of the library on
built-in fixtures and returns a CheckResult; the CLI serialises the lot as a
deterministic JSON report.  Check names are stable identifiers usable with
``--only``.

Every oracle integral the H^3 groups run lives here, beside the check that
reads it, times exp(-kappa^2 t/2), the moment table's scale: each a batch
of the one double-exponential rule of ``quadrature`` in r, by one
overflow-free Gaussian-sinh expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bounds as bd
from . import fixtures as fx
from . import h3entropy as h3
from . import quadrature
from . import spectral as sp
from .quadrature import integrate_batch

_MOMENTS = range(5)  # the powers m of the sinh moments
_KAPPA_GRID = (0.5, 1.0, 2.0)
_KAPPAS = np.array(_KAPPA_GRID)[:, None]  # a column: a kappa x t grid is one batch
_T_GRID = (0.1, 1.0, 10.0)

_RANDOM_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    """One group's verdict.  max_error is the group's worst error floored at
    0 (a violation count for the counting groups); for ``fixture_bounds`` it
    is the largest rate - rhs, negative while every bound holds.  It is NaN
    when any case is NaN, and a NaN fails the group."""

    passed: bool
    max_error: float
    details: str


def _result(errors, tolerance, details: str) -> CheckResult:
    """The pass rule of every group but ``fixture_bounds``: max_error is the
    largest of the errors floored at 0, NaN when any is NaN, and the group
    passes only when every error is at most its tolerance, one number or one
    per error (broadcast against the errors' shape), so a NaN fails it."""
    errors = np.asarray(errors, dtype=float)
    # max propagates a NaN; adding 0.0 turns a -0.0 it keeps over the floor into 0.0
    return CheckResult(bool((errors <= tolerance).all()),
                       float(errors.max(initial=0.0)) + 0.0, details)


def _gaussian_sinh(weight, kappa, t, d):
    """weight(r) exp(-r^2/2t) sinh(kappa r) exp(-kappa^2 t/2) at r = kappa t + d,
    elementwise, the exponentials combined and the Gaussian taken on the
    offset d: finite at any kappa^2 t, and 0 in the far tail."""
    r = kappa * t + d
    return weight(r) * np.exp(-d * d / (2.0 * t)) * 0.5 * -np.expm1(-2.0 * kappa * r)


def _direct_moment_integrand(d, m, kappa, t):
    """The integrand of M(m) times exp(-kappa^2 t/2), at r = kappa t + d."""
    return _gaussian_sinh(lambda r: r ** m, kappa, t, d)


def _radial_mass(kappa, t, d, pref):
    """Radial density of the kernel at r = kappa t + d, elementwise: h(t, r)
    times the 4 pi sinh^2(kr)/k^2 shell, pref being ``_mass_prefactor`` there."""
    return _gaussian_sinh(lambda r: pref * r, kappa, t, d)


def _mass_prefactor(kappa: float, t: float) -> float:
    """The factor 4 pi/k (2 pi t)^-3/2 of ``_radial_mass`` at a float t, by a
    float power (numpy's vectorised one may differ in the last bit)."""
    return 4.0 * math.pi / kappa * (2.0 * math.pi * t) ** -1.5


def _radial_integrals(kappas, ts, context: str) -> np.ndarray:
    """At each (kappa, t) of kappas and ts, which broadcast, the integral
    over r > 0 of ``_RADIAL[context](mass, r, t, kappa)``, t and kappa being
    (rows, 1) columns and mass ``_radial_mass`` there.  Each pair is one case
    of the double-exponential rule (``quadrature.integrate_batch``), split at
    its peak r = kappa t with width sqrt t, so each value is bit-identical to
    its lone run; one that misses the tolerance raises, named by context and t.
    """
    kappa, t = np.broadcast_arrays(kappas, ts)
    shape, kappa, flat = t.shape, kappa.ravel(), t.ravel()
    pref = np.array([_mass_prefactor(k, s) for k, s in zip(kappa.tolist(), flat.tolist())])

    def f(d, t, k, pref):
        return _RADIAL[context](_radial_mass(k, t, d, pref), k * t + d, t, k)

    values, _ = integrate_batch(f, kappa * flat, np.sqrt(flat), (flat, kappa, pref),
                                lambda i: f"{context} at t = {float(flat[i])!r}")
    return values.reshape(shape)


# The radial oracles' integrands by name: the kernel mass, its second moment
# (before the 1/(2t) of I1) and the entropy density -h log h.
_RADIAL = {
    "kernel normalization": lambda mass, r, t, k: mass,
    "second moment": lambda mass, r, t, k: mass * r * r,
    "direct entropy integral": lambda mass, r, t, k: mass * (r * r / (2.0 * t) + (
        1.5 * np.log(2.0 * math.pi * t) + 0.5 * k * k * t) + h3.log_sinh_ratio(k * r)),
}


def check_moment_table() -> CheckResult:
    """Five closed-form sinh moments vs the direct quadrature path in r; an
    integral that misses its tolerance raises, naming its case.  The path
    meets the rule's relative tolerance eps and the closed forms carry only
    rounding, so each difference is at most 2 eps (read at call time)."""
    cases = [(m, kappa, t) for m in _MOMENTS
             for kappa in _KAPPA_GRID for t in _T_GRID]
    powers, kappas, ts = np.array(cases, dtype=float).T
    direct, _ = integrate_batch(
        _direct_moment_integrand, kappas * ts, np.sqrt(ts), (powers, kappas, ts),
        lambda i: "direct path of M({}) at kappa = {!r}, t = {!r}".format(*cases[i]))
    times = np.array(_T_GRID)  # the closed forms t^{(m+1)/2} F_m, F_m one pass per kappa
    factors = np.array([h3.moment_factors(kappa, times) for kappa in _KAPPA_GRID])
    closed = np.array([times ** (0.5 * (m + 1)) * factors[:, m] for m in _MOMENTS]).ravel()
    return _result(np.abs(closed - direct) / np.abs(direct),
                   2.0 * quadrature.RELATIVE_TOLERANCE,
                   "closed forms agree with the direct integral on the "
                   f"{len(_MOMENTS)}x{len(_KAPPA_GRID)}x{len(_T_GRID)} grid")


def check_second_moment() -> CheckResult:
    """Closed-form scaled second moment vs radial quadrature, to 2 eps (read at
    call time): the quadrature meets eps, I1 carries only rounding, and it is
    2 exactly at kappa^2 t = 1."""
    times = np.array(_T_GRID)
    closed = np.array([h3.I1(h3.H3Params(kappa), times) for kappa in _KAPPA_GRID])
    quad = _radial_integrals(_KAPPAS, times, "second moment") / (2.0 * times)
    pin = abs(h3.I1(h3.H3Params(2.0), 0.25) - 2.0)
    return _result(np.append(np.abs(closed - quad) / np.abs(closed), pin),
                   2.0 * quadrature.RELATIVE_TOLERANCE,
                   "second moment matches quadrature; value 2 at kappa^2 t = 1")


def check_h3_normalization() -> CheckResult:
    """Radial kernel mass vs 1, to 2 eps (read at call time): the quadrature
    meets the rule's relative tolerance eps, and the mass is exactly 1."""
    mass = _radial_integrals(_KAPPAS, (0.1, 1.0, 10.0, 50.0), "kernel normalization")
    return _result(np.abs(mass - 1.0), 2.0 * quadrature.RELATIVE_TOLERANCE,
                   "radial kernel mass is 1 on the kappa x t grid")


def check_envelopes(narrow_fraction: float = 0.0) -> CheckResult:
    """Quadrature values sit strictly inside the closed-form envelopes on a
    40-point log grid: every side's verdict is inside.  narrow_fraction > 0
    moves each side's margin in by that fraction of its envelope's width,
    relative to eta or eta', for the harness self-test."""
    sweep = h3.evaluate_records(h3.H3Params(1.0), np.geomspace(0.1, 100.0, 40))
    narrowing = [narrow_fraction * (hi - lo) / np.abs(value)
                 for value, lo, hi in ((sweep.eta, sweep.eta_lower, sweep.eta_upper),
                                       (sweep.etap, sweep.etap_lower, sweep.etap_upper))]
    states = h3.verdict_states(sweep.margins - np.repeat(narrowing, 2, axis=0), sweep.errors)
    # a (row, eta or eta') pair fails when either of its two sides is not inside
    failures = int(np.count_nonzero(~np.all(states.reshape(2, 2, -1) == "inside", axis=1)))
    detail = "eta and eta' strictly inside their envelopes on the log grid"
    if narrow_fraction > 0.0:
        detail += f" (fault injected: narrowed by {narrow_fraction:.0%} per side)"
    return _result(failures, 0, detail)


def check_band() -> CheckResult:
    """Entropy rate inside the asymptotic band with h3's band slack."""
    margins = np.concatenate([h3.evaluate_records(h3.H3Params(kappa), ts).band_margin
                              for kappa, ts in ((1.0, (20.0, 50.0, 100.0)),
                                                (2.0, (5.0, 12.5, 25.0)))])
    return _result(-margins, 0.0, "large-time entropy rate inside the band at kappa = 1 and 2")


def check_rate_consistency() -> CheckResult:
    """Direct rate vs finite difference of the entropy, hyperbolic and spectral.

    The tolerance stays 1e-4, well above what the group reads, because it
    must cover rate_fd's own error: the central difference truncates by
    about h^2 S'''/(6 S') at h = 1e-4 t, about 1e-8 relative, and the
    entropy's roundoff adds about 1e-14 |S|/(1e-4 t).  A rate identity in
    place of rate_fd (ROADMAP item 20) lets it tighten.
    """
    traces = [h3.evaluate_records(h3.H3Params(1.0), (1.0, 5.0, 20.0))]
    for name in fx.FIXTURE_BUILDERS:
        fixture = fx.get_fixture(name)
        traces.append(sp.entropy_trace(fixture.initial, fixture.rate_check_times))
    errors = np.concatenate([np.abs(trace.rate_direct - trace.rate_fd) / np.abs(trace.rate_direct)
                             for trace in traces])
    return _result(errors, 1e-4,
                   "rate_direct and rate_fd agree on hyperbolic space and "
                   "all four spectral fixtures")


def check_fixture_bounds() -> CheckResult:
    """Every applicable bound holds along every fixture trace, and at large
    times on the sphere the curvature bound beats the gradient bound."""
    failures = []
    excess = []  # rate - rhs of every bound at every time
    for name in fx.FIXTURE_BUILDERS:
        fixture = fx.get_fixture(name)
        trace = sp.entropy_trace(fixture.initial, fixture.default_times)
        for report in bd.check_bounds(trace, fixture.manifold, fixture.initial):
            if not report.all_satisfied:
                failures.append(f"{name}:{report.bound_name}")
            excess.append(trace.rate_direct - report.rhs)
    sphere = fx.get_fixture("sphere")
    comparison = (5.0, 8.0)
    table = bd.bound_table(sphere.initial, comparison)
    for t, ricci, gradient in zip(comparison, table["ricci_curvature"],
                                  table["gradient_log_sup"]):
        if not ricci < gradient:
            failures.append(f"comparison:t={t}")
    detail = ("all bound reports satisfied; curvature bound beats gradient "
              "bound on the sphere at large t")
    if failures:
        detail = "violations: " + ", ".join(failures)
    # max propagates a NaN, as in _result
    return CheckResult(not failures, float(np.concatenate(excess).max()), detail)


def check_bochner() -> CheckResult:
    """Pointwise commutation-identity residual for 10 random (field, drift)
    pairs on the torus, the first with zero drift, drawn once."""
    draws = fx.seeded_torus_fields(_RANDOM_SEED, (True,) + (True, False) * 9)
    rows = sp.bochner_residuals([(draws[0], None), *zip(draws[1::2], draws[2::2])])
    return _result(rows[:, 0] / rows[:, 1], 1e-8,
                   "identity residual is roundoff-level for 10 random pairs "
                   "(first has zero drift)")


def check_hessian_trace() -> CheckResult:
    """Pointwise Hessian-vs-trace inequality for 8 random positive fields, drawn once."""
    gaps = sp.hessian_trace_gaps(fx.seeded_torus_fields(_RANDOM_SEED + 1, (True,) * 8))
    margins = gaps[:, 0] / gaps[:, 1]
    return _result(-margins, 1e-12,
                   "squared traceless-Hessian term dominates the trace term pointwise for 8 "
                   f"random positive fields; least slack/scale {float(margins.min()):.3e}")


def check_cauchy_step() -> CheckResult:
    """Mean-square step and the integration-by-parts identity on evolved
    fixture densities, each fixture's three times from one propagation."""
    mean_sq, second, fisher = np.concatenate([
        sp.cauchy_step_trace(fx.get_fixture(name).initial, (0.05, 0.2, 1.0))
        for name in ("circle", "torus", "sphere")]).T
    # (inequality, identity) per evolved density; fisher has an absolute floor, as
    # once the field is flat it sits at the roundoff floor, where a ratio is noise
    errors = np.stack([(mean_sq - second) / np.maximum(second, 1e-30),
                       np.abs(np.sqrt(mean_sq) - fisher) / np.maximum(fisher, 1e-10)], axis=1)
    return _result(errors, (1e-12, 1e-8),
                   "mean-square inequality and the integration-by-parts "
                   "identity hold on evolved fixture densities")


def sinh_ratio_bounds_check(r: float) -> tuple[float, float, float]:
    """The strictly ordered triple 1/(1+2r) < (1 - e^{-2r})/(2r) < 1/(1+r)."""
    if r <= 0.0:
        raise ValueError("sinh_ratio_bounds_check requires r > 0")
    mid = -math.expm1(-2.0 * r) / (2.0 * r)
    return 1.0 / (1.0 + 2.0 * r), mid, 1.0 / (1.0 + r)


def check_sinh_ratio_bounds() -> CheckResult:
    """Strict two-sided bound on (1 - e^{-2r})/(2r), plus its sharpness: for
    each beta in (1, 2) the lower comparison flips once r is large enough."""
    violations = sum(not lo < mid < hi for lo, mid, hi in
                     map(sinh_ratio_bounds_check, np.geomspace(1e-6, 1e3, 400).tolist()))
    for beta in (1.25, 1.5, 1.75):
        r_max = (beta - 1.0) / beta
        inner = np.linspace(r_max / 50.0, r_max * (1.0 - 1e-9), 50).tolist()
        violations += sum(not sinh_ratio_bounds_check(r)[1] > 1.0 / (1.0 + beta * r)
                          for r in inner)
        violations += not any(sinh_ratio_bounds_check(r)[1] < 1.0 / (1.0 + beta * r)
                              for r in np.geomspace(1.0, 1e3, 40).tolist())
    return _result(violations, 0, "two-sided bound strict on the log grid; sharpness "
                                  "exhibited for beta in {1.25, 1.5, 1.75}")


def check_log_sandwich() -> CheckResult:
    """kr + log(1/(1+2kr)) < log(sinh kr / kr) < kr + log(1/(1+kr))."""
    x = np.multiply.outer(_KAPPA_GRID, np.geomspace(1e-6, 1e2, 200)).ravel()
    val = h3.log_sinh_ratio(x)
    lo = x - np.log1p(2.0 * x)
    hi = x - np.log1p(x)
    return _result(np.count_nonzero(~((lo < val) & (val < hi))), 0,
                   "log sinh ratio sandwich strict on the kappa x r grid")


def check_euclidean_limit() -> CheckResult:
    """Small-curvature entropy rate reproduces the flat-space value n/(2t), the
    Ricci estimate at K = 0 and q0 = inf."""
    rate = float(h3.evaluate_records(h3.H3Params(0.01), [1.0]).rate_direct[0])
    reference = bd.ricci_bound_rhs(3, 0.0, math.inf, 1.0)
    return _result(abs(rate - reference) / reference, 0.01,
                   f"rate at kappa = 0.01, t = 1 is {rate:.6f} vs flat {reference}")


def check_entropy_decomposition() -> CheckResult:
    """Assembled entropy vs one direct quadrature of -h log h, to twice the
    quadrature's relative tolerance eps: the assembled eta rule and the
    direct integral each meet eps, and |I2| is at most 0.40 of the entropy
    on this grid, so the two differ by at most eps (1 + 0.40) < 2 eps.

    This is also the arbiter between the two candidate Gaussian weights in
    the transcendental factor: the single-Gaussian reading used by the
    library matches the direct integral; a doubled exponent would not.
    """
    times = np.array([0.3, 1.0, 5.0])
    assembled = np.array([h3.evaluate_records(h3.H3Params(kappa), times).entropy
                          for kappa in _KAPPA_GRID])
    direct = _radial_integrals(_KAPPAS, times, "direct entropy integral")
    return _result(np.abs(assembled - direct) / np.abs(direct),
                   2.0 * quadrature.RELATIVE_TOLERANCE,
                   "decomposed entropy equals the direct integral; "
                   "single-Gaussian weight confirmed")


CHECKS: dict[str, Callable[[], CheckResult]] = {
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
               inject_fault: Optional[str] = None) -> dict[str, CheckResult]:
    """Run the suite (or one named group); inject_fault="envelopes" narrows
    the envelopes by 10% per side so failure propagation can be exercised.
    Each group's max_error is its worst error floored at 0 (for
    ``fixture_bounds`` the largest rate - rhs, negative inside); it is NaN
    when any case is NaN, and a NaN fails the group.  Raises ValueError for
    a fault other than "envelopes", an unknown group, or a fault that cannot
    fire in the one group asked for."""
    if inject_fault is not None and inject_fault != "envelopes":
        raise ValueError(f"unsupported fault {inject_fault!r}; supported: envelopes")
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check {only!r}; choose from {sorted(CHECKS)}")
    if inject_fault is not None and only is not None and only != inject_fault:
        raise ValueError(f"fault {inject_fault!r} cannot fire in group {only!r}; "
                         f"it acts on the {inject_fault!r} group only")
    names = [only] if only else list(CHECKS)
    results: dict[str, CheckResult] = {}
    for name in names:
        if name == "envelopes" and inject_fault == "envelopes":
            results[name] = check_envelopes(narrow_fraction=0.10)
        else:
            results[name] = CHECKS[name]()
    return results
