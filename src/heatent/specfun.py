"""Numerically stable special functions, the Gaussian-hyperbolic moment table
and its shifted-Gaussian quadrature oracle.

The moment table evaluates integrals of the form

    M(m) = integral_0^inf exp(-r^2/2t) r^m {sinh, cosh}(kappa r) dr

in closed form.  Every entry carries an exp(kappa^2 t / 2) factor, so each
comes back times exp(-kappa^2 t / 2), a plain float that never overflows,
and is then t^{(m+1)/2} F_m(x): a power of t times a function of
x = kappa sqrt(t) alone.  ``_MOMENT_TABLE`` holds the nine F_m; the moments
and h3entropy's closed parts and envelope terms of eta are read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import QuadratureSpec, integrate_batch, require_converged

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
# numpy has no erf: math.erf mapped over the elements of an array
_ERF = np.frompyfunc(math.erf, 1, 1)

# Up to this point log(sinh x / x) is its even Taylor series
# sum_n 2^{2n} B_{2n} / (2n (2n)!) x^{2n}, n = 1..16 (radius of convergence
# pi).  Above it the closed form x + log((1 - e^{-2x})/2x) cancels less than
# a factor of 7, so both branches hold about 1e-15 relative.
_LOG_SINH_RATIO_SWITCH = 1.0
_LOG_SINH_RATIO_SERIES = (
    0.16666666666666666, -0.005555555555555556, 0.0003527336860670194,
    -2.6455026455026456e-05, 2.1377799155576935e-06, -1.803670234005331e-07,
    1.5661391322766983e-08, -1.3884130493737299e-09, 1.2504359176004997e-10,
    -1.1402575602296091e-11, 1.0502923908637557e-12, -9.754877841593701e-14,
    9.123468230859098e-15, -8.5837197618956095e-16, 8.117318009727789e-17,
    -7.710527514116273e-18,
)


def alpha(kappa: float, t):
    """Truncated half-Gaussian mass: integral of exp(-r^2/2) over [0, kappa*sqrt(t)].

    Monotone increasing in t with limit sqrt(pi/2).  Elementwise over an
    array of times; a float t gives a float.
    """
    ts = np.asarray(t, dtype=float)
    if kappa <= 0.0 or np.any(ts <= 0.0):
        raise ValueError("alpha requires kappa > 0 and t > 0")
    erf = np.asarray(_ERF(kappa * np.sqrt(0.5 * ts)), dtype=float)
    return float(_SQRT_HALF_PI * erf) if ts.ndim == 0 else _SQRT_HALF_PI * erf


@dataclass(frozen=True)
class HyperbolicMoment:
    """Index (power, kind) into the nine-row Gaussian-hyperbolic moment table."""

    power: int
    kind: str  # "sinh" | "cosh"

    def __post_init__(self):
        if self.kind not in ("sinh", "cosh"):
            raise ValueError(f"kind must be 'sinh' or 'cosh', got {self.kind!r}")
        top = 4 if self.kind == "sinh" else 3
        if not 0 <= self.power <= top:
            raise ValueError(
                f"unsupported moment (power={self.power}, kind={self.kind})")


# F_m(x) of each moment from x = kappa sqrt(t), a = alpha(kappa, t) and
# e = exp(-x^2/2): the moment times exp(-kappa^2 t/2) is t^{(m+1)/2} F_m(x).
_MOMENT_TABLE = {
    HyperbolicMoment(0, "sinh"): lambda x, a, e: a,
    HyperbolicMoment(1, "sinh"): lambda x, a, e: _SQRT_HALF_PI * x,
    HyperbolicMoment(2, "sinh"): lambda x, a, e: x * e + (x * x + 1.0) * a,
    HyperbolicMoment(3, "sinh"): lambda x, a, e: _SQRT_HALF_PI * x * (x * x + 3.0),
    HyperbolicMoment(4, "sinh"): lambda x, a, e: (
        x * (x * x + 5.0) * e + (x * x * (x * x + 6.0) + 3.0) * a),
    HyperbolicMoment(0, "cosh"): lambda x, a, e: np.full_like(x, _SQRT_HALF_PI),
    HyperbolicMoment(1, "cosh"): lambda x, a, e: e + x * a,
    HyperbolicMoment(2, "cosh"): lambda x, a, e: _SQRT_HALF_PI * (x * x + 1.0),
    HyperbolicMoment(3, "cosh"): lambda x, a, e: (
        (x * x + 2.0) * e + x * (x * x + 3.0) * a),
}


def moment_factors(moments: Sequence[HyperbolicMoment], kappa: float, t) -> list:
    """F_m(kappa sqrt t) of each moment, elementwise in t: the closed form
    of the moment times exp(-kappa^2 t/2), divided by t^{(m+1)/2}."""
    ts = np.asarray(t, dtype=float)
    if kappa <= 0.0 or np.any(ts <= 0.0):
        raise ValueError("moments require kappa > 0 and t > 0")
    x = kappa * np.sqrt(ts)
    a = alpha(kappa, ts)
    e = np.exp(-0.5 * x * x)  # harmless underflow to 0 at large x
    return [_MOMENT_TABLE[moment](x, a, e) for moment in moments]


def hyperbolic_moment_closed_form(moment: HyperbolicMoment, kappa: float, t):
    """Closed form of the (power, kind) moment, times exp(-kappa^2 t/2):
    t^{(m+1)/2} F_m(kappa sqrt t).  Elementwise in t; a float t gives a float.
    """
    [factor] = moment_factors([moment], kappa, t)
    value = np.asarray(t, dtype=float) ** (0.5 * (moment.power + 1)) * factor
    return float(value) if np.ndim(t) == 0 else value


def shifted_gaussian_quadratures(
    weight: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    cases: Sequence[tuple[float, float, str]],
    contexts: Sequence[str],
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[float]:
    """For each case i = (kappa, t, kind), the integral over r > 0 of
    exp(-r^2/2t) w(r) {sinh, cosh}(kappa r), times exp(-kappa^2 t/2), by
    adaptive quadrature that never forms the exp(kappa^2 t/2) growth.

    Each exponential half of 2 {sinh, cosh}(kappa r) = e^{kappa r} -+
    e^{-kappa r} has its square completed and r = +-kappa t + sqrt(t) s
    substituted; the value is sqrt(t)/2 times the difference (sinh) or the
    sum (cosh) of the two s-integrals.  ``weight(gauss, r, i)`` is their
    integrand, elementwise: gauss = exp(-s^2/2) times w(r) at radii r >= 0
    of case i, multiplied in the caller's order.  All halves run as one
    lockstep batch, case i's plus half as integral 2i and its minus half as
    2i + 1; convergence is required case by case, a failure named by
    contexts[i].
    """
    for kappa, t, _ in cases:
        if not (kappa >= 0.0 and t > 0.0):
            raise ValueError("shifted Gaussians require kappa >= 0 and t > 0")
    centers = np.repeat([kappa * t for kappa, t, _ in cases], 2)
    centers[1::2] *= -1.0
    scales = np.repeat([math.sqrt(t) for _, t, _ in cases], 2)
    edges = -centers / scales  # s at r = 0; each half runs over s >= its edge

    def f(x, j):
        s = edges[j] + x
        # maximum() absorbs the one-ulp negative r at the domain edge
        r = np.maximum(0.0, centers[j] + scales[j] * s)
        return weight(np.exp(-0.5 * s * s), r, j // 2)

    results = integrate_batch(f, np.maximum(0.0, -edges).tolist(),
                              [1.0] * edges.size, spec)
    values = []
    for (_, t, kind), context, plus, minus in zip(cases, contexts, results[0::2],
                                                  results[1::2]):
        jp = require_converged(plus, context).value
        jm = require_converged(minus, context).value
        values.append(0.5 * math.sqrt(t) * (jp - jm if kind == "sinh" else jp + jm))
    return values


def hyperbolic_moment_quadratures(
    cases: Sequence[tuple[HyperbolicMoment, float, float]],
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[float]:
    """Each (moment, kappa, t) moment by ``shifted_gaussian_quadratures``,
    times exp(-kappa^2 t/2): the independent cross-check of the closed forms
    at any kappa^2 t."""
    powers = np.array([float(moment.power) for moment, _, _ in cases])
    return shifted_gaussian_quadratures(
        lambda gauss, r, i: gauss * r ** powers[i],
        [(kappa, t, moment.kind) for moment, kappa, t in cases],
        [f"shifted path of {moment} at kappa = {kappa!r}, t = {t!r}"
         for moment, kappa, t in cases], spec)


def log_sinh_ratio(x):
    """log(sinh x / x), continuous and overflow-free for all x >= 0.

    Elementwise over an array; a float argument gives a float.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0):
        raise ValueError("log_sinh_ratio requires x >= 0")
    small = xs <= _LOG_SINH_RATIO_SWITCH
    if small.all():
        out = _log_sinh_ratio_series(xs * xs)
    else:
        # sinh x / x = e^x (1 - e^{-2x}) / (2x).  Where some elements are
        # small this also runs on them (0/0 at x = 0) before the series
        # overwrites them: cheaper than gathering the large ones apart.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = xs + np.log(-np.expm1(-2.0 * xs) / (2.0 * xs))
        if small.any():
            near = xs[small]
            out[small] = _log_sinh_ratio_series(near * near)
    return float(out[0]) if np.ndim(x) == 0 else out


def _log_sinh_ratio_series(x2: np.ndarray) -> np.ndarray:
    """The even Taylor series of log(sinh x / x) at x^2 = x2, by Horner's
    rule in place, so no step allocates."""
    series = np.zeros_like(x2)
    for c in reversed(_LOG_SINH_RATIO_SERIES):
        series *= x2
        series += c
    series *= x2
    return series


def sinh_ratio_bounds_check(r: float) -> tuple[float, float, float]:
    """The strictly ordered triple 1/(1+2r) < (1 - e^{-2r})/(2r) < 1/(1+r)."""
    if r <= 0.0:
        raise ValueError("sinh_ratio_bounds_check requires r > 0")
    mid = -math.expm1(-2.0 * r) / (2.0 * r)
    return 1.0 / (1.0 + 2.0 * r), mid, 1.0 / (1.0 + r)
