"""Numerically stable special functions and closed-form Gaussian-hyperbolic moments.

The moment table evaluates integrals of the form

    integral_0^inf exp(-r^2/2t) r^m {sinh, cosh}(kappa r) dr

in closed form.  Every entry carries an exp(kappa^2 t / 2) factor, so each
comes back times exp(-kappa^2 t / 2), a plain float that never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import QuadratureSpec, integrate_shifted_gaussians, require_converged

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


def hyperbolic_moment_closed_form(
    moment: HyperbolicMoment, kappa: float, t: float
) -> float:
    """Closed form of the (power, kind) moment, times exp(-kappa^2 t/2).

    The moment is plain + grown exp(kappa^2 t/2), so the scaled value is
    grown + plain exp(-kappa^2 t/2).
    """
    if kappa <= 0.0 or t <= 0.0:
        raise ValueError("moments require kappa > 0 and t > 0")
    k2t = kappa * kappa * t
    a = alpha(kappa, t)
    st = math.sqrt(t)
    m, kind = moment.power, moment.kind
    if kind == "sinh":
        if m == 0:
            plain, grown = 0.0, st * a
        elif m == 1:
            plain, grown = 0.0, _SQRT_HALF_PI * kappa * t * st
        elif m == 2:
            plain, grown = kappa * t * t, t * st * (k2t + 1.0) * a
        elif m == 3:
            plain, grown = 0.0, _SQRT_HALF_PI * kappa * t * t * st * (k2t + 3.0)
        else:  # m == 4
            plain = kappa * t ** 3 * (k2t + 5.0)
            grown = t * t * st * (k2t * k2t + 6.0 * k2t + 3.0) * a
    else:
        if m == 0:
            plain, grown = 0.0, _SQRT_HALF_PI * st
        elif m == 1:
            plain, grown = t, kappa * t * st * a
        elif m == 2:
            plain, grown = 0.0, _SQRT_HALF_PI * t * st * (k2t + 1.0)
        else:  # m == 3
            plain = t * t * (k2t + 2.0)
            grown = kappa * t * t * st * (k2t + 3.0) * a
    return grown + plain * math.exp(-0.5 * k2t)


def hyperbolic_moment_quadratures(
    cases: Sequence[tuple[HyperbolicMoment, float, float]],
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[float]:
    """Each (moment, kappa, t) moment through the overflow-safe
    shifted-Gaussian path, times exp(-kappa^2 t/2).

    Writes 2*{sinh,cosh}(kappa r) = e^{kappa r} +/- e^{-kappa r}, completes
    the square in each branch and substitutes r = +/-kappa*t + sqrt(t)*s.
    Serves as the independent cross-check of the closed forms at any
    kappa^2 t.  All 2 x len(cases) integrals run as one lockstep batch;
    convergence is required case by case, in order.
    """
    for _, kappa, t in cases:
        if kappa <= 0.0 or t <= 0.0:
            raise ValueError("moments require kappa > 0 and t > 0")
    centers = np.repeat([kappa * t for _, kappa, t in cases], 2)
    centers[1::2] *= -1.0
    scales = np.repeat([math.sqrt(t) for _, _, t in cases], 2)
    powers = np.repeat([float(moment.power) for moment, _, _ in cases], 2)

    def g(s, j):
        r = centers[j] + scales[j] * s
        return np.exp(-0.5 * s * s) * r ** powers[j]

    results = integrate_shifted_gaussians(g, centers.tolist(), scales.tolist(), spec)
    values = []
    for (moment, kappa, t), plus, minus in zip(cases, results[0::2], results[1::2]):
        context = f"shifted path of {moment} at kappa = {kappa!r}, t = {t!r}"
        jp = require_converged(plus, context).value
        jm = require_converged(minus, context).value
        combined = jp - jm if moment.kind == "sinh" else jp + jm
        values.append(0.5 * math.sqrt(t) * combined)
    return values


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
