"""Numerically stable special functions and closed-form Gaussian-hyperbolic moments.

The moment table evaluates integrals of the form

    integral_0^inf exp(-r^2/2t) r^m {sinh, cosh}(kappa r) dr

in closed form.  Every entry carries an exp(kappa^2 t / 2) factor, so results
come back as LogScaled values and never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .logscale import LogScaled
from .quadrature import QuadratureSpec, integrate_shifted_gaussian

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

# Below this point log(sinh x / x) switches to its even Taylor series; both
# branches agree to ~1e-14 there.
_LOG_SINH_RATIO_SWITCH = 1e-2


def alpha(kappa: float, t: float) -> float:
    """Truncated half-Gaussian mass: integral of exp(-r^2/2) over [0, kappa*sqrt(t)].

    Monotone increasing in t with limit sqrt(pi/2).
    """
    if kappa <= 0.0 or t <= 0.0:
        raise ValueError("alpha requires kappa > 0 and t > 0")
    return _SQRT_HALF_PI * math.erf(kappa * math.sqrt(0.5 * t))


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
) -> LogScaled:
    """Closed form of the (power, kind) moment as plain + exp(kappa^2 t/2) parts."""
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
    return LogScaled(plain, 0.0) + LogScaled(grown, 0.5 * k2t)


def hyperbolic_moment_quadrature(
    moment: HyperbolicMoment,
    kappa: float,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> LogScaled:
    """Same moment through the overflow-safe shifted-Gaussian path.

    Writes 2*{sinh,cosh}(kappa r) = e^{kappa r} +/- e^{-kappa r}, completes
    the square in each branch and substitutes r = +/-kappa*t + sqrt(t)*s.
    Serves as the independent cross-check of the closed forms at any
    kappa^2 t.
    """
    if kappa <= 0.0 or t <= 0.0:
        raise ValueError("moments require kappa > 0 and t > 0")
    st = math.sqrt(t)
    m = moment.power

    def g_plus(s: float) -> float:
        r = kappa * t + st * s
        return math.exp(-0.5 * s * s) * r ** m

    def g_minus(s: float) -> float:
        r = -kappa * t + st * s
        return math.exp(-0.5 * s * s) * r ** m

    jp = integrate_shifted_gaussian(g_plus, kappa * t, st, spec).value
    jm = integrate_shifted_gaussian(g_minus, -kappa * t, st, spec).value
    combined = jp - jm if moment.kind == "sinh" else jp + jm
    return LogScaled(0.5 * st * combined, 0.5 * kappa * kappa * t)


def log_sinh_ratio(x: float) -> float:
    """log(sinh x / x), continuous and overflow-free for all x >= 0."""
    if x < 0.0:
        raise ValueError("log_sinh_ratio requires x >= 0")
    if x <= _LOG_SINH_RATIO_SWITCH:
        x2 = x * x
        return x2 * (1.0 / 6.0 + x2 * (-1.0 / 180.0 + x2 / 2835.0))
    # sinh x / x = e^x (1 - e^{-2x}) / (2x)
    return x + math.log(-math.expm1(-2.0 * x) / (2.0 * x))


def sinh_ratio_bounds_check(r: float) -> tuple[float, float, float]:
    """The strictly ordered triple 1/(1+2r) < (1 - e^{-2r})/(2r) < 1/(1+r)."""
    if r <= 0.0:
        raise ValueError("sinh_ratio_bounds_check requires r > 0")
    mid = -math.expm1(-2.0 * r) / (2.0 * r)
    return 1.0 / (1.0 + 2.0 * r), mid, 1.0 / (1.0 + r)
