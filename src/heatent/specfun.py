"""Numerically stable special functions and the Gaussian-sinh moment table.

The moment table evaluates integrals of the form

    M(m) = integral_0^inf exp(-r^2/2t) r^m sinh(kappa r) dr,  m = 0, ..., 4,

in closed form.  Every entry carries an exp(kappa^2 t / 2) factor, so each
comes back times exp(-kappa^2 t / 2), a plain float that never overflows,
and is then t^{(m+1)/2} F_m(x): a power of t times a function of
x = kappa sqrt(t) alone.  ``_factors`` forms F_0, ..., F_4 in one pass.
``moment_factors`` is its checked form, from which ``verify`` reads each
moment as t^{(m+1)/2} F_m and checks it against its own quadratures, formed
in the same scale; h3entropy's sweep reads its closed parts and envelope
terms of eta from ``_factors`` directly.

``moment_factors`` takes a finite kappa > 0 and finite times t > 0;
anything else raises ValueError, and so does a moment factor that overflows.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

# Up to this point log(sinh x / x) is y P(y) at y = x^2, P the degree-9
# polynomial below (highest degree first): mpmath.chebyfit of
# log(sinh sqrt(y) / sqrt(y)) / y on y in [0, 1] with 10 terms at 40 digits,
# fit error 1.3e-18.  tests/test_specfun.py refits it with mpmath and
# requires the same bits.  Above the switch the closed form
# x + log((1 - e^{-2x})/2x) cancels less than a factor of 7, so both
# branches hold about 1e-15 relative.
_LOG_SINH_RATIO_SWITCH = 1.0
_LOG_SINH_RATIO_POLY = (
    -7.310715998325355e-12, 1.1708532674413125e-10, -1.3794517478122135e-09,
    1.565518031433476e-08, -1.803643341350071e-07, 2.13777920281465e-06,
    -2.645502634614059e-05, 0.00035273368605855023, -0.0055555555555553,
    0.16666666666666666,
)
# the least x whose 2x overflows
_DOUBLING_OVERFLOWS = 2.0 ** 1023


def _factors(kappa: float, ts: np.ndarray, x) -> list:
    """F_0, ..., F_4 at x = kappa sqrt(ts), elementwise in the float array ts,
    unchecked (an overflow warns unless the caller ignores it): with alpha a,
    one erf per time, and e = exp(-x^2/2), a, sqrt(pi/2) x, x e + (x^2 + 1) a,
    sqrt(pi/2) x (x^2 + 3) and x (x^2 + 5) e + (x^2 (x^2 + 6) + 3) a."""
    z, xx, f1 = kappa * np.sqrt(0.5 * ts), x * x, _SQRT_HALF_PI * x
    a = _SQRT_HALF_PI * np.fromiter(map(math.erf, z.ravel().tolist()), float).reshape(z.shape)
    e = np.exp(-0.5 * xx)  # harmless underflow to 0 at large x
    return [a, f1, x * e + (xx + 1.0) * a, f1 * (xx + 3.0),
            x * (xx + 5.0) * e + (xx * (xx + 6.0) + 3.0) * a]


def _refuse_overflow(values: list, kappa: float, ts: np.ndarray, what: str) -> None:
    """ValueError naming kappa and the first t where one of the values,
    each shaped like ts, is not finite."""
    finite = np.array([np.isfinite(v) for v in values]).all(axis=0).reshape(-1)
    if not finite.all():
        t = float(ts.reshape(-1)[np.flatnonzero(~finite)[0]])
        raise ValueError(f"{what} overflows at kappa = {kappa!r}, t = {t!r}")


def moment_factors(kappa: float, t) -> list:
    """F_0, ..., F_4 at kappa sqrt t, elementwise in t: the closed form of
    each moment times exp(-kappa^2 t/2), divided by t^{(m+1)/2}.  kappa and
    every t must be finite and positive, and a t where one of them overflows
    raises ValueError."""
    ts = np.asarray(t, dtype=float)
    if not (0.0 < kappa < math.inf and ((0.0 < ts) & (ts < math.inf)).all()):
        raise ValueError("need finite kappa > 0 and finite t > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        factors = _factors(kappa, ts, kappa * np.sqrt(ts))
    _refuse_overflow(factors, kappa, ts, "a moment factor F_0 to F_4")
    return factors


def log_sinh_ratio(x):
    """log(sinh x / x), continuous and overflow-free for all x >= 0.

    Elementwise over an array; a float argument gives a float.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0):
        raise ValueError("log_sinh_ratio requires x >= 0")
    out = _log_sinh_ratio(xs.copy())
    return float(out[0]) if np.ndim(x) == 0 else out


def _log_sinh_ratio(xs: np.ndarray) -> np.ndarray:
    """``log_sinh_ratio`` of a float array xs >= 0, which it overwrites:
    every step runs in place, so few arrays of its size are ever live."""
    small = xs <= _LOG_SINH_RATIO_SWITCH
    if np.count_nonzero(small) == xs.size:
        xs *= xs
        return _log_sinh_ratio_poly(xs)
    if xs.max() >= _DOUBLING_OVERFLOWS:
        # where 2x overflows, log(sinh x / x) = x - log 2x is x - log x - log 2
        huge = xs >= _DOUBLING_OVERFLOWS
        far = xs[huge]
        xs[huge] = 2.0
        xs = _log_sinh_ratio(xs)
        with np.errstate(invalid="ignore"):  # nan at x = inf, as the closed form gives
            xs[huge] = far - np.log(far) - math.log(2.0)
        return xs
    near = xs[small]
    # the closed form, on the large elements alone where at least three
    # quarters are small, else on all (0/0 at x = 0): each cheaper there
    if 4 * near.size >= 3 * xs.size:
        xs[~small] = _log_sinh_ratio_closed(xs[~small])
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            _log_sinh_ratio_closed(xs)
    if near.size:
        near *= near
        xs[small] = _log_sinh_ratio_poly(near)
    return xs


def _log_sinh_ratio_closed(xs: np.ndarray) -> np.ndarray:
    """log(sinh x / x) = x + log((1 - e^{-2x})/2x), in place on xs >= 0."""
    ratio = np.multiply(xs, -2.0)
    np.expm1(ratio, out=ratio)
    np.negative(ratio, out=ratio)
    ratio /= 2.0 * xs
    np.log(ratio, out=ratio)
    xs += ratio
    return xs


def _log_sinh_ratio_poly(x2: np.ndarray) -> np.ndarray:
    """log(sinh x / x) at x^2 = x2 <= 1: x2 P(x2) by Horner's rule, in place
    on the one array it returns."""
    poly = x2 * _LOG_SINH_RATIO_POLY[0]
    for c in _LOG_SINH_RATIO_POLY[1:]:
        poly += c
        poly *= x2
    return poly


def sinh_ratio_bounds_check(r: float) -> tuple[float, float, float]:
    """The strictly ordered triple 1/(1+2r) < (1 - e^{-2r})/(2r) < 1/(1+r)."""
    if r <= 0.0:
        raise ValueError("sinh_ratio_bounds_check requires r > 0")
    mid = -math.expm1(-2.0 * r) / (2.0 * r)
    return 1.0 / (1.0 + 2.0 * r), mid, 1.0 / (1.0 + r)
