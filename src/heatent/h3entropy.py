"""Heat-kernel entropy on 3-dimensional hyperbolic space of curvature -kappa^2.

The kernel is an explicit Gaussian times a sinh correction, so its entropy
splits into a closed-form part plus one genuinely transcendental piece

    I2(t) = xi(t) * eta(t),

where xi is elementary and eta is a Gaussian-hyperbolic integral with a
log(sinh r / r) weight.  eta and its derivative are pinned between
closed-form envelopes; the entropy rate assembles as

    d/dt Ent = 3/(2t) + kappa^2 + xi'(t) eta(t) + xi(t) eta'(t),

and for large t it settles inside the band kappa^2 * (2 -+ log sqrt 2).

xi carries a factor exp(-kappa^2 t/2) and eta a factor exp(+kappa^2 t/2).
Each is returned as a plain float with its factor taken out: xi and xi'
times exp(kappa^2 t/2); eta, eta' and their envelopes times exp(-kappa^2 t/2).
So xi eta and xi' eta + xi eta' are plain products, and nothing overflows at
any kappa^2 t.  The closed forms are elementwise: a float t gives a float,
an array of times an array.

The trapezoid rule.  With L(x) = log(sinh x / x), eta is the integral over
r > 0 of exp(-r^2/2t) r^p sinh(kappa r) L(kappa r), p = 1 (eta' is the
p = 3 integral times 1/(2t^2)).  The integrand is even in r, so one
exponential half of sinh carries it, and completing the square gives

    eta exp(-kappa^2 t/2) = (sqrt t / 2) integral_R exp(-s^2/2) r^p L(kappa |r|) ds,

with r = kappa t + sqrt(t) s: a Gaussian times a function analytic in a
strip, on which the trapezoid rule converges geometrically.  The rule runs
on the nodes s = -9.5 ... 9.5 at step h = 1/8; its error estimate is
|I_h - I_2h|, I_2h being the sum over every other node.  eta and eta' at
one t share every node value of L.

The remainder.  Since L(x) = x - G(x) with G(x) = log(2x) - log(1 - e^{-2x}),
eta = kappa M(2, sinh) - R, where the closed part is the moment both
envelopes share and R is the same integral with G in place of L.  The closed
parts and the envelope terms are read from specfun's moment table.  From
kappa^2 t = 100 on, every node has r > 0 and the rule integrates R itself.
Every envelope verdict is taken on R: eta - lower = coeff log(...) - R, a
difference of two quantities each known to a few ulp, never a rounded eta
against a rounded envelope.  Each side is inside, outside or unresolved
against the error estimate.  ``eta_quadrature``, the same eta by
specfun's shifted-Gaussian quadrature, is the oracle the tests hold the rule
to.

Shortcuts that change no bit.  ``_trapezoid`` gives every node value and
sum the bits of its plain form (kappa t + sqrt(t) s, L or G at each node,
f (r gauss) and f (r^3 gauss) summed per row), for these reasons:
- r is built in place as outer(sqrt t, s) + kappa t, and each weighted
  product as (r gauss) f: IEEE addition and multiplication commute, so every
  rounding is the one of the plain form.
- G's second log is skipped from x = 20 on: there e^{-2x} < 2^-57, so
  1 - e^{-2x} rounds to 1.0 and its log is exactly 0.  The nodes below 20
  sit in the leading columns (x rises along a row), the only ones it is
  taken on.
- Where every row is on one side of kappa^2 t = 100, no row is gathered.
Each choice looks only at the values, never at a row's position, so a row
still does not depend on the grid it came in.

The sweep.  ``evaluate_records`` returns one ``H3Sweep``: a column array per
quantity, and the margins and error estimates of the four envelope sides as
(4, n) arrays in the order of ``SIDES``.  ``verdict_states`` is the one rule
that turns a margin and its error into inside, outside or unresolved.

A note on the radial weight: the density decomposition used here carries a
single Gaussian factor exp(-r^2/2t) inside eta.  A doubled-Gaussian variant
of that integrand is inconsistent with the closed-form pieces; the direct
quadrature of -integral h log h dV (``entropy_quadrature``) confirms the
single-Gaussian reading to full tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .quadrature import QuadratureConvergenceError, integrate_batch
from .specfun import (
    _log_sinh_ratio,
    log_sinh_ratio,
    moment_factors,
    shifted_gaussian_quadratures,
)

_SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_SQRT2 = 0.5 * math.log(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Trapezoid nodes in the shifted variable s: |s| <= 9.5 at step 1/8, where
# exp(-s^2/2) has fallen below 3e-20.  Every other node is the step-1/4 rule.
_STEP = 0.125
_NODES = np.arange(-76, 77) * _STEP
_GAUSS = np.exp(-0.5 * _NODES * _NODES)
# From kappa^2 t = 100 on, r = kappa t + sqrt(t) s is positive at every node
# (9.5^2 < 100) and the remainder R = closed - eta is integrated instead.
_REMAINDER_FROM = 100.0
# From here on e^{-2x} < 2^-57, a sixteenth of half an ulp of 1, so
# -expm1(-2x) is exactly 1.0 and its log exactly 0.
_UNIT_FROM = 20.0
# Relative rounding allowed, on top of the quadrature estimate, for each of
# the two terms an envelope slack is the difference of.
_SLACK_ROUNDING = 4.0 * sys.float_info.epsilon

# Central-difference step for the entropy-rate cross-check; balances
# truncation against quadrature noise at the stated tolerances.
_FD_STEP_SCALE = 1e-4

# Slack of the large-time band check, in units of kappa^2.
_BAND_SLACK = 0.05


@dataclass(frozen=True)
class H3Params:
    """Hyperbolic-space configuration: the curvature magnitude kappa."""

    kappa: float

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")


def heat_kernel(p: H3Params, t: float, d: float) -> float:
    """Transition density at time t between points at geodesic distance d."""
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if not 0.0 <= d < math.inf:  # a NaN fails too
        raise ValueError("d must be nonnegative and finite")
    k = p.kappa
    log_h = (
        -d * d / (2.0 * t)
        - 1.5 * math.log(2.0 * math.pi * t)
        - log_sinh_ratio(k * d)
        - 0.5 * k * k * t
    )
    return math.exp(log_h)


def _radial_mass(p: H3Params, t, d, pref):
    """Radial density of the kernel at r = kappa t + d: h(t, r) times the
    4 pi sinh^2(kr)/k^2 shell, pref being ``_mass_prefactor`` at t.

    Written with the exponentials combined, its Gaussian taken on the offset
    d from the peak, so it stays finite at any kappa^2 t (the raw shell
    factor alone would overflow).  Elementwise in t, d and pref.
    """
    k = p.kappa
    r = k * t + d
    return pref * r * np.exp(-d * d / (2.0 * t)) * 0.5 * -np.expm1(-2.0 * k * r)


def _mass_prefactor(p: H3Params, t: float) -> float:
    """The factor 4 pi/k (2 pi t)^-3/2 of ``_radial_mass`` at a float t.

    A float power, not numpy's vectorised one, which may differ from it in
    the last bit.
    """
    return 4.0 * math.pi / p.kappa * (2.0 * math.pi * t) ** -1.5


def _radial_integrals(p: H3Params, ts: np.ndarray, integrand, context: str) -> np.ndarray:
    """At each time of ts, the integral over r > 0 of integrand(mass, r, t),
    where t is a (rows, 1) column of times and mass is ``_radial_mass`` there;
    an array shaped like ts.

    Each time is one case of the double-exponential rule
    (``quadrature.integrate_batch``), split at its peak r = kappa t with
    width sqrt t, so each value is bit-identical to its lone run.  A time
    whose integral misses the tolerance raises, named by context and t.
    """
    flat = ts.ravel()
    pref = np.array([_mass_prefactor(p, s) for s in flat.tolist()])

    def f(d, t, pref):
        return integrand(_radial_mass(p, t, d, pref), p.kappa * t + d, t)

    values, _ = integrate_batch(f, p.kappa * flat, np.sqrt(flat), (flat, pref),
                                lambda i: f"{context} at t = {float(flat[i])!r}")
    return values.reshape(ts.shape)


def normalization_quadrature(p: H3Params, t):
    """Total kernel mass by radial quadrature; equals 1 for every t.
    Elementwise in t."""
    return _like(t, _radial_integrals(p, _times(t), lambda mass, r, t: mass,
                                      "kernel normalization"))


def _times(t) -> np.ndarray:
    """t as a float array, 0-d for a scalar; every time positive and finite."""
    ts = np.asarray(t, dtype=float)
    if not np.all((0.0 < ts) & (ts < math.inf)):
        raise ValueError("t must be positive and finite")
    return ts


def _like(t, value):
    """value as a float where t is a scalar, else as the array it is."""
    return float(value) if np.ndim(t) == 0 else value


def I1(p: H3Params, t):
    """Scaled second moment of the kernel, in closed form: (kappa^2 t + 3)/2."""
    return _like(t, 0.5 * (p.kappa * p.kappa * _times(t) + 3.0))


def I1_quadrature(p: H3Params, t):
    """Second-moment integral done honestly by radial quadrature.
    Elementwise in t."""
    ts = _times(t)
    moment = _radial_integrals(p, ts, lambda mass, r, t: mass * r * r, "second moment")
    return _like(t, moment / (2.0 * ts))


def xi(p: H3Params, t):
    """xi times exp(kappa^2 t/2): sqrt(2/pi) / (kappa t^{3/2}); always positive."""
    return _like(t, _SQRT_TWO_OVER_PI / (p.kappa * _times(t) ** 1.5))


def xi_prime(p: H3Params, t):
    """d/dt of xi, times exp(kappa^2 t/2); always negative."""
    ts = _times(t)
    k = p.kappa
    return _like(t, -(k * k * ts + 3.0) / (_SQRT_TWO_PI * k * ts ** 2.5))


def _closed_forms(p: H3Params, t: np.ndarray):
    """((closed, lower term, upper term) for eta, the same for eta', F_0) at
    the array of times t, all times exp(-kappa^2 t/2); F_0 is alpha(kappa, t).

    closed is kappa M(2, sinh) for eta and kappa M(4, sinh)/(2t^2) for eta',
    the part of the integral that log(sinh x/x) = x - G(x) gives in closed
    form.  The envelope is (closed - lower term, closed - upper term), so the
    remainder R = closed - eta lies strictly between the upper and the lower
    term.  Every term is a power of t times the moment table's F_m at
    x = kappa sqrt(t): for eta, closed = t x F_2 with coefficient t F_1 and
    log arguments 2x^2 + 4 and 1 + x F_1/F_0; for eta', closed = x F_4/2 with
    coefficient F_3/2 and log arguments 1 + 2x F_4/F_3 and 1 + x F_3/F_2.
    One erf per time serves all five F_m.
    """
    x = p.kappa * np.sqrt(t)
    f0, f1, f2, f3, f4 = moment_factors(p.kappa, t)
    coeff, coeff_prime = t * f1, 0.5 * f3
    return ((t * x * f2, coeff * np.log(2.0 * x * x + 4.0), coeff * np.log1p(x * f1 / f0)),
            (0.5 * x * f4, coeff_prime * np.log1p(2.0 * x * f4 / f3),
             coeff_prime * np.log1p(x * f3 / f2)),
            f0)


def eta_quadrature(p: H3Params, points: Sequence[tuple[float, bool]]) -> list[float]:
    """eta(t), or eta'(t) where the flag is set, times exp(-kappa^2 t/2), at
    each (t, prime) point by the double-exponential rule: the oracle the
    trapezoid rule of ``evaluate_records`` is tested against.

    Each value is the log-weighted sinh integral

        integral_0^inf exp(-r^2/2t) r^power sinh(kappa r) log(sinh kr/kr) dr

    with power 1 for eta and power 3 (times 1/(2t^2)) for eta', a (kappa, t)
    case of ``specfun.shifted_gaussian_quadratures``, so nothing ever sees
    the exp(kappa^2 t/2) growth directly.  Each point's value is
    bit-identical to its lone run; the first point, in order, that misses
    the tolerance raises, named by t and kappa.
    """
    k = p.kappa
    cubic = np.array([prime for _, prime in points], dtype=bool)

    def weighted(gauss, r, i):
        return gauss * np.where(cubic[i], r * r * r, r) * log_sinh_ratio(k * r)

    def context(i):
        t, prime = points[i]
        return f"log-weighted sinh integral (power {3 if prime else 1}) at t={t!r}, kappa={k!r}"

    values = shifted_gaussian_quadratures(
        weighted, [(k, t) for t, _ in points], context)
    return [value * (0.5 / (t * t)) if prime else value
            for value, (t, prime) in zip(values, points)]


def eta_envelope(p: H3Params, t):
    """Closed-form (lower, upper) bounds that eta must sit strictly inside,
    times exp(-kappa^2 t/2)."""
    (closed, lower, upper), _, _ = _closed_forms(p, _times(t))
    return _like(t, closed - lower), _like(t, closed - upper)


def eta_prime_envelope(p: H3Params, t):
    """Closed-form (lower, upper) bounds for eta', times exp(-kappa^2 t/2)."""
    _, (closed, lower, upper), _ = _closed_forms(p, _times(t))
    return _like(t, closed - lower), _like(t, closed - upper)


def entropy_quadrature(p: H3Params, t):
    """Entropy by one direct radial quadrature of -h log h, no decomposition.
    Elementwise in t.

    Independent oracle for the assembled value; also settles the radial
    Gaussian-weight reading discussed in the module docstring.
    """
    k = p.kappa

    def integrand(mass, r, t):
        base = 1.5 * np.log(2.0 * math.pi * t) + 0.5 * k * k * t
        return mass * (r * r / (2.0 * t) + base + log_sinh_ratio(k * r))

    return _like(t, _radial_integrals(p, _times(t), integrand, "direct entropy integral"))


def asymptotic_band(p: H3Params) -> tuple[float, float]:
    """Large-time band for the entropy rate: kappa^2 (2 -+ log sqrt 2)."""
    k2 = p.kappa * p.kappa
    return k2 * (2.0 - _LOG_SQRT2), k2 * (2.0 + _LOG_SQRT2)


SIDES = ("eta lower", "eta upper", "eta' lower", "eta' upper")


def verdict_states(margin, error):
    """Elementwise state of a check: "inside" or "outside" where the margin
    clears its error estimate, else "unresolved".  A margin is how far the
    checked value sits inside its bound, negative outside."""
    return np.where(margin > error, "inside",
                    np.where(margin < -error, "outside", "unresolved"))


@dataclass(frozen=True, eq=False)
class H3Sweep:
    """The hyperbolic entropy sweep over a time grid, one array per column.

    The six eta columns hold eta, eta' and their envelopes times
    exp(-kappa^2 t/2).  margins and errors are shaped (4, n), one row per
    envelope side in the order of SIDES; both are relative to the checked
    value.
    """

    kappa: float
    t: np.ndarray
    entropy: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    rate_direct: np.ndarray
    rate_fd: np.ndarray
    eta: np.ndarray
    eta_lower: np.ndarray
    eta_upper: np.ndarray
    etap: np.ndarray
    etap_lower: np.ndarray
    etap_upper: np.ndarray
    margins: np.ndarray
    errors: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    @property
    def envelope_ok(self) -> np.ndarray:
        """Per row: every envelope side resolved inside (``verdict_states``'
        rule: margin > error, so a NaN is not inside)."""
        return np.all(self.margins > self.errors, axis=0)

    @property
    def band_margin(self) -> np.ndarray:
        """How far rate_direct sits inside the band widened by _BAND_SLACK
        kappa^2; negative outside."""
        lo, hi = asymptotic_band(H3Params(self.kappa))
        slack = _BAND_SLACK * self.kappa * self.kappa
        with np.errstate(all="ignore"):
            return np.minimum(self.rate_direct - (lo - slack), (hi + slack) - self.rate_direct)

    @property
    def band_ok(self) -> np.ndarray:
        """Band containment, enforced once t >= 20/kappa^2."""
        with np.errstate(all="ignore"):
            return (self.t * self.kappa * self.kappa < 20.0) | (self.band_margin >= 0.0)


def _trapezoid(p: H3Params, ts: np.ndarray, n: int):
    """The fixed-node trapezoid rule of the module docstring at the times ts:
    the node sums for eta at every time and for eta' at the first n, each
    with its estimate |I_h - I_2h|, before the sqrt(t)/2 (and 1/(2t^2))
    scale.  L, or G where the mask returned first is set, is evaluated once
    per time and serves both sums.  Each time is one row of the array
    program, and every shortcut of the module docstring leaves each node
    value as it would be alone, so its sums do not depend on the others."""
    k = p.kappa
    remainder = k * k * ts >= _REMAINDER_FROM
    r = np.multiply.outer(np.sqrt(ts), _NODES)
    r += (k * ts)[:, None]
    x = k * r
    if remainder.all():
        f = _remainder_weight(x)
    elif not remainder.any():
        f = _log_sinh_ratio(np.abs(x, out=x))
    else:
        f = np.empty(r.shape)
        inner = x[~remainder]
        f[~remainder] = _log_sinh_ratio(np.abs(inner, out=inner))
        f[remainder] = _remainder_weight(x[remainder])
    # the products f (r gauss) and f (r^3 gauss), each taken in place
    near = r[:n] * r[:n]
    near *= r[:n]
    near *= _GAUSS
    near *= f[:n]
    r *= _GAUSS
    r *= f
    rules = []
    for weighted in (r, near):
        fine = _STEP * weighted.sum(axis=1)
        rules.append((fine, np.abs(fine - 2.0 * _STEP * weighted[:, ::2].sum(axis=1))))
    return remainder, rules


def _remainder_weight(x: np.ndarray) -> np.ndarray:
    """G(x) = x - log(sinh x / x) = log 2x - log(-expm1(-2x)), written so
    that nothing cancels, on rows of nodes (x >= 5 at every node, rising
    along each row), in place of x.  The second log is exactly 0 from
    _UNIT_FROM on, so it is taken only on the leading columns where some row
    is still below."""
    below = 0
    if x.size and x[:, 0].min() < _UNIT_FROM:
        below = np.flatnonzero(x.min(axis=0) < _UNIT_FROM)[-1] + 1
        unit = np.log(-np.expm1(-2.0 * x[:, :below]))
    x *= 2.0
    np.log(x, out=x)
    if below:
        x[:, :below] -= unit
    return x


def _slack_margins(value, rest, error, lower, upper):
    """(margins, errors) of the lower and the upper envelope side, each of
    shape (2, n) and taken on the remainder: eta - lower = (lower term) - R
    and upper - eta = R - (upper term), relative to the checked value."""
    size = np.where(value == 0.0, 1.0, np.abs(value))  # eta underflowed to 0: absolute
    slacks = np.array([lower - rest, rest - upper])
    rounding = _SLACK_ROUNDING * (np.abs([lower, upper]) + np.abs(rest))
    return slacks / size, (error + rounding) / size


def evaluate_records(p: H3Params, times) -> H3Sweep:
    """The sweep over the times, from one array program over the time grid.

    Its rows are t, t + h and t - h (h = 1e-4 t, for rate_fd); the
    trapezoid rule gives eta on every row and eta' on the t rows, and every
    closed form, envelope, rate and verdict margin is an expression over
    these rows.  Each row is computed on its own, so a row of the sweep does
    not depend on the grid it came in.

    Raises ValueError naming the first t where kappa^2 t of a row
    overflows, then one naming the first t where a node sum of eta or eta'
    does; then QuadratureConvergenceError for the first integral, in the
    order eta(t), eta'(t), eta(t + h), eta(t - h) row by row, whose
    estimate |I_h - I_2h| exceeds max(RELATIVE_TOLERANCE |I_h|,
    ABSOLUTE_TOLERANCE) of ``quadrature``, and then ValueError naming t where
    xi, xi' or 1/(2t^2) of a row leaves the double range.
    """
    grid = _times(np.array(times, dtype=float).reshape(-1))  # a copy: the sweep keeps it
    n = grid.size
    k = p.kappa

    def out_of_range(bad: np.ndarray, why: str) -> ValueError:
        t = grid[np.flatnonzero(bad.reshape(3, n).any(axis=0))[0]]
        return ValueError(f"t={float(t)!r} leaves the double range: {why}")

    with np.errstate(all="ignore"):
        steps = _FD_STEP_SCALE * grid
        ts = np.concatenate([grid, grid + steps, grid - steps])
        overflows = ~np.isfinite(k * k * ts)
        if overflows.any():
            raise out_of_range(overflows, "kappa^2 t overflows")
        remainder, ((fine, estimate), (fine_prime, estimate_prime)) = _trapezoid(p, ts, n)
        overflows = ~np.isfinite(fine)
        overflows[:n] |= ~np.isfinite(fine_prime)
        if overflows.any():
            raise out_of_range(overflows, "a node sum of eta or eta' overflows")
        failed, failed_prime = (
            ~(e <= np.maximum(quadrature.RELATIVE_TOLERANCE * np.abs(v),
                              quadrature.ABSOLUTE_TOLERANCE))  # a NaN estimate too
            for v, e in ((fine, estimate), (fine_prime, estimate_prime)))
        # per time, the slots eta(t), eta'(t), eta(t + h), eta(t - h)
        order = np.stack([failed[:n], failed_prime, failed[n:2 * n], failed[2 * n:]], axis=1)
        if order.any():
            i, slot = divmod(int(np.flatnonzero(order)[0]), 4)
            row = i if slot < 2 else (slot - 1) * n + i  # its row of ts
            raise QuadratureConvergenceError(
                f"log-weighted sinh integral (power {3 if slot == 1 else 1}) at "
                f"t={float(ts[row])!r}: error estimate "
                f"{(estimate_prime if slot == 1 else estimate)[row]:.3e} "
                f"on {_NODES.size} nodes")

        xis, xi_primes, prime_scale = xi(p, ts), xi_prime(p, ts), 0.5 / (ts * ts)
        in_range = np.all([np.isfinite(v) & (v != 0.0)
                           for v in (xis, xi_primes, prime_scale)], axis=0)
        if not in_range.all():
            raise out_of_range(~in_range, "xi, xi' or the eta' scale 1/(2t^2) "
                                          "overflows or underflows")

        scale = 0.5 * np.sqrt(ts)
        quad, quad_prime = fine * scale, fine_prime * (scale[:n] * prime_scale[:n])
        error, error_prime = estimate * scale, estimate_prime * (scale[:n] * prime_scale[:n])
        (closed, lower, upper), eta_prime_terms, alphas = _closed_forms(p, ts)
        closed_prime, lower_prime, upper_prime = (v[:n] for v in eta_prime_terms)
        eta = np.where(remainder, closed - quad, quad)
        rest = np.where(remainder, quad, closed - quad)
        etap = np.where(remainder[:n], closed_prime - quad_prime, quad_prime)
        rest_prime = np.where(remainder[:n], quad_prime, closed_prime - quad_prime)

        i1 = I1(p, ts)
        i2 = xis * eta
        entropy = 1.5 * np.log(2.0 * math.pi * ts) + 0.5 * k * k * ts + i1 + i2
        # xi' kappa M_2 + xi kappa M_4/(2t^2), the closed part of the rate,
        # cancels analytically to 2 kappa^2 alpha/sqrt(2 pi)
        # + 2 kappa exp(-kappa^2 t/2)/sqrt(2 pi t); only -(xi' R + xi R') is left.
        closed_rate = 2.0 * k * (k * alphas[:n] + np.exp(-0.5 * k * k * grid) / np.sqrt(grid))
        rate_direct = 1.5 / grid + k * k + closed_rate / _SQRT_TWO_PI - (
            xi_primes[:n] * rest[:n] + xis[:n] * rest_prime)
        rate_fd = (entropy[n:2 * n] - entropy[2 * n:]) / (2.0 * steps)
        margins, errors = (np.concatenate(pair) for pair in zip(
            _slack_margins(eta[:n], rest[:n], error[:n], lower[:n], upper[:n]),
            _slack_margins(etap, rest_prime, error_prime, lower_prime, upper_prime)))
        return H3Sweep(k, grid, entropy[:n], i1[:n], i2[:n], rate_direct, rate_fd, eta[:n],
                       closed[:n] - lower[:n], closed[:n] - upper[:n], etap,
                       closed_prime - lower_prime, closed_prime - upper_prime, margins, errors)
