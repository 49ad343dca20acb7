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
Each is formed with its factor taken out: xi and xi' times exp(kappa^2 t/2);
eta, eta' and their envelopes times exp(-kappa^2 t/2).  So xi eta and
xi' eta + xi eta' are plain products, and nothing overflows at any kappa^2 t.

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
parts and the envelope terms are read from the moment table below.  From
kappa^2 t = 100 on, every node has r > 0 and the rule integrates R itself.
Every envelope verdict is taken on R: eta - lower = coeff log(...) - R, a
difference of two quantities each known to a few ulp, never a rounded eta
against a rounded envelope.  Each side is inside, outside or unresolved
against the error estimate.  ``eta_quadrature`` in ``tests/oracles.py``,
the same eta by verify's direct Gaussian-sinh quadrature in r, not in s, is
the oracle the tests hold the rule to.

The moment table.  M(m) = integral_0^inf exp(-r^2/2t) r^m sinh(kappa r) dr,
m = 0, ..., 4, in closed form, carries a factor exp(kappa^2 t/2); taken out,
M(m) is t^{(m+1)/2} F_m(x), a power of t times a function of x = kappa sqrt(t)
alone, a plain float that never overflows.  ``_factors`` forms F_0, ..., F_4
in one pass, which the sweep reads; ``moment_factors`` is its checked form
(finite kappa > 0 and t > 0, else ValueError, as for a factor that overflows,
the sweep's refusal too), which ``verify`` checks against its direct
quadrature in r.

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
- Where every row of a block is on one side of kappa^2 t = 100, none is
  gathered.  The rows run in fixed blocks of 64 (_BLOCK_ROWS), whose node
  arrays (78 kB each) stay below glibc's 128 kB mmap threshold: the heap
  reuses them, block after block and call after call, and faults none in.
- L's closed form runs on its large nodes (x > 1) alone where at least three
  quarters are small, else on all before the polynomial overwrites the rest.
Each choice looks only at the values, never at a row's position, so a row
still does not depend on the grid or the block it came in.

The sweep.  ``evaluate_records`` validates once and forms each quantity
once, over all rows or over the t rows alone; past the kernel, every
refusal passes one gate, on the sums of what it tests, and the first failing
check is worked out only when it trips.  It returns one ``H3Sweep``:
a column array per quantity, and the margins and error estimates of the
four envelope sides as (4, n) arrays in the order of ``SIDES``.
``verdict_states`` is the one rule that turns a margin and its error into
inside, outside or unresolved.

The radial quadratures that check this module (the kernel's mass, second
moment and entropy by the double-exponential rule) live in ``verify``,
beside the groups that run them; ``verify`` reads ``I1`` and the band here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .quadrature import QuadratureConvergenceError

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_SQRT2 = 0.5 * math.log(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Up to this point log(sinh x / x) is y P(y) at y = x^2, P the degree-9
# polynomial below (highest degree first): mpmath.chebyfit of
# log(sinh sqrt(y) / sqrt(y)) / y on y in [0, 1] with 10 terms at 40 digits,
# fit error 1.3e-18.  The tests refit it with mpmath and require
# the same bits.  Above the switch the closed form
# x + log((1 - e^{-2x})/2x) cancels less than a factor of 7, so both
# branches hold about 1e-15 relative.
_LOG_SINH_RATIO_SWITCH = 1.0
_LOG_SINH_RATIO_POLY = (
    -7.310715998325355e-12, 1.1708532674413125e-10, -1.3794517478122135e-09,
    1.565518031433476e-08, -1.803643341350071e-07, 2.13777920281465e-06,
    -2.645502634614059e-05, 0.00035273368605855023, -0.0055555555555553,
    0.16666666666666666,
)

# Trapezoid nodes in the shifted variable s: |s| <= 9.5 at step 1/8, where
# exp(-s^2/2) has fallen below 3e-20.  Every other node is the step-1/4 rule.
_STEP = 0.125
_NODES = np.arange(-76, 77) * _STEP
_GAUSS = np.exp(-0.5 * _NODES * _NODES)
# From kappa^2 t = 100 on, r = kappa t + sqrt(t) s is positive at every node
# (9.5^2 < 100) and the remainder R = closed - eta is integrated instead.
_REMAINDER_FROM = 100.0
# Least kappa^2 t of a requested time: below, eta and eta' lose digits around r = 0
# (relative error vs 40-digit mpmath 1.9e-12 here, 4.5e-10 at 1e-13).
_KAPPA2T_FLOOR = 1e-10
# From here on e^{-2x} < 2^-57, a sixteenth of half an ulp of 1, so
# -expm1(-2x) is exactly 1.0 and its log exactly 0.
_UNIT_FROM = 20.0
_BLOCK_ROWS = 64  # rows per block of the trapezoid kernel (module docstring)
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


def _times(t) -> np.ndarray:
    """t as a float array, 0-d for a scalar; every time positive and finite."""
    ts = np.asarray(t, dtype=float)
    if not ((0.0 < ts) & (ts < math.inf)).all():
        raise ValueError("t must be positive and finite")
    return ts


def _like(t, value):
    """value as a float where t is a scalar, else as the array it is."""
    return float(value) if np.ndim(t) == 0 else value


def I1(p: H3Params, t):
    """Scaled second moment of the kernel, in closed form: (kappa^2 t + 3)/2."""
    return _like(t, 0.5 * (p.kappa * p.kappa * _times(t) + 3.0))


def _closed_parts(ts: np.ndarray, x: np.ndarray, f: list, rows):
    """(closed for eta at every time of ts, ((lower term, upper term) for eta,
    (closed, lower term, upper term) for eta'), F_0 = alpha) at the times
    ts[rows], all times exp(-kappa^2 t/2); x is kappa sqrt(ts) and f the F_m
    of ``moment_factors`` there.

    closed is kappa M(2, sinh) for eta and kappa M(4, sinh)/(2t^2) for eta',
    the part of the integral that log(sinh x/x) = x - G(x) gives in closed
    form.  The envelope is (closed - lower term, closed - upper term), so the
    remainder R = closed - eta lies strictly between the upper and the lower
    term.  Every term is a power of t times the moment table's F_m at
    x = kappa sqrt(t): for eta, closed = t x F_2 with coefficient t F_1 and
    log arguments 2x^2 + 4 and 1 + x F_1/F_0; for eta', closed = x F_4/2 with
    coefficient F_3/2 and log arguments 1 + 2x F_4/F_3 and 1 + x F_3/F_2.
    """
    closed = ts * x * f[2]
    t, x, f = ts[rows], x[rows], [factor[rows] for factor in f]
    coeff, coeff_prime, twice = t * f[1], 0.5 * f[3], 2.0 * x
    return closed, ((coeff * np.log(twice * x + 4.0), coeff * np.log1p(x * f[1] / f[0])),
                    (0.5 * x * f[4], coeff_prime * np.log1p(twice * f[4] / f[3]),
                     coeff_prime * np.log1p(x * f[3] / f[2]))), f[0]


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

    def __len__(self) -> int:  # the row count, by which perfbench's tracer counts records
        return self.t.size

    @property
    def envelope_ok(self) -> np.ndarray:
        """Per row: every envelope side resolved inside (``verdict_states``'
        rule: margin > error, so a NaN is not inside)."""
        return (self.margins > self.errors).all(axis=0)

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
        """Band containment, enforced once t >= 20/kappa^2 (t kappa^2 does not
        overflow: a sweep's moment factors, which overflow first, are finite)."""
        return (self.t * self.kappa * self.kappa < 20.0) | (self.band_margin >= 0.0)


def _trapezoid(p: H3Params, ts: np.ndarray, n: int):
    """The fixed-node trapezoid rule of the module docstring at the times ts:
    (mask, sums, estimates |I_h - I_2h|), the sums before the sqrt(t)/2 (and
    1/(2t^2)) scale, for eta at every time and then for eta' at the first n.
    L, or G where the mask is set, is evaluated once per time and serves
    both sums.  The times run in blocks of _BLOCK_ROWS rows, which sum into
    the arrays made here, so no node-sized array outlives its block."""
    k, size = p.kappa, ts.size
    remainder = k * k * ts >= _REMAINDER_FROM
    root, peaks = np.sqrt(ts), k * ts
    fine, coarse = np.empty((2, size + n))  # eta, then eta' at the first n
    for start in range(0, size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, size)
        m, rows = max(0, min(stop, n) - start), remainder[start:stop]
        r = np.multiply.outer(root[start:stop], _NODES)
        r += peaks[start:stop, None]
        x, count = k * r, np.count_nonzero(rows)
        if count == rows.size:
            f = _remainder_weight(x)
        elif not count:
            f = _log_sinh_ratio(np.abs(x, out=x))
        else:
            f = np.empty(r.shape)
            inner = x[~rows]
            f[~rows] = _log_sinh_ratio(np.abs(inner, out=inner))
            f[rows] = _remainder_weight(x[rows])
        # the products f (r gauss) and f (r^3 gauss), each taken in place
        products = [(r, start)]
        if m:
            near = r[:m] * r[:m]
            near *= r[:m]
            near *= _GAUSS
            near *= f[:m]
            products.append((near, size + start))
        r *= _GAUSS
        r *= f
        for weighted, at in products:
            np.add.reduce(weighted, axis=1, out=fine[at:at + len(weighted)])
            np.add.reduce(weighted[:, ::2], axis=1, out=coarse[at:at + len(weighted)])
    fine *= _STEP
    return remainder, fine, np.abs(fine - 2.0 * _STEP * coarse)


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


def evaluate_records(p: H3Params, times) -> H3Sweep:
    """The sweep over the times, from one array program over the time grid.

    Its rows are t, t + h and t - h (h = 1e-4 t, for rate_fd); the
    trapezoid rule gives eta on every row and eta' on the t rows, and every
    closed form, rate and verdict margin is an expression over these rows
    (the envelopes and eta' over the t rows alone).  Each row is computed on
    its own, so a row of the sweep does not depend on the grid it came in.

    Raises ValueError naming the first t where kappa^2 t of a row
    overflows, then one naming the first t where a node sum of eta or eta'
    does; then QuadratureConvergenceError for the first integral, in the
    order eta(t), eta'(t), eta(t + h), eta(t - h) row by row, whose
    estimate |I_h - I_2h| exceeds max(RELATIVE_TOLERANCE |I_h|,
    ABSOLUTE_TOLERANCE) of ``quadrature``; then ValueError naming t where
    xi, xi' or 1/(2t^2) of a row leaves the double range, one naming kappa
    and the row's time where a moment factor F_m overflows, one naming t
    where a closed part, envelope term or margin is not finite, and last the
    first t whose kappa^2 t is below 1e-10.
    """
    grid = _times(np.array(times, dtype=float).reshape(-1))  # a copy: the sweep keeps it
    n, k = grid.size, p.kappa

    def out_of_range(bad: np.ndarray, why: str) -> ValueError:  # bad: blocks of n rows
        t = grid[np.flatnonzero(bad.reshape(-1, n).any(axis=0))[0]]
        return ValueError(f"t={float(t)!r} leaves the double range: {why}")

    with np.errstate(all="ignore"):
        steps = _FD_STEP_SCALE * grid
        ts = np.concatenate([grid, grid + steps, grid - steps])
        k2t = k * k * ts
        if not np.isfinite(k2t).all():
            raise out_of_range(~np.isfinite(k2t), "kappa^2 t overflows")
        resolved = k2t[:n].min(initial=math.inf) >= _KAPPA2T_FLOOR
        # eta at every row of ts, then eta' at the t rows
        remainder, fine, estimate = _trapezoid(p, ts, n)
        converged = estimate <= np.maximum(quadrature.RELATIVE_TOLERANCE * np.abs(fine),
                                           quadrature.ABSOLUTE_TOLERANCE)  # a NaN is not

        # xi, xi' (both times exp(kappa^2 t/2)) and the eta' scale 1/(2t^2)
        k2t3 = k2t + 3.0
        scales = np.array([_SQRT_TWO_OVER_PI / (k * ts ** 1.5),
                           -k2t3 / (_SQRT_TWO_PI * k * ts ** 2.5), 0.5 / (ts * ts)])
        xis, xi_primes, prime_scale = scales
        root = np.sqrt(ts)
        x = k * root
        factors = _factors(k, ts, x)
        closed, ((lower, upper), (closed_prime, lower_prime, upper_prime)), alphas = (
            _closed_parts(ts, x, factors, slice(n)))
        # The gate: what a refusal tests is finite where the sum of its sums
        # is (an overflowing sum trips it, and no check fails); sums copy nothing.
        total = np.add.reduce(scales, None) + sum(map(np.add.reduce, factors))
        del factors

        half = 0.5 * root
        scale = np.concatenate([half, half[:n] * prime_scale[:n]])
        quad, error = fine * scale, estimate * scale
        closed = np.concatenate([closed, closed_prime])
        remainder = np.concatenate([remainder, remainder[:n]])
        rest = closed - quad
        eta = np.where(remainder, rest, quad)
        np.copyto(rest, quad, where=remainder)

        i1 = 0.5 * k2t3
        i2 = xis * eta[:3 * n]
        entropy = 1.5 * np.log(2.0 * math.pi * ts) + 0.5 * k * k * ts + i1 + i2
        # xi' kappa M_2 + xi kappa M_4/(2t^2), the closed part of the rate,
        # cancels analytically to 2 kappa^2 alpha/sqrt(2 pi)
        # + 2 kappa exp(-kappa^2 t/2)/sqrt(2 pi t); only -(xi' R + xi R') is left.
        closed_rate = 2.0 * k * (k * alphas + np.exp(-0.5 * k * k * grid) / root[:n])
        rate_direct = 1.5 / grid + k * k + closed_rate / _SQRT_TWO_PI - (
            xi_primes[:n] * rest[:n] + xis[:n] * rest[3 * n:])
        rate_fd = (entropy[n:2 * n] - entropy[2 * n:]) / (2.0 * steps)
        del k2t, k2t3, root, half, scale, alphas  # a long sweep's margins reuse the memory

        # The four sides in the order of SIDES, each taken on the remainder:
        # eta - lower = (lower term) - R and upper - eta = R - (upper term),
        # relative to the checked value (absolute where it underflowed to 0),
        # with the rule's error plus _SLACK_ROUNDING of both terms; (eta, eta')
        # x (lower, upper) x n arrays against the t rows of eta and eta'.
        terms = np.array([[lower, upper], [lower_prime, upper_prime]])
        rests = rest.reshape(4, n)[::3, None]
        values = np.abs(eta.reshape(4, n)[::3, None])
        values[values == 0.0] = 1.0
        margins = terms - rests
        np.subtract(rests[:, 0], terms[:, 1], out=margins[:, 1])
        margins /= values
        errors = error.reshape(4, n)[::3, None] + _SLACK_ROUNDING * (np.abs(terms) + np.abs(rests))
        errors /= values
        bounds = closed.reshape(4, n)[::3, None] - terms  # the envelopes
        total += sum(map(np.add.reduce, (fine, closed, terms, margins, errors), (None,) * 5))
        if not (math.isfinite(total) and converged.all() and scales.all() and resolved):
            if not np.isfinite(fine).all():
                raise out_of_range(~np.isfinite(fine), "a node sum of eta or eta' overflows")
            if not converged.all():
                # per time, the slots eta(t), eta'(t), eta(t + h), eta(t - h)
                slots = ~converged.reshape(4, n)[[0, 3, 1, 2]].T
                i, slot = divmod(int(np.flatnonzero(slots)[0]), 4)
                raise QuadratureConvergenceError(
                    f"log-weighted sinh integral (power {3 if slot == 1 else 1}) at "
                    f"t={float(ts[i + (0, 0, n, 2 * n)[slot]])!r}: error estimate "
                    f"{estimate[i + (0, 3 * n, n, 2 * n)[slot]]:.3e} on {_NODES.size} nodes")
            if not (np.isfinite(scales).all() and scales.all()):
                raise out_of_range(~(np.isfinite(scales) & (scales != 0.0)).all(axis=0),
                                   "xi, xi' or the eta' scale 1/(2t^2) overflows or underflows")
            moment_factors(k, ts)
            finite = np.isfinite(np.concatenate([closed, terms, margins, errors], axis=None))
            if not finite.all():  # in blocks of n rows
                raise out_of_range(~finite, "a closed part, envelope term or margin is not finite")
            if not resolved:
                raise ValueError(f"t={float(grid[k * k * grid < _KAPPA2T_FLOOR][0])!r} puts kappa^2"
                                 f" t below {_KAPPA2T_FLOOR!r}, where eta and eta' lose digits")
        return H3Sweep(k, grid, entropy[:n], i1[:n], i2[:n], rate_direct, rate_fd, eta[:n],
                       *bounds[0], eta[3 * n:], *bounds[1], margins.reshape(4, n),
                       errors.reshape(4, n))


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
    finite = np.array([np.isfinite(f) for f in factors]).all(axis=0).reshape(-1)
    if not finite.all():
        first = float(ts.reshape(-1)[np.flatnonzero(~finite)[0]])
        raise ValueError(f"a moment factor F_0 to F_4 overflows at kappa = {kappa!r}, "
                         f"t = {first!r}")
    return factors


def log_sinh_ratio(x):
    """log(sinh x / x), continuous and overflow-free for all x >= 0.

    Elementwise over an array; a float argument gives a float.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0):
        raise ValueError("log_sinh_ratio requires x >= 0")
    # -2x overflows to -inf past 2^1023, where expm1 gives -1; x = inf gives nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _log_sinh_ratio(xs.copy())
    return float(out[0]) if np.ndim(x) == 0 else out


def _log_sinh_ratio(xs: np.ndarray) -> np.ndarray:
    """``log_sinh_ratio`` of a float array xs >= 0, which it overwrites:
    every step runs in place, so few arrays of its size are ever live."""
    small = xs <= _LOG_SINH_RATIO_SWITCH
    if np.count_nonzero(small) == xs.size:
        xs *= xs
        return _log_sinh_ratio_poly(xs)
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
    """log(sinh x / x) = x + log((1 - e^{-2x})/2x), in place on xs >= 0; the
    ratio is divided by x and then halved, so no finite x overflows it."""
    ratio = np.multiply(xs, -2.0)
    np.expm1(ratio, out=ratio)
    np.negative(ratio, out=ratio)
    ratio /= xs
    ratio *= 0.5
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
