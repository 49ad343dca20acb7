"""One fixed double-exponential rule on [0, inf), a batch of cases at a time.

Each integrand is unimodal with Gaussian tails, and each case states where
its mass sits, a peak c >= 0 and a width w > 0, both finite, and is split
there: on [0, c] the tanh-sinh map r = c/2 (1 + tanh(u + log(c/w)/2)), whose
shift samples the peak's side at the scale w however far out c is, and
beyond c the exp-sinh map r = c + w e^u, with u = pi/2 sinh(tau), give an
integrand in tau that decays double-exponentially, so the trapezoid rule on
|tau| <= 4.5 converges geometrically in 1/h (Takahasi & Mori, Publ. RIMS 9,
1974; Trefethen & Weideman, SIAM Rev. 56, 2014).  Nothing is probed.

The step starts at 1/16 and halves down to 1/512, each halving evaluating
only the new odd nodes: first the [0, c] parts of the running cases, then
their parts beyond c, each in fixed blocks of 64 cases (_BLOCK_CASES), so
each case adds its [0, c] sum first and the first failure met is the one a
single (cases x nodes) array would show first.  A case stops at the first
step h where |I_h - I_2h| plus _ROUNDING times the sum of |weight x value|
meets max(RELATIVE_TOLERANCE |I_h|, ABSOLUTE_TOLERANCE), the program's one
acceptance test, and returns I_h with that estimate.  A case still
short at the finest step raises QuadratureConvergenceError, a node value
that is not finite QuadratureDomainError naming its abscissa; context(case)
names the case.

Integrand contract.  ``integrate_batch`` calls f(d, *columns): d holds the
nodes' offsets r - c, a row per case of a block, all on [0, c] or all
beyond c, and each case parameter comes as a (rows, 1) column; f
returns d's shape (or a scalar), elementwise.  On [0, c],
d = -w/(w/c + e^{2u}), so nodes next to the peak keep every digit of their
distance from it.  A case's values and sums depend on its own rows alone, so
its value and estimate are bit-identical alone, in any batch and in any order.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np


class QuadratureDomainError(ValueError):
    """Integrand returned NaN or infinity inside the integration domain."""


class QuadratureConvergenceError(RuntimeError):
    """An integral missed its tolerance at the finest step of the rule."""


# The acceptance test of every integral, here and in h3entropy's eta rule:
# an estimate must meet max(RELATIVE_TOLERANCE |value|, ABSOLUTE_TOLERANCE).
# Both are read at each call, never bound at import.
RELATIVE_TOLERANCE = 1e-10
ABSOLUTE_TOLERANCE = 1e-14


# Steps 1/16 to 1/512 on |tau| <= 4.5, where |u| reaches 70.7: the end nodes
# of [0, c] sit within w e^{-141} of c and (c^2/w) e^{-141} of 0, and those
# beyond c at w e^{-70.7} and w e^{70.7} past it.
_STEPS = [2.0 ** -k for k in range(4, 10)]
_BLOCK_CASES = 64  # a block's node arrays: 64 x 145 doubles at the first steps
# Per unit of sum |weight x value|: a pairwise sum's 14 ulp and 2 per value.
_ROUNDING = 16.0 * sys.float_info.epsilon


def _nodes(tau: np.ndarray) -> tuple[np.ndarray, ...]:
    """e^{2u} and its tau-derivative, for [0, c], and e^u and its, beyond."""
    u, du = 0.5 * math.pi * np.sinh(tau), 0.5 * math.pi * np.cosh(tau)
    q, e = np.exp(2.0 * u), np.exp(u)
    return q, 2.0 * du * q, e, du * e


# Per step: every node of the first, then the odd nodes of each halving.
_LEVELS = [_nodes(np.arange(-72, 73) * _STEPS[0])] + [
    _nodes(np.arange(1 - 4.5 / h, 4.5 / h, 2) * h) for h in _STEPS[1:]]


def integrate_batch(f: Callable[..., np.ndarray], peaks: Sequence[float],
                    widths: Sequence[float], columns: Sequence[Sequence],
                    context: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """(values, estimates) of f's integral over [0, inf) for each case i, with
    peak peaks[i], width widths[i] and parameters column[i] of the columns."""
    c, w = np.array(peaks, dtype=float), np.array(widths, dtype=float)
    if c.shape != w.shape or c.ndim != 1:
        raise ValueError("need one peak and one width per integral")
    for i in np.flatnonzero(~((0.0 <= c) & (c < math.inf) & (0.0 < w) & (w < math.inf))):
        raise ValueError(f"{context(int(i))}: need a finite peak >= 0 and a finite "
                         f"width > 0, got {c[i]!r} and {w[i]!r}")
    columns = [np.asarray(column)[:, None] for column in columns]
    values, estimates, sums, sizes = np.zeros((4, c.size))
    rows = np.arange(c.size)
    with np.errstate(all="ignore"):  # node values are tested for finiteness
        ratio = w / c  # inf where c = 0, which has no [0, c] part
        for h, (q, dq, e, de) in zip(_STEPS, _LEVELS):
            parts = enumerate((rows[c[rows] > 0.0], rows))  # [0, c] parts, then the rest
            for outer, cases in ((outer, part[start:start + _BLOCK_CASES]) for outer, part in parts
                                 for start in range(0, part.size, _BLOCK_CASES)):
                if outer:
                    d, weights = w[cases, None] * e, w[cases, None] * de
                else:
                    span = ratio[cases, None] + q
                    d = -w[cases, None] / span
                    weights = -d * dq / span
                fx = np.broadcast_to(f(d, *(column[cases] for column in columns)), d.shape)
                bad = np.flatnonzero(~np.isfinite(fx))
                if bad.size:
                    row, node = divmod(int(bad[0]), d.shape[1])
                    raise QuadratureDomainError(
                        f"{context(int(cases[row]))}: integrand returned "
                        f"{float(fx[row, node])!r} at {float(c[cases[row]] + d[row, node])!r}")
                terms = fx * weights
                sums[cases] += terms.sum(axis=1)
                sizes[cases] += np.abs(terms).sum(axis=1)
            coarse = values[rows]
            fine = values[rows] = h * sums[rows]
            if h == _STEPS[0]:
                continue
            estimate = estimates[rows] = np.abs(fine - coarse) + _ROUNDING * h * sizes[rows]
            rows = rows[~(estimate <= np.maximum(RELATIVE_TOLERANCE * np.abs(fine),
                                                 ABSOLUTE_TOLERANCE))]
            if not rows.size:
                return values, estimates
    i = int(rows[0])
    raise QuadratureConvergenceError(f"{context(i)}: error estimate {estimates[i]:.3e} "
                                     f"at the finest step 1/{1.0 / _STEPS[-1]:.0f}")
