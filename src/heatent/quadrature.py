"""Deterministic adaptive quadrature on [0, inf), many integrals in lockstep.

The integrands this package cares about are unimodal with Gaussian tails:
exp(-r^2/2t) times polynomials, hyperbolic sines and slowly varying logs.
Every integral states where its mass sits: a peak c >= 0 and a width w > 0,
both finite.  The initial panels cover [max(0, c - 12 w), c + 12 w], eight
equal ones plus [0, c - 12 w] where that is not empty, and the rest of the
axis is one tail panel mapped onto [0, 1) with r = c + 12 w + s/(1-s).  A
globally adaptive embedded 7/15 Gauss-Kronrod pair (QUADPACK's GK15) then
refines the panels with the largest error estimates.  Nothing is probed: a
peak far out, whose inner tail underflows to exact zeros, is found because
the caller names it.

Integrand contract.  ``integrate_batch`` integrates one integral per
(peak, width) pair.  Its integrand is ``f(x, j)``: a float array of
abscissae ``x`` and an equally shaped int array ``j`` of integral ids; it
returns an array of the same shape (a scalar is broadcast).  The element at
position i must depend only on ``x[i]`` and ``j[i]``, i.e. f is elementwise.
``specfun.shifted_gaussian_quadratures`` substitutes Gaussian-hyperbolic
integrands into a shifted variable before they get here.

Lockstep guarantee.  Every integral keeps its own panel heap, tie-breaking
sequence, split radius, subdivision count and convergence test; a round pops
the worst panel of each unconverged integral and evaluates all the halves in
one integrand call (in blocks of at most 4096 nodes).  An integral's
refinement, and its value, error estimate and evaluation count, are
therefore bit-identical whether it runs alone or in a batch of any size and
order.  Every step is float arithmetic in a fixed order, so identical inputs
give bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# f(x, j) -> values, elementwise over abscissae x and integral ids j.
BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureDomainError(ValueError):
    """Integrand returned NaN or infinity inside the integration domain."""


class QuadratureConvergenceError(RuntimeError):
    """A caller that requires convergence received a non-converged result."""


def require_converged(result: "QuadratureResult", context: str) -> "QuadratureResult":
    if not result.converged:
        raise QuadratureConvergenceError(
            f"{context}: error estimate {result.error_estimate:.3e} after "
            f"{result.evaluations} evaluations")
    return result


@dataclass(frozen=True)
class QuadratureSpec:
    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not 0.0 < self.relative_tolerance < math.inf:
            raise ValueError("relative_tolerance must be positive and finite")
        if not 0.0 < self.absolute_tolerance < math.inf:
            raise ValueError("absolute_tolerance must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  The odd-index
# abscissae (plus the centre) are the embedded Gauss nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.2044329400752989,
)
_WGK_CENTER = 0.20948214108472782
_WG = (
    0.12948496616886969,
    0.27970539148927664,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694

# Node k of a panel is c + h * _OFFSETS[k]: the centre, then c -+ h x_i.
_OFFSETS = np.array([0.0] + [sign * x for x in _XGK for sign in (-1.0, 1.0)])[:, None]
# Weights of the centre value and the seven symmetric pair sums, and of the
# centre and the three Gauss pair sums.
_KRONROD = np.array((_WGK_CENTER,) + _WGK)[:, None]
_GAUSS = np.array((_WG_CENTER,) + _WG)[:, None]
_GAUSS_ROWS = [0, 2, 4, 6]

# Nodes per integrand call.  Caps the integrand's temporaries (and so peak
# memory) on large batches while keeping the per-call overhead negligible.
_BLOCK_NODES = 4096
_BLOCK_PANELS = _BLOCK_NODES // 15

_N_INITIAL = 8


def _evaluate(f: BatchIntegrand, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """f on flat node and id arrays, in blocks of at most _BLOCK_NODES.

    A scalar return is broadcast.
    """
    out = np.empty(x.shape)
    for lo in range(0, x.size, _BLOCK_NODES):
        hi = lo + _BLOCK_NODES
        out[lo:hi] = f(x[lo:hi], j[lo:hi])
    return out


def _gk15_panels(f: BatchIntegrand, panels: list[tuple[int, bool, float, float]],
                 split: np.ndarray) -> tuple[list[float], list[float]]:
    """GK15 on each (id, tail, a, b) panel: (K15 estimates, |K15 - G7|).

    A tail panel lives in s on [0, 1) and integrates f(split + s/(1-s))/(1-s)^2.
    The node values and the left-to-right order of the weighted sums
    (add.accumulate) are those of a scalar panel loop, so a panel's result
    does not depend on the batch it is evaluated in.
    """
    ids, tails, a, b = zip(*panels)
    ids = np.array(ids, dtype=np.intp)
    a, b = np.array((a, b))
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _OFFSETS  # (15, panels); c + h*(-x_i) is exactly c - h*x_i
    node_ids = np.repeat(ids[None, :], 15, axis=0).ravel()
    if any(tails):
        tail = np.array(tails)
        u = 1.0 - x[:, tail]
        r = x.copy()
        r[:, tail] = split[ids[tail]] + x[:, tail] / u
        fx = _evaluate(f, r.ravel(), node_ids).reshape(x.shape)
        fx[:, tail] /= u * u
    else:
        fx = _evaluate(f, x.ravel(), node_ids).reshape(x.shape)
    if not np.isfinite(fx).all():
        i = np.flatnonzero(~np.isfinite(fx.T))[0]  # first in panel, node order
        raise QuadratureDomainError(
            f"integrand returned {float(fx.T.flat[i])!r} at {float(x.T.flat[i])!r}")
    terms = np.empty((8, c.size))  # centre value, then the pair sums
    terms[0] = fx[0]
    np.add(fx[1::2], fx[2::2], out=terms[1:])
    resk = np.add.accumulate(terms * _KRONROD)[-1]
    resg = np.add.accumulate(terms[_GAUSS_ROWS] * _GAUSS)[-1]
    return (resk * h).tolist(), np.abs((resk - resg) * h).tolist()


def integrate_batch(
    f: BatchIntegrand,
    peaks: Sequence[float],
    widths: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[QuadratureResult]:
    """Integrate f(., j) over [0, inf) for every integral j, in lockstep.

    Integral j has its mass at r = peaks[j], spread over a few widths[j];
    one peak and one width per integral, every peak finite and >= 0, every
    width finite and > 0.  Results come back in id order; see the module
    docstring for the integrand contract and the lockstep guarantee.
    """
    peaks = [float(c) for c in peaks]
    widths = [float(w) for w in widths]
    if len(peaks) != len(widths):
        raise ValueError("need one peak and one width per integral")
    for c, w in zip(peaks, widths):
        if not (0.0 <= c < math.inf and 0.0 < w < math.inf):
            raise ValueError(
                f"need a finite peak >= 0 and a finite width > 0, got {c!r} and {w!r}")
    # Overflow, underflow and invalid operations inside f are not warned
    # about: values are tested for finiteness, at exactly the nodes that
    # belong to an integral.
    with np.errstate(all="ignore"):
        return _lockstep(f, spec, peaks, widths)


def _lockstep(f: BatchIntegrand, spec: QuadratureSpec, peaks: list[float],
              widths: list[float]) -> list[QuadratureResult]:
    n = len(peaks)
    splits = []
    panels = []  # (id, tail, a, b), in evaluation order
    for i, (peak, width) in enumerate(zip(peaks, widths)):
        lo = max(0.0, peak - 12.0 * width)
        split = peak + 12.0 * width
        edges = [0.0] if lo == 0.0 else [0.0, lo]
        edges += [lo + (split - lo) * (k + 1) / _N_INITIAL for k in range(_N_INITIAL)]
        splits.append(split)
        panels += [(i, False, a, b) for a, b in zip(edges, edges[1:])]
        panels.append((i, True, 0.0, 1.0))
    split_arr = np.asarray(splits)

    # Per integral: a heap of (neg_error, seq, value, tail, a, b); seq breaks
    # ties deterministically and counts the panels evaluated so far.
    heaps: list[list] = [[] for _ in range(n)]
    seqs = [0] * n
    heappush = heapq.heappush
    rtol, atol = spec.relative_tolerance, spec.absolute_tolerance
    results: list[Optional[QuadratureResult]] = [None] * n
    active = list(range(n))
    subdivisions = 0  # the same for every active integral
    while True:
        for lo in range(0, len(panels), _BLOCK_PANELS):
            block = panels[lo:lo + _BLOCK_PANELS]
            values, errors = _gk15_panels(f, block, split_arr)
            for (i, tail, a, b), v, e in zip(block, values, errors):
                heappush(heaps[i], (-e, seqs[i], v, tail, a, b))
                seqs[i] += 1
        panels = []
        still = []
        for i in active:
            heap = heaps[i]
            value = 0.0
            err = 0.0
            for item in heap:
                value += item[2]
                err -= item[0]
            if err <= max(rtol * abs(value), atol):
                results[i] = QuadratureResult(value, err, 15 * seqs[i], True)
            elif subdivisions >= spec.max_subdivisions:
                results[i] = QuadratureResult(value, err, 15 * seqs[i], False)
            else:
                _, _, _, tail, a, b = heapq.heappop(heap)
                mid = 0.5 * (a + b)
                panels += ((i, tail, a, mid), (i, tail, mid, b))
                still.append(i)
        if not still:
            return results
        active = still
        subdivisions += 1

