"""Closed-form entropy-rate bounds and the machinery to check them on traces.

Every bound compares the measured entropy rate (half the Fisher information)
against a closed-form right-hand side built from the curvature lower bound,
the spectral gap, or the initial data's extrema.  Checks carry a small slack
so quadrature and truncation noise cannot produce false violations of true
inequalities.  Each right-hand side is elementwise in t: its float formula
(libm's exp and expm1) at every time, the times checked once per call.  An
initial field's constants are cached by its content, and a report's verdicts
are worked out in floats, which round as numpy does and cost less at few times.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectral import (
    EntropyTrace,
    ManifoldSpec,
    SpectralField,
    entropy_and_fisher,
    grid_extrema,
    laplacian_l2_norm,
    spectral_gap,
)

SLACK_ABSOLUTE = 1e-9
SLACK_RELATIVE = 1e-6
# the time checks of ``_elementwise``, each one C call per element, a NaN failing all
_POSITIVE, _NONNEGATIVE, _FINITE = (0.0).__lt__, (0.0).__le__, math.inf.__gt__
# Initial fields whose constants ``bound_table`` keeps; the CLI has four.
_CONSTANTS_CACHE_SIZE = 16


@dataclass(frozen=True)
class BoundReport:
    """Per-time record of the measured rate against one closed-form bound."""

    bound_name: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    satisfied: np.ndarray
    min_margin: float

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())


def _make_report(name: str, times: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> BoundReport:
    """The report of ``rhs`` against ``lhs``; the least margin is NaN when any margin is."""
    rates, column = lhs.ravel().tolist(), rhs.ravel().tolist()
    satisfied = [rate <= value + (SLACK_ABSOLUTE + SLACK_RELATIVE * abs(value))
                 for rate, value in zip(rates, column)]
    margins = [value - rate for rate, value in zip(rates, column)]
    return BoundReport(name, times, lhs, rhs, np.array(satisfied).reshape(rhs.shape),
                       math.nan if any(map(math.isnan, margins)) else min(margins))


def _elementwise(rhs, t, lower=_POSITIVE, message: str = "t must be positive and finite"):
    """The float formula ``rhs`` at each time of t, every time checked first to pass ``lower``
    and be finite (ValueError with ``message``): a float for a float t, else a
    float array of t's shape, each element the float call's bits."""
    times = np.asarray(t, dtype=float)
    values = times.ravel().tolist()
    if not (all(map(lower, values)) and all(map(_FINITE, values))):
        raise ValueError(message)
    column = np.array([rhs(x) for x in values]).reshape(times.shape)
    return column if times.ndim else float(column)


def ricci_bound_rhs(n: int, k: float, q0: float, t):
    """Entropy-rate bound from a Ricci lower bound k and initial Fisher q0.

    The k = 0 branch is n q0 / (2 (n + q0 t)); the k != 0 branch is written
    with expm1 so it is cancellation-free as k -> 0 and overflow-free for
    either sign: as t grows it tends to -n k / 2 for k < 0 and to 0 for
    k > 0.
    """
    if q0 <= 0.0:
        raise ValueError("q0 must be positive")

    def rhs(t: float) -> float:
        kt = k * t
        # A subnormal k t keeps too few bits for the expm1 ratio below; the
        # k = 0 formula is exact to double precision there.
        if abs(kt) < sys.float_info.min:
            return n * q0 / (2.0 * (n + q0 * t))
        if kt > 700.0:
            return 0.0
        return 0.5 / (math.exp(kt) / q0 + math.expm1(kt) / (n * k))

    return _elementwise(rhs, t)


def ricci_bound_asymptote(n: int, k: float) -> float:
    """Large-time limit of ricci_bound_rhs: -n k / 2 for k < 0, else 0."""
    if k < 0.0:
        return -n * k / 2.0
    return 0.0


def hamilton_bound_rhs(k: float, sup_f: float, t):
    """Gradient-estimate bound (1/t - k) log(sup f).

    sup_f is the supremum of the initial density with respect to the
    volume-normalised measure, so it is >= 1 for unit-mass data and the
    logarithm is nonnegative.
    """
    if sup_f <= 0.0:
        raise ValueError("sup_f must be positive")
    log_sup = math.log(sup_f)
    return _elementwise(lambda t: (1.0 / t - k) * log_sup, t)


def spectral_gap_bound_rhs(lambda1: float, norm_laplacian_f: float, vol: float,
                           inf_f: float, sup_f: float, t):
    """Exponentially decaying bound from the spectral gap:
    (1/2) exp(-lambda1 t / 2) ||Lap f||_2 sqrt(vol) (|log inf f| + |log sup f|).
    """
    if lambda1 <= 0.0 or vol <= 0.0 or inf_f <= 0.0 or sup_f <= 0.0:
        raise ValueError("lambda1, vol and the extrema must be positive")
    message = "norm_laplacian_f must be nonnegative and t finite and nonnegative"
    if norm_laplacian_f < 0.0:
        raise ValueError(message)
    root_vol, logs = math.sqrt(vol), abs(math.log(inf_f)) + abs(math.log(sup_f))
    return _elementwise(lambda t: 0.5 * math.exp(-0.5 * lambda1 * t) * norm_laplacian_f
                        * root_vol * logs, t, _NONNEGATIVE, message)


def euclidean_rate_reference(n: int, t: float) -> float:
    """Exact entropy rate of the flat-space kernel, n/(2t); the rigidity benchmark."""
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    return n / (2.0 * t)


def _drift_bound_rhs(k: float, q0: float, t):
    """Drift-curvature bound (1/2) e^{-k t} q0; math.inf once e^{-k t} passes
    double range, which is a true and trivially satisfied bound."""

    def rhs(t: float) -> float:
        try:
            return 0.5 * math.exp(-k * t) * q0
        except OverflowError:
            return math.inf

    return _elementwise(rhs, t)


@functools.lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _initial_constants(initial: SpectralField) -> tuple[float, float, float, float, float]:
    """(q0, inf f, sup f, ||Lap f||, lambda1) of the initial field f, once per content: its
    Fisher information, ``grid_extrema``, ``laplacian_l2_norm`` and ``spectral_gap``."""
    _, q0 = entropy_and_fisher(initial)
    return (q0, *grid_extrema(initial), laplacian_l2_norm(initial), spectral_gap(initial.manifold))


def bound_table(manifold: ManifoldSpec, initial: SpectralField,
                times) -> dict[str, np.ndarray]:
    """Right-hand sides of every bound applicable to the manifold, by name.

    Undrifted manifolds get the Ricci-rate, gradient-estimate and
    spectral-gap columns, in that order; the drifted torus gets the
    drift-curvature column alone (the other three assume the plain heat
    semigroup and are omitted, not failed).  A time not positive and finite,
    or a manifold unequal to the initial field's, raises ValueError.  The
    field's constants (q0, grid extrema, Laplacian norm) are built once per
    content in a bounded cache, so a field changed in place gets fresh ones.
    """
    if manifold is not initial.manifold and manifold != initial.manifold:
        raise ValueError("the manifold must be the initial field's")
    times = np.asarray(times, dtype=float)
    q0, inf_f, sup_f, norm_lap, lam1 = _initial_constants(initial)
    k = manifold.ricci_lower_bound
    # constant datum: the q0 bounds degenerate to 0 = 0 (each formula checks its times)
    flat = None if q0 > 0.0 else _elementwise(lambda t: 0.0, times)

    if manifold.drift is not None:
        return {"drift_curvature": _drift_bound_rhs(k, q0, times) if flat is None else flat}

    # The gradient estimate needs a nonpositive curvature parameter and the
    # density taken against the volume-normalised measure (both restrictions
    # are what make the stated bound true on manifolds of any volume).
    n = manifold.dimension
    sup_rel = sup_f * manifold.volume
    return {
        "ricci_curvature": ricci_bound_rhs(n, k, q0, times) if flat is None else flat,
        "gradient_log_sup": hamilton_bound_rhs(min(k, 0.0), sup_rel, times),
        "spectral_gap": spectral_gap_bound_rhs(lam1, norm_lap, manifold.volume, inf_f, sup_f,
                                               times),
    }


def check_bounds(trace: EntropyTrace, manifold: ManifoldSpec,
                 initial: SpectralField) -> list[BoundReport]:
    """Every column of ``bound_table``, checked along the trace."""
    table = bound_table(manifold, initial, trace.times)
    return [_make_report(name, trace.times, trace.rate_direct, rhs)
            for name, rhs in table.items()]
