"""Oracles that only the tests call: the hyperbolic heat kernel, its radial
integrals by quadrature, eta and eta' by the direct Gaussian-sinh path in r,
and the large-time limit of the Ricci bound.

Each is independent of the path it checks: every integral runs the
double-exponential rule of ``heatent.quadrature`` in r, on the kernel's
radial density (``verify._radial_integrals``, which ``verify``'s groups run
too) or on eta's integrand (``verify._gaussian_sinh``, the expression of
``verify``'s moment path), never in the shifted variable s of the fixed-node
trapezoid rule of ``h3entropy.evaluate_records``.  Both forms live in
``verify`` and form every integral times exp(-kappa^2 t/2).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from heatent.h3entropy import H3Params, _like, _times, log_sinh_ratio
from heatent.quadrature import integrate_batch
from heatent.verify import _gaussian_sinh, _radial_integrals


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


def normalization_quadrature(p: H3Params, t):
    """Total kernel mass by radial quadrature; equals 1 for every t.
    Elementwise in t."""
    return _like(t, _radial_integrals(p.kappa, _times(t), "kernel normalization"))


def I1_quadrature(p: H3Params, t):
    """Second-moment integral done honestly by radial quadrature.
    Elementwise in t."""
    ts = _times(t)
    return _like(t, _radial_integrals(p.kappa, ts, "second moment") / (2.0 * ts))


def eta_quadrature(p: H3Params, points: Sequence[tuple[float, bool]]) -> list[float]:
    """eta(t), or eta'(t) where the flag is set, times exp(-kappa^2 t/2), at
    each (t, prime) point by the double-exponential rule: the oracle the
    trapezoid rule of ``evaluate_records`` is tested against.

    Each value is the log-weighted sinh integral

        integral_0^inf exp(-r^2/2t) r^power sinh(kappa r) log(sinh kr/kr) dr

    with power 1 for eta and power 3 (times 1/(2t^2)) for eta', one case of
    ``quadrature.integrate_batch`` in r with its peak at kappa t and width
    sqrt t, its integrand ``verify._gaussian_sinh``, so nothing ever sees the
    exp(kappa^2 t/2) growth directly.  Each point's value is bit-identical
    to its lone run; the first point, in order, that misses the tolerance
    raises, named by t and kappa.
    """
    k = p.kappa
    ts = np.array([t for t, _ in points], dtype=float)
    powers = np.array([3.0 if prime else 1.0 for _, prime in points])

    def f(d, t, power):
        # |kappa r|: the node next to r = 0 can land one ulp below it
        return _gaussian_sinh(lambda r: r ** power * log_sinh_ratio(np.abs(k * r)), k, t, d)

    def context(i):
        t, prime = points[i]
        return f"log-weighted sinh integral (power {3 if prime else 1}) at t={t!r}, kappa={k!r}"

    values, _ = integrate_batch(f, k * ts, np.sqrt(ts), (ts, powers), context)
    return [value * (0.5 / (t * t)) if prime else value
            for value, (t, prime) in zip(values.tolist(), points)]


def entropy_quadrature(p: H3Params, t):
    """Entropy by one direct radial quadrature of -h log h, no decomposition.
    Elementwise in t.

    Independent oracle for the assembled value; also settles the radial
    Gaussian-weight reading, as ``verify``'s ``entropy_decomposition`` does.
    """
    return _like(t, _radial_integrals(p.kappa, _times(t), "direct entropy integral"))


def ricci_bound_asymptote(n: float, k: float) -> float:
    """Large-time limit of ricci_bound_rhs: -n k / 2 for k < 0 (inf at n = inf),
    else 0, bar n = inf at k = 0, whose rhs stays q0 / 2."""
    if k < 0.0:
        return -n * k / 2.0
    return 0.0
