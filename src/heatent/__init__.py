"""Entropy and entropy-rate of heat flow on model manifolds."""

from . import bounds, fixtures, h3entropy, spectral, verify
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureDomainError,
    integrate_batch,
)

__all__ = [
    "QuadratureConvergenceError",
    "QuadratureDomainError",
    "bounds",
    "fixtures",
    "h3entropy",
    "integrate_batch",
    "spectral",
    "verify",
]
