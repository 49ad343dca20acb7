"""Built-in manifold fixtures for the CLI, the verification suite and tests.

All initial data are low-band trigonometric polynomials, normalised to unit
mass against the relevant reference measure.  On the periodic fixtures their
extrema land exactly on the evaluation grid, and on the sphere at the poles,
which ``spectral.grid_extrema`` evaluates exactly on top of its grid.
``get_fixture`` and ``seeded_torus_fields`` build their fields once per process
and hand the same ones to every caller, so every array they hold is read-only.
The random torus fields are ``spectral.random_torus_fields`` draws, written
in the coefficient layout by the module that defines it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp


@dataclass(frozen=True, eq=False)
class Fixture:
    initial: sp.SpectralField
    default_times: np.ndarray
    # Grid restricted to where rates stay well above the float noise floor,
    # used for the rate-vs-finite-difference consistency checks.
    rate_check_times: np.ndarray

    def __post_init__(self):
        potential = self.manifold.drift
        for array in (self.default_times, self.rate_check_times, self.initial.coefficients,
                      *(() if potential is None else (potential.coefficients,))):
            array.setflags(write=False)

    @property
    def manifold(self) -> sp.ManifoldSpec:
        """The initial field's manifold."""
        return self.initial.manifold


def circle_fixture() -> Fixture:
    initial = sp.project_initial(
        sp.circle(1.0), lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x), cutoff=2)
    return Fixture(
        initial=initial,
        default_times=np.geomspace(0.01, 2.0, 12),
        rate_check_times=np.geomspace(0.01, 0.4, 8),
    )


def torus_fixture() -> Fixture:
    initial = sp.project_initial(
        sp.torus2(1.0, 1.0),
        lambda x, y: 1.0 + 0.25 * np.cos(2.0 * np.pi * x) + 0.25 * np.sin(2.0 * np.pi * y),
        cutoff=2)
    return Fixture(
        initial=initial,
        default_times=np.geomspace(0.01, 2.0, 12),
        rate_check_times=np.geomspace(0.01, 0.4, 8),
    )


def sphere_fixture() -> Fixture:
    # cutoff well above the data's band: the extra headroom buys a denser
    # Gauss-Legendre grid for the non-polynomial entropy integrands
    initial = sp.project_initial(
        sp.sphere2(1.0), lambda th: (1.0 + 0.5 * np.cos(th)) / (4.0 * math.pi), cutoff=8)
    return Fixture(
        initial=initial,
        default_times=np.geomspace(0.01, 8.0, 14),
        rate_check_times=np.geomspace(0.05, 2.0, 8),
    )


def drift_fixture() -> Fixture:
    base = sp.torus2(1.0, 1.0)
    potential = sp.project_potential(
        base, lambda x, y: 0.1 * np.sin(2.0 * np.pi * x), cutoff=2)
    raw = sp.project_initial(
        sp.torus2_drift(potential), lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x), cutoff=6)
    return Fixture(
        initial=sp.SpectralField(raw.manifold, raw.coefficients / sp.mass(raw), raw.cutoff),
        default_times=np.geomspace(0.1, 2.0, 6),
        rate_check_times=np.geomspace(0.02, 0.3, 5),
    )


FIXTURE_BUILDERS = {
    "circle": circle_fixture,
    "torus": torus_fixture,
    "sphere": sphere_fixture,
    "torus-drift": drift_fixture,
}


@functools.cache
def get_fixture(name: str) -> Fixture:
    """The named fixture, built on first use and shared from then on."""
    try:
        return FIXTURE_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; "
                         f"choose from {sorted(FIXTURE_BUILDERS)}") from None


@functools.lru_cache(maxsize=8)
def seeded_torus_fields(seed: int, positive: tuple[bool, ...]) -> tuple[sp.SpectralField, ...]:
    """``spectral.random_torus_fields`` of a fresh ``default_rng(seed)`` on the
    unit torus, read-only."""
    rng, torus = np.random.default_rng(seed), sp.torus2(1.0, 1.0)
    fields = tuple(sp.random_torus_fields(rng, torus, positive))
    for field in fields:
        field.coefficients.setflags(write=False)
    return fields


def random_positive_torus_field(rng: np.random.Generator, manifold: sp.ManifoldSpec,
                                cutoff: int = 2, amplitude: float = 0.5) -> sp.SpectralField:
    """Random strictly positive trigonometric polynomial, 1.5 + bounded noise:
    the one-draw case of ``spectral.random_torus_fields``."""
    return sp.random_torus_fields(rng, manifold, [True], cutoff, [amplitude])[0]

