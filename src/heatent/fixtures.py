"""Built-in manifold fixtures for the CLI, the verification suite and tests.

All initial data are low-band trigonometric polynomials, normalised to unit
mass against the relevant reference measure.  On the periodic fixtures their
extrema land exactly on the evaluation grid, and on the sphere at the poles,
which ``spectral.grid_extrema`` evaluates exactly on top of its grid.
``get_fixture`` builds each fixture once per process and hands the same one
to every caller, so every array a fixture holds is read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp


@dataclass(frozen=True, eq=False)
class Fixture:
    name: str
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
        name="circle",
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
        name="torus",
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
        name="sphere",
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
        name="torus-drift",
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


def _random_trig_coefficients(rng: np.random.Generator, manifold: sp.ManifoldSpec,
                              cutoff: int, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, grid values) of a random real zero-mean trigonometric
    polynomial with sup norm ``amplitude`` on the grid: over the half-plane
    of modes (m1 > 0, or m1 == 0 and m2 > 0), a_m 0.5^(|m1| + |m2|)
    cos(2 pi m.x/L + phi_m) with a_m normal and phi_m uniform.  In the basis
    exp(2 pi i m.x/L)/sqrt(vol) that is c_m = a_m 0.5^(|m1| + |m2|)
    exp(i phi_m) sqrt(vol)/2, and c_-m is its conjugate.
    """
    if manifold.kind != "torus2":
        raise ValueError(f"random fields live on a plain torus2, not {manifold.kind!r}")
    amplitudes = rng.normal(size=(cutoff + 1, 2 * cutoff + 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=amplitudes.shape)
    m1, m2 = np.ix_(np.arange(cutoff + 1), np.arange(-cutoff, cutoff + 1))
    half = (0.5 * math.sqrt(manifold.volume) * amplitudes * 0.5 ** (m1 + np.abs(m2))
            * np.exp(1j * phases))
    half[0, :cutoff + 1] = 0.0  # m1 == 0 and m2 <= 0 lie in the other half
    coeffs = np.zeros((2 * cutoff + 1,) * 2, dtype=complex)
    coeffs[cutoff:] = half
    coeffs += coeffs[::-1, ::-1].conj()
    values = sp.resolve(sp.SpectralField(manifold, coeffs, cutoff))
    peak = np.abs(values).max()
    if peak > 0.0:
        coeffs *= amplitude / peak
        values *= amplitude / peak
    return coeffs, values


def random_positive_torus_field(rng: np.random.Generator,
                                manifold: sp.ManifoldSpec,
                                cutoff: int = 2,
                                amplitude: float = 0.5) -> sp.SpectralField:
    """Random strictly positive trigonometric polynomial: 1.5 + bounded noise.
    Raises PositivityError where ``amplitude`` lets it reach the positivity floor."""
    coeffs, values = _random_trig_coefficients(rng, manifold, cutoff, amplitude)
    sp._require_positive(1.5 + values[np.newaxis], sp._RESOLVED_MINIMUM)
    coeffs[cutoff, cutoff] += 1.5 * math.sqrt(manifold.volume)
    return sp.SpectralField(manifold, coeffs, cutoff)


def random_torus_potential(rng: np.random.Generator,
                           manifold: sp.ManifoldSpec,
                           cutoff: int = 2,
                           amplitude: float = 0.3) -> sp.SpectralField:
    """Random signed trigonometric potential with bounded sup-norm."""
    coeffs, _ = _random_trig_coefficients(rng, manifold, cutoff, amplitude)
    return sp.SpectralField(manifold, coeffs, cutoff)
