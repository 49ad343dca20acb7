"""Built-in manifold fixtures for the CLI, the verification suite and tests.

All initial data are low-band trigonometric polynomials, normalised to unit
mass against the relevant reference measure.  On the periodic fixtures their
extrema land exactly on the evaluation grid; on the sphere the Gauss-Legendre
grid misses the poles (see ``spectral.grid_extrema``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp


@dataclass(frozen=True, eq=False)
class Fixture:
    name: str
    manifold: sp.ManifoldSpec
    initial: sp.SpectralField
    default_times: np.ndarray
    # Grid restricted to where rates stay well above the float noise floor,
    # used for the rate-vs-finite-difference consistency checks.
    rate_check_times: np.ndarray


def circle_fixture() -> Fixture:
    manifold = sp.circle(1.0)
    initial = sp.project_initial(
        manifold, lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x), cutoff=2)
    return Fixture(
        name="circle",
        manifold=manifold,
        initial=initial,
        default_times=np.geomspace(0.01, 2.0, 12),
        rate_check_times=np.geomspace(0.01, 0.4, 8),
    )


def torus_fixture() -> Fixture:
    manifold = sp.torus2(1.0, 1.0)
    initial = sp.project_initial(
        manifold,
        lambda x, y: 1.0 + 0.25 * np.cos(2.0 * np.pi * x) + 0.25 * np.sin(2.0 * np.pi * y),
        cutoff=2)
    return Fixture(
        name="torus",
        manifold=manifold,
        initial=initial,
        default_times=np.geomspace(0.01, 2.0, 12),
        rate_check_times=np.geomspace(0.01, 0.4, 8),
    )


def sphere_fixture() -> Fixture:
    manifold = sp.sphere2(1.0)
    # cutoff well above the data's band: the extra headroom buys a denser
    # Gauss-Legendre grid for the non-polynomial entropy integrands
    initial = sp.project_initial(
        manifold, lambda th: (1.0 + 0.5 * np.cos(th)) / (4.0 * math.pi), cutoff=8)
    return Fixture(
        name="sphere",
        manifold=manifold,
        initial=initial,
        default_times=np.geomspace(0.01, 8.0, 14),
        rate_check_times=np.geomspace(0.05, 2.0, 8),
    )


def drift_fixture() -> Fixture:
    base = sp.torus2(1.0, 1.0)
    potential = sp.project_potential(
        base, lambda x, y: 0.1 * np.sin(2.0 * np.pi * x), cutoff=2)
    manifold = sp.torus2_drift(potential)
    raw = sp.project_initial(
        manifold, lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x), cutoff=6)
    mu_mass = sp.mass(raw)
    initial = sp.SpectralField(manifold, raw.coefficients / mu_mass, raw.cutoff)
    return Fixture(
        name="torus-drift",
        manifold=manifold,
        initial=initial,
        default_times=np.geomspace(0.1, 2.0, 6),
        rate_check_times=np.geomspace(0.02, 0.3, 5),
    )


FIXTURE_BUILDERS = {
    "circle": circle_fixture,
    "torus": torus_fixture,
    "sphere": sphere_fixture,
    "torus-drift": drift_fixture,
}


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURE_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; "
                         f"choose from {sorted(FIXTURE_BUILDERS)}") from None


def _random_trig_poly(rng: np.random.Generator, cutoff: int, amplitude: float):
    """Random real trigonometric polynomial on the unit torus, sup-norm-scaled.

    Uses the half-plane of modes (m1 > 0, or m1 == 0 and m2 > 0) with random
    cosine phases, which spans all real zero-mean trig polynomials of the band.
    """
    amplitudes = rng.normal(size=(cutoff + 1, 2 * cutoff + 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=amplitudes.shape)

    def f(x, y):
        acc = np.zeros_like(x)
        for i in range(amplitudes.shape[0]):
            for j in range(amplitudes.shape[1]):
                m1, m2 = i, j - cutoff
                if m1 == 0 and m2 <= 0:
                    continue
                decay = 0.5 ** (abs(m1) + abs(m2))
                acc = acc + amplitudes[i, j] * decay * np.cos(
                    2.0 * np.pi * (m1 * x + m2 * y) + phases[i, j])
        peak = np.abs(acc).max()
        if peak > 0.0:
            acc = acc * (amplitude / peak)
        return acc

    return f


def random_positive_torus_field(rng: np.random.Generator,
                                manifold: sp.ManifoldSpec,
                                cutoff: int = 2,
                                amplitude: float = 0.5) -> sp.SpectralField:
    """Random strictly positive trigonometric polynomial: 1.5 + bounded noise."""
    noise = _random_trig_poly(rng, cutoff, amplitude)
    return sp.project_initial(manifold, lambda x, y: 1.5 + noise(x, y), cutoff)


def random_torus_potential(rng: np.random.Generator,
                           manifold: sp.ManifoldSpec,
                           cutoff: int = 2,
                           amplitude: float = 0.3) -> sp.SpectralField:
    """Random signed trigonometric potential with bounded sup-norm."""
    return sp.project_potential(manifold, _random_trig_poly(rng, cutoff, amplitude), cutoff)
