"""Built-in manifold fixtures for the CLI, the verification suite and tests.

All initial data are low-band trigonometric polynomials, normalised to unit
mass against the relevant reference measure.  On the periodic fixtures their
extrema land exactly on the evaluation grid, and on the sphere at the poles,
which ``spectral.grid_extrema`` evaluates exactly on top of its grid.
``get_fixture`` and ``seeded_torus_fields`` build their fields once per process
and hand the same ones to every caller, so every array they hold is read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


@functools.lru_cache(maxsize=16)
def _trig_layout(cutoff: int) -> tuple[np.ndarray, ...]:
    """Read-only (weights, cos2, sin2): 0.5^(|m1| + |m2|) / (g1 g2) on the
    half-plane of modes, g = sqrt2 off the constant and 1 on it, and where the
    cos and the sin (signed) of mode m2 go among ``SpectralField``'s columns."""
    modes = np.arange(-cutoff, cutoff + 1)
    m1, m2 = np.ix_(modes[cutoff:], modes)
    g, eye = np.where(modes == 0, 1.0, math.sqrt(2.0)), np.eye(2 * cutoff + 1)
    return tuple(map(sp._read_only, (
        0.5 ** (m1 + np.abs(m2)) * ((m1 > 0) | (m2 > 0)) / np.outer(g[cutoff:], g),
        eye[cutoff + np.abs(modes)], np.sign(modes)[:, np.newaxis] * eye[cutoff - np.abs(modes)])))


def random_torus_fields(rng: np.random.Generator, manifold: sp.ManifoldSpec,
                        positive: Sequence[bool], cutoff: int = 2,
                        amplitudes: Optional[Sequence[float]] = None) -> list[sp.SpectralField]:
    """A random trigonometric polynomial per entry of ``positive``: 1.5 + noise
    where true (the first to reach the positivity floor raises PositivityError),
    the signed noise where false.  Draw after draw from ``rng``: normal a_m, then
    uniform phi_m, on the half-plane of modes (m1 > 0, or m1 == 0 < m2), noise
    a_m 0.5^(|m1| + |m2|) cos(2 pi m.x/L + phi_m) = p cos1 cos2 - q cos1 sin2 -
    p sin1 sin2 - q sin1 cos2 (p, q its cos and sin parts), scaled to sup norm
    ``amplitudes`` (default 0.5, 0.3); all draws make one array program."""
    if manifold.kind != "torus2":
        raise ValueError(f"random fields live on a plain torus2, not {manifold.kind!r}")
    positive = np.array(positive, dtype=bool)
    shape = (cutoff + 1, 2 * cutoff + 1)
    sizes, phases = np.array([(rng.normal(size=shape), rng.uniform(0.0, 2.0 * np.pi, size=shape))
                              for _ in positive]).reshape(-1, 2, *shape).swapaxes(0, 1)
    weights, cos2, sin2 = _trig_layout(cutoff)
    size = math.sqrt(manifold.volume) * weights * sizes
    p, q = size * np.cos(phases), size * np.sin(phases)
    # the cos of m1 at row cutoff + m1, and its sin (m1 > 0) at cutoff - m1
    coeffs = np.concatenate([-(p @ sin2 + q @ cos2)[:, :0:-1], p @ cos2 - q @ sin2], axis=1)
    values = sp._transform(manifold, cutoff).synth(coeffs)
    peak = np.abs(values).max(axis=(1, 2))
    # a zero polynomial keeps its zeros
    factor = np.divide(np.where(positive, 0.5, 0.3) if amplitudes is None else amplitudes, peak,
                       out=np.ones_like(peak), where=peak > 0.0)[:, None, None]
    coeffs *= factor
    sp._require_positive(1.5 + (values * factor)[positive], sp._RESOLVED_MINIMUM)
    coeffs[positive, cutoff, cutoff] += 1.5 * math.sqrt(manifold.volume)
    return [sp.SpectralField(manifold, c, cutoff) for c in coeffs]


@functools.lru_cache(maxsize=8)
def seeded_torus_fields(seed: int, positive: tuple[bool, ...]) -> tuple[sp.SpectralField, ...]:
    """``random_torus_fields`` of a fresh ``default_rng(seed)`` on the unit torus, read-only."""
    fields = tuple(random_torus_fields(np.random.default_rng(seed), sp.torus2(1.0, 1.0), positive))
    for field in fields:
        sp._read_only(field.coefficients)
    return fields


def random_positive_torus_field(rng: np.random.Generator, manifold: sp.ManifoldSpec,
                                cutoff: int = 2, amplitude: float = 0.5) -> sp.SpectralField:
    """Random strictly positive trigonometric polynomial, 1.5 + bounded noise:
    the one-draw case of ``random_torus_fields``."""
    return random_torus_fields(rng, manifold, [True], cutoff, [amplitude])[0]

