"""Spectral entropy and Fisher information of the closed-manifold fixtures
and of seeded random fields against 40-digit integrals of their exact fields.

Each reference is built from the field's formula, the data times
e^{-lambda t/2} per eigenmode, and never goes through the library's
transforms.  Entropy is -integral u log u and Fisher information
integral |grad u|^2 / u, both against the volume measure; for the random
fields Fisher information is read as -integral (Delta u) log u, the same
integral by parts, with Delta of each eigenmode -lambda times it.  Every
time keeps max|u - mean|/mean above 1e-2: later, the fluctuation falls and
the library's entropy starts to lose digits to cancellation.
"""

import functools
import math

import numpy as np
import pytest

from heatent import fixtures as fx
from heatent import spectral as sp

TIMES = (0.01, 0.03, 0.1)
# every value is held to this, relative to the reference
TOLERANCE = 1e-12
# points per side of the periodic trapezoid rule on the torus; it agreed
# with 96 per side to 1e-40 at these times, and to 2.4e-38 on the random
# fields at theirs
TORUS_POINTS = 64


def _circle(mp, t):
    # 1 + a cos 2 pi x on [0, 1], a = e^{-2 pi^2 t}/2
    a = mp.exp(-2 * mp.pi ** 2 * t) / 2

    def u(x):
        return 1 + a * mp.cos(2 * mp.pi * x)

    def grad2(x):
        return (2 * mp.pi * a * mp.sin(2 * mp.pi * x)) ** 2

    entropy = -mp.quad(lambda x: u(x) * mp.log(u(x)), [0, 0.5, 1])
    fisher = mp.quad(lambda x: grad2(x) / u(x), [0, 0.5, 1])
    return entropy, fisher


def _torus(mp, t):
    # 1 + b (cos 2 pi x + sin 2 pi y) on the unit square, b = e^{-2 pi^2 t}/4,
    # by the periodic trapezoid rule, exact to rounding for a smooth field
    b = mp.exp(-2 * mp.pi ** 2 * t) / 4
    angles = [2 * mp.pi * mp.mpf(j) / TORUS_POINTS for j in range(TORUS_POINTS)]
    cos, sin = [mp.cos(s) for s in angles], [mp.sin(s) for s in angles]
    entropy = fisher = mp.mpf(0)
    for cx, sx in zip(cos, sin):
        for cy, sy in zip(cos, sin):
            u = 1 + b * (cx + sy)
            entropy -= u * mp.log(u)
            fisher += (2 * mp.pi * b) ** 2 * (sx * sx + cy * cy) / u
    return entropy / TORUS_POINTS ** 2, fisher / TORUS_POINTS ** 2


def _sphere(mp, t):
    # (1 + a cos theta)/(4 pi) on the unit sphere, a = e^{-t}/2, integrated
    # in c = cos theta with the azimuth's 2 pi; |grad u|^2 = (du/dtheta)^2
    a = mp.exp(-t) / 2

    def u(c):
        return (1 + a * c) / (4 * mp.pi)

    entropy = -2 * mp.pi * mp.quad(lambda c: u(c) * mp.log(u(c)), [-1, 1])
    fisher = 2 * mp.pi * mp.quad(
        lambda c: (a / (4 * mp.pi)) ** 2 * (1 - c * c) / u(c), [-1, 1])
    return entropy, fisher


_REFERENCES = {"circle": _circle, "torus": _torus, "sphere": _sphere}


@functools.cache
def reference(name: str, t: float) -> tuple[float, float]:
    """(entropy, Fisher information) of fixture ``name`` at time t, from a
    40-digit integral of its exact field."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        entropy, fisher = _REFERENCES[name](mp, mp.mpf(t))
        return float(entropy), float(fisher)


@functools.cache
def trace(name: str) -> sp.EntropyTrace:
    return sp.entropy_trace(fx.get_fixture(name).initial, TIMES)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_entropy_against_exact_field(name, t):
    entropy, _ = reference(name, t)
    value = float(trace(name).entropy[TIMES.index(t)])
    assert abs(value - entropy) <= TOLERANCE * abs(entropy), (value, entropy)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_fisher_against_exact_field(name, t):
    _, fisher = reference(name, t)
    value = float(trace(name).fisher[TIMES.index(t)])
    assert abs(value - fisher) <= TOLERANCE * fisher, (value, fisher)


# Seeded random fields, each from default_rng(seed): unit-torus fields of
# fixtures.random_positive_torus_field by seed and cutoff, and zonal sphere
# fields at cutoff 8 by seed.  At these times max|u - mean|/mean reads
# 0.08-0.27 on the torus and 0.02-0.45 on the sphere.
RANDOM_TORUS = {1000: 2, 1001: 3, 1002: 4}
RANDOM_SPHERE = (1003, 1004, 1005)
RANDOM_TIMES = {"torus": (0.005, 0.01, 0.02, 0.04), "sphere": (0.05, 0.2, 0.5, 1.0)}
RANDOM_CASES = [(kind, seed, t) for kind, seeds in (("torus", RANDOM_TORUS),
                                                    ("sphere", RANDOM_SPHERE))
                for seed in seeds for t in RANDOM_TIMES[kind]]


@functools.cache
def random_field(kind: str, seed: int) -> sp.SpectralField:
    rng = np.random.default_rng(seed)
    if kind == "torus":
        return fx.random_positive_torus_field(rng, sp.torus2(1.0, 1.0), RANDOM_TORUS[seed])
    # 1 + a zonal polynomial of degree 4 with sup norm at most 0.5, drawn as
    # the frozen spectral tests draw theirs
    cutoff = 8
    coeffs = np.zeros(cutoff + 1)
    degree = np.arange(1, cutoff // 2 + 1)
    noise = rng.normal(size=degree.size) * 0.6 ** degree
    coeffs[degree] = noise * math.sqrt(4.0 * math.pi) / np.sqrt(2.0 * degree + 1.0)
    coeffs[degree] *= 0.5 / np.abs(noise).sum()
    coeffs[0] = math.sqrt(4.0 * math.pi)
    return sp.SpectralField(sp.sphere2(1.0), coeffs, cutoff)


def _random_torus(mp, field, t):
    # sum over m1, m2 of c e^{-(lambda1 + lambda2) t/2} phi_m1(x) phi_m2(y),
    # phi_m = sqrt2 cos 2 pi m x (m > 0), sqrt2 sin 2 pi |m| x (m < 0) and 1,
    # lambda = (2 pi m)^2, by the periodic trapezoid rule
    modes = range(-field.cutoff, field.cutoff + 1)
    angles = [2 * mp.pi * mp.mpf(j) / TORUS_POINTS for j in range(TORUS_POINTS)]
    table = [[mp.sqrt(2) * (mp.cos(m * s) if m > 0 else mp.sin(-m * s)) if m else mp.mpf(1)
              for m in modes] for s in angles]
    lam = [(2 * mp.pi * m) ** 2 for m in modes]
    coeffs = [[mp.mpf(float(c)) * mp.exp(-(l1 + l2) * t / 2) for c, l2 in zip(row, lam)]
              for row, l1 in zip(field.coefficients.tolist(), lam)]
    laplacian = [[-(l1 + l2) * c for c, l2 in zip(row, lam)] for row, l1 in zip(coeffs, lam)]
    values, laplacians = [], []
    for phi in table:
        rows = [[mp.fdot(phi, column) for column in zip(*a)] for a in (coeffs, laplacian)]
        for psi in table:
            values.append(mp.fdot(rows[0], psi))
            laplacians.append(mp.fdot(rows[1], psi))
    logs = [mp.log(v) for v in values]
    return -mp.fdot(values, logs) / TORUS_POINTS ** 2, -mp.fdot(laplacians, logs) / TORUS_POINTS ** 2


def _random_sphere(mp, field, t):
    # sum over l of c e^{-l (l + 1) t/2} sqrt((2 l + 1)/(4 pi)) P_l(cos theta),
    # integrated in c = cos theta with the azimuth's 2 pi
    coeffs = [mp.mpf(float(c)) * mp.exp(-l * (l + 1) * t / 2) * mp.sqrt((2 * l + 1) / (4 * mp.pi))
              for l, c in enumerate(field.coefficients.tolist())]
    laplacian = [-l * (l + 1) * c for l, c in enumerate(coeffs)]

    def legendre(x):  # P_0(x) ... P_cutoff(x) by Bonnet's recursion
        p = [mp.mpf(1), x]
        for l in range(1, field.cutoff):
            p.append(((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1))
        return p

    def integrand(weights):
        def f(x):
            p = legendre(x)
            return mp.fdot(weights, p) * mp.log(mp.fdot(coeffs, p))
        return f

    return (-2 * mp.pi * mp.quad(integrand(coeffs), [-1, 1]),
            -2 * mp.pi * mp.quad(integrand(laplacian), [-1, 1]))


_RANDOM_REFERENCES = {"torus": _random_torus, "sphere": _random_sphere}


@functools.cache
def random_reference(kind: str, seed: int, t: float) -> tuple[float, float]:
    """(entropy, Fisher information) of a seeded random field at time t, from a
    40-digit integral of its exact field."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        entropy, fisher = _RANDOM_REFERENCES[kind](mp, random_field(kind, seed), mp.mpf(t))
        return float(entropy), float(fisher)


@functools.cache
def random_trace(kind: str, seed: int) -> sp.EntropyTrace:
    return sp.entropy_trace(random_field(kind, seed), RANDOM_TIMES[kind])


@pytest.mark.parametrize("kind, seed, t", RANDOM_CASES)
def test_random_field_entropy_against_exact_field(kind, seed, t):
    entropy, _ = random_reference(kind, seed, t)
    value = float(random_trace(kind, seed).entropy[RANDOM_TIMES[kind].index(t)])
    assert abs(value - entropy) <= TOLERANCE * abs(entropy), (value, entropy)


@pytest.mark.parametrize("kind, seed, t", RANDOM_CASES)
def test_random_field_fisher_against_exact_field(kind, seed, t):
    _, fisher = random_reference(kind, seed, t)
    value = float(random_trace(kind, seed).fisher[RANDOM_TIMES[kind].index(t)])
    assert abs(value - fisher) <= TOLERANCE * fisher, (value, fisher)
