"""Spectral entropy and Fisher information of the closed-manifold fixtures
against 40-digit integrals of their exact fields.

Each reference is built from the field's formula, the fixture's data times
e^{-lambda t/2} per eigenmode, and never goes through the library's
transforms.  Entropy is -integral u log u and Fisher information
integral |grad u|^2 / u, both against the volume measure.  The times stop at
t = 0.1: later, the fluctuation of u about its mean falls towards 1e-2 and
the library's entropy starts to lose digits to cancellation.
"""

import functools
import math

import pytest

from heatent import fixtures as fx
from heatent import spectral as sp

TIMES = (0.01, 0.03, 0.1)
# every value is held to this, relative to the reference
TOLERANCE = 1e-12
# points per side of the periodic trapezoid rule on the torus; it agreed
# with 96 per side to 1e-40 at these times
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

