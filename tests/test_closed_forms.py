"""Closed-form relative entropy and Fisher information of the one- and
two-mode fixtures, an oracle for the spectral functionals that shares none
of their code.

With m the mass and u-bar = m / volume, D = int u log u - m log u-bar is the
relative entropy (-entropy on the unit circle and torus, log 4 pi - entropy on
the unit sphere) and I = int |grad u|^2 / u the Fisher information, so
rate_direct = I / 2.

* Circle, u = 1 + a cos 2 pi x, a = e^{-2 pi^2 t} / 2: with s = sqrt(1 - a^2)
  and q = a^2 / (1 + s) = 1 - s, D = q + log1p(-q/2) and I = 4 pi^2 q
  (Gradshteyn & Ryzhik 4.224-4.225).
* Torus, u = 1 + a cos 2 pi x + a sin 2 pi y, a = e^{-2 pi^2 t} / 4: for each
  y, A = 1 + a sin 2 pi y and c = a / A make the x-integral the circle's at c,
  so D = g(a) + int A g(a / A) dy with g the circle's D, and
  I = 4 pi^2 a^2 int (1 / (1 + s_c) + cos^2 2 pi y / s_c) / A dy.  The outer
  integrands are analytic and periodic and do not cancel, so a 128-node
  trapezoid sum holds them to rounding.
* Sphere of radius 1, u = (1 + b cos theta) / (4 pi), b = e^{-tau} / 2:
  D = sum_k b^{2k} / ((2k - 1) 2k (2k + 1)) and
  I = sum_k 2 b^{2k} / ((2k - 1)(2k + 1)), k >= 1, series of positive terms.

The Fisher side holds at every time.  The entropy column loses digits to
cancellation in its u log u sum past t of about 0.18 on the circle, 0.11 on
the torus and tau of about 1.02 on the sphere, so D is held only up to there.
"""

import itertools
import math

import numpy as np
import pytest

from heatent import fixtures as fx
from heatent import spectral as sp

TOLERANCE = 1e-13
# times beyond the fixtures' default grids, where D and I are tiny
LATE_TIMES = {"circle": (5.0, 10.0), "torus": (5.0, 10.0), "sphere": (5.0, 10.0, 20.0)}
# the last default time whose entropy is resolved to TOLERANCE
RESOLVED_UP_TO = {"circle": 0.18, "torus": 0.112, "sphere": 1.023}
# what D is measured from: D = OFFSET - entropy
OFFSET = {"circle": 0.0, "torus": 0.0, "sphere": math.log(4.0 * math.pi)}


def circle_forms(a):
    """(D, I) of 1 + a cos 2 pi x on the unit circle."""
    q = a * a / (1.0 + np.sqrt(1.0 - a * a))
    return q + np.log1p(-0.5 * q), 4.0 * math.pi ** 2 * q


def torus_forms(a):
    """(D, I) of 1 + a cos 2 pi x + a sin 2 pi y on the unit torus, a scalar."""
    y = 2.0 * math.pi * np.arange(128) / 128
    big_a = 1.0 + a * np.sin(y)
    c = a / big_a
    s = np.sqrt(1.0 - c * c)
    fisher = 4.0 * math.pi ** 2 * a * a * np.mean((1.0 / (1.0 + s) + np.cos(y) ** 2 / s) / big_a)
    return circle_forms(a)[0] + np.mean(big_a * circle_forms(c)[0]), fisher


def sphere_forms(b):
    """(D, I) of (1 + b cos theta) / (4 pi) on the unit sphere, by their series."""
    k = np.arange(1, 41)
    powers = np.asarray(b, dtype=float)[..., np.newaxis] ** (2 * k)
    odd = (2 * k - 1) * (2 * k + 1)
    return np.sum(powers / (odd * 2 * k), axis=-1), np.sum(2.0 * powers / odd, axis=-1)


def forms(name, t):
    """(D, I) of the named fixture evolved to each time of ``t``."""
    t = np.asarray(t, dtype=float)
    if name == "circle":
        return circle_forms(0.5 * np.exp(-2.0 * math.pi ** 2 * t))
    if name == "sphere":
        return sphere_forms(0.5 * np.exp(-t))
    pairs = [torus_forms(0.25 * math.exp(-2.0 * math.pi ** 2 * x)) for x in t.tolist()]
    return tuple(np.array(column) for column in zip(*pairs))


def relative_error(got, want):
    return np.abs(np.asarray(got) - want) / np.abs(want)


NAMES = sorted(LATE_TIMES)


@pytest.mark.parametrize("name", NAMES)
def test_trace_fisher_and_rate_follow_the_closed_form(name):
    fixture = fx.get_fixture(name)
    times = np.union1d(fixture.default_times, LATE_TIMES[name])
    trace = sp.entropy_trace(fixture.initial, times)
    _, fisher = forms(name, times)
    assert relative_error(trace.fisher, fisher).max() <= TOLERANCE
    assert relative_error(trace.rate_direct, 0.5 * fisher).max() <= TOLERANCE


@pytest.mark.parametrize("name", NAMES)
def test_trace_entropy_follows_the_closed_form_where_resolved(name):
    fixture = fx.get_fixture(name)
    times = fixture.default_times[fixture.default_times <= RESOLVED_UP_TO[name]]
    trace = sp.entropy_trace(fixture.initial, times)
    relative, _ = forms(name, times)
    assert times.size >= 6
    assert relative_error(OFFSET[name] - trace.entropy, relative).max() <= TOLERANCE


@pytest.mark.parametrize("name", NAMES)
def test_initial_functionals_follow_the_closed_forms(name):
    entropy, fisher = sp.entropy_and_fisher(fx.get_fixture(name).initial)
    relative, want = forms(name, [0.0])
    assert relative_error(OFFSET[name] - entropy, relative[0]) <= TOLERANCE
    assert relative_error(fisher, want[0]) <= TOLERANCE


def periodic_means(mp, terms, nodes, axes):
    """The means of each of the values ``terms`` returns over the unit cell,
    by the periodic trapezoid rule with ``nodes`` per axis."""
    grid = [mp.mpf(j) / nodes for j in range(nodes)]
    rows = [terms(*point) for point in itertools.product(grid, repeat=axes)]
    return tuple(mp.fsum(column) / len(rows) for column in zip(*rows))


def mpmath_forms(mp, name, t):
    """(D, I) by direct integration of u log u and |grad u|^2 / u, at 30
    more digits than the amplitude's order: the linear term of u log u
    integrates to zero, and the working precision absorbs that cancellation."""
    amplitude, rate = {"circle": (0.5, 2.0 * math.pi ** 2), "torus": (0.25, 2.0 * math.pi ** 2),
                       "sphere": (0.5, 1.0)}[name]
    with mp.workdps(30 + math.ceil(rate * t / math.log(10.0))):
        a, k = mp.mpf(amplitude) * mp.exp(-rate * mp.mpf(t)), 2 * mp.pi
        if name == "sphere":
            pair = (mp.quad(lambda z: (1 + a * z) * mp.log1p(a * z), [-1, 1]) / 2,
                    a * a * mp.quad(lambda z: (1 - z * z) / (1 + a * z), [-1, 1]) / 2)
        elif name == "circle":
            def terms(x):
                du = a * mp.cos(k * x)
                return (1 + du) * mp.log1p(du), (k * a * mp.sin(k * x)) ** 2 / (1 + du)
            pair = periodic_means(mp, terms, 48, 1)
        else:
            def terms(x, y):
                du = a * (mp.cos(k * x) + mp.sin(k * y))
                grad2 = (k * a) ** 2 * (mp.sin(k * x) ** 2 + mp.cos(k * y) ** 2)
                return (1 + du) * mp.log1p(du), grad2 / (1 + du)
            pair = periodic_means(mp, terms, 32, 2)
        return tuple(map(float, pair))


@pytest.mark.parametrize("name", NAMES)
def test_closed_forms_agree_with_mpmath(name):
    mp = pytest.importorskip("mpmath")
    times = {"circle": (0.0, 0.05, 0.5, 2.0), "torus": (0.0, 0.05, 0.5),
             "sphere": (0.0, 0.5, 2.0, 8.0)}[name]
    relative, fisher = forms(name, times)
    for t, d, i in zip(times, relative.tolist(), fisher.tolist()):
        want_d, want_i = mpmath_forms(mp, name, t)
        assert relative_error(d, want_d) <= 1e-15, (t, d, want_d)
        assert relative_error(i, want_i) <= 1e-15, (t, i, want_i)
