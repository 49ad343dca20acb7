"""Closed-form relative entropy and Fisher information of the one- and
two-mode fixtures, an oracle for the spectral functionals that shares none
of their code.  The forms live in ``verify``.

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

The traces are held to the forms by ``verify``'s ``closed_forms`` group:
Fisher and rate_direct at every time, and D only up to t of about 0.18 on
the circle, 0.11 on the torus and tau of about 1.02 on the sphere, past
which the entropy column loses digits to cancellation in its u log u sum.
Here the forms are held to mpmath, and the functionals at t = 0 to the forms.
"""

import itertools
import math

import numpy as np
import pytest

from heatent import fixtures as fx
from heatent import spectral as sp
from heatent.verify import forms

TOLERANCE = 1e-13
# what D is measured from: D = OFFSET - entropy
OFFSET = {"circle": 0.0, "torus": 0.0, "sphere": math.log(4.0 * math.pi)}


def relative_error(got, want):
    return np.abs(np.asarray(got) - want) / np.abs(want)


NAMES = sorted(OFFSET)


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
