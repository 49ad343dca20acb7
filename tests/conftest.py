import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import heatent
from heatent import quadrature
from heatent import spectral as sp
from heatent.h3entropy import moment_factors

# The directory the tests import heatent from (src/ in a plain checkout), so
# that child processes run the same code without an install.
PACKAGE_PARENT = str(Path(heatent.__file__).resolve().parent.parent)


@pytest.fixture
def tolerances(monkeypatch):
    """A setter of the program's two quadrature tolerances for one test:
    ``tolerances(relative, absolute)`` replaces
    ``quadrature.RELATIVE_TOLERANCE`` and ``quadrature.ABSOLUTE_TOLERANCE``,
    and both are restored when the test ends."""
    def set_tolerances(relative: float, absolute: float) -> None:
        monkeypatch.setattr(quadrature, "RELATIVE_TOLERANCE", relative)
        monkeypatch.setattr(quadrature, "ABSOLUTE_TOLERANCE", absolute)

    return set_tolerances


def run_python(*args: str, **env_overrides: Optional[str]) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child process that imports this heatent, with
    ``env_overrides`` set in its environment (one given as None unset);
    output captured as text.

    The child turns warnings into errors, as ``filterwarnings = ["error"]``
    does in this process."""
    env = {name: value for name, value in
           {**os.environ, "PYTHONWARNINGS": "error", **env_overrides}.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m heatent ARGS`` in a child process, output captured as text."""
    return run_python("-m", "heatent", *args)


def random_torus_potential(rng: np.random.Generator, manifold, cutoff: int = 2,
                           amplitude: float = 0.3):
    """A random signed trigonometric potential with sup norm ``amplitude``:
    the one-draw case of ``spectral.random_torus_fields``."""
    return sp.random_torus_fields(rng, manifold, [False], cutoff, [amplitude])[0]


def closed_moment(m: int, kappa: float, t):
    """The power-m sinh moment times exp(-kappa^2 t/2) from the moment table,
    t^{(m+1)/2} F_m(kappa sqrt t), as ``verify``'s moment table forms it;
    a float t gives a float."""
    ts = np.asarray(t, dtype=float)
    value = ts ** (0.5 * (m + 1)) * moment_factors(kappa, ts)[m]
    return float(value) if ts.ndim == 0 else value


def mp_scaled_moment(mp, power: int, kappa: float, t: float):
    """The Gaussian-sinh moment integral_0^inf exp(-r^2/2t) r^power
    sinh(kappa r) dr times exp(-kappa^2 t/2), at the working precision of
    mp (mpmath), without the closed-form table.

    Each exponential half is a Gaussian partial moment: with the square
    completed, exp(-(r - mu)^2/2t) at mu = +-kappa t, and r = mu + sqrt(t) s,
    it is sqrt(t) sum_k C(m, k) mu^(m-k) t^(k/2) G_k(-mu/sqrt t), where
    G_k(a) = integral_a^inf s^k exp(-s^2/2) ds
           = a^(k-1) exp(-a^2/2) + (k - 1) G_(k-2)(a).
    """
    kappa, t = mp.mpf(kappa), mp.mpf(t)
    st = mp.sqrt(t)

    def half(mu):
        a = -mu / st
        gauss = mp.exp(-a * a / 2)
        g = [mp.sqrt(mp.pi / 2) * mp.erfc(a / mp.sqrt(2)), gauss]
        for k in range(2, power + 1):
            g.append(a ** (k - 1) * gauss + (k - 1) * g[k - 2])
        return st * mp.fsum(mp.binomial(power, k) * mu ** (power - k) * st ** k * g[k]
                            for k in range(power + 1))

    plus, minus = half(kappa * t), half(-kappa * t)
    return (plus - minus) / 2
