"""The drifted torus fixture's entropy trace against the ground-state transform.

L = Delta/2 + grad V . grad is self-adjoint in L^2(mu), mu = e^{2V} dx, and
u = e^{-V} psi turns u' = L u into psi' = -H psi with the Schroedinger
operator H = -Delta/2 + W, W = (Delta V + |grad V|^2)/2, whose ground state
e^V has eigenvalue exactly 0.  The fixture's V = 0.1 sin 2 pi x and u_0 =
(1 + 0.2 cos 2 pi x)/mass depend on x alone, so the oracle is
one-dimensional: H on the complex Fourier modes |k| <= K, built with numpy
alone (no heatent transform, no drift pencil).  psi_0 = e^V u_0 is projected
onto e^V exactly, alpha = <e^V, psi_0>/<e^V, e^V>, and the rest r propagated
by ``eigh`` with the one near-zero mode dropped, so u = alpha + e^{-V} r and
u' = e^{-V} (r' - V' r) on a uniform grid take no difference of the ground
state.  Fisher information is sum w u'^2/u and the entropy
-alpha log alpha - alpha sum w phi(delta), delta = e^{-V} r / alpha and
phi(d) = (1 + d) log(1 + d) - d, a sum of nonnegative terms; w = e^{2V}/sum
e^{2V} are the mu-normalised weights the library sums against.
"""

import functools
import math

import numpy as np

from heatent import fixtures as fx
from heatent import spectral as sp

AMPLITUDE = 0.1  # V = AMPLITUDE sin 2 pi x
# (modes |k| <= K, grid points) of the two discretisations
FINE, FINER = (20, 128), (28, 192)
FISHER_TOLERANCE = 1e-11
ENTROPY_TOLERANCE = 1e-10
# where the library's u log u sum has not yet lost digits to cancellation
ENTROPY_TIMES_UP_TO = 0.2
SELF_TOLERANCE = 1e-12


def _phi(d: np.ndarray) -> np.ndarray:
    """(1 + d) log(1 + d) - d, by its series sum_{n >= 2} (-d)^n / (n (n - 1))
    where |d| < 0.1 (25 terms reach 1e-25 d^2), so no digit cancels."""
    series = sum((-d) ** n / (n * (n - 1)) for n in range(25, 1, -1))
    return np.where(np.abs(d) < 0.1, series, (1.0 + d) * np.log1p(d) - d)


@functools.cache
def oracle(modes: int, points: int, times: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, Fisher information) of the drift fixture at ``times`` from
    H on the modes |k| <= ``modes``, summed on ``points`` uniform points."""
    x = np.arange(points) / points
    v = AMPLITUDE * np.sin(2.0 * np.pi * x)
    dv = 2.0 * np.pi * AMPLITUDE * np.cos(2.0 * np.pi * x)
    density = np.exp(2.0 * v)
    w = density / density.sum()
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
    u0 /= np.sum(w * u0)
    # <e^V, psi_0>/<e^V, e^V> = the mu-mass of u_0, and r_0 = e^V (u_0 - alpha)
    alpha = np.sum(w * u0)
    k = np.arange(-modes, modes + 1)
    basis = np.exp(2j * np.pi * np.outer(x, k))  # e^{2 pi i k x} on the grid
    r0 = (basis.conj().T @ (np.exp(v) * (u0 - alpha))) / points
    # H's matrix on the modes: (2 pi k)^2/2 on the diagonal plus W^_{j - k},
    # W = (V'' + V'^2)/2 = pi^2 a^2 - 2 pi^2 a sin 2 pi x + pi^2 a^2 cos 4 pi x
    a2 = np.pi ** 2 * AMPLITUDE
    w_hat = {0: a2 * AMPLITUDE, 1: 1j * a2, -1: -1j * a2,
             2: 0.5 * a2 * AMPLITUDE, -2: 0.5 * a2 * AMPLITUDE}
    h = np.diag(0.5 * (2.0 * np.pi * k) ** 2).astype(complex)
    for m, value in w_hat.items():
        h += value * np.eye(k.size, k=-m)
    rates, vectors = np.linalg.eigh(h)
    assert abs(rates[0]) < 1e-12 < rates[1]  # the ground state e^V, at eigenvalue 0
    rates, vectors = rates[1:], vectors[:, 1:]
    modal = vectors.conj().T @ r0
    entropy, fisher = [], []
    for t in times:
        c = vectors @ (np.exp(-rates * t) * modal)
        r, dr = (basis @ c).real, (basis @ (2j * np.pi * k * c)).real
        delta = np.exp(-v) * r / alpha
        du = np.exp(-v) * (dr - dv * r)
        entropy.append(-alpha * math.log(alpha) - alpha * np.sum(w * _phi(delta)))
        fisher.append(np.sum(w * du * du / (alpha * (1.0 + delta))))
    return np.array(entropy), np.array(fisher)


def _times() -> tuple[float, ...]:
    fixture = fx.get_fixture("torus-drift")
    return tuple(sorted({*fixture.default_times.tolist(), *fixture.rate_check_times.tolist()}))


@functools.cache
def _trace() -> sp.EntropyTrace:
    return sp.entropy_trace(fx.get_fixture("torus-drift").initial, _times())


def _relative(a, b) -> np.ndarray:
    return np.abs(np.asarray(a) - b) / np.abs(b)


def test_oracle_agrees_with_itself_on_a_finer_discretisation():
    for fine, finer in zip(oracle(*FINE, _times()), oracle(*FINER, _times())):
        assert np.all(_relative(fine, finer) <= SELF_TOLERANCE), _relative(fine, finer)


def test_fisher_and_rate_against_the_ground_state_oracle():
    trace, (_, fisher) = _trace(), oracle(*FINE, _times())
    assert np.all(_relative(trace.fisher, fisher) <= FISHER_TOLERANCE), \
        _relative(trace.fisher, fisher)
    assert np.all(_relative(trace.rate_direct, 0.5 * fisher) <= FISHER_TOLERANCE), \
        _relative(trace.rate_direct, 0.5 * fisher)


def test_entropy_against_the_ground_state_oracle_before_cancellation():
    trace, (entropy, _) = _trace(), oracle(*FINE, _times())
    early = np.array(_times()) <= ENTROPY_TIMES_UP_TO
    assert early.sum() == 6  # four of the five rate-check times, two defaults
    assert np.all(_relative(trace.entropy[early], entropy[early]) <= ENTROPY_TOLERANCE), \
        _relative(trace.entropy[early], entropy[early])
