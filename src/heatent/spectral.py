"""Exact spectral heat flow on model closed manifolds.

Supported geometries: a circle, a flat 2-torus, the zonal (axially symmetric)
sector of a round 2-sphere, and a flat 2-torus with a gradient drift.  Fields
live as coefficient arrays against the orthonormal Laplacian eigenbasis
(complex exponentials on circle and torus, normalised Legendre polynomials in
cos(theta) on the sphere), so undrifted time evolution is exact: each
coefficient just decays as exp(-lambda t / 2).

One transform class per geometry holds every per-geometry fact (Laplacian
eigenvalues, grid points, volume-measure weights, synthesis and analysis,
|grad u|^2), and the table ``_GEOMETRY`` picks it by the manifold's kind.
``_PeriodicTransform`` is an n-axis ``fftn`` on a uniform grid: the circle is
the one-axis torus, and the drifted torus is the plain torus whose manifold
carries a potential.  ``_SphereTransform`` uses Gauss-Legendre in cos(theta).
Each transform is built once per content key (geometry, side lengths,
cutoff, grid size) and shared from a bounded cache, so every array it holds
is read-only.  Synthesis and |grad u|^2 take coefficient rows with leading
batch axes.

Nonlinear functionals (entropy, Fisher information) are evaluated on a grid
oversampled 4x beyond the spectral cutoff, where either grid sum is a
spectrally accurate quadrature.  On the drifted torus the Galerkin system
c' = A c is linear and time-independent, so it too is propagated exactly,
through an eigendecomposition of A; there is no time-discretisation error
anywhere.  An entropy trace is one array program: the coefficient rows of
every time it needs are evolved together, synthesised in chunks of at most
``_CHUNK_POINTS`` grid values, and reduced to entropy and Fisher information
by row sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

GRID_OVERSAMPLE = 4
_MIN_GRID = 32
POSITIVITY_FLOOR = 1e-8
_TAIL_ENERGY_FRACTION = 1e-20
_FD_STEP_SCALE = 1e-4
# Accepted drift eigendecompositions: relative 1-norm eigen-residual
# ||AV - V diag(w)|| / ||A|| and 1-norm condition estimate ||V|| ||V^-1||.
# The drift fixture reads about 2e-14 and 3.5.
EIG_RESIDUAL_LIMIT = 1e-12
EIG_CONDITION_LIMIT = 1e8
# Distinct transforms kept.  The benchmark's three workloads use 16, which
# hold 0.15 MB of arrays together.
_TRANSFORM_CACHE_SIZE = 64
# Grid values synthesised at once by the row functionals.  Unchunked, a
# 16-time trace on the n = 48 torus allocates 9 MB at peak; chunked, 0.8 MB.
_CHUNK_POINTS = 8192
_RESOLVED_MINIMUM = "resolved field has minimum {:.3e}"
_DRIFT_LOST_POSITIVITY = ("drifted evolution lost positivity (min {:.3e}); "
                          "raise the cutoff or fix the data")


class PositivityError(ValueError):
    """A resolved field dipped below the strict-positivity floor."""


class SpectralTruncationError(ValueError):
    """The requested cutoff cannot faithfully represent the data."""


class PropagatorError(ArithmeticError):
    """The drift generator's eigendecomposition is too inaccurate to use."""


@dataclass(frozen=True, eq=False)
class ManifoldSpec:
    """A model closed manifold with its curvature lower bound and volume."""

    kind: str  # "circle" | "torus2" | "sphere2" | "torus2_drift"
    lengths: tuple[float, ...]
    dimension: int
    ricci_lower_bound: float
    volume: float
    drift: Optional["SpectralField"] = None


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A function stored as coefficients against the manifold's eigenbasis."""

    manifold: ManifoldSpec
    coefficients: np.ndarray
    cutoff: int


def circle(length: float = 1.0) -> ManifoldSpec:
    if length <= 0.0:
        raise ValueError("length must be positive")
    return ManifoldSpec("circle", (length,), 1, 0.0, length)


def torus2(l1: float = 1.0, l2: float = 1.0) -> ManifoldSpec:
    if l1 <= 0.0 or l2 <= 0.0:
        raise ValueError("side lengths must be positive")
    return ManifoldSpec("torus2", (l1, l2), 2, 0.0, l1 * l2)


def sphere2(radius: float = 1.0) -> ManifoldSpec:
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    r2 = radius * radius
    return ManifoldSpec("sphere2", (radius,), 2, 1.0 / r2, 4.0 * math.pi * r2)


def torus2_drift(potential: SpectralField) -> ManifoldSpec:
    """Flat torus carrying the drift grad(V); the curvature bound becomes the
    largest eigenvalue of -2 Hess V over the grid (the Ricci term is zero)."""
    base = potential.manifold
    if base.kind != "torus2":
        raise ValueError("drift potential must live on a plain torus2")
    vxx, vxy, vyy = _transform(base, potential.cutoff).hessian(potential.coefficients)
    lam_max = 0.5 * (vxx + vyy) + np.sqrt(0.25 * (vxx - vyy) ** 2 + vxy ** 2)
    k = -2.0 * float(lam_max.max())
    return ManifoldSpec("torus2_drift", base.lengths, 2, k, base.volume, potential)


# ---------------------------------------------------------------------------
# transforms


def _grid_size(cutoff: int) -> int:
    return max(_MIN_GRID, 2 * GRID_OVERSAMPLE * max(cutoff, 1))


class _PeriodicTransform:
    """Circle and flat tori: one uniform axis per side length, complex
    exponentials, ``fftn``.  The circle is the one-axis torus."""

    def __init__(self, lengths: tuple[float, ...], cutoff: int, n: int):
        self.lengths = lengths
        self.n = n
        self.shape = (n,) * len(lengths)
        self.size = math.prod(self.shape)
        self._axes = tuple(range(-len(lengths), 0))
        self.volume = math.prod(lengths)
        modes = np.arange(-cutoff, cutoff + 1)
        self.ik = tuple(_read_only(2j * math.pi * m / length)
                        for m, length in zip(np.ix_(*[modes] * len(lengths)), lengths))
        self._slots = tuple(map(_read_only, np.ix_(*[modes % n] * len(lengths))))

    @staticmethod
    def eigenvalues(lengths: tuple[float, ...], cutoff: int) -> np.ndarray:
        modes = np.arange(-cutoff, cutoff + 1)
        return sum((2.0 * math.pi * m / length) ** 2
                   for m, length in zip(np.ix_(*[modes] * len(lengths)), lengths))

    def points(self) -> Sequence[np.ndarray]:
        axes = [np.arange(self.n) * (length / self.n) for length in self.lengths]
        return np.meshgrid(*axes, indexing="ij")

    def weights(self) -> np.ndarray:
        return np.full(self.shape, self.volume / self.size)

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values; axes of ``coeffs`` before the mode axes are batch axes."""
        batch = coeffs.shape[:coeffs.ndim - len(self.shape)]
        spec = np.zeros(batch + self.shape, dtype=complex)
        spec[(Ellipsis, *self._slots)] = coeffs / math.sqrt(self.volume)
        return (np.fft.ifftn(spec, axes=self._axes) * self.size).real

    def analyze(self, values: np.ndarray) -> np.ndarray:
        spec = np.fft.fftn(values) / values.size
        return spec[self._slots] * math.sqrt(self.volume)

    def full_energy(self, values: np.ndarray) -> float:
        spec = np.fft.fftn(values) / values.size
        return float(np.sum(np.abs(spec) ** 2)) * self.volume

    def derivative(self, coeffs: np.ndarray, *axes: int) -> np.ndarray:
        """Grid values of the derivative along ``axes`` (repeats allowed)."""
        for axis in axes:
            coeffs = coeffs * self.ik[axis]
        return self.synth(coeffs)

    def gradient(self, coeffs: np.ndarray) -> list[np.ndarray]:
        return [self.derivative(coeffs, axis) for axis in range(len(self.lengths))]

    def hessian(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Second derivatives (a, b) for a <= b: uxx, uxy, uyy on the torus."""
        d = len(self.lengths)
        return [self.derivative(coeffs, a, b) for a in range(d) for b in range(a, d)]

    def gradient_squared(self, coeffs: np.ndarray) -> np.ndarray:
        return sum(g * g for g in self.gradient(coeffs))

    def extremal_samples(self, coeffs: np.ndarray) -> np.ndarray:
        """The field values ``grid_extrema`` searches: the grid's."""
        return self.synth(coeffs)


class _SphereTransform:
    """Zonal sector: everything reduces to Gauss-Legendre in x = cos(theta)."""

    def __init__(self, lengths: tuple[float, ...], cutoff: int, n: int):
        self.radius = lengths[0]
        x, w = np.polynomial.legendre.leggauss(n)
        self.x = _read_only(x)
        self.w = _read_only(w)
        ells = np.arange(cutoff + 1)
        self.norms = _read_only(
            np.sqrt((2.0 * ells + 1.0) / (4.0 * math.pi * self.radius * self.radius)))
        self.p = _read_only(self._legendre_table(cutoff, x))
        self.dp = _read_only(self._legendre_derivative_table(self.p, x))
        # P_l at the poles x = 1 and x = -1 is 1 and (-1)^l
        self._poles = _read_only(np.stack([np.ones(cutoff + 1), (-1.0) ** ells], axis=1))

    @staticmethod
    def eigenvalues(lengths: tuple[float, ...], cutoff: int) -> np.ndarray:
        ells = np.arange(cutoff + 1)
        return ells * (ells + 1.0) / lengths[0] ** 2

    @staticmethod
    def _legendre_table(cutoff: int, x: np.ndarray) -> np.ndarray:
        p = np.zeros((cutoff + 1, x.size))
        p[0] = 1.0
        if cutoff >= 1:
            p[1] = x
        for ell in range(1, cutoff):
            p[ell + 1] = ((2 * ell + 1) * x * p[ell] - ell * p[ell - 1]) / (ell + 1)
        return p

    @staticmethod
    def _legendre_derivative_table(p: np.ndarray, x: np.ndarray) -> np.ndarray:
        dp = np.zeros_like(p)
        one_minus = 1.0 - x * x  # Gauss nodes are interior, so never zero
        for ell in range(1, p.shape[0]):
            dp[ell] = ell * (p[ell - 1] - x * p[ell]) / one_minus
        return dp

    def points(self) -> Sequence[np.ndarray]:
        return (np.arccos(self.x),)

    def weights(self) -> np.ndarray:
        return 2.0 * math.pi * self.radius ** 2 * self.w

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return (coeffs * self.norms) @ self.p

    def analyze(self, values: np.ndarray) -> np.ndarray:
        shell = 2.0 * math.pi * self.radius * self.radius
        return shell * self.norms * (self.p @ (self.w * values))

    def full_energy(self, values: np.ndarray) -> float:
        shell = 2.0 * math.pi * self.radius * self.radius
        return shell * float(np.sum(self.w * values * values))

    def gradient_squared(self, coeffs: np.ndarray) -> np.ndarray:
        # the zonal gradient is the theta-derivative over the radius
        sin_theta = np.sqrt(1.0 - self.x * self.x)
        du = -sin_theta * ((coeffs * self.norms) @ self.dp) / self.radius
        return du * du

    def extremal_samples(self, coeffs: np.ndarray) -> np.ndarray:
        """The field values ``grid_extrema`` searches: the grid's, then the
        two poles', which Gauss-Legendre nodes never reach."""
        scaled = coeffs * self.norms
        return np.concatenate([scaled @ self.p, scaled @ self._poles], axis=-1)


_GEOMETRY = {"circle": _PeriodicTransform, "torus2": _PeriodicTransform,
             "torus2_drift": _PeriodicTransform, "sphere2": _SphereTransform}


def _geometry(manifold: ManifoldSpec):
    try:
        return _GEOMETRY[manifold.kind]
    except KeyError:
        raise ValueError(f"unknown manifold kind {manifold.kind!r}") from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _transform(manifold: ManifoldSpec, cutoff: int, grid_points: Optional[int] = None):
    """The shared transform of the manifold's geometry at this cutoff and grid.

    Keyed on content, not on the manifold object (``ManifoldSpec`` compares
    by identity), so equal manifolds, and the drifted torus and its plain
    torus, share one build.
    """
    n = grid_points if grid_points is not None else _grid_size(cutoff)
    return _cached_transform(_geometry(manifold), manifold.lengths, cutoff, n)


@functools.lru_cache(maxsize=_TRANSFORM_CACHE_SIZE)
def _cached_transform(geometry, lengths: tuple[float, ...], cutoff: int, n: int):
    return geometry(lengths, cutoff, n)


def eigenvalues(manifold: ManifoldSpec, cutoff: int) -> np.ndarray:
    """Laplacian eigenvalues in the field's coefficient layout."""
    return _geometry(manifold).eigenvalues(manifold.lengths, cutoff)


def spectral_gap(manifold: ManifoldSpec) -> float:
    """Smallest nonzero Laplacian eigenvalue."""
    lam = eigenvalues(manifold, 1)
    return float(lam[lam > 0.0].min())


# ---------------------------------------------------------------------------
# fields


def project_initial(manifold: ManifoldSpec, f: Callable, cutoff: int) -> SpectralField:
    """Project a strictly positive pointwise function onto the eigenbasis.

    Same projection as ``project_potential``; in addition the resolved
    truncation must stay strictly positive, or SpectralTruncationError is
    raised.
    """
    field = project_potential(manifold, f, cutoff)
    resolved_min = float(resolve(field).min())
    if resolved_min <= POSITIVITY_FLOOR:
        raise SpectralTruncationError(
            f"resolved truncation has minimum {resolved_min:.3e}; "
            "increase the cutoff or fix the data")
    return field


def project_potential(manifold: ManifoldSpec, f: Callable, cutoff: int) -> SpectralField:
    """Project a pointwise function onto the eigenbasis, with no sign
    requirement (drift potentials are signed).

    ``f`` receives grid coordinates as numpy arrays: ``f(x)`` on the circle,
    ``f(x, y)`` on the torus, ``f(theta)`` on the zonal sphere.  The cutoff
    must capture essentially all of the data's energy, or
    SpectralTruncationError is raised.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    tr = _transform(manifold, cutoff)
    values = np.asarray(f(*tr.points()), dtype=float)
    coeffs = tr.analyze(values)
    total = tr.full_energy(values)
    kept = float(np.sum(np.abs(coeffs) ** 2))
    # The comparison of two quadratures of the same data floors out at a few
    # ulps of the total, so grant that on top of the contractual fraction.
    allowance = (_TAIL_ENERGY_FRACTION + 64.0 * np.finfo(float).eps) * total
    if total - kept > allowance + 1e-30:
        raise SpectralTruncationError(
            f"cutoff {cutoff} leaves tail energy {total - kept:.3e} "
            f"of total {total:.3e}")
    return SpectralField(manifold, coeffs, cutoff)


def resolve(field: SpectralField, grid_points: Optional[int] = None) -> np.ndarray:
    """Field values on the (oversampled) evaluation grid."""
    return _transform(field.manifold, field.cutoff, grid_points).synth(field.coefficients)


def mass(field: SpectralField) -> float:
    """Integral of the field against its manifold's measure (mu for drift)."""
    tr = _transform(field.manifold, field.cutoff)
    return float(np.sum(_measure_weights(field.manifold, tr) * tr.synth(field.coefficients)))


def evolve(field: SpectralField, t: float) -> SpectralField:
    """Exact heat semigroup exp(tL) on the field's coefficients.

    Undrifted, each coefficient decays as exp(-lambda t / 2).  On the drifted
    torus the Galerkin generator is a dense matrix A; c(t) = V e^{wt} V^-1 c
    from its eigendecomposition A = V diag(w) V^-1, computed once per
    operator.  A drifted result must stay strictly positive.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return field
    rows = _propagate(field, np.array([float(t)]))
    if field.manifold.drift is not None:
        _require_positive(_transform(field.manifold, field.cutoff).synth(rows),
                          _DRIFT_LOST_POSITIVITY)
    return SpectralField(field.manifold, rows[0], field.cutoff)


def _propagate(field: SpectralField, times: np.ndarray) -> np.ndarray:
    """Coefficients of exp(tL) field for each of ``times``, stacked on a
    leading axis: c0 exp(-lambda t / 2) as an outer product, or on the
    drifted torus (e^{t w} * V^-1 c0) V^T."""
    manifold = field.manifold
    c0 = field.coefficients
    if manifold.drift is None:
        lam = eigenvalues(manifold, field.cutoff)
        return c0 * np.exp(-0.5 * lam * times.reshape(times.shape + (1,) * lam.ndim))
    potential = manifold.drift
    w, v, v_inv = _drift_propagator(
        manifold.lengths, field.cutoff, potential.cutoff,
        np.asarray(potential.coefficients, dtype=complex).tobytes())
    rows = (np.exp(np.outer(times, w)) * (v_inv @ c0.ravel())) @ v.T
    return rows.reshape(times.shape + c0.shape)


def _require_positive(rows: np.ndarray, message: str) -> None:
    """Raise PositivityError, with ``message`` formatted by the row's
    minimum, for the first row of grid values at or below the floor."""
    minima = rows.reshape(len(rows), -1).min(axis=1)
    low = np.flatnonzero(minima <= POSITIVITY_FLOOR)
    if low.size:
        raise PositivityError(message.format(float(minima[low[0]])))


@functools.lru_cache(maxsize=4)
def _drift_propagator(lengths: tuple[float, ...], cutoff: int, potential_cutoff: int,
                      potential_bytes: bytes):
    """(w, V, V^-1) of the drift generator.  Keyed on content rather than on
    the manifold object, so every field, trace and CLI call on an equal
    operator shares one decomposition; the generator itself is not kept."""
    potential = np.frombuffer(potential_bytes, dtype=complex).reshape(
        2 * potential_cutoff + 1, 2 * potential_cutoff + 1)
    return _eigendecompose(_drift_generator(lengths, cutoff, potential))


def _drift_generator(lengths: tuple[float, ...], cutoff: int,
                     potential: np.ndarray) -> np.ndarray:
    """Galerkin matrix of L = Laplacian/2 + grad V . grad on the field's modes.

    The product of potential mode m with field mode j lands on mode j + m,
    so each potential mode fills one diagonal of the flattened matrix, minus
    the entries whose target mode lies outside the cutoff:
    A[j + m, j] = V_m (2 pi i m / L) . (2 pi i j / L) / sqrt(vol).
    """
    modes = np.arange(-cutoff, cutoff + 1)
    size = modes.size
    j1 = np.repeat(modes, size)
    j2 = np.tile(modes, size)
    k1 = 2.0 * math.pi * j1 / lengths[0]
    k2 = 2.0 * math.pi * j2 / lengths[1]
    a = np.diag(-0.5 * (k1 ** 2 + k2 ** 2) + 0j)
    flat = np.arange(size * size)
    p = (potential.shape[0] - 1) // 2
    root_vol = math.sqrt(lengths[0] * lengths[1])
    for (i1, i2), v_m in np.ndenumerate(potential):
        m1, m2 = i1 - p, i2 - p
        inside = (np.abs(j1 + m1) <= cutoff) & (np.abs(j2 + m2) <= cutoff)
        src = flat[inside]
        dot = -((2.0 * math.pi * m1 / lengths[0]) * k1[inside]
                + (2.0 * math.pi * m2 / lengths[1]) * k2[inside])
        a[src + m1 * size + m2, src] += v_m * dot / root_vol
    return a


def _eigendecompose(a: np.ndarray):
    """A = V diag(w) V^-1, refusing an inaccurate or ill-conditioned result.

    The eigen-residual is the backward error of ``eig``; the propagator's
    error is about cond(V) times it.  A defective (Jordan-block) generator
    has no eigenvector basis, which shows as an enormous cond(V).
    """
    try:
        w, v = np.linalg.eig(a)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise PropagatorError(f"drift generator eigendecomposition failed: {exc}") from exc
    av = a @ v
    av -= v * w  # in place: one dense temporary fewer at peak memory
    residual = np.linalg.norm(av, 1)
    scale = np.linalg.norm(a, 1)  # zero for a constant field alone
    if not residual <= EIG_RESIDUAL_LIMIT * scale:
        raise PropagatorError(
            f"drift generator eigen-residual {residual / scale:.3e} exceeds "
            f"{EIG_RESIDUAL_LIMIT:.0e}")
    condition = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    if not condition <= EIG_CONDITION_LIMIT:
        raise PropagatorError(
            f"drift generator eigenvectors have condition {condition:.3e}, "
            f"above {EIG_CONDITION_LIMIT:.0e}")
    return _read_only(w), _read_only(v), _read_only(v_inv)


# ---------------------------------------------------------------------------
# functionals


def _measure_weights(manifold: ManifoldSpec, tr) -> np.ndarray:
    """Quadrature weights of the reference measure on the grid of ``tr``.

    With a drift this is exp(2V) dx normalised to unit total mass;
    elsewhere it is the plain volume measure.
    """
    if manifold.drift is None:
        return tr.weights()
    potential = manifold.drift
    v = _transform(manifold, potential.cutoff, tr.n).synth(potential.coefficients)
    raw = np.exp(2.0 * v) * tr.weights()
    return raw / raw.sum()


def _row_functionals(manifold: ManifoldSpec, cutoff: int, rows: np.ndarray,
                     message: str) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, Fisher information) of each coefficient row of ``rows``.

    Rows are synthesised ``_CHUNK_POINTS`` grid values at a time, and each
    row's sums run over its own contiguous grid values, as a lone field's
    do.  The first row whose resolved field is not strictly positive raises
    PositivityError with ``message``.
    """
    tr = _transform(manifold, cutoff)
    w = _measure_weights(manifold, tr)
    step = max(1, _CHUNK_POINTS // w.size)
    entropy = np.empty(len(rows))
    fisher = np.empty(len(rows))
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        u = tr.synth(rows[chunk])
        _require_positive(u, message)
        grad2 = tr.gradient_squared(rows[chunk])
        k = len(u)
        entropy[chunk] = -(w * u * np.log(u)).reshape(k, -1).sum(axis=1)
        fisher[chunk] = (w * grad2 / u).reshape(k, -1).sum(axis=1)
    return entropy, fisher


def entropy_and_fisher(field: SpectralField) -> tuple[float, float]:
    """(entropy, Fisher information) of a strictly positive resolved field."""
    entropy, fisher = _row_functionals(field.manifold, field.cutoff,
                                       field.coefficients[np.newaxis], _RESOLVED_MINIMUM)
    return float(entropy[0]), float(fisher[0])


@dataclass(frozen=True)
class EntropyTrace:
    """Entropy, entropy rate and Fisher information along a time grid."""

    times: np.ndarray
    entropy: np.ndarray
    rate_direct: np.ndarray
    rate_fd: np.ndarray
    fisher: np.ndarray


def entropy_trace(field: SpectralField, times) -> EntropyTrace:
    """Evolve the field across a strictly increasing positive time grid.

    rate_direct is half the Fisher information; rate_fd is a central finite
    difference of the entropy with step 1e-4 * t, the package-wide
    cross-check policy.
    """
    times = np.asarray([float(t) for t in times])
    if times.size == 0 or np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing and positive")
    h = _FD_STEP_SCALE * times
    # rows t, t + h, t - h of each time in turn, so that a loss of positivity
    # is reported at the first time it occurs
    grid = np.stack([times, times + h, times - h], axis=1).ravel()
    message = (_RESOLVED_MINIMUM if field.manifold.drift is None
               else _DRIFT_LOST_POSITIVITY)
    entropy, fisher = _row_functionals(field.manifold, field.cutoff,
                                       _propagate(field, grid), message)
    entropy, fisher = entropy.reshape(-1, 3), fisher.reshape(-1, 3)
    rate_fd = (entropy[:, 1] - entropy[:, 2]) / (2.0 * h)
    return EntropyTrace(times, entropy[:, 0], 0.5 * fisher[:, 0], rate_fd, fisher[:, 0])


# ---------------------------------------------------------------------------
# pointwise identities on the flat torus


def _flat_torus(manifold: ManifoldSpec, cutoff: int, n: Optional[int], check: str):
    """The transform of a two-axis periodic manifold; other geometries raise."""
    if _geometry(manifold) is not _PeriodicTransform or len(manifold.lengths) != 2:
        raise ValueError(f"the {check} check runs on flat tori")
    return _transform(manifold, cutoff, n)


def _hessian_defect_squared(u, ux, uy, uxx, uxy, uyy) -> np.ndarray:
    """|Hess u - grad u (x) grad u / u|^2, pointwise."""
    a11 = uxx - ux * ux / u
    a12 = uxy - ux * uy / u
    a22 = uyy - uy * uy / u
    return a11 * a11 + 2.0 * a12 * a12 + a22 * a22


@dataclass(frozen=True)
class BochnerReport:
    """Pointwise residual of the commutation identity, with its term scale."""

    max_residual: float
    term_scale: float

    @property
    def relative(self) -> float:
        return self.max_residual / self.term_scale if self.term_scale > 0.0 else 0.0


def bochner_residual(w: SpectralField, potential: Optional[SpectralField] = None,
                     grid_points: Optional[int] = None) -> BochnerReport:
    """Check, pointwise on the flat torus, that for u = w and Z = grad V

        (L - d/dt)(|grad u|^2 / u)
            = |Hess u - grad u (x) grad u / u|^2 / u
              + (Ric(grad u, grad u) - 2 <D_{grad u} Z, grad u>) / u

    with d/dt expanded through the evolution equation du/dt = Lu and Ric = 0.
    Every derivative of a trigonometric polynomial is taken spectrally, so the
    returned residual is pure roundoff when the identity holds.
    """
    manifold = w.manifold
    if potential is None:
        potential = manifold.drift
    elif potential.manifold != manifold:
        raise ValueError("the potential must live on the field's manifold")
    cutoff = w.cutoff if potential is None else max(w.cutoff, potential.cutoff)
    n = grid_points if grid_points is not None else _grid_size(2 * cutoff)

    tr = _flat_torus(manifold, w.cutoff, n, "residual")
    u = tr.synth(w.coefficients)
    ux, uy = tr.gradient(w.coefficients)
    uxx, uxy, uyy = tr.hessian(w.coefficients)
    lap_u = uxx + uyy

    if potential is not None:
        tv = _transform(manifold, potential.cutoff, n)
        vx, vy = tv.gradient(potential.coefficients)
        vxx, vxy, vyy = tv.hessian(potential.coefficients)
    else:
        vx = vy = vxx = vxy = vyy = np.zeros_like(u)

    # |grad u|^2 is again a trigonometric polynomial (band 2*cutoff), so its
    # derivatives are exact too.
    g = ux * ux + uy * uy
    tg = _transform(manifold, 2 * w.cutoff, n)
    g_coeffs = tg.analyze(g)
    gx, gy = tg.gradient(g_coeffs)
    lap_g = tg.synth(g_coeffs * (tg.ik[0] ** 2 + tg.ik[1] ** 2))

    # Lu = Laplacian/2 + advection; band cutoff + potential band, still exact.
    lu_grid = 0.5 * lap_u + vx * ux + vy * uy
    tl = _transform(manifold, cutoff + w.cutoff, n)
    lux, luy = tl.gradient(tl.analyze(lu_grid))

    # P = |grad u|^2 / u is not band-limited; expand its derivatives by the
    # quotient rule in terms of the exact pieces above.
    px = gx / u - g * ux / u ** 2
    py = gy / u - g * uy / u ** 2
    lap_p = (lap_g / u - 2.0 * (gx * ux + gy * uy) / u ** 2
             - g * lap_u / u ** 2 + 2.0 * g * g / u ** 3)

    dt_p = (2.0 * (lux * ux + luy * uy)) / u - g * lu_grid / u ** 2
    lhs = 0.5 * lap_p + vx * px + vy * py - dt_p

    hess_term = _hessian_defect_squared(u, ux, uy, uxx, uxy, uyy) / u
    drift_term = -2.0 * (vxx * ux * ux + 2.0 * vxy * ux * uy + vyy * uy * uy) / u
    rhs = hess_term + drift_term

    scale = max(*(float(np.abs(term).max())
                  for term in (0.5 * lap_p, dt_p, hess_term, drift_term)), 1e-300)
    return BochnerReport(float(np.abs(lhs - rhs).max()), scale)


def hessian_trace_gap(w: SpectralField, grid_points: Optional[int] = None) -> tuple[float, float]:
    """Pointwise slack of |Hess w - grad w (x) grad w / w|^2 >= w^2 |Lap log w|^2 / n.

    Returns (minimum slack over the grid, scale of the dominating side);
    the slack must be nonnegative up to roundoff for positive fields.
    """
    tr = _flat_torus(w.manifold, w.cutoff, grid_points, "trace inequality")
    u = tr.synth(w.coefficients)
    ux, uy = tr.gradient(w.coefficients)
    uxx, uxy, uyy = tr.hessian(w.coefficients)
    lhs = _hessian_defect_squared(u, ux, uy, uxx, uxy, uyy)
    lap_log = (uxx + uyy) / u - (ux * ux + uy * uy) / u ** 2
    rhs = u * u / w.manifold.dimension * lap_log ** 2
    gap = lhs - rhs
    scale = max(float(lhs.max()), float(rhs.max()), 1e-300)
    return float(gap.min()), scale


def cauchy_step_values(field: SpectralField) -> tuple[float, float, float]:
    """((integral of u lap log u)^2, integral of u (lap log u)^2, fisher).

    Feeds the mean-square inequality and the integration-by-parts identity
    integral u lap log u dx = -q used in the curvature-rate argument.
    """
    manifold = field.manifold
    if manifold.drift is not None:
        raise ValueError("cauchy step values are defined for the plain volume measure")
    tr = _transform(manifold, field.cutoff)
    u = tr.synth(field.coefficients)
    if float(u.min()) <= POSITIVITY_FLOOR:
        raise PositivityError("resolved field must be strictly positive")
    lam = eigenvalues(manifold, field.cutoff)
    lap_u = tr.synth(field.coefficients * (-lam))
    grad2 = tr.gradient_squared(field.coefficients)
    lap_log = lap_u / u - grad2 / u ** 2
    w = tr.weights()
    mean = float(np.sum(w * u * lap_log))
    mean_sq = float(np.sum(w * u * lap_log ** 2))
    fisher = float(np.sum(w * grad2 / u))
    return mean * mean, mean_sq, fisher


def laplacian_l2_norm(field: SpectralField) -> float:
    """Spectral L2 norm of the Laplacian of the field."""
    lam = eigenvalues(field.manifold, field.cutoff)
    return math.sqrt(float(np.sum((lam * np.abs(field.coefficients)) ** 2)))


def grid_extrema(field: SpectralField) -> tuple[float, float]:
    """(min, max) over the oversampled evaluation grid, and on the sphere
    also over its two poles, where P_l(+-1) = (+-1)^l gives the field
    exactly.

    These extrema lie inside the true range.  The periodic fixtures' and the
    sphere fixture's extrema land on these points, so for them the values
    are exact; a general field can peak between grid points.  The error does
    not always make the bounds stricter: with sup f < 1, an understated sup
    makes |log sup f| in the spectral-gap bound larger, so that bound comes
    out looser.
    """
    u = _transform(field.manifold, field.cutoff).extremal_samples(field.coefficients)
    return float(u.min()), float(u.max())
