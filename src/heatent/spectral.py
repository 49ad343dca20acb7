"""Exact spectral heat flow on model closed manifolds.

Supported geometries: a circle, a flat 2-torus, the zonal (axially symmetric)
sector of a round 2-sphere, and a flat 2-torus with a gradient drift.  Fields
live as real coefficient arrays against an orthonormal Laplacian eigenbasis
(per periodic axis, index j is the sin of mode |m| for m = j - cutoff < 0 and
the cos for m > 0; on the sphere, normalised Legendre polynomials in
cos(theta)), so undrifted time evolution is exact: each coefficient just
decays as exp(-lambda t / 2).  Fields enter by projection of pointwise data
or, on the plain torus, as seeded random trigonometric polynomials drawn
straight into that layout (``random_torus_fields``).

One class, ``_Transform``, synthesises, analyses and takes gradients on every
geometry from per-axis tables of the eigenbasis and its derivatives, and
projects a constant exactly on each.  A geometry's builder only builds that
data (``_periodic``: a uniform axis per side, the circle being the one-axis
torus; ``_sphere``: one axis theta at Gauss-Legendre nodes of cos(theta)),
and ``_GEOMETRY`` picks it, with the eigenvalue formula, by the manifold's
kind.  Each transform is built once per (builder, side lengths, cutoff, grid
size) and shared from a bounded cache, so its arrays are read-only.  Each
row of a batch is its own product, so values do not depend on the batch;
drifted propagation multiplies rows in blocks of one fixed shape instead,
which also keeps a row's bits independent of its batch.  A pointwise identity
returns one float row per case; the flat torus's two share one block driver,
each block's derivatives one broadcast product and its one division r = 1/u.

Nonlinear functionals (entropy, Fisher information) are evaluated on a grid
oversampled 4x beyond the spectral cutoff, where either grid sum is a
spectrally accurate quadrature.  On the drifted torus L is self-adjoint in
L^2(mu), mu = exp(2V) dx, and maps real functions to real ones, so its
Galerkin system in mu on the fields' basis is the real symmetric pencil
M a' = -S a, propagated exactly by two ``eigh`` decompositions: no time is
discretised.  An entropy trace is one array program: the rows of every time
it needs (t and t +- h) are evolved together, synthesised in chunks of
whole times, as many as fit in ``_CHUNK_POINTS`` grid values (counting each
time's values, log buffer and gradient) but at least one, and reduced in
place to entropy and Fisher information by row sums, every chunk in one flat
buffer that each thread keeps between calls.  The t +- h rows feed
the finite-difference rate through their entropy alone, so only the t rows
take a gradient (one ``derivatives`` product) and a Fisher sum.  A trace
looks up one cached operator record per (manifold, cutoff): its transform,
measure weights (exp(2V)/sum when drifted) and pencil; a field's modal
coordinates are cached per content, and fields hash by their bytes alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

GRID_OVERSAMPLE = 4
_MIN_GRID = 32
POSITIVITY_FLOOR = 1e-8
_TAIL_ENERGY_FRACTION = 1e-20
_FD_STEP_SCALE = 1e-4
# Largest accepted condition number of the drift's reduced mass matrix M'
# (see ``_operator``); the drift fixture reads about 1.5.
MASS_CONDITION_LIMIT = 1e8
# Distinct transforms kept.  The benchmark's three workloads use 16, which
# hold 0.33 MB of arrays together.
_TRANSFORM_CACHE_SIZE = 64
# Grid values one chunk of the row functionals may hold, in whole groups of
# rows but never less than one group.  A group counts its rows' values, their
# log buffer and one gradient component per grid axis of its first row: on
# the n = 48 (c = 6) torus, drifted or not, a trace's group (3 rows, 2
# components) is 18,432 values, so a chunk holds 8 times, a whole
# drift-evolve window; on the c = 2 torus (n = 32) it is 8,192, so 18 times.
# Warm tracemalloc peaks, which exclude the kept chunk buffer: an 8-time drift
# trace 154 kB, a 16-time c = 6 torus trace (two chunks) 199 kB.
_CHUNK_POINTS = 150_000
# Rows per BLAS call of drifted propagation (``_block_products``): each call
# reads the propagator table once for the whole block, where per-row products
# read it once per row.
_BLOCK_ROWS = 8
# Fields per array program of ``_identity_rows``: three hold six derivative orders
# on the 32-point grid in 147 kB; four (196 kB) took ~200 minor faults per verify request.
_BLOCK_FIELDS = 3
# Per thread, the chunk buffer ``_chunk_buffer`` keeps between calls.
_per_thread = threading.local()
# Held from pinning the process-global BLAS thread count to its restore.
_BLAS_THREADS_LOCK = threading.Lock()
_RESOLVED_MINIMUM = "resolved field has minimum {:.3e}"
_DRIFT_LOST_POSITIVITY = ("drifted evolution lost positivity (min {:.3e}); "
                          "raise the cutoff or fix the data")


class PositivityError(ValueError):
    """A resolved field dipped below the strict-positivity floor."""


class SpectralTruncationError(ValueError):
    """The requested cutoff cannot faithfully represent the data."""


class PropagatorError(ArithmeticError):
    """The drift's mass matrix is too ill-conditioned to propagate with, or
    its pencil could not be decomposed."""


@dataclass(frozen=True)
class ManifoldSpec:
    """A model closed manifold with its curvature lower bound and volume;
    equal when every field is, the drift included, and hashed by every field,
    the drift potential's bytes read at each call (``SpectralField.__hash__``)."""

    kind: str  # "circle" | "torus2" | "sphere2" | "torus2_drift"
    lengths: tuple[float, ...]
    dimension: int
    ricci_lower_bound: float
    volume: float
    drift: Optional["SpectralField"] = None


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A function stored as real coefficients against the manifold's
    eigenbasis (periodic: per axis, index j is the sin of |m| for m = j -
    cutoff < 0 and the cos for m > 0), one per eigenvalue; complex
    coefficients raise TypeError, and another shape or a cutoff that is not
    a nonnegative integer ValueError; the coefficients are kept as a float
    array.  A value: equality is bitwise over manifold, cutoff, shape and
    coefficient bytes, the hash reads the cutoff, the bytes and the drift
    potential's, each at every call, so a field changed in place keys afresh."""

    manifold: ManifoldSpec
    coefficients: np.ndarray
    cutoff: int

    def __post_init__(self):
        if np.iscomplexobj(self.coefficients):
            raise TypeError("field coefficients must be real")
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        (kind, lengths), cutoff = (self.manifold.kind, self.manifold.lengths), self.cutoff
        if not (isinstance(cutoff, numbers.Integral) and cutoff >= 0):
            raise ValueError(f"{kind} field cutoff must be a nonnegative integer, not {cutoff!r}")
        shape = tuple(lam.size for lam in _geometry(self.manifold)[1](lengths, cutoff))
        if np.shape(self.coefficients) != shape:
            raise ValueError(f"{kind} field of cutoff {cutoff} needs coefficients of shape "
                             f"{shape}, not {np.shape(self.coefficients)}")

    def _key(self) -> tuple:
        return (self.manifold, self.cutoff, self.coefficients.shape, self.coefficients.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, SpectralField) and self._key() == other._key()

    def __hash__(self) -> int:
        potential = self.manifold.drift
        return hash((self.cutoff, self.coefficients.tobytes(),
                     None if potential is None else potential.coefficients.tobytes()))


def circle(length: float = 1.0) -> ManifoldSpec:
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    return ManifoldSpec("circle", (length,), 1, 0.0, length)


def torus2(l1: float = 1.0, l2: float = 1.0) -> ManifoldSpec:
    if not (0.0 < l1 < math.inf and 0.0 < l2 < math.inf):
        raise ValueError("side lengths must be positive and finite")
    return ManifoldSpec("torus2", (l1, l2), 2, 0.0, l1 * l2)


def sphere2(radius: float = 1.0) -> ManifoldSpec:
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    r2 = radius * radius
    return ManifoldSpec("sphere2", (radius,), 2, 1.0 / r2, 4.0 * math.pi * r2)


def torus2_drift(potential: SpectralField) -> ManifoldSpec:
    """Flat torus carrying the drift grad(V); the curvature bound becomes the
    largest eigenvalue of -2 Hess V over the grid (the Ricci term is zero)."""
    base = potential.manifold
    if base.kind != "torus2":
        raise ValueError("drift potential must live on a plain torus2")
    vxx, vxy, vyy = _transform(base, potential.cutoff).derivatives(potential.coefficients,
                                                                    *_HESSIAN)
    lam_max = 0.5 * (vxx + vyy) + np.sqrt(0.25 * (vxx - vyy) ** 2 + vxy ** 2)
    k = -2.0 * float(lam_max.max())
    return ManifoldSpec("torus2_drift", base.lengths, 2, k, base.volume, potential)


# ---------------------------------------------------------------------------
# transforms


# derivative orders on the 2-torus: x, y; then xx, xy, yy
_GRADIENT = ((0,), (1,))
_HESSIAN = ((0, 0), (0, 1), (1, 1))


def _grid_size(cutoff: int) -> int:
    return max(_MIN_GRID, 2 * GRID_OVERSAMPLE * max(cutoff, 1))


@dataclass(frozen=True, eq=False)
class _Transform:
    """Per grid axis a real table T (points x modes) of the eigenbasis, with
    T' (and T''): ``first`` holds the first axis's (none on one axis, whose
    synthesis and analysis read ``last`` alone), ``last`` the last axis's
    transposed (one axis: its own), contiguous for matmul's BLAS path.  A
    field A synthesises as T A T^T (one axis: A T^T), a derivative swaps T'
    or T'' in on its axis, and analysis is the grid rule T^T diag(w) u T of
    u - u_0, u_0 a field's first grid value, with u_0 sqrt(volume) put back on
    the constant, so a constant projects exactly.  ``off_grid`` holds tables,
    laid out as ``last``, of points ``grid_extrema`` also searches."""

    first: tuple[np.ndarray, ...]
    last: tuple[np.ndarray, ...]
    axes: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray
    weights: np.ndarray
    volume: float
    constant: tuple[int, ...]
    off_grid: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        for array in (*self.first, *self.last, *self.axes, *self.off_grid, self.eigenvalues,
                      self.weights):
            _read_only(array)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.size for axis in self.axes)

    def points(self) -> Sequence[np.ndarray]:
        return np.meshgrid(*self.axes, indexing="ij")

    def synth(self, coeffs: np.ndarray, order: tuple[int, ...] = (),
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Grid values of each field's derivative along the axes of ``order``
        (() for the field itself), written into ``out`` if given; axes of
        ``coeffs`` before the mode axes are batch axes.  Each field is its own
        product on contiguous operands (matmul skips BLAS on strided ones), so
        its values are the same alone or in any batch."""
        a = np.ascontiguousarray(coeffs, dtype=float)
        last = self.last[order.count(len(self.axes) - 1)]
        if len(self.axes) == 1:
            return _row_products(a, last, out)
        return np.matmul(self.first[order.count(0)], a @ last, out=out)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of each field of grid values; axes of ``values``
        before the grid axes are batch axes."""
        dims = len(self.axes)
        shift = values[(...,) + (slice(1),) * dims]  # each field's first value
        u, table = (values - shift) * self.weights, self.last[0].T
        coeffs = _row_products(u, table) if dims == 1 else self.first[0].T @ (u @ table)
        coeffs[(..., *self.constant)] += shift[(...,) + (0,) * dims] * math.sqrt(self.volume)
        return coeffs

    def derivatives(self, coeffs: np.ndarray, *orders: tuple[int, ...],
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """``synth`` of each order, stacked on a leading axis (in ``out`` if
        given); on two axes one broadcast product, per field and order of
        ``synth``'s shapes and bits."""
        if len(self.axes) == 1:
            return np.stack([self.synth(coeffs, order) for order in orders], out=out)
        a = np.ascontiguousarray(coeffs, dtype=float)
        lead = (len(orders),) + (1,) * (a.ndim - 2)  # broadcast over the batch axes
        first, last = _order_tables(self, orders)
        return np.matmul(first.reshape(lead + first.shape[1:]),
                         a @ last.reshape(lead + last.shape[1:]), out=out)

    def values_and_gradients(self, rows: np.ndarray, every: int,
                             out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """(u of each coefficient row, |grad u|^2 of every ``every``-th row, from
        one ``derivatives`` call) on the grid; the other rows take no gradient.
        Both are views of the flat float buffer ``out`` (a new one if None),
        which needs a grid of values per row and per grid axis of each
        gradient row: u first, then the gradient components."""
        firsts, dims, grid = rows[::every], len(self.axes), self.weights.shape
        values = len(rows) * self.weights.size
        end = values + dims * len(firsts) * self.weights.size
        out = np.empty(end) if out is None else out
        u = self.synth(rows, out=out[:values].reshape((len(rows), *grid)))
        grad = self.derivatives(firsts, *_GRADIENT[:dims],
                                out=out[values:end].reshape((dims, len(firsts), *grid)))
        grad *= grad  # squared in place, then summed over the axes into the first
        total = grad[0]
        for component in grad[1:]:
            total += component
        return u, total


@functools.lru_cache(maxsize=_TRANSFORM_CACHE_SIZE)
def _order_tables(tr: _Transform, orders: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
    """Read-only stacks, a table per order, of a two-axis transform's axes."""
    return tuple(_read_only(np.stack([tables[order.count(axis)] for order in orders]))
                 for axis, tables in enumerate((tr.first, tr.last)))


@functools.lru_cache(maxsize=_TRANSFORM_CACHE_SIZE)
def _periodic_spectrum(lengths: tuple[float, ...], cutoff: int) -> tuple[np.ndarray, ...]:
    """Per axis of side L, the eigenvalues (2 pi m / L)^2, m = -cutoff..cutoff."""
    modes = np.arange(-cutoff, cutoff + 1)
    return tuple(_read_only((2.0 * math.pi * modes / length) ** 2) for length in lengths)


@functools.lru_cache(maxsize=_TRANSFORM_CACHE_SIZE)
def _sphere_spectrum(lengths: tuple[float, ...], cutoff: int) -> tuple[np.ndarray, ...]:
    """On the one axis, the zonal eigenvalues l (l + 1) / R^2, l = 0..cutoff."""
    ells = np.arange(cutoff + 1)
    return (_read_only(ells * (ells + 1.0) / lengths[0] ** 2),)


def _periodic(lengths: tuple[float, ...], cutoff: int, n: int) -> _Transform:
    """Circle and flat 2-tori: n points x_j = j L / n per side L, and column j
    of T is the mode m = j - cutoff: sqrt2 sin(2 pi |m| x / L) / sqrt L for
    m < 0, 1 / sqrt L for m = 0 and sqrt2 cos(2 pi m x / L) / sqrt L for m > 0."""
    modes = np.arange(-cutoff, cutoff + 1)
    # the phase (|m| j) mod n is exact in integers
    angle = (2.0 * math.pi / n) * (np.outer(np.arange(n), np.abs(modes)) % n)
    wave = (np.where(modes < 0, np.sin(angle), np.cos(angle))
            * np.where(modes == 0, 1.0, math.sqrt(2.0)))
    # d/dx takes the cos of mode m > 0 to -k sin and its sin to k cos
    # (k = 2 pi m / L), so T' is T with its columns reversed (m to -m) and
    # scaled by -k, and T'' is -k^2 T
    tables = [(t, -t[:, ::-1] * k, -t * k * k)
              for t, k in ((wave / math.sqrt(length), 2.0 * math.pi * modes / length)
                           for length in lengths)]
    volume, shape = math.prod(lengths), (n,) * len(lengths)
    return _Transform(tables[0] if len(lengths) > 1 else (),
                      tuple(np.ascontiguousarray(t.T) for t in tables[-1]),
                      tuple(np.arange(n) * (length / n) for length in lengths),
                      sum(np.ix_(*_periodic_spectrum(lengths, cutoff))),
                      np.full(shape, volume / math.prod(shape)), volume, (cutoff,) * len(lengths))


def _sphere(lengths: tuple[float, ...], cutoff: int, n: int) -> _Transform:
    """Zonal 2-sphere of radius R: one axis theta at the Gauss-Legendre nodes
    of x = cos(theta), T = norms P_l(x) with norms = sqrt((2 l + 1) / (4 pi
    R^2)), T' = -(sin theta / R) norms P_l'(x) the zonal gradient, and no
    T''.  The weights are 2 pi R^2 times Gauss-Legendre's; the poles, which
    the nodes never reach, are off the grid, with P_l(+-1) = (+-1)^l."""
    (radius,) = lengths
    x, w = np.polynomial.legendre.leggauss(n)
    ells = np.arange(cutoff + 1)[:, np.newaxis]
    norms = np.sqrt((2.0 * ells + 1.0) / (4.0 * math.pi * radius * radius))
    p = np.polynomial.legendre.legvander(x, cutoff).T
    dp = np.zeros_like(p)  # P_l' = l (P_{l-1} - x P_l) / (1 - x^2), x interior
    dp[1:] = ells[1:] * (p[:-1] - x * p[1:]) / (1.0 - x * x)
    last = (norms * p, norms * dp * (-np.sqrt(1.0 - x * x) / radius))
    return _Transform((), last, (np.arccos(x),),
                      sum(np.ix_(*_sphere_spectrum(lengths, cutoff))),
                      2.0 * math.pi * radius ** 2 * w, 4.0 * math.pi * radius * radius, (0,),
                      (norms * np.hstack([np.ones_like(ells), (-1.0) ** ells]),))


# each kind's transform builder and per-axis eigenvalue formula; the formulas'
# arrays are cached and read-only, as every field's shape check reads them
_GEOMETRY = {"circle": (_periodic, _periodic_spectrum), "torus2": (_periodic, _periodic_spectrum),
             "torus2_drift": (_periodic, _periodic_spectrum), "sphere2": (_sphere, _sphere_spectrum)}


def _geometry(manifold: ManifoldSpec):
    try:
        return _GEOMETRY[manifold.kind]
    except KeyError:
        raise ValueError(f"unknown manifold kind {manifold.kind!r}") from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _row_products(rows: np.ndarray, table: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """``rows @ table`` (into ``out`` if given) by one vector-matrix product
    per row, whose rounding, unlike one matrix-matrix product's over a batch
    of any size, does not depend on the other rows."""
    products = np.matmul(rows[..., np.newaxis, :], table,
                         out=None if out is None else out[..., np.newaxis, :])
    return products[..., 0, :]


def _block_products(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``rows @ table`` for a 2-d ``rows``, one product per block of exactly
    ``_BLOCK_ROWS`` rows, the last block zero-padded.  A matrix-matrix
    product rounds a row by the shape of the call, not by the other rows, so
    with one shape for every call a row's bits do not depend on its batch.
    A C-contiguous ``table`` takes about half the time of a transposed view."""
    count, width = rows.shape
    blocks = np.zeros((-(-count // _BLOCK_ROWS), _BLOCK_ROWS, width))
    blocks.reshape(-1, width)[:count] = rows
    return (blocks @ table).reshape(-1, table.shape[1])[:count]


def _transform(manifold: ManifoldSpec, cutoff: int, grid_points: Optional[int] = None):
    """The shared transform of the manifold's geometry at this cutoff and grid,
    keyed on the builder and side lengths, so the drifted torus shares the
    build of its plain torus."""
    n = grid_points if grid_points is not None else _grid_size(cutoff)
    return _cached_transform(_geometry(manifold)[0], manifold.lengths, cutoff, n)


@functools.lru_cache(maxsize=_TRANSFORM_CACHE_SIZE)
def _cached_transform(build, lengths: tuple[float, ...], cutoff: int, n: int) -> _Transform:
    return build(lengths, cutoff, n)


def eigenvalues(manifold: ManifoldSpec, cutoff: int) -> np.ndarray:
    """Laplacian eigenvalues in the field's coefficient layout: the shared
    transform's read-only array."""
    return _transform(manifold, cutoff).eigenvalues


def spectral_gap(manifold: ManifoldSpec) -> float:
    """Smallest nonzero Laplacian eigenvalue: the smallest of any axis, since
    each axis has the constant's 0; no transform is built."""
    return min(float(lam[lam > 0.0].min()) for lam in _geometry(manifold)[1](manifold.lengths, 1))


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
    if not resolved_min > POSITIVITY_FLOOR:
        raise SpectralTruncationError(
            f"resolved truncation has minimum {resolved_min:.3e}; "
            "increase the cutoff or fix the data")
    return field


def project_potential(manifold: ManifoldSpec, f: Callable, cutoff: int) -> SpectralField:
    """Project a pointwise function onto the eigenbasis, with no sign
    requirement (drift potentials are signed).

    ``f`` receives grid coordinates as numpy arrays: ``f(x)`` on the circle,
    ``f(x, y)`` on the torus, ``f(theta)`` on the zonal sphere.  The data
    must be finite and the cutoff must capture essentially all of their
    energy, or SpectralTruncationError is raised.
    """
    if not (isinstance(cutoff, numbers.Integral) and cutoff >= 0):
        raise ValueError(f"cutoff must be a nonnegative integer, not {cutoff!r}")
    tr = _transform(manifold, cutoff)
    # a constant or broadcastable result stands for the grid array it broadcasts to
    values = np.broadcast_to(np.asarray(f(*tr.points()), dtype=float), tr.shape)
    if not np.all(np.isfinite(values)):
        raise SpectralTruncationError(f"data must be finite, but has minimum {values.min():.3e} "
                                      f"and maximum {values.max():.3e}")
    coeffs = tr.analyze(values)
    # the data's whole energy by the grid rule (Parseval on the periodic grid)
    total = float(np.sum(tr.weights * values * values))
    kept = float(np.sum(coeffs * coeffs))
    # The comparison of two quadratures of the same data floors out at a few
    # ulps of the total, so grant that on top of the contractual fraction.
    allowance = (_TAIL_ENERGY_FRACTION + 64.0 * np.finfo(float).eps) * total
    if total - kept > allowance + 1e-30:
        raise SpectralTruncationError(
            f"cutoff {cutoff} leaves tail energy {total - kept:.3e} "
            f"of total {total:.3e}")
    return SpectralField(manifold, coeffs, cutoff)


@functools.lru_cache(maxsize=16)
def _trig_layout(cutoff: int) -> tuple[np.ndarray, ...]:
    """Read-only (weights, cos2, sin2): 0.5^(|m1| + |m2|) / (g1 g2) on the
    half-plane of modes, g = sqrt2 off the constant and 1 on it, and where the
    cos and the sin (signed) of mode m2 go among ``SpectralField``'s columns."""
    modes = np.arange(-cutoff, cutoff + 1)
    m1, m2 = np.ix_(modes[cutoff:], modes)
    g, eye = np.where(modes == 0, 1.0, math.sqrt(2.0)), np.eye(2 * cutoff + 1)
    return tuple(map(_read_only, (
        0.5 ** (m1 + np.abs(m2)) * ((m1 > 0) | (m2 > 0)) / np.outer(g[cutoff:], g),
        eye[cutoff + np.abs(modes)], np.sign(modes)[:, np.newaxis] * eye[cutoff - np.abs(modes)])))


def random_torus_fields(rng: np.random.Generator, manifold: ManifoldSpec,
                        positive: Sequence[bool], cutoff: int = 2,
                        amplitudes: Optional[Sequence[float]] = None) -> list[SpectralField]:
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
    values = _transform(manifold, cutoff).synth(coeffs)
    peak = np.abs(values).max(axis=(1, 2))
    # a zero polynomial keeps its zeros
    factor = np.divide(np.where(positive, 0.5, 0.3) if amplitudes is None else amplitudes, peak,
                       out=np.ones_like(peak), where=peak > 0.0)[:, None, None]
    coeffs *= factor
    _require_positive(1.5 + (values * factor)[positive], _RESOLVED_MINIMUM)
    coeffs[positive, cutoff, cutoff] += 1.5 * math.sqrt(manifold.volume)
    return [SpectralField(manifold, c, cutoff) for c in coeffs]


def resolve(field: SpectralField) -> np.ndarray:
    """Field values on the (oversampled) evaluation grid."""
    return _transform(field.manifold, field.cutoff).synth(field.coefficients)


def mass(field: SpectralField) -> float:
    """Integral of the field against its manifold's measure (mu for drift)."""
    op = _operator(field.manifold, field.cutoff)
    return float(np.sum(op.weights * op.transform.synth(field.coefficients)))


def evolve(field: SpectralField, t: float) -> SpectralField:
    """Exact heat semigroup exp(tL) on the field's coefficients.

    Undrifted, each coefficient decays as exp(-lambda t / 2).  On the drifted
    torus c(t) = left (e^{-rates t} * right c) solves the Galerkin pencil
    M c' = -S c in L^2(mu) exactly, from the decomposition that
    ``_operator`` builds once per operator and the field's cached modal
    coordinates ``right c``; an ill-conditioned M raises PropagatorError.  t
    must be finite, and a drifted result strictly positive.  The one row is a
    zero-padded ``_BLOCK_ROWS``-row block on purpose, for the bits of its
    time's row in a trace (the padding took a lone call from 32-47 to 39-59 us).

    No command calls it: it is the library's one-time API, which README
    names, and the lone reference of the row-independence tests, which hold
    a trace's row to its bits.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if t == 0.0:
        return field
    op = _operator(field.manifold, field.cutoff)
    rows = _propagate(field, np.array([float(t)]), op)
    if op.pencil is not None:
        _require_positive(op.transform.synth(rows), _DRIFT_LOST_POSITIVITY)
    return SpectralField(field.manifold, rows[0], field.cutoff)


def _propagate(field: SpectralField, times: np.ndarray,
               op: Optional[_Operator] = None) -> np.ndarray:
    """Coefficients of exp(tL) field for each of ``times``, stacked on a
    leading axis, by the field's operator record ``op`` (looked up if None):
    A0 exp(-lambda t / 2) as an outer product, or on the drifted torus
    (e^{-t rates} * right a0) left^T with a0 the flattened A0 (``right a0``
    cached), multiplied in fixed blocks of ``_BLOCK_ROWS`` rows against the
    C-contiguous left^T, so a row's bits do not depend on its batch."""
    op = op or _operator(field.manifold, field.cutoff)
    c0 = field.coefficients
    if op.pencil is None:
        lam = op.transform.eigenvalues
        x = c0 * np.exp(-0.5 * lam * times.reshape(times.shape + (1,) * lam.ndim))
    else:
        rates, left, _ = op.pencil()
        x = np.exp(np.multiply.outer(-times, rates))
        x *= _modal_coordinates(field)
    # A decaying mode passes through subnormals (below 2.2e-308), which cost the
    # products that follow a slow path and cannot reach a value above 1e-290.
    x[np.abs(x) < sys.float_info.min] = 0.0
    if op.pencil is None:
        return x
    return _block_products(x, left.T).reshape(times.shape + c0.shape)


def _require_positive(rows: np.ndarray, message: str) -> None:
    """Raise PositivityError, with ``message`` formatted by the row's
    minimum, for the first row of grid values at or below the floor, or
    with a NaN minimum; one minimum over all the rows clears them at once."""
    if np.minimum.reduce(rows, axis=None, initial=math.inf) > POSITIVITY_FLOOR:  # NaN fails
        return
    minima = rows.min(axis=tuple(range(1, rows.ndim)))
    first = np.flatnonzero(~(minima > POSITIVITY_FLOOR))[0]
    raise PositivityError(message.format(float(minima[first])))


_Operator = NamedTuple("_Operator", [("transform", _Transform), ("weights", np.ndarray),
                                     ("pencil", Optional[Callable])])


@functools.lru_cache(maxsize=32)  # a benchmark workload uses 16; a drift record keeps its pencil
def _operator(manifold: ManifoldSpec, cutoff: int) -> _Operator:
    """What a field's functionals and propagation read at this cutoff besides
    the field, shared by every field, trace and CLI call on an equal manifold
    (a value): the transform, the weights w (the volume weights, or drifted
    exp(2V) dx / their total on the cutoff's grid, read-only) and, drifted,
    ``pencil()``, its ``_drift_pencil``, built on first call, so w alone builds none.

    The pencil reads the modes |j - k| <= 2c per axis of w's Fourier
    transform w^ (c the field cutoff); on this n >= max(32, 8c) grid each such
    mode is aliased only by modes at least n - 2c >= 24 away.  For V = a
    sin(2 pi x) cos(2 pi y) at the largest a that MASS_CONDITION_LIMIT
    accepts, the aliasing is at most 2e-9 w^(0) at c = 4 (a = 6.25) and 5e-15
    w^(0) from c = 5 on; at c <= 3 the limit admits far larger potentials
    (every a up to 30 at c = 2, aliasing 2e-3 w^(0) there), which so few
    modes cannot resolve anyway.
    """
    tr, potential = _transform(manifold, cutoff), manifold.drift
    if potential is None:
        return _Operator(tr, tr.weights, None)
    v = _transform(manifold, potential.cutoff, tr.shape[0]).synth(potential.coefficients)
    raw = np.exp(2.0 * v) * tr.weights
    w = _read_only(raw / raw.sum())
    return _Operator(tr, w, functools.cache(lambda: _drift_pencil(manifold, cutoff, w)))


@functools.cache
def _blas_thread_count():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found in
    numpy's own extension module, or None where it exports neither (another
    BLAS, or another numpy)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_count = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_count.argtypes, set_count.restype = [ctypes.c_int], None
    return get, set_count


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body at one BLAS thread and restore the count after, under
    one lock, as the count is process-global; without a setter
    (``_blas_thread_count``, looked up on first use) at the BLAS's own count."""
    count = _blas_thread_count()
    if count is None:
        yield
        return
    get, set_count = count
    with _BLAS_THREADS_LOCK:
        before = get()
        set_count(1)
        try:
            yield
        finally:
            set_count(before)


@_one_blas_thread()
def _drift_pencil(manifold: ManifoldSpec, cutoff: int, w: np.ndarray):
    """(rates, left, right), real and read-only, with exp(tL) acting on the
    flattened coefficients a of a field as a(t) = left (e^{-rates t} * right a).

    L = Laplacian/2 + grad V . grad is self-adjoint in L^2(mu) and maps real
    functions to real ones, so its Galerkin system on the real orthonormal
    basis Phi = T (x) T of the field's coefficients is the real symmetric
    pencil M a' = -S a, with M = Phi^T diag(w) Phi and
    S = 1/2 sum_axes (d Phi)^T diag(w) d Phi by the grid rule of
    the measure weights w, contracted one axis at a time.  This basis is an
    orthogonal change from the exponentials', so cond(M') is that of their
    Hermitian pencil.  S vanishes on the constant (flat index z), so with y
    the other coordinates and beta = M[z, y] / M[z, z] the mu-mass
    alpha = a_z + beta . y is conserved (the first entry of ``right a``, rate
    exactly 0) and a_z = alpha - beta . y.  The rest solves M' y' = -S' y,
    M' = M[y, y] - M[y, z] (x) beta, by two ``eigh``: M' = U diag(d) U^T,
    and with G = U d^{-1/2}, G^T S' G = Q diag(lam) Q^T, so y(t) = G Q
    e^{-lam t} Q^T d^{1/2} U^T y(0).  cond(M') = max d / min d above
    MASS_CONDITION_LIMIT raises PropagatorError.  ``left`` is stored in
    Fortran order, so ``left.T`` is the C-contiguous table that
    ``_propagate`` multiplies its row blocks by.

    LAPACK's ``eigh`` rounds by the BLAS thread count at this size (169
    modes at cutoff 6), so the pencil is built at one BLAS thread
    (``_one_blas_thread``): drifted output is the same at any thread count.
    """
    tr = _transform(manifold, cutoff)
    (tx, dx), (ty, dy) = tr.first[:2], (table.T for table in tr.last[:2])
    size = tx.shape[1] ** 2

    def gram(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        return np.einsum("xj,xl,xy,yp,yq->jplq", fx, fx, w, fy, fy,
                         optimize=True).reshape(size, size)

    mass, stiff = gram(tx, ty), 0.5 * (gram(dx, ty) + gram(tx, dy))
    zero = size // 2
    rest = np.arange(size) != zero
    beta = mass[zero, rest] / mass[zero, zero]
    try:
        d, u = np.linalg.eigh(mass[np.ix_(rest, rest)] - np.outer(mass[rest, zero], beta))
        if d.size and not d.max() <= MASS_CONDITION_LIMIT * d.min():
            raise PropagatorError(f"drift mass matrix has condition {d.max() / d.min():.3e}, "
                                  f"above {MASS_CONDITION_LIMIT:.0e}")
        g = u / np.sqrt(d)
        lam, q = np.linalg.eigh(g.T @ stiff[np.ix_(rest, rest)] @ g)
    except np.linalg.LinAlgError as exc:  # a non-finite pencil, e.g. exp(2V) overflowed
        raise PropagatorError(f"drift pencil decomposition failed: {exc}") from exc
    rates = np.concatenate([[0.0], lam])
    left, right = np.zeros((size, size), order="F"), np.zeros((size, size))
    left[zero, 0] = right[0, zero] = 1.0
    left[rest, 1:] = g @ q
    left[zero, 1:] = -beta @ left[rest, 1:]
    right[0, rest] = beta
    right[1:, rest] = ((u * np.sqrt(d)) @ q).T
    return _read_only(rates), _read_only(left), _read_only(right)


@functools.lru_cache(maxsize=16)  # at cutoff 6, 16 x 169 floats
def _modal_coordinates(field: SpectralField) -> np.ndarray:
    """``right a0`` of a drifted field (a0 its flattened coefficients), read-only, per content."""
    right = _operator(field.manifold, field.cutoff).pencil()[2]
    return _read_only(right @ field.coefficients.ravel())


# ---------------------------------------------------------------------------
# functionals


def _row_functionals(op: _Operator, rows: np.ndarray, message: str,
                     every: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(entropy of each coefficient row of ``rows``, Fisher information of
    every ``every``-th row, starting with the first), against the transform
    and weights of the rows' operator record ``op``.

    Rows are synthesised in chunks of whole groups of ``every`` rows, as
    many groups as fit in ``_CHUNK_POINTS`` grid values but at least one.  A
    group counts its rows' values, their log buffer and one gradient
    component per grid axis of its first row, which bounds what a chunk
    holds at once; every chunk is worked in place in views of one flat
    buffer, this thread's kept one (``_chunk_buffer``).  Each row's sum is
    one dot product with the weights, as a lone field's is, so chunking
    moves no bit.  The first row whose resolved field is not strictly
    positive raises PositivityError with ``message``.
    """
    tr, w = op.transform, op.weights
    step = every * max(1, _CHUNK_POINTS // ((2 * every + w.ndim) * w.size))
    most = min(step, len(rows))  # the rows of the largest chunk, the first
    # u, then the larger of the gradients and the log buffer that replaces them
    buffer = _chunk_buffer((most + max(most, w.ndim * -(-most // every))) * w.size)
    w = w.reshape(-1, 1)
    entropy, fisher = [], []  # per chunk
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        values = len(chunk) * w.size
        u, grad2 = tr.values_and_gradients(chunk, every, buffer)
        u, grad2 = u.reshape(len(u), -1), grad2.reshape(len(grad2), -1)
        _require_positive(u, message)
        grad2 /= u[::every]
        fisher.append(_row_products(grad2, w)[:, 0])
        u_log_u = np.log(u, out=buffer[values:2 * values].reshape(u.shape))
        u_log_u *= u
        entropy.append(_row_products(u_log_u, w)[:, 0])
    if len(entropy) == 1:
        return -entropy[0], fisher[0]
    return -np.concatenate(entropy), np.concatenate(fisher)


def _chunk_buffer(size: int) -> np.ndarray:
    """A flat float buffer of at least ``size`` values for ``_row_functionals``:
    this thread's kept one, replaced by a larger one when a chunk needs more.
    A buffer within ``_CHUNK_POINTS`` is kept between calls, so warm traces
    allocate no grid-sized array (freed ones glibc trims from the heap top
    and the next trace faults back in); a larger one serves its call alone."""
    buffer = getattr(_per_thread, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size)
        if size <= _CHUNK_POINTS:
            _per_thread.buffer = buffer
    return buffer


def entropy_and_fisher(field: SpectralField) -> tuple[float, float]:
    """(entropy, Fisher information) of a strictly positive resolved field."""
    entropy, fisher = _row_functionals(_operator(field.manifold, field.cutoff),
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
    """Evolve the field across a strictly increasing grid of positive, finite
    times.

    rate_direct is half the Fisher information; rate_fd is a central finite
    difference of the entropy with step 1e-4 * t, the package-wide
    cross-check policy.  A grid not one-dimensional raises TypeError.
    """
    times = np.array(times, dtype=float)
    if times.size and times.ndim != 1:
        raise TypeError(f"times must be one-dimensional, not of shape {times.shape}")
    t = times.tolist()
    if not (t and 0.0 < t[0] and t[-1] < math.inf
            and all(map(float.__lt__, t, t[1:]))):  # so every time is in range; NaN fails
        raise ValueError("times must be strictly increasing, positive and finite")
    # rows t, t + h, t - h of each time in turn (in floats, which round as numpy
    # does), so that a loss of positivity is reported at the first time it
    # occurs; the t +- h rows feed rate_fd through their entropy alone
    h = [_FD_STEP_SCALE * x for x in t]
    grid = np.array([row for x, dx in zip(t, h) for row in (x, x + dx, x - dx)])
    op = _operator(field.manifold, field.cutoff)
    message = _RESOLVED_MINIMUM if op.pencil is None else _DRIFT_LOST_POSITIVITY
    entropy, fisher = _row_functionals(op, _propagate(field, grid, op), message, every=3)
    s = entropy.tolist()
    rate_fd = [(s[i + 1] - s[i + 2]) / (2.0 * dx) for i, dx in zip(range(0, len(s), 3), h)]
    return EntropyTrace(times, entropy[::3], 0.5 * fisher, np.array(rate_fd), fisher)


# ---------------------------------------------------------------------------
# pointwise identities on the flat torus


def _pointwise_terms(tr: _Transform, coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(r = 1/u, ux, uy, Lap u, |grad u|^2, ux ux r, ux uy r, uy uy r,
    |Hess u - grad u (x) grad u r|^2) on the grid of each field u of ``coeffs``,
    r taking u's buffer and the last the Hessian's; the first field not
    strictly positive on its grid raises PositivityError."""
    u, ux, uy, uxx, uxy, uyy = tr.derivatives(coeffs, (), *_GRADIENT, *_HESSIAN)
    _require_positive(u, _RESOLVED_MINIMUM)
    r, xx, xy, yy, lap_u = np.divide(1.0, u, out=u), ux * ux, ux * uy, uy * uy, uxx + uyy
    g = xx + yy
    for product, entry in ((xx, uxx), (xy, uxy), (yy, uyy)):
        product *= r
        entry -= product
        entry *= entry
    uxy += uxy  # the off-diagonal entry counts twice
    uxx += uxy
    uxx += uyy
    return r, ux, uy, lap_u, g, xx, xy, yy, uxx


def _identity_rows(block: Callable, items: Sequence, keys: Sequence, what: str) -> np.ndarray:
    """Rows (value, scale) of a pointwise identity, one per item: the two
    columns ``block(items[run], *key)`` returns for each ``_BLOCK_FIELDS``
    slice of a run of equal consecutive keys, each key (manifold, cutoffs)."""
    if any(key[0].kind not in ("torus2", "torus2_drift") for key in keys):
        raise ValueError(f"the {what} check runs on flat tori")
    ends = [i for i in range(1, len(keys) + 1) if i == len(keys) or keys[i] != keys[i - 1]]
    rows = np.empty((len(keys), 2))
    for start, end in zip([0, *ends], ends):
        for i in range(start, end, _BLOCK_FIELDS):
            run = slice(i, min(i + _BLOCK_FIELDS, end))
            rows[run, 0], rows[run, 1] = block(items[run], *keys[i])
    return rows


def bochner_residuals(pairs: Sequence[tuple]) -> np.ndarray:
    """Rows (largest residual over the grid, term scale >= 1e-300) of the
    identity (L - d/dt)(|grad u|^2 / u) = (|Hess u - grad u (x) grad u / u|^2
    + Ric(grad u, grad u) - 2 <D_{grad u} Z, grad u>) / u on the flat torus,
    one per (field w, potential V) pair: u = w, Z = grad V, du/dt = Lu, Ric = 0.
    A block is a run of pairs sharing the field's manifold and cutoff and the
    potential's cutoff; no potential and no drift is a zero potential.  A
    potential off its field's manifold raises ValueError, the first field not
    strictly positive PositivityError; a NaN term makes the scale NaN."""
    if any(v is not None and v.manifold != w.manifold for w, v in pairs):
        raise ValueError("the potential must live on the field's manifold")
    pairs = [(w, w.manifold.drift if v is None else v) for w, v in pairs]
    keys = [(w.manifold, w.cutoff, w.cutoff if v is None else v.cutoff) for w, v in pairs]
    return _identity_rows(_bochner_block, pairs, keys, "residual")


def _bochner_block(pairs, manifold, w_cutoff: int, v_cutoff: int) -> tuple[np.ndarray, ...]:
    """One block of ``bochner_residuals``, every array (field, grid point), around r = 1/u."""
    cutoff = max(w_cutoff, v_cutoff)
    n = _grid_size(2 * cutoff)
    r, ux, uy, lap_u, g, xx, xy, yy, hess = _pointwise_terms(
        _transform(manifold, w_cutoff, n), np.stack([w.coefficients for w, _ in pairs]))
    vx, vy, vxx, vxy, vyy = _transform(manifold, v_cutoff, n).derivatives(
        np.stack([np.zeros(np.shape(w.coefficients)) if v is None else v.coefficients
                  for w, v in pairs]), *_GRADIENT, *_HESSIAN)
    hess *= r
    drift = -2.0 * (vxx * xx + 2.0 * vxy * xy + vyy * yy)  # -2 Hess V(grad u, grad u) r
    del xx, xy, yy

    # g = |grad u|^2 and Lu = Laplacian/2 + advection are trigonometric
    # polynomials (bands 2 w_cutoff and cutoff + w_cutoff): exact derivatives
    tg, tl = _transform(manifold, 2 * w_cutoff, n), _transform(manifold, cutoff + w_cutoff, n)
    gx, gy, gxx, gyy = tg.derivatives(tg.analyze(g), *_GRADIENT, (0, 0), (1, 1))
    lu = 0.5 * lap_u + vx * ux + vy * uy
    lux, luy = tl.derivatives(tl.analyze(lu), *_GRADIENT)

    # P = g r is not band-limited: grad P = (grad g - P grad u) r, and Lap P
    # and dP/dt likewise through g = P u, from the exact pieces above
    p = np.multiply(g, r, out=g)
    dt_p = (2.0 * (ux * lux + uy * luy) - p * lu) * r
    del lu, lux, luy
    px, py = (gx - p * ux) * r, (gy - p * uy) * r
    half_lap_p = 0.5 * (gxx + gyy - 2.0 * (ux * px + uy * py) - p * lap_u) * r
    residuals = half_lap_p + vx * px + vy * py - dt_p - hess - drift

    # np.max, unlike the builtin max, keeps a NaN term scale
    scale = np.max([np.abs(term).max((-2, -1)) for term in (half_lap_p, dt_p, hess, drift)],
                   axis=0, initial=1e-300)
    return np.abs(residuals).max((-2, -1)), scale  # per field, over its grid


def hessian_trace_gaps(fields: Sequence[SpectralField]) -> np.ndarray:
    """Rows (least slack over the grid, scale of the larger side) of
    |Hess w - grad w (x) grad w / w|^2 >= w^2 |Lap log w|^2 / n on the flat
    torus, one per field w, a block being a run sharing a manifold and cutoff.
    The first field not strictly positive raises PositivityError."""
    return _identity_rows(_trace_gap_block, fields, [(w.manifold, w.cutoff) for w in fields],
                          "trace inequality")


def _trace_gap_block(fields, manifold, cutoff: int) -> tuple[np.ndarray, ...]:
    """One block of ``hessian_trace_gaps``, every array (field, grid point)."""
    _, _, _, lap_u, _, xx, _, yy, lhs = _pointwise_terms(
        _transform(manifold, cutoff), np.stack([w.coefficients for w in fields]))
    # u^2 |Lap log u|^2 / n, as u Lap log u = Lap u - |grad u|^2 r
    rhs = (lap_u - xx - yy) ** 2 / manifold.dimension
    scale = np.maximum(np.maximum(lhs.max((-2, -1)), rhs.max((-2, -1))), 1e-300)
    return np.subtract(lhs, rhs, out=lhs).min((-2, -1)), scale  # per field, over its grid


def cauchy_step_trace(field: SpectralField, times) -> np.ndarray:
    """Rows ((integral of u lap log u)^2, integral of u (lap log u)^2, fisher)
    of u = exp(tL) field, one per finite nonnegative time, from one
    ``_propagate`` call: the mean-square step and integral u lap log u = -fisher."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not ((0.0 <= times) & (times < math.inf)).all():
        raise ValueError("times must be a sequence of finite nonnegative numbers")
    if field.manifold.drift is not None:
        raise ValueError("cauchy step values are defined for the plain volume measure")
    op = _operator(field.manifold, field.cutoff)
    tr, rows = op.transform, _propagate(field, times, op)
    u, fisher = tr.values_and_gradients(rows, 1)
    _require_positive(u, _RESOLVED_MINIMUM)
    r = np.divide(1.0, u, out=u)
    fisher *= r  # |grad u|^2 / u
    mean = tr.synth(rows * (-tr.eigenvalues)) - fisher  # u Lap log u = Lap u - |grad u|^2 / u
    mean, second, fisher = ((tr.weights * a).reshape(len(rows), -1).sum(axis=1)
                            for a in (mean, mean * mean * r, fisher))
    return np.stack([mean * mean, second, fisher], axis=1)


def laplacian_l2_norm(field: SpectralField) -> float:
    """Spectral L2 norm of the Laplacian of the field."""
    lam = eigenvalues(field.manifold, field.cutoff)
    return math.sqrt(float(np.sum((lam * np.abs(field.coefficients)) ** 2)))


def grid_extrema(field: SpectralField) -> tuple[float, float]:
    """(min, max) over the oversampled evaluation grid and the transform's
    points off it: the sphere's two poles, where P_l(+-1) = (+-1)^l gives
    the field exactly.  They are the inf f and sup f of the bound constants.

    These extrema lie inside the true range.  The periodic fixtures' and the
    sphere fixture's extrema land on these points, so for them the values
    are exact; a general field can peak between grid points.  The error does
    not always make the bounds stricter: with sup f < 1, an understated sup
    makes |log sup f| in the spectral-gap bound larger, so that bound comes
    out looser.
    """
    tr, c = _transform(field.manifold, field.cutoff), field.coefficients
    u = [tr.synth(c), *(c @ table for table in tr.off_grid)]
    return min(float(s.min()) for s in u), max(float(s.max()) for s in u)
