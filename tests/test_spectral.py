import collections
import concurrent.futures
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_torus_potential, run_python
from heatent import bounds as bd
from heatent import fixtures as fx
from heatent import spectral as sp
from heatent import verify as vf

CIRCLE = sp.circle(1.0)
TORUS = sp.torus2(1.0, 1.0)
SPHERE = sp.sphere2(1.0)

# q0 of 1 + cos(2 pi x)/2 on the unit circle; the closed form was confirmed
# against a brute-force 10^6-point grid oracle.
CIRCLE_Q0 = math.pi ** 2 * (4.0 - 2.0 * math.sqrt(3.0))
# q0 of (1 + cos(theta)/2)/(4 pi) on the unit sphere, from the same exercise
# with Gauss-Legendre refinement.
SPHERE_Q0 = (8.0 - 6.0 * math.log(3.0)) / 8.0


def two_mode_circle():
    return sp.project_initial(CIRCLE, lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x), 2)


# ---------------------------------------------------------------------------
# manifolds


def test_manifold_invariants():
    assert CIRCLE.dimension == 1 and CIRCLE.ricci_lower_bound == 0.0
    assert CIRCLE.volume == 1.0
    assert TORUS.dimension == 2 and TORUS.ricci_lower_bound == 0.0
    assert SPHERE.ricci_lower_bound == 1.0
    assert SPHERE.volume == pytest.approx(4.0 * math.pi)
    half = sp.sphere2(2.0)
    assert half.ricci_lower_bound == 0.25
    assert half.volume == pytest.approx(16.0 * math.pi)


def test_drift_manifold_effective_curvature():
    potential = sp.project_potential(
        TORUS, lambda x, y: 0.1 * np.sin(2.0 * np.pi * x), 2)
    drifted = sp.torus2_drift(potential)
    assert drifted.ricci_lower_bound == pytest.approx(
        -0.2 * (2.0 * math.pi) ** 2, rel=1e-12)
    assert drifted.drift is potential


def test_drift_requires_plain_torus():
    circle_pot = sp.project_potential(CIRCLE, lambda x: 0.1 * np.sin(2 * np.pi * x), 2)
    with pytest.raises(ValueError):
        sp.torus2_drift(circle_pot)


@pytest.mark.parametrize("make", [lambda: sp.circle(math.nan), lambda: sp.circle(math.inf),
                                  lambda: sp.circle(0.0), lambda: sp.torus2(math.inf, 1.0),
                                  lambda: sp.torus2(1.0, math.nan), lambda: sp.torus2(-1.0, 1.0),
                                  lambda: sp.sphere2(math.nan), lambda: sp.sphere2(math.inf)],
                         ids=["circle nan", "circle inf", "circle 0", "torus inf", "torus nan",
                              "torus negative", "sphere nan", "sphere inf"])
def test_non_finite_or_non_positive_sizes_are_refused(make):
    with pytest.raises(ValueError, match="must be positive and finite"):
        make()


def test_eigenvalue_conventions():
    lam = sp.eigenvalues(CIRCLE, 2)
    assert lam[2] == 0.0  # constant mode
    assert lam[3] == pytest.approx((2.0 * math.pi) ** 2)
    lam_t = sp.eigenvalues(TORUS, 1)
    assert lam_t[1, 1] == 0.0
    assert lam_t[2, 2] == pytest.approx(2.0 * (2.0 * math.pi) ** 2)
    lam_s = sp.eigenvalues(SPHERE, 3)
    assert list(lam_s) == [0.0, 2.0, 6.0, 12.0]
    assert sp.spectral_gap(CIRCLE) == pytest.approx((2.0 * math.pi) ** 2)
    assert sp.spectral_gap(SPHERE) == 2.0


def test_non_square_torus_eigenvalues_and_gap():
    torus = sp.torus2(1.0, 1.5)
    lam = sp.eigenvalues(torus, 1)
    assert lam[2, 1] == pytest.approx((2.0 * math.pi / 1.0) ** 2, rel=1e-15)
    assert lam[1, 2] == pytest.approx((2.0 * math.pi / 1.5) ** 2, rel=1e-15)
    assert sp.spectral_gap(torus) == pytest.approx((2.0 * math.pi / 1.5) ** 2, rel=1e-15)
    assert sp.spectral_gap(sp.torus2(1.0, 1.0)) == pytest.approx((2.0 * math.pi) ** 2,
                                                                rel=1e-15)


def test_spectral_gap_builds_no_transform():
    sp._cached_transform.cache_clear()
    gaps = [sp.spectral_gap(manifold) for manifold in
            (sp.circle(), sp.circle(0.3), sp.torus2(1.0, 1.5), sp.sphere2(2.0))]
    assert sp._cached_transform.cache_info().currsize == 0
    assert gaps == [(2.0 * math.pi) ** 2, (2.0 * math.pi / 0.3) ** 2,
                    (2.0 * math.pi / 1.5) ** 2, 0.5]
    # the same smallest nonzero entry as the transform's eigenvalues
    for manifold, gap in zip((sp.circle(0.3), sp.torus2(1.0, 1.5), sp.sphere2(2.0)), gaps[1:]):
        lam = sp.eigenvalues(manifold, 1)
        assert lam[lam > 0.0].min() == gap


def test_sphere_transform_calls_leggauss_once(monkeypatch):
    # the benchmark counts Gauss-Legendre node builds through this attribute
    field = fx.get_fixture("sphere").initial
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    sp._cached_transform.cache_clear()
    tr = sp._transform(field.manifold, field.cutoff)
    assert sp._transform(field.manifold, field.cutoff) is tr
    sp.resolve(field)
    assert calls == [tr.shape[0]]


def test_non_square_torus_matches_circle_for_y_profile():
    # u(x, y) = g(y) on the 1 x 1.5 torus: every integral is the x-side
    # length, 1.0, times the same integral of g on the circle of length 1.5
    def g(y):
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * y / 1.5) + 0.2 * np.sin(4.0 * np.pi * y / 1.5)

    on_torus = sp.project_initial(sp.torus2(1.0, 1.5), lambda x, y: g(y), 2)
    on_circle = sp.project_initial(sp.circle(1.5), g, 2)
    for t in (0.0, 0.05):
        entropy_t, fisher_t = sp.entropy_and_fisher(sp.evolve(on_torus, t))
        entropy_c, fisher_c = sp.entropy_and_fisher(sp.evolve(on_circle, t))
        assert entropy_t == pytest.approx(1.0 * entropy_c, rel=1e-12)
        assert fisher_t == pytest.approx(1.0 * fisher_c, rel=1e-12)


def _equal_torus_field(torus):
    return sp.project_initial(torus, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)


def test_fields_and_manifolds_are_values():
    a, b = (_equal_torus_field(sp.torus2(1.0, 1.0)) for _ in range(2))
    assert a.manifold is not b.manifold
    assert a.manifold == b.manifold and hash(a.manifold) == hash(b.manifold)
    assert a == b and hash(a) == hash(b)
    first, second = fx.drift_fixture(), fx.drift_fixture()
    assert first.manifold.drift is not second.manifold.drift
    assert first.manifold == second.manifold and hash(first.manifold) == hash(second.manifold)
    assert first.initial == second.initial and hash(first.initial) == hash(second.initial)


def test_fields_differing_in_any_part_are_unequal():
    field = _equal_torus_field(TORUS)
    coeffs = field.coefficients.copy()
    coeffs[2, 2] += 1e-12
    drifted = fx.drift_fixture().initial
    other_potential = sp.project_potential(TORUS, lambda x, y: 0.2 * np.sin(2.0 * np.pi * x), 2)
    padded = np.zeros((7, 7))
    padded[1:-1, 1:-1] = field.coefficients
    pairs = [(field, sp.SpectralField(TORUS, padded, 3)),
             (field, sp.SpectralField(TORUS, coeffs, 2)),
             (field, _equal_torus_field(sp.torus2(1.0, 1.5))),
             (drifted, sp.SpectralField(sp.torus2_drift(other_potential),
                                        drifted.coefficients, drifted.cutoff))]
    for a, b in pairs:
        assert a != b and a.manifold.kind == b.manifold.kind


def test_field_changed_in_place_hashes_anew():
    field = _equal_torus_field(TORUS)
    frozen = sp.SpectralField(TORUS, field.coefficients.copy(), field.cutoff)
    before = hash(field)
    field.coefficients[3, 2] *= 2.0
    assert hash(field) != before and field != frozen
    field.coefficients[3, 2] /= 2.0
    assert hash(field) == before and field == frozen


# ---------------------------------------------------------------------------
# projection


def test_project_constant():
    field = sp.project_initial(CIRCLE, lambda x: np.ones_like(x), 2)
    assert field.coefficients[2] == pytest.approx(1.0)
    others = np.delete(field.coefficients, 2)
    assert np.abs(others).max() < 1e-14
    assert sp.mass(field) == pytest.approx(1.0)


@pytest.mark.parametrize("manifold", [CIRCLE, TORUS, SPHERE], ids=["circle", "torus", "sphere"])
@pytest.mark.parametrize("project", [sp.project_initial, sp.project_potential])
def test_projection_accepts_a_python_float(manifold, project):
    # f may return a constant, not a grid array: it stands for the constant field
    field = project(manifold, lambda *points: 2.0, 2)
    centre = (0,) if manifold.kind == "sphere2" else (2,) * manifold.dimension
    assert field.coefficients[centre] == 2.0 * math.sqrt(manifold.volume)
    assert np.count_nonzero(field.coefficients) == 1
    assert np.array_equal(sp.resolve(field), sp.resolve(project(
        manifold, lambda *points: np.full_like(points[0], 2.0), 2)))


def test_project_two_mode():
    field = two_mode_circle()
    nonzero = np.abs(field.coefficients) > 1e-14
    assert nonzero.sum() == 2  # the constant and the cos of mode 1
    # cos(2 pi x) / 2 = (0.5 / sqrt2) sqrt2 cos(2 pi x), at index cutoff + 1
    assert field.coefficients[3] == pytest.approx(0.5 / math.sqrt(2.0))


def test_project_sphere_two_modes():
    field = sp.project_initial(
        SPHERE, lambda th: (1.0 + 0.5 * np.cos(th)) / (4.0 * math.pi), 4)
    assert abs(field.coefficients[0]) > 0.0
    assert abs(field.coefficients[1]) > 0.0
    assert np.abs(field.coefficients[2:]).max() < 1e-15
    assert sp.mass(field) == pytest.approx(1.0, rel=1e-12)


def test_project_rejects_undersized_cutoff():
    with pytest.raises(sp.SpectralTruncationError):
        sp.project_initial(CIRCLE, lambda x: 1.5 + 0.5 * np.cos(2.0 * np.pi * 5.0 * x), 2)


def test_project_rejects_nonpositive_data():
    with pytest.raises(sp.SpectralTruncationError):
        sp.project_initial(CIRCLE, lambda x: 1.0 + 1.5 * np.cos(2.0 * np.pi * x), 2)


def test_project_rejects_nan_data():
    with pytest.raises(sp.SpectralTruncationError, match="minimum nan"):
        sp.project_initial(CIRCLE, lambda x: np.full_like(x, math.nan), 2)
    # the potential path, which has no positivity test to catch it, and
    # infinities, whose analysis would turn to NaN behind a RuntimeWarning
    for bad, project in ((math.nan, sp.project_potential), (math.inf, sp.project_potential),
                         (-math.inf, sp.project_potential), (math.inf, sp.project_initial)):
        with pytest.raises(sp.SpectralTruncationError, match="must be finite"):
            project(TORUS, lambda x, y: np.where(x > 0.5, bad, 1.0), 2)


def test_project_potential_allows_signed_data():
    potential = sp.project_potential(TORUS, lambda x, y: 0.3 * np.sin(2 * np.pi * y), 2)
    values = sp.resolve(potential)
    assert values.min() < 0.0 < values.max()


def _grid_trig_poly(rng, cutoff, amplitude):
    """The random polynomial as a grid closure, to be projected: the oracle
    of the coefficients ``fixtures`` writes directly."""
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
        return acc * (amplitude / peak) if peak > 0.0 else acc

    return f


@pytest.mark.parametrize("cutoff", range(1, 7))
def test_random_fields_equal_their_projected_grid_polynomials(cutoff):
    for seed in (0, 3, 11):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        field = fx.random_positive_torus_field(rng, TORUS, cutoff=cutoff)
        potential = random_torus_potential(rng, TORUS, cutoff=cutoff)
        noise = _grid_trig_poly(oracle, cutoff, 0.5)
        want_field = sp.project_initial(TORUS, lambda x, y: 1.5 + noise(x, y), cutoff)
        want_potential = sp.project_potential(TORUS, _grid_trig_poly(oracle, cutoff, 0.3),
                                              cutoff)
        for got, want in ((field, want_field), (potential, want_potential)):
            assert got.manifold is TORUS and got.cutoff == cutoff
            error = np.abs(got.coefficients - want.coefficients).max()
            assert error <= 1e-14 * np.abs(want.coefficients).max(), (seed, error)


def _hermitian_grid_values(rng, manifold, cutoff, amplitude):
    """A frozen copy of the random polynomial as it was first written: the
    Hermitian array c_m = a_m 0.5^(|m1| + |m2|) exp(i phi_m) sqrt(vol) / 2
    over the half-plane, c_-m its conjugate, summed on the grid as
    Re sum_m c_m exp(2 pi i m.x/L) / sqrt(vol) and scaled to its sup norm."""
    amplitudes = rng.normal(size=(cutoff + 1, 2 * cutoff + 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=amplitudes.shape)
    m1, m2 = np.ix_(np.arange(cutoff + 1), np.arange(-cutoff, cutoff + 1))
    half = (0.5 * math.sqrt(manifold.volume) * amplitudes * 0.5 ** (m1 + np.abs(m2))
            * np.exp(1j * phases))
    half[0, :cutoff + 1] = 0.0
    coeffs = np.zeros((2 * cutoff + 1,) * 2, dtype=complex)
    coeffs[cutoff:] = half
    coeffs += coeffs[::-1, ::-1].conj()
    n = sp._grid_size(cutoff)
    ex, ey = (np.exp(2j * np.pi * np.outer(np.arange(-cutoff, cutoff + 1), np.arange(n)) / n)
              for _ in range(2))
    values = np.real(ex.T @ coeffs @ ey) / math.sqrt(manifold.volume)
    return values * (amplitude / np.abs(values).max())


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 1.5)])
def test_random_fields_equal_the_hermitian_construction(lengths):
    # the same draws give the same grid functions, so seeded streams keep their meaning
    torus = sp.torus2(*lengths)
    for cutoff in range(1, 7):
        for seed in range(4):
            rng, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
            field = fx.random_positive_torus_field(rng, torus, cutoff=cutoff)
            potential = random_torus_potential(rng, torus, cutoff=cutoff)
            for got, amplitude, offset in ((field, 0.5, 1.5), (potential, 0.3, 0.0)):
                want = offset + _hermitian_grid_values(frozen, torus, cutoff, amplitude)
                error = np.abs(sp.resolve(got) - want).max() / np.abs(want).max()
                assert error <= 1e-14, (cutoff, seed, error)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 4])
def test_batched_draws_equal_the_lone_generators(cutoff):
    # the same rng stream in the same order gives the same bits and leaves
    # the generator in the same state
    torus = sp.torus2(1.0, 1.5)
    positive = [True, False, True, True, False, False, True]
    amplitudes = [0.5, 0.3, 0.25, 0.6, 0.1, 0.3, 0.5]
    for given_amplitudes in (None, amplitudes):
        batched, lone = np.random.default_rng(cutoff), np.random.default_rng(cutoff)
        fields = sp.random_torus_fields(batched, torus, positive, cutoff, given_amplitudes)
        for field, flag, amplitude in zip(fields, positive, amplitudes):
            make = fx.random_positive_torus_field if flag else random_torus_potential
            want = (make(lone, torus, cutoff) if given_amplitudes is None
                    else make(lone, torus, cutoff, amplitude))
            assert field.manifold is torus and field.cutoff == cutoff
            assert field.coefficients.tobytes() == want.coefficients.tobytes()
        assert batched.bit_generator.state == lone.bit_generator.state
    assert sp.random_torus_fields(np.random.default_rng(0), torus, [], cutoff) == []


def test_batched_draws_refuse_the_first_field_past_the_floor():
    positive, amplitudes = [True, False, True, True], [0.5, 5.0, 100.0, 200.0]
    lone = np.random.default_rng(4)
    for make, amplitude in zip((fx.random_positive_torus_field, random_torus_potential),
                               amplitudes):
        make(lone, TORUS, 2, amplitude)
    with pytest.raises(sp.PositivityError) as want:
        fx.random_positive_torus_field(lone, TORUS, 2, amplitudes[2])
    with pytest.raises(sp.PositivityError) as got:
        sp.random_torus_fields(np.random.default_rng(4), TORUS, positive, 2, amplitudes)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["circle", "sphere", "torus-drift"])
def test_random_fields_refuse_other_manifolds(name):
    manifold = fx.get_fixture(name).manifold
    for make in (fx.random_positive_torus_field, random_torus_potential):
        with pytest.raises(ValueError, match="plain torus2"):
            make(np.random.default_rng(0), manifold)


def test_random_positive_field_refuses_noise_past_the_floor():
    with pytest.raises(sp.PositivityError):
        fx.random_positive_torus_field(np.random.default_rng(0), TORUS, amplitude=100.0)


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 1.0), (1.0, 1.5)])
def test_stacked_derivatives_equal_single_orders_and_analytic_modes(lengths):
    # u = 2 + cos(theta) with theta = 2 pi (x / L1 + 2 y / L2) + 0.3
    k = [2.0 * math.pi * m / length for m, length in zip((1, 2), lengths)]
    manifold = sp.circle(*lengths) if len(lengths) == 1 else sp.torus2(*lengths)
    field = sp.project_potential(
        manifold, lambda *x: 2.0 + np.cos(sum(ki * xi for ki, xi in zip(k, x)) + 0.3), 2)
    tr = sp._transform(manifold, 2)
    theta = sum(ki * xi for ki, xi in zip(k, tr.points())) + 0.3
    orders = [(), *[(a,) for a in range(len(k))],
              *[(a, b) for a in range(len(k)) for b in range(a, len(k))]]
    stacked = tr.derivatives(field.coefficients, *orders)
    assert stacked.shape == (len(orders), *tr.shape)
    for order, values in zip(orders, stacked):
        assert np.array_equal(values, tr.derivatives(field.coefficients, order)[0]), order
        # d/dx_a of cos(theta) is -k_a sin(theta), d2/dx_a dx_b is -k_a k_b cos(theta)
        factor = math.prod(k[a] for a in order)
        want = {0: 2.0 + np.cos(theta), 1: -factor * np.sin(theta),
                2: -factor * np.cos(theta)}[len(order)]
        assert np.abs(values - want).max() <= 1e-13 * max(1.0, factor), order


@pytest.mark.parametrize("n", [32, 48])
@pytest.mark.parametrize("cutoff", [1, 2, 4, 6])
def test_derivatives_have_the_bits_of_synth(cutoff, n):
    # one broadcast product per order set, each field's product of synth's shapes
    tr = sp._transform(TORUS, cutoff, n)
    orders = [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]
    for stack in sp._order_tables(tr, tuple(orders)):  # built once, shared, read-only
        assert stack.shape[0] == len(orders) and not stack.flags.writeable
    rng = np.random.default_rng(100 * cutoff + n)
    for batch in ((), (3,), (2, 5)):
        coeffs = rng.normal(size=batch + (2 * cutoff + 1,) * 2)
        for subset in (orders, orders[1:3], orders[::-1], [(0, 1)]):
            stacked = tr.derivatives(coeffs, *subset)
            assert stacked.shape == (len(subset), *batch, n, n)
            for order, values in zip(subset, stacked):
                assert np.array_equal(values, tr.synth(coeffs, order)), (batch, order)
                for index in np.ndindex(*batch):
                    assert np.array_equal(values[index], tr.synth(coeffs[index], order))


@pytest.mark.parametrize("manifold", [CIRCLE, TORUS, sp.torus2(1.0, 1.5), SPHERE],
                         ids=["circle", "torus", "torus2_1x1.5", "sphere"])
def test_batched_analysis_equals_lone_analysis(manifold):
    # each field is shifted by its own first grid value
    tr = sp._transform(manifold, 3)
    rng = np.random.default_rng(8)
    values = 2.0 + rng.normal(size=(2, 3) + tr.shape)
    values[0, 1] = 0.7  # a constant field in the batch
    batched = tr.analyze(values)
    assert batched.shape == (2, 3) + tr.analyze(values[0, 0]).shape
    for index in np.ndindex(2, 3):
        assert np.array_equal(batched[index], tr.analyze(values[index])), index


def _exponentials(cutoff):
    """U with e_m / sqrt L = sum_j U[j, m] phi_j per axis: the complex
    exponential of mode m in the real sin/cos columns (cos of |m| at index
    cutoff + |m|, sin at cutoff - |m|).  A real field A has complex
    coefficients U^H A conj(U) on the torus (U^H A on the circle), and a
    Hermitian complex array c is the real field U c U^T."""
    u = np.zeros((2 * cutoff + 1,) * 2, dtype=complex)
    u[cutoff, cutoff] = 1.0
    for m in range(1, cutoff + 1):
        u[cutoff + m, [cutoff + m, cutoff - m]] = 1.0 / math.sqrt(2.0)
        u[cutoff - m, [cutoff + m, cutoff - m]] = [1j / math.sqrt(2.0), -1j / math.sqrt(2.0)]
    return u


def _to_complex(coeffs, dims):
    u = _exponentials(coeffs.shape[-1] // 2)
    return u.conj().T @ coeffs @ u.conj() if dims == 2 else coeffs @ u.conj()


def _to_real(coeffs, dims):
    u = _exponentials(coeffs.shape[-1] // 2)
    real = u @ coeffs @ u.T if dims == 2 else coeffs @ u.T
    assert np.abs(real.imag).max() <= 1e-15 * np.abs(real).max()
    return real.real


def _full_spectrum_synthesis(coeffs, lengths, n):
    """Real part of sum_m c_m exp(2 pi i m.x/L)/sqrt(vol) on the n-point grid,
    written out: the coefficients at their slots of a zero-padded full
    spectrum, one complex ``ifftn``, scaled back to sums."""
    dims = len(lengths)
    cutoff = (coeffs.shape[-1] - 1) // 2
    spec = np.zeros(coeffs.shape[:coeffs.ndim - dims] + (n,) * dims, dtype=complex)
    slots = np.ix_(*[np.arange(-cutoff, cutoff + 1) % n] * dims)
    spec[(Ellipsis, *slots)] = coeffs / math.sqrt(math.prod(lengths))
    return (np.fft.ifftn(spec, axes=tuple(range(-dims, 0))) * n ** dims).real


def _direct_synthesis(coeffs, lengths, n, order):
    """sum_j A_j phi_j on the n-point grid, differentiated along ``order``,
    by an explicit cos per mode: the r-th derivative of sqrt2 cos(k x) is
    sqrt2 k^r cos(k x + r pi/2), and sin(k x) is cos(k x - pi/2)."""
    cutoff = coeffs.shape[-1] // 2
    modes = np.arange(-cutoff, cutoff + 1)
    tables = []
    for axis, length in enumerate(lengths):
        k = 2.0 * np.pi * np.abs(modes) / length
        r = order.count(axis)
        x = np.arange(n) * (length / n)
        phase = np.outer(x, k) + (r - (modes < 0)) * (np.pi / 2.0)
        tables.append(np.where(modes == 0, 1.0, math.sqrt(2.0)) * k ** r * np.cos(phase)
                      / math.sqrt(length))
    if len(lengths) == 1:
        return coeffs @ tables[0].T
    return np.einsum("ij,...jk,lk->...il", tables[0], coeffs, tables[1])


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 1.0), (1.0, 1.5)])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("grid", ["default", "bochner"])
def test_wave_table_synthesis_equals_full_complex_synthesis(lengths, batch, grid):
    # the tables against two oracles: the same real function's complex
    # coefficients through a full-spectrum ifftn, and a direct cos/sin sum
    cutoff = 3
    dims = len(lengths)
    manifold = sp.circle(*lengths) if dims == 1 else sp.torus2(*lengths)
    n = sp._grid_size(cutoff if grid == "default" else 2 * cutoff)  # bochner_residual's
    tr = sp._transform(manifold, cutoff, n)
    rng = np.random.default_rng(10 * dims + len(batch))
    coeffs = rng.normal(size=batch + (2 * cutoff + 1,) * dims)
    modes = np.ix_(*[np.arange(-cutoff, cutoff + 1)] * dims)
    orders = [(), *[(a,) for a in range(dims)], (0, dims - 1), (dims - 1,) * 2]
    stacked = tr.derivatives(coeffs, *orders)
    for order, values in zip(orders, stacked):
        factor = math.prod((2j * math.pi * modes[a] / lengths[a] for a in order), start=1.0)
        want = _full_spectrum_synthesis(_to_complex(coeffs, dims) * factor, lengths, n)
        scale = np.abs(want).max()
        assert values.shape == batch + (n,) * dims
        assert np.abs(values - want).max() <= 1e-14 * scale, order
        assert np.abs(_direct_synthesis(coeffs, lengths, n, order) - want).max() <= 1e-13 * scale
        if order == ():
            assert np.array_equal(tr.synth(coeffs), values)
    # a field's values do not depend on its batch or memory layout: a
    # reversed view, a Fortran-ordered copy and each field alone give the
    # bits of the contiguous batch
    fields = coeffs.reshape((-1,) + coeffs.shape[len(batch):])
    for order in orders:
        together = tr.synth(fields, order)
        assert np.array_equal(tr.synth(fields[::-1], order)[::-1], together)
        assert np.array_equal(tr.synth(np.asfortranarray(fields), order), together)
        for field, values in zip(fields, together):
            assert np.array_equal(tr.synth(field, order), values)


@pytest.mark.parametrize("manifold", [CIRCLE, TORUS, sp.torus2(1.0, 1.5), SPHERE, sp.sphere2(2.0)],
                         ids=["circle", "torus", "torus2_1x1.5", "sphere", "sphere_r2"])
def test_analysis_inverts_synthesis_and_projects_constants_exactly(manifold):
    for cutoff in (3, 8):
        tr = sp._transform(manifold, cutoff)
        if manifold.kind == "sphere2":  # normalised Legendre l = 0..cutoff
            shape, centre = (cutoff + 1,), (0,)
        else:  # modes -cutoff..cutoff per axis
            shape, centre = (2 * cutoff + 1,) * manifold.dimension, (cutoff,) * manifold.dimension
        if cutoff == 3:
            coeffs = np.random.default_rng(7).normal(size=shape)
            assert np.abs(tr.analyze(tr.synth(coeffs)) - coeffs).max() <= 1e-14
        constant = tr.analyze(np.full(tr.shape, 0.7))
        assert constant[centre] == 0.7 * math.sqrt(manifold.volume)
        constant[centre] = 0.0
        assert not constant.any(), cutoff


def test_an_unknown_fixture_or_manifold_kind_is_refused():
    with pytest.raises(ValueError, match=r"^unknown fixture 'cone'; choose from \["):
        fx.get_fixture("cone")
    cone = sp.ManifoldSpec("cone", (1.0,), 2, 0.0, 1.0)
    with pytest.raises(ValueError, match="^unknown manifold kind 'cone'$"):
        sp.SpectralField(cone, np.ones(3), 1)


@pytest.mark.parametrize("manifold, cutoff, shape, expected", [
    (CIRCLE, 2, (5, 5), (5,)), (CIRCLE, 2, (7,), (5,)), (TORUS, 2, (5,), (5, 5)),
    (TORUS, 1, (5, 5), (3, 3)), (SPHERE, 2, (5,), (3,)), (SPHERE, 2, (3, 3), (3,))],
    ids=["circle batch", "circle cutoff", "torus row", "torus cutoff", "sphere periodic",
         "sphere batch"])
def test_mis_shaped_coefficients_are_refused(manifold, cutoff, shape, expected):
    message = (f"{manifold.kind} field of cutoff {cutoff} needs coefficients of shape "
               f"{re.escape(str(expected))}, not {re.escape(str(shape))}")
    with pytest.raises(ValueError, match=message):
        sp.SpectralField(manifold, np.ones(shape), cutoff)


@pytest.mark.parametrize("manifold", [CIRCLE, TORUS, SPHERE], ids=["circle", "torus", "sphere"])
@pytest.mark.parametrize("cutoff, shape", [(-1, (1,)), (2.5, (6,)), (2.0, (5,))])
def test_cutoff_that_is_not_a_nonnegative_integer_is_refused(manifold, cutoff, shape):
    # 2.5 would give the circle modes -2.5..2.5, which are not periodic
    coeffs = np.ones(shape if manifold.kind != "torus2" else shape * 2)
    with pytest.raises(ValueError, match=f"{manifold.kind} field cutoff must be a nonnegative "
                                         f"integer, not {cutoff!r}"):
        sp.SpectralField(manifold, coeffs, cutoff)
    misses = sp._cached_transform.cache_info().misses
    with pytest.raises(ValueError, match=f"cutoff must be a nonnegative integer, not {cutoff!r}"):
        sp.project_potential(manifold, lambda *x: np.ones_like(x[0]), cutoff)
    assert sp._cached_transform.cache_info().misses == misses  # no transform was built


@pytest.mark.parametrize("name", ["circle", "torus", "torus-drift"])
def test_complex_coefficients_are_refused(name):
    fixture = fx.get_fixture(name)
    coeffs = fixture.initial.coefficients.astype(complex)
    with pytest.raises(TypeError, match="must be real"):
        sp.SpectralField(fixture.manifold, coeffs, fixture.initial.cutoff)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_identity_at_zero():
    field = two_mode_circle()
    evolved = sp.evolve(field, 0.0)
    assert np.array_equal(evolved.coefficients, field.coefficients)


@pytest.mark.parametrize("name", ["torus", "torus-drift"])
@pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
def test_evolve_refuses_non_finite_times(name, t):
    with pytest.raises(ValueError, match="finite"):
        sp.evolve(fx.get_fixture(name).initial, t)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_trace_refuses_non_finite_times(t):
    with pytest.raises(ValueError, match="finite"):
        sp.entropy_trace(fx.get_fixture("torus").initial, [0.5, t])


def test_nan_minimum_is_not_positive():
    rows = np.array([[1.0, 2.0], [1.0, math.nan]])
    with pytest.raises(sp.PositivityError, match="minimum nan"):
        sp._require_positive(rows, sp._RESOLVED_MINIMUM)


def test_evolve_single_mode_decay():
    field = two_mode_circle()
    evolved = sp.evolve(field, 1.0)
    decay = abs(evolved.coefficients[3] / field.coefficients[3])
    assert decay == pytest.approx(math.exp(-2.0 * math.pi ** 2), rel=1e-12)
    # constant coefficient untouched for any t
    assert evolved.coefficients[2] == field.coefficients[2]


def test_evolve_semigroup_property():
    field = two_mode_circle()
    left = sp.evolve(sp.evolve(field, 0.3), 0.7)
    right = sp.evolve(field, 1.0)
    assert np.abs(left.coefficients - right.coefficients).max() < 1e-16


def test_mass_conserved_on_every_manifold():
    for builder in (fx.circle_fixture, fx.torus_fixture, fx.sphere_fixture,
                    fx.drift_fixture):
        fixture = builder()
        for t in (0.1, 1.0, 5.0):
            assert sp.mass(sp.evolve(fixture.initial, t)) == pytest.approx(
                1.0, rel=1e-12), (builder.__name__, t)


@settings(max_examples=20, deadline=None)
@given(amplitude=st.floats(0.01, 0.45), mode=st.integers(1, 3),
       t=st.floats(0.001, 1.0))
def test_entropy_sign_and_rate_sign_property(amplitude, mode, t):
    field = sp.project_initial(
        CIRCLE, lambda x: 1.0 + amplitude * np.cos(2.0 * np.pi * mode * x), 4)
    entropy, fisher = sp.entropy_and_fisher(sp.evolve(field, t))
    assert entropy <= 1e-13
    assert fisher >= 0.0


def test_evolve_accepts_drift_manifold():
    fixture = fx.drift_fixture()
    evolved = sp.evolve(fixture.initial, 0.05)
    assert evolved.manifold is fixture.manifold
    assert evolved.coefficients.shape == fixture.initial.coefficients.shape
    undrifted = sp.evolve(
        sp.SpectralField(TORUS, fixture.initial.coefficients, fixture.initial.cutoff), 0.05)
    # the drift couples modes the plain heat flow keeps apart
    assert np.abs(evolved.coefficients - undrifted.coefficients).max() > 1e-6
    with pytest.raises(ValueError):
        sp.evolve(fixture.initial, -0.1)
    # a lone constant mode is its own mu-mass, carried at rate 0: it stays put
    constant = sp.project_initial(fixture.manifold, lambda x, y: np.ones_like(x), 0)
    assert sp.evolve(constant, 1.0).coefficients == pytest.approx(constant.coefficients)


def test_evolve_drift_zero_potential_reduces_to_exact():
    potential = sp.project_potential(TORUS, lambda x, y: np.zeros_like(x), 1)
    manifold = sp.torus2_drift(potential)
    start = sp.project_initial(
        manifold, lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x), 6)
    drifted = sp.evolve(start, 0.5)
    exact = sp.evolve(sp.SpectralField(TORUS, start.coefficients, start.cutoff), 0.5)
    assert np.abs(drifted.coefficients - exact.coefficients).max() <= 1e-13


def test_evolve_drift_conserves_mu_mass():
    fixture = fx.drift_fixture()
    start_mass = sp.mass(fixture.initial)
    for t in (0.02, 0.3, 1.0, 2.0):
        evolved = sp.evolve(fixture.initial, t)
        assert abs(sp.mass(evolved) - start_mass) <= 1e-12 * abs(start_mass), t


def test_drift_semigroup_property():
    fixture = fx.drift_fixture()
    for s, t in ((0.05, 0.1), (0.3, 0.7), (1.0, 1.0)):
        left = sp.evolve(sp.evolve(fixture.initial, s), t)
        right = sp.evolve(fixture.initial, s + t)
        assert np.abs(left.coefficients - right.coefficients).max() <= 1e-12, (s, t)


def test_subnormal_coordinates_are_flushed_without_moving_a_bit():
    tiny = np.finfo(float).tiny
    field = fx.random_positive_torus_field(np.random.default_rng(1), TORUS, cutoff=6)
    times = np.linspace(0.3, 0.6, 16)  # the top modes' exp(-lambda t / 2) turn subnormal
    raw = field.coefficients * np.exp(-0.5 * sp.eigenvalues(TORUS, 6) * times[:, None, None])
    rows = sp._propagate(field, times)
    assert np.any((raw != 0.0) & (np.abs(raw) < tiny))
    assert not np.any((rows != 0.0) & (np.abs(rows) < tiny))
    tr = sp._transform(TORUS, 6)
    assert np.array_equal(tr.synth(rows), tr.synth(raw))
    drift = fx.get_fixture("torus-drift").initial
    rates, left, right = sp._operator(drift.manifold, drift.cutoff).pencil()
    times = np.geomspace(0.1, 2.0, 16)
    x = np.exp(np.outer(-times, rates)) * (right @ drift.coefficients.ravel())
    assert np.any((x != 0.0) & (np.abs(x) < tiny))
    assert np.array_equal(sp._propagate(drift, times),
                          sp._block_products(x, left.T).reshape(rows.shape))


def _quadrature_pencil(manifold, cutoff, n=128):
    """Oracle: the Gram matrix M_jk = <e_k, e_j> of the exponentials
    e_k = exp(2 pi i k . x / L) and the Dirichlet form S_jk = <grad e_k,
    grad e_j> / 2, both in mu = exp(2V) dx / its mass, by the midpoint rule
    on an n^2 grid, with V summed mode by mode."""
    lengths = manifold.lengths
    potential = manifold.drift

    def waves(modes, length):
        x = (np.arange(n) + 0.5) * (length / n)
        return np.exp(2j * np.pi * np.outer(modes, x) / length)

    band = np.arange(-potential.cutoff, potential.cutoff + 1)
    ex, ey = (waves(band, length) for length in lengths)
    v = np.real(ex.T @ _to_complex(potential.coefficients, 2) @ ey) / math.sqrt(math.prod(lengths))
    weights = np.exp(2.0 * v)
    weights /= weights.sum()

    modes = np.arange(-cutoff, cutoff + 1)
    # per axis: products of conj(e_j) and e_k, and of their derivatives
    pairs, grads = [], []
    for length in lengths:
        e = waves(modes, length)
        de = (2j * np.pi * modes / length)[:, None] * e
        pairs.append(e.conj()[:, None, :] * e[None, :, :])
        grads.append(de.conj()[:, None, :] * de[None, :, :])

    def gram(px, py):
        return np.einsum("ika,ab,jlb->ijkl", px, weights, py,
                         optimize=True).reshape(modes.size ** 2, -1)

    mass = gram(*pairs)
    stiff = 0.5 * (gram(grads[0], pairs[1]) + gram(pairs[0], grads[1]))
    return mass, stiff


@pytest.mark.parametrize("lengths, seed", [((1.0, 1.0), None), ((1.0, 1.5), 3)])
def test_drift_pencil_matches_quadrature_oracle(lengths, seed):
    base = sp.torus2(*lengths)
    if seed is None:
        potential = fx.drift_fixture().manifold.drift
    else:
        coeffs = random_torus_potential(np.random.default_rng(seed), TORUS).coefficients
        potential = sp.SpectralField(base, coeffs, 2)
    manifold = sp.torus2_drift(potential)
    rates, left, right = sp._operator(manifold, 6).pencil()
    assert left.dtype == right.dtype == float
    # the oracle's pencil in the real coefficients, whose complex layout is
    # basis @ a: the Gram matrices of real functions, e_k / sqrt(vol) each
    basis = np.kron(*[_exponentials(6).conj().T] * 2)
    mass, stiff = (basis.conj().T @ matrix @ basis / math.prod(lengths)
                   for matrix in _quadrature_pencil(manifold, 6))
    assert np.abs(mass.imag).max() <= 1e-12 * np.abs(mass).max()
    assert np.abs(stiff.imag).max() <= 1e-12 * np.abs(stiff).max()
    mass, stiff = mass.real, stiff.real
    # every column of left, the constant's included, solves S v = lambda M v
    residual = stiff @ left - (mass @ left) * rates
    scale = np.abs(stiff @ left).max(axis=0) + rates * np.abs(mass @ left).max(axis=0)
    assert np.all(np.abs(residual).max(axis=0) <= 1e-12 * np.maximum(scale, 1.0))
    assert rates[0] == 0.0 and np.all(rates[1:] > 0.0)
    # M-orthogonal columns, M-normal but the constant's, the basis function
    # 1 / sqrt(vol) of mu-mass 1 / vol; and right is their inverse
    eye = np.eye(len(rates))
    norms = eye.copy()
    norms[0, 0] = 1.0 / math.prod(lengths)
    assert np.abs(left.T @ mass @ left - norms).max() <= 1e-12
    assert np.abs(right @ left - eye).max() <= 1e-12


def _exponential_drift_propagator(manifold, cutoff):
    """Reference: the drift propagator on the complex exponentials, their
    Hermitian pencil M_jk = w^(j - k), S = (k_j . k_k / 2) M with the
    constant deflated and two complex ``eigh``; (rates, left, right) with
    exp(tL) c = left (e^{-rates t} * right c) on the complex layout."""
    lengths = manifold.lengths
    modes = np.arange(-cutoff, cutoff + 1)
    m = np.stack([axis.ravel() for axis in np.meshgrid(modes, modes, indexing="ij")])
    w_hat = np.fft.fftn(sp._operator(manifold, cutoff).weights)
    mass = w_hat[tuple((m[:, :, np.newaxis] - m[:, np.newaxis, :]) % w_hat.shape[0])]
    size = m.shape[1]
    zero = size // 2
    rest = np.arange(size) != zero
    k = 2.0 * math.pi * m[:, rest] / np.array(lengths)[:, np.newaxis]
    beta = mass[zero, rest] / mass[zero, zero]
    d, u = np.linalg.eigh(mass[np.ix_(rest, rest)] - np.outer(mass[rest, zero], beta))
    g = u / np.sqrt(d)
    lam, q = np.linalg.eigh(g.conj().T @ (0.5 * (k.T @ k) * mass[np.ix_(rest, rest)]) @ g)
    rates = np.concatenate([[0.0], lam])
    left = np.zeros((size, size), dtype=complex)
    right = np.zeros((size, size), dtype=complex)
    left[zero, 0] = right[0, zero] = 1.0
    left[rest, 1:] = g @ q
    left[zero, 1:] = -beta @ left[rest, 1:]
    right[0, rest] = beta
    right[1:, rest] = ((u * np.sqrt(d)) @ q).conj().T
    return rates, left, right


def _drift_cases():
    yield "fixture", fx.drift_fixture().initial
    for seed in range(10):
        rng = np.random.default_rng(seed)
        manifold = sp.torus2_drift(random_torus_potential(rng, TORUS))
        data = fx.random_positive_torus_field(rng, TORUS, cutoff=2)
        for cutoff in (4, 6):
            coeffs = np.zeros((2 * cutoff + 1,) * 2)
            coeffs[cutoff - 2:cutoff + 3, cutoff - 2:cutoff + 3] = data.coefficients
            yield f"seed {seed}, cutoff {cutoff}", sp.SpectralField(manifold, coeffs, cutoff)


def test_real_drift_propagator_matches_the_exponential_pencil():
    # Entropy within 1e-15 max(1, |S|) on the drift fixture.  On the random
    # fields each double-precision path is itself up to about 1.8e-15
    # max(1, |S|) off a 40-digit propagation of the same pencil, so the two
    # differ by up to 3.4e-15 there, and the bound is 5e-15.
    times = np.geomspace(0.02, 2.0, 8)
    for case, field in _drift_cases():
        rates, left, right = _exponential_drift_propagator(field.manifold, field.cutoff)
        c0 = _to_complex(field.coefficients, 2).ravel()
        rows = (np.exp(np.outer(-times, rates)) * (right @ c0)) @ left.T
        expected = np.array([sp.entropy_and_fisher(sp.SpectralField(
            field.manifold, _to_real(row.reshape(field.coefficients.shape), 2), field.cutoff))
            for row in rows]).T
        trace = sp.entropy_trace(field, times)
        entropy_error = np.abs(trace.entropy - expected[0]) / np.maximum(1.0, np.abs(expected[0]))
        assert entropy_error.max() <= (1e-15 if case == "fixture" else 5e-15), case
        assert np.abs(trace.fisher / expected[1] - 1.0).max() <= 1e-11, case


def _sin_cos_start(amplitude, cutoff):
    """1 + cos(2 pi x) / 5 at this cutoff, drifted by amplitude sin(2 pi x) cos(2 pi y)."""
    potential = sp.project_potential(
        TORUS, lambda x, y: amplitude * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y), 1)
    return sp.project_initial(sp.torus2_drift(potential),
                              lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x), cutoff)


def test_ill_conditioned_drift_mass_is_refused():
    # cond(M') at field cutoff 6 is about 7e7 for amplitude 5 and 1.5e9 for 6
    accepted = _sin_cos_start(5.0, 6)
    assert np.isfinite(sp.entropy_and_fisher(sp.evolve(accepted, 0.05))[1])
    refused = _sin_cos_start(6.0, 6)
    with pytest.raises(sp.PropagatorError, match="condition .* above 1e\\+08"):
        sp.evolve(refused, 0.05)
    with pytest.raises(sp.PropagatorError, match="condition"):
        sp.entropy_trace(refused, [0.05, 0.1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cutoff", [1, 3])
def test_overflowing_drift_weights_are_refused(cutoff):
    # exp(2V) overflows, so the pencil is NaN; eigh then fails (here at
    # cutoff 1) or returns NaN (cutoff 3), and either way it is refused
    with pytest.raises(sp.PropagatorError):
        sp.evolve(_sin_cos_start(400.0, cutoff), 0.05)


def test_drift_fisher_converges_in_cutoff():
    # the Galerkin projection in L^2(mu) resolves this drift at field cutoff 6
    # to 1e-4 of the cutoff-16 value; one in plain L^2 misses it by 1.5%
    fisher = {cutoff: sp.entropy_and_fisher(sp.evolve(_sin_cos_start(3.0, cutoff), 0.05))[1]
              for cutoff in (6, 16)}
    assert fisher[6] == pytest.approx(fisher[16], rel=1e-3)


def test_drift_propagator_shared_across_fixture_rebuilds():
    # three separate builds (each reads its weights from the operator record),
    # and the fields' shared modal coordinates cached before the count, so
    # that each evolve looks the record up once
    fields = [fx.drift_fixture().initial for _ in range(3)]
    sp.evolve(fields[0], 0.5)
    sp._operator.cache_clear()
    for field in fields:
        sp.evolve(field, 0.5)
    info = sp._operator.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# ---------------------------------------------------------------------------
# a drifted field's modal coordinates, built once per content


def test_modal_coordinates_follow_in_place_changes():
    fixture = fx.drift_fixture()
    field = sp.SpectralField(fixture.manifold, fixture.initial.coefficients.copy(),
                             fixture.initial.cutoff)
    before = sp.evolve(field, 0.3).coefficients
    field.coefficients[...] *= 1.5
    after = sp.evolve(field, 0.3).coefficients
    sp._modal_coordinates.cache_clear()
    fresh = sp.evolve(field, 0.3).coefficients
    assert after.tobytes() == fresh.tobytes()
    assert after.tobytes() != before.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        sp._modal_coordinates(field)[0] = 0.0


def test_equal_fields_share_one_modal_entry():
    sp._modal_coordinates.cache_clear()
    traces = []
    for _ in range(3):
        field = fx.drift_fixture().initial  # a separate build with equal contents
        traces.append(sp.entropy_trace(field, [0.1, 1.0]))
    info = sp._modal_coordinates.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for trace in traces[1:]:
        for column in ("entropy", "fisher", "rate_fd"):
            assert getattr(trace, column).tobytes() == getattr(traces[0], column).tobytes()


def test_modal_cache_is_bounded():
    size = sp._modal_coordinates.cache_info().maxsize
    assert size is not None
    sp._modal_coordinates.cache_clear()
    manifold = fx.drift_fixture().manifold
    for seed in range(size + 3):
        data = fx.random_positive_torus_field(np.random.default_rng(seed), TORUS)
        sp.evolve(sp.SpectralField(manifold, data.coefficients, data.cutoff), 0.1)
    info = sp._modal_coordinates.cache_info()
    assert (info.misses, info.currsize) == (size + 3, size)


# The weights alone (a drifted field's mass, its lone functionals, the drift
# bound's constants) decompose no pencil; the first propagation does, once.
def test_drift_weights_alone_build_no_pencil():
    fixture = fx.drift_fixture()
    sp._operator.cache_clear()
    sp.mass(fixture.initial)
    bd.bound_table(fixture.initial, [0.1, 1.0])
    operator = sp._operator(fixture.manifold, fixture.initial.cutoff)
    assert operator.pencil.cache_info().currsize == 0
    sp.evolve(fixture.initial, 0.1)
    sp.entropy_trace(fixture.initial, [0.1, 0.2])
    assert operator.pencil.cache_info().misses == 1
    assert sp._operator(fixture.manifold, fixture.initial.cutoff) is operator


# A warm drifted request re-derives nothing: a second trace and bound check
# of the same field, at other times, misses no cache of either layer.
def test_warm_drift_request_misses_no_cache():
    fixture = fx.get_fixture("torus-drift")

    def request(times):
        trace = sp.entropy_trace(fixture.initial, times)
        bd.check_bounds(trace, fixture.manifold, fixture.initial)

    caches = {f"{module.__name__}.{name}": value for module in (sp, bd)
              for name, value in vars(module).items() if hasattr(value, "cache_info")}
    assert {"heatent.spectral._operator", "heatent.spectral._modal_coordinates",
            "heatent.spectral._cached_transform", "heatent.bounds._initial_constants"} <= set(caches)
    request(np.geomspace(0.02, 0.2, 5))
    before = {name: cache.cache_info() for name, cache in caches.items()}
    request(np.linspace(0.3, 1.7, 7))
    after = {name: cache.cache_info() for name, cache in caches.items()}
    assert {name: info.misses for name, info in after.items()} == \
           {name: info.misses for name, info in before.items()}
    for name in ("_operator", "_modal_coordinates"):
        assert after[f"heatent.spectral.{name}"].hits > before[f"heatent.spectral.{name}"].hits


def test_evolve_drift_positivity_guard():
    # a sign-indefinite "density" slipped past projection must be caught at
    # the end of the drifted evolution, not returned as negative data
    fixture = fx.drift_fixture()
    manifold = fixture.manifold
    tr_coeffs = sp.project_potential(
        sp.torus2(1.0, 1.0), lambda x, y: 1.0 + 1.5 * np.cos(2.0 * np.pi * x), 6)
    bad = sp.SpectralField(manifold, tr_coeffs.coefficients, tr_coeffs.cutoff)
    with pytest.raises(sp.PositivityError, match="drifted evolution lost positivity"):
        sp.evolve(bad, 0.01)
    with pytest.raises(sp.PositivityError, match="drifted evolution lost positivity"):
        sp.entropy_trace(bad, [0.01, 0.02])


def test_evolve_drift_entropy_nondecreasing():
    fixture = fx.drift_fixture()
    trace = sp.entropy_trace(fixture.initial, np.geomspace(0.05, 1.0, 5))
    assert np.all(np.diff(trace.entropy) > -1e-14)


# ---------------------------------------------------------------------------
# entropy and Fisher information


def test_constant_field_equality_case():
    field = sp.project_initial(CIRCLE, lambda x: np.ones_like(x), 2)
    entropy, fisher = sp.entropy_and_fisher(field)
    assert entropy == pytest.approx(0.0, abs=1e-14)
    assert fisher == pytest.approx(0.0, abs=1e-14)


def test_circle_fisher_against_brute_force_oracle():
    field = two_mode_circle()
    _, fisher = sp.entropy_and_fisher(field)
    assert fisher == pytest.approx(CIRCLE_Q0, rel=1e-12)
    # the brute-force oracle itself, midpoint rule on a 10^6-point grid
    n = 10 ** 6
    x = (np.arange(n) + 0.5) / n
    u = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    du = -np.pi * np.sin(2.0 * np.pi * x)
    assert float(np.mean(du * du / u)) == pytest.approx(CIRCLE_Q0, rel=1e-10)


def test_sphere_fisher_against_oracle():
    fixture = fx.sphere_fixture()
    _, fisher = sp.entropy_and_fisher(fixture.initial)
    assert fisher == pytest.approx(SPHERE_Q0, rel=1e-12)


def test_entropy_nonpositive_on_unit_volume():
    field = two_mode_circle()
    for t in (0.0, 0.05, 0.5):
        entropy, _ = sp.entropy_and_fisher(sp.evolve(field, t))
        assert entropy <= 1e-14


def test_positivity_guard():
    bad = sp.SpectralField(CIRCLE, np.array([0.0, 0.6, 1.0, 0.6, 0.0]), 2)
    with pytest.raises(sp.PositivityError, match="resolved field has minimum"):
        sp.entropy_and_fisher(bad)
    with pytest.raises(sp.PositivityError, match="resolved field has minimum"):
        sp.entropy_trace(bad, [0.001, 0.002])


# ---------------------------------------------------------------------------
# traces


def test_trace_constant_datum():
    field = sp.project_initial(TORUS, lambda x, y: np.ones_like(x), 1)
    trace = sp.entropy_trace(field, [0.1, 0.5])
    assert np.abs(trace.rate_direct).max() < 1e-14
    assert np.abs(trace.fisher).max() < 1e-14


def test_trace_fisher_is_twice_rate():
    field = two_mode_circle()
    trace = sp.entropy_trace(field, np.geomspace(0.01, 0.3, 5))
    assert np.allclose(trace.fisher, 2.0 * trace.rate_direct, rtol=0.0, atol=0.0)


def test_trace_rate_consistency():
    field = two_mode_circle()
    trace = sp.entropy_trace(field, np.geomspace(0.01, 0.4, 8))
    rel = np.abs(trace.rate_direct - trace.rate_fd) / trace.rate_direct
    assert rel.max() <= 1e-6


def test_trace_entropy_monotone():
    for builder in (fx.circle_fixture, fx.torus_fixture, fx.sphere_fixture):
        fixture = builder()
        trace = sp.entropy_trace(fixture.initial, fixture.default_times)
        assert np.all(np.diff(trace.entropy) > -1e-13), builder.__name__


def test_trace_small_amplitude_linearization():
    field = sp.project_initial(
        CIRCLE, lambda x: 1.0 + 0.01 * np.cos(2.0 * np.pi * x), 2)
    _, q0 = sp.entropy_and_fisher(field)
    t = 0.05
    trace = sp.entropy_trace(field, [t])
    predicted = q0 * math.exp(-(2.0 * math.pi) ** 2 * t)
    assert trace.fisher[0] == pytest.approx(predicted, rel=0.01)


def test_trace_validates_grid():
    field = two_mode_circle()
    with pytest.raises(ValueError):
        sp.entropy_trace(field, [0.5, 0.2])
    with pytest.raises(ValueError):
        sp.entropy_trace(field, [0.0, 0.1])
    with pytest.raises(ValueError):
        sp.entropy_trace(fx.drift_fixture().initial, [0.2, 0.1])


# A grid of another dimension raises TypeError, and an empty, unsorted,
# repeating, non-positive or non-finite one ValueError.
@pytest.mark.parametrize("times, error", [
    (0.5, TypeError), (np.array(0.5), TypeError), ([[0.1, 0.2]], TypeError),
    (np.array([[0.1], [0.2]]), TypeError), ([], ValueError), (np.zeros((0, 3)), ValueError),
    ([0.2, 0.1], ValueError), ([0.1, 0.1], ValueError), ([-0.1, 0.2], ValueError),
    ([0.0, 0.1], ValueError), ([-math.inf, 0.1], ValueError), ([math.nan], ValueError),
    ([0.1, math.nan, 0.3], ValueError), ([math.nan, 0.2], ValueError), ([0.1, math.inf], ValueError),
    ([math.inf], ValueError)])
@pytest.mark.parametrize("name", ["torus", "torus-drift"])
def test_trace_refusals_keep_their_exception_types(name, times, error):
    with pytest.raises(error):
        sp.entropy_trace(fx.get_fixture(name).initial, times)


def test_trace_accepts_any_strictly_increasing_sequence_of_numbers():
    field = fx.get_fixture("torus").initial
    expected = sp.entropy_trace(field, np.array([0.1, 0.25]))
    for times in ([0.1, 0.25], (0.1, 0.25), ["0.1", "0.25"], np.array([0.1, 0.25], np.float32)):
        trace = sp.entropy_trace(field, times)
        assert trace.times.dtype == float and trace.times.ndim == 1
        if not isinstance(times, np.ndarray):
            assert trace.entropy.tobytes() == expected.entropy.tobytes()


# Every row is synthesised by its own products and drifted rows are
# propagated in blocks of one shape, so a trace row is bit-identical to the
# lone field's functionals on every geometry.
@pytest.mark.parametrize("name", ["circle", "torus", "sphere", "torus-drift"])
def test_trace_rows_equal_single_time_functionals(name):
    fixture = fx.get_fixture(name)
    times = fixture.default_times
    trace = sp.entropy_trace(fixture.initial, times)

    def functionals(grid):
        return np.array([sp.entropy_and_fisher(sp.evolve(fixture.initial, t))
                         for t in grid]).T

    entropy, fisher = functionals(times)
    assert np.array_equal(trace.entropy, entropy), (trace.entropy, entropy)
    assert np.array_equal(trace.fisher, fisher), (trace.fisher, fisher)
    assert np.array_equal(trace.rate_direct, 0.5 * trace.fisher)
    h = 1e-4 * times
    rate_fd = (functionals(times + h)[0] - functionals(times - h)[0]) / (2.0 * h)
    assert np.array_equal(trace.rate_fd, rate_fd)


# Drifted rows are propagated in blocks of one fixed shape, so each equals
# the lone evolve bit for bit whatever the BLAS thread count; the test above
# asserts the same under the suite's own thread count, this one at 1 and 2
# threads.
_DRIFT_ROWS_CHECK = """
import numpy as np
from heatent import fixtures as fx, spectral as sp

fixture = fx.drift_fixture()
times = fixture.default_times
trace = sp.entropy_trace(fixture.initial, times)

def functionals(grid):
    return np.array([sp.entropy_and_fisher(sp.evolve(fixture.initial, t)) for t in grid]).T

entropy, fisher = functionals(times)
h = 1e-4 * times
rate_fd = (functionals(times + h)[0] - functionals(times - h)[0]) / (2.0 * h)
assert np.array_equal(trace.entropy, entropy), (trace.entropy, entropy)
assert np.array_equal(trace.fisher, fisher), (trace.fisher, fisher)
assert np.array_equal(trace.rate_fd, rate_fd), (trace.rate_fd, rate_fd)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_drift_trace_rows_equal_single_time_functionals_at_any_thread_count(threads):
    proc = run_python("-c", _DRIFT_ROWS_CHECK, OPENBLAS_NUM_THREADS=threads)
    assert proc.returncode == 0, proc.stderr


# The drift pencil is built at one BLAS thread, so drifted output has the
# same bytes at every thread count: the evolve command on the drift fixture
# and a seeded random potential's trace, here at 1 and 2 threads and with the
# variable unset.  The count the pin found is restored after the build.
_DRIFT_BYTES = r"""
import contextlib, hashlib, io
import numpy as np
from heatent import cli, fixtures as fx, spectral as sp

count = sp._blas_thread_count()
before = count and count[0]()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["evolve", "--manifold", "torus-drift", "--t-start", "0.01",
                     "--t-stop", "14", "--t-count", "40"]) == 0
rng = np.random.default_rng(20261021)
torus = sp.torus2(1.0, 1.0)
potential = sp.random_torus_fields(rng, torus, [False], 2, [0.3])[0]
data = fx.random_positive_torus_field(rng, torus, 6)
field = sp.SpectralField(sp.torus2_drift(potential), data.coefficients, 6)
trace = sp.entropy_trace(field, np.geomspace(0.02, 2.0, 9))
assert (count and count[0]()) == before
digest = hashlib.sha256(out.getvalue().encode())
for column in (trace.entropy, trace.fisher, trace.rate_direct, trace.rate_fd):
    digest.update(column.tobytes())
print(digest.hexdigest())
"""


def test_drifted_output_has_the_same_bytes_at_every_blas_thread_count():
    runs = [run_python("-c", _DRIFT_BYTES, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2", None)]
    assert [proc.returncode for proc in runs] == [0, 0, 0], [proc.stderr for proc in runs]
    assert len({proc.stdout for proc in runs}) == 1


def test_the_pencil_pins_one_blas_thread_and_restores_the_count(monkeypatch):
    # the pencil build sets one thread and then the count it found; with no
    # setter it builds as it is
    field = fx.drift_fixture().initial
    weights = sp._operator(field.manifold, field.cutoff).weights
    calls = []
    monkeypatch.setattr(sp, "_blas_thread_count", lambda: (lambda: 3, calls.append))
    pinned = sp._drift_pencil(field.manifold, field.cutoff, weights)
    assert calls == [1, 3]
    monkeypatch.setattr(sp, "_blas_thread_count", lambda: None)
    unpinned = sp._drift_pencil(field.manifold, field.cutoff, weights)
    assert [a.shape for a in pinned] == [a.shape for a in unpinned]


# Threads building drift pencils at once, more than a two-core host has
# cores, each get the serial bits, and the BLAS thread count they all pinned
# is restored: a pin and restore not under one lock can restore a count that
# another thread pinned.
_CONCURRENT_PENCILS = r"""
import concurrent.futures, sys, threading
from heatent import fixtures as fx, spectral as sp

if sp._blas_thread_count() is None:
    print("no setter")
    sys.exit(0)
get = sp._blas_thread_count()[0]
before = get()
field = fx.drift_fixture().initial
weights = sp._operator(field.manifold, field.cutoff).weights

def build():
    return [a.tobytes() for a in sp._drift_pencil(field.manifold, field.cutoff, weights)]

serial = build()
start = threading.Barrier(4)

def builds():
    start.wait(timeout=60)
    return [build() for _ in range(3)]

sys.setswitchinterval(1e-6)
with concurrent.futures.ThreadPoolExecutor(4) as pool:
    runs = [future.result(timeout=120) for future in [pool.submit(builds) for _ in range(4)]]
assert all(run == serial for thread in runs for run in thread)
assert get() == before == 2, (get(), before)
"""


def test_concurrent_pencil_builds_restore_the_blas_thread_count():
    proc = run_python("-c", _CONCURRENT_PENCILS, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "no setter\n":
        pytest.skip("numpy's BLAS exports no thread-count setter")


# A row's bits in a block product depend neither on its place in the block
# nor on the rows beside it or the batch's length, and a lone evolve equals
# its row of a 24-row (8-time) trace batch.  Rows span magnitudes 1e-300 to
# 1e30, flushed of subnormals as ``_propagate`` flushes them.
_BLOCK_PRODUCT_CHECK = """
import sys
import numpy as np
from heatent import fixtures as fx, spectral as sp

field = fx.drift_fixture().initial
table = sp._operator(field.manifold, field.cutoff).pencil()[1].T
rng = np.random.default_rng(5)

def random_rows(count):
    rows = rng.standard_normal((count, len(table))) * 10.0 ** rng.uniform(-300, 30, (count, len(table)))
    rows[np.abs(rows) < sys.float_info.min] = 0.0
    return rows

for _ in range(25):
    row = random_rows(1)[0]
    alone = sp._block_products(row[np.newaxis], table)[0]
    for position in range(8):
        batch = random_rows(int(rng.integers(position + 1, 25)))
        batch[position] = row
        assert np.array_equal(sp._block_products(batch, table)[position], alone), position

times = np.geomspace(0.02, 2.0, 24)
for t, row in zip(times, sp._propagate(field, times)):
    assert np.array_equal(sp.evolve(field, t).coefficients, row), t
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_block_product_rows_do_not_depend_on_their_batch(threads):
    proc = run_python("-c", _BLOCK_PRODUCT_CHECK, OPENBLAS_NUM_THREADS=threads)
    assert proc.returncode == 0, proc.stderr


def chunk_rows(monkeypatch) -> list:
    """A list that records the row count of every chunk the row functionals
    synthesise (one ``values_and_gradients`` call each) from now on."""
    rows_per_chunk = []
    original = sp._Transform.values_and_gradients

    def counted(self, rows, every, out=None):
        rows_per_chunk.append(len(rows))
        return original(self, rows, every, out)

    monkeypatch.setattr(sp._Transform, "values_and_gradients", counted)
    return rows_per_chunk


# One chunk per time, three times per chunk (the last chunk one time) and a
# single chunk all give the same bits.
@pytest.mark.parametrize("name", ["circle", "torus", "sphere", "torus-drift"])
def test_trace_chunking_leaves_rows_unchanged(name, monkeypatch):
    fixture = fx.get_fixture(name)
    times = np.linspace(fixture.default_times[0], fixture.default_times[-1], 16)
    monkeypatch.setattr(sp, "_CHUNK_POINTS", 10 ** 9)
    whole = sp.entropy_trace(fixture.initial, times)
    # a time's group: 3 rows of values, their log buffer, one gradient per axis
    weights = sp._operator(fixture.manifold, fixture.initial.cutoff).weights
    for points, chunks in ((1, [3] * 16), (3 * (6 + weights.ndim) * weights.size, [9] * 5 + [3])):
        monkeypatch.setattr(sp, "_CHUNK_POINTS", points)
        rows_per_chunk = chunk_rows(monkeypatch)
        chunked = sp.entropy_trace(fixture.initial, times)
        monkeypatch.undo()
        assert rows_per_chunk == chunks
        for column in ("entropy", "fisher", "rate_fd"):
            assert np.array_equal(getattr(chunked, column), getattr(whole, column)), column


# A drift-evolve window (at most 8 times) and the torus fixture's 12 default
# times are one chunk each; 16 times on the c = 6 torus, whose grid is the
# drift fixture's, are two.
@pytest.mark.parametrize("case", ["drift window", "torus defaults", "c = 6 torus"])
def test_trace_chunk_count(case, monkeypatch):
    if case == "drift window":
        field = fx.get_fixture("torus-drift").initial
        times, chunks = np.geomspace(0.02, 2.0, 8), [24]
    elif case == "torus defaults":
        fixture = fx.get_fixture("torus")
        field, times, chunks = fixture.initial, fixture.default_times, [36]
    else:
        field = fx.random_positive_torus_field(np.random.default_rng(2), TORUS, cutoff=6)
        times, chunks = np.geomspace(0.01, 2.0, 16), [24, 24]
    rows_per_chunk = chunk_rows(monkeypatch)
    sp.entropy_trace(field, times)
    assert rows_per_chunk == chunks


# Per time, the t row synthesises its values and one gradient component per
# grid axis; the t +- h rows, which feed rate_fd alone, synthesise values only.
# A field counts once per order it is synthesised in, by ``synth`` or by
# ``derivatives`` (whose one-axis case calls ``synth``, counted there alone).
@pytest.mark.parametrize("name, per_time", [("circle", {"fields": 4}), ("torus", {"fields": 5}),
                                            ("torus-drift", {"fields": 5}),
                                            ("sphere", {"fields": 4})])
def test_neighbour_rows_synthesise_no_gradient(name, per_time, monkeypatch):
    fixture = fx.get_fixture(name)
    field = fixture.initial
    times = fixture.default_times
    sp.entropy_trace(field, times)  # fills the caches outside the count
    counts = collections.Counter()
    synth, derivatives = sp._Transform.synth, sp._Transform.derivatives
    inside = []  # set while a derivatives call runs

    def counted_synth(self, coeffs, *order, out=None):
        if not inside:
            counts["fields"] += coeffs.size // field.coefficients.size
        return synth(self, coeffs, *order, out=out)

    def counted_derivatives(self, coeffs, *orders, out=None):
        counts["fields"] += len(orders) * (coeffs.size // field.coefficients.size)
        inside.append(True)
        try:
            return derivatives(self, coeffs, *orders, out=out)
        finally:
            inside.pop()

    monkeypatch.setattr(sp._Transform, "synth", counted_synth)
    monkeypatch.setattr(sp._Transform, "derivatives", counted_derivatives)
    sp.entropy_trace(field, times)
    assert counts == {key: n * len(times) for key, n in per_time.items()}


def test_trace_peak_memory_is_bounded_by_chunking():
    field = fx.random_positive_torus_field(np.random.default_rng(2), TORUS, cutoff=6)
    times = np.geomspace(0.01, 2.0, 16)
    sp.entropy_trace(field, times)  # builds the transform outside the measurement
    tracemalloc.start()
    try:
        sp.entropy_trace(field, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


# A whole drift-evolve window is one chunk, under the same bound.
def test_drift_window_peak_memory_is_bounded():
    field = fx.get_fixture("torus-drift").initial
    times = np.geomspace(0.02, 2.0, 8)
    sp.entropy_trace(field, times)  # builds the propagator outside the measurement
    tracemalloc.start()
    try:
        sp.entropy_trace(field, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


TRACE_COLUMNS = ("entropy", "rate_direct", "rate_fd", "fisher")


# Each thread works its chunks in its own kept buffer: threads tracing
# different torus fields at once, more threads than a two-core host has cores,
# get the bits of serial runs.
def test_concurrent_traces_match_serial_runs():
    fields = [fx.random_positive_torus_field(np.random.default_rng(seed), TORUS, cutoff=cutoff)
              for seed, cutoff in ((3, 2), (4, 6), (5, 3), (6, 5))]
    times = np.geomspace(0.01, 2.0, 16)
    serial = [sp.entropy_trace(field, times) for field in fields]
    start = threading.Barrier(len(fields))

    def traces(field):
        start.wait(timeout=60)
        return [sp.entropy_trace(field, times) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(fields)) as pool:
            futures = [pool.submit(traces, field) for field in fields]
            runs = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for alone, concurrent_runs in zip(serial, runs):
        for trace in concurrent_runs:
            for column in TRACE_COLUMNS:
                assert np.array_equal(getattr(trace, column), getattr(alone, column)), column


# The buffer a thread keeps holds at most the chunk budget, max(_CHUNK_POINTS,
# one group) floats; a warm trace reuses it, and a chunk past _CHUNK_POINTS
# (one group of the c = 20 torus) is served by a buffer that is not kept.
def test_kept_chunk_buffer_stays_within_the_chunk_budget():
    def traces():
        kept = None
        for cutoff in range(2, 7):
            field = fx.random_positive_torus_field(np.random.default_rng(cutoff), TORUS,
                                                   cutoff=cutoff)
            group = (2 * 3 + 2) * sp._grid_size(cutoff) ** 2
            for count in (2, 5, 12, 24):
                times = np.geomspace(0.01, 2.0, count)
                sp.entropy_trace(field, times)
                kept = sp._per_thread.buffer
                assert kept.size <= max(sp._CHUNK_POINTS, group), (cutoff, count, kept.size)
                sp.entropy_trace(field, times)
                assert sp._per_thread.buffer is kept
        wide = fx.random_positive_torus_field(np.random.default_rng(20), TORUS, cutoff=20)
        assert (2 * 3 + 2) * sp._grid_size(20) ** 2 > sp._CHUNK_POINTS
        sp.entropy_trace(wide, [0.1])
        return kept.size, sp._per_thread.buffer is kept

    # the largest chunk is 8 times of the c = 6 torus: u of its 24 rows and
    # their log buffer, which reuses the gradients' place, 110,592 floats (0.88 MB)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:  # a thread that kept nothing yet
        assert pool.submit(traces).result() == (2 * 24 * 2_304, True)


def test_transforms_built_once_per_content_key():
    plain = sp._transform(sp.torus2(1.0, 1.0), 2)
    assert sp._transform(sp.torus2(1.0, 1.0), 2) is plain
    assert sp._transform(fx.drift_fixture().manifold, 2) is plain
    assert sp._transform(sp.torus2(1.0, 1.5), 2) is not plain
    assert sp._transform(sp.torus2(1.0, 1.0), 2, 64) is not plain

    def use_every_fixture():
        for name in fx.FIXTURE_BUILDERS:
            fixture = fx.get_fixture(name)
            trace = sp.entropy_trace(fixture.initial, fixture.default_times)
            bd.check_bounds(trace, fixture.manifold, fixture.initial)

    # a warm trace reads its transform from its operator record: the second
    # use builds no transform and no record, and is served by the records
    use_every_fixture()
    before = [cache.cache_info() for cache in (sp._cached_transform, sp._operator)]
    use_every_fixture()
    after = [cache.cache_info() for cache in (sp._cached_transform, sp._operator)]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert after[1].hits > before[1].hits


def test_warm_drift_trace_calls_no_fft(monkeypatch):
    fixture = fx.get_fixture("torus-drift")
    times = np.linspace(fixture.default_times[0], fixture.default_times[-1], 16)
    sp.entropy_trace(fixture.initial, times)  # fills the caches outside the count
    calls = collections.Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("irfftn", "ifftn", "irfft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    weight_misses = sp._operator.cache_info().misses
    sp.entropy_trace(fixture.initial, times)
    assert calls == {}
    assert sp._operator.cache_info().misses == weight_misses


@pytest.mark.parametrize("name", list(fx.FIXTURE_BUILDERS))
def test_fixtures_are_built_once_with_read_only_arrays(name):
    fixture = fx.get_fixture(name)
    assert fx.get_fixture(name) is fixture
    potential = fixture.manifold.drift
    arrays = [fixture.default_times, fixture.rate_check_times, fixture.initial.coefficients,
              *(() if potential is None else (potential.coefficients,))]
    assert len(arrays) == (4 if name == "torus-drift" else 3)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    # a builder called directly still builds afresh
    assert fx.FIXTURE_BUILDERS[name]() is not fixture


@pytest.mark.parametrize("manifold", [CIRCLE, TORUS, SPHERE], ids=["circle", "torus", "sphere"])
def test_cached_transform_arrays_are_read_only(manifold):
    tr = sp._transform(manifold, 3)
    arrays = [a for value in vars(tr).values()
              for a in (value if isinstance(value, tuple) else (value,))
              if isinstance(a, np.ndarray)]
    # the tables of the first axis (two-axis torus only) and transposed of the
    # last (periodic: T, T' and T''; sphere: T and T'), the grid axes (one per
    # periodic side; the sphere's theta), the eigenvalues, the volume-measure
    # weights, and the sphere's pole table
    assert len(arrays) == {"circle": 6, "torus2": 10, "sphere2": 6}[manifold.kind]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


@pytest.mark.parametrize("manifold", [CIRCLE, TORUS, SPHERE, sp.torus2(1.0, 2.5)],
                         ids=["circle", "torus", "sphere", "non-square torus"])
def test_eigenvalues_are_built_once_read_only(manifold):
    for cutoff in (1, 3):
        lam = sp.eigenvalues(manifold, cutoff)
        assert sp.eigenvalues(manifold, cutoff) is lam
        with pytest.raises(ValueError, match="read-only"):
            lam.flat[0] = 1.0


# ---------------------------------------------------------------------------
# pointwise identities


def _bochner_relative(field, potential=None):
    """residual / scale of the one pair's row, as verify reads it."""
    residual, scale = sp.bochner_residuals([(field, potential)])[0]
    return residual / scale


def test_bochner_constant_field():
    field = sp.project_initial(TORUS, lambda x, y: np.ones_like(x), 1)
    residual, _ = sp.bochner_residuals([(field, None)])[0]
    assert residual == pytest.approx(0.0, abs=1e-14)


def test_bochner_product_mode_no_drift():
    field = sp.project_initial(
        TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y), 2)
    assert _bochner_relative(field) <= 1e-8


def test_bochner_with_cross_variable_drift():
    field = sp.project_initial(TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)
    potential = sp.project_potential(TORUS, lambda x, y: 0.3 * np.sin(2.0 * np.pi * y), 2)
    assert _bochner_relative(field, potential) <= 1e-8


def test_bochner_drift_term_materially_nonzero():
    # same-variable pair: grad V is parallel to grad w, so the connection
    # term Hess V(grad w, grad w) genuinely enters both sides
    field = sp.project_initial(TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)
    potential = sp.project_potential(TORUS, lambda x, y: 0.3 * np.sin(2.0 * np.pi * x), 2)
    assert _bochner_relative(field, potential) <= 1e-8
    tr = sp._transform(TORUS, 2, 32)
    (wx,) = tr.derivatives(field.coefficients, (0,))
    (vxx,) = tr.derivatives(potential.coefficients, (0, 0))
    assert np.abs(vxx * wx * wx).max() > 0.1


def test_bochner_random_fields():
    rng = np.random.default_rng(11)
    for trial in range(5):
        w = fx.random_positive_torus_field(rng, TORUS)
        potential = None if trial == 0 else random_torus_potential(rng, TORUS)
        assert _bochner_relative(w, potential) <= 1e-8


@pytest.mark.parametrize("other", [sp.circle(1.0), sp.torus2(1.0, 2.0), sp.torus2(1.0, 1.5)],
                         ids=["circle", "torus2_1x2", "torus2_1x1.5"])
def test_bochner_rejects_potential_from_another_manifold(other):
    field = sp.project_initial(TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)
    potential = sp.project_potential(
        other, lambda x, *rest: 0.3 * np.sin(2.0 * np.pi * x), 2)
    with pytest.raises(ValueError, match="potential must live on"):
        sp.bochner_residuals([(field, potential)])


def test_bochner_accepts_potential_on_an_equal_torus():
    field = _equal_torus_field(sp.torus2(1.0, 1.0))
    shared, apart = (sp.bochner_residuals([(field, sp.project_potential(
                         torus, lambda x, y: 0.3 * np.sin(2.0 * np.pi * x), 2))]).tobytes()
                     for torus in (field.manifold, sp.torus2(1.0, 1.0)))
    assert apart == shared


def test_bochner_rejects_other_manifolds():
    field = two_mode_circle()
    with pytest.raises(ValueError):
        sp.bochner_residuals([(field, None)])


def test_hessian_trace_inequality_random_fields():
    rng = np.random.default_rng(5)
    for _ in range(6):
        w = fx.random_positive_torus_field(rng, TORUS)
        gap, scale = sp.hessian_trace_gaps([w])[0]
        assert gap >= -1e-12 * scale


# The direct form of the pointwise identities: every quotient divided out by u
# and its powers, one field at a time, on the library's spectral derivatives.
# The library works around one reciprocal 1/u per block instead, which moves
# the last bits; these bounds are twice the worst case measured over 30,000
# random cases of the strategies below (2.07, 4.61 and 4.66e-16), a residual
# and a gap in units of the machine epsilon times their scale.
ORACLE_RESIDUAL_ULPS = 4.2
ORACLE_GAP_ULPS = 9.3
ORACLE_SCALE_RTOL = 9.4e-16
_ORDERS = ((), *sp._GRADIENT, *sp._HESSIAN)


def _direct_defect_squared(u, ux, uy, uxx, uxy, uyy):
    a11 = uxx - ux * ux / u
    a12 = uxy - ux * uy / u
    a22 = uyy - uy * uy / u
    return a11 * a11 + 2.0 * a12 * a12 + a22 * a22


def _direct_bochner(w, potential):
    """(max residual, term scale) of ``bochner_residuals`` in the direct form."""
    manifold, v = w.manifold, w.manifold.drift if potential is None else potential
    v_cutoff = w.cutoff if v is None else v.cutoff
    cutoff = max(w.cutoff, v_cutoff)
    n = sp._grid_size(2 * cutoff)
    u, ux, uy, uxx, uxy, uyy = sp._transform(manifold, w.cutoff, n).derivatives(
        w.coefficients, *_ORDERS)
    lap_u = uxx + uyy
    vx, vy, vxx, vxy, vyy = sp._transform(manifold, v_cutoff, n).derivatives(
        np.zeros(w.coefficients.shape) if v is None else v.coefficients, *_ORDERS[1:])
    g = ux * ux + uy * uy
    tg = sp._transform(manifold, 2 * w.cutoff, n)
    gx, gy, gxx, gyy = tg.derivatives(tg.analyze(g), (0,), (1,), (0, 0), (1, 1))
    lu = 0.5 * lap_u + vx * ux + vy * uy
    tl = sp._transform(manifold, cutoff + w.cutoff, n)
    lux, luy = tl.derivatives(tl.analyze(lu), (0,), (1,))
    px = gx / u - g * ux / u ** 2
    py = gy / u - g * uy / u ** 2
    lap_p = ((gxx + gyy) / u - 2.0 * (gx * ux + gy * uy) / u ** 2
             - g * lap_u / u ** 2 + 2.0 * g * g / u ** 3)
    dt_p = (2.0 * (lux * ux + luy * uy)) / u - g * lu / u ** 2
    hess = _direct_defect_squared(u, ux, uy, uxx, uxy, uyy) / u
    drift = -2.0 * (vxx * ux * ux + 2.0 * vxy * ux * uy + vyy * uy * uy) / u
    residual = np.abs(0.5 * lap_p + vx * px + vy * py - dt_p - (hess + drift)).max()
    scale = max(np.abs(term).max() for term in (0.5 * lap_p, dt_p, hess, drift))
    return float(residual), max(float(scale), 1e-300)


def _direct_trace_gap(w):
    """(minimum slack, scale) of ``hessian_trace_gaps`` in the direct form."""
    u, ux, uy, uxx, uxy, uyy = sp._transform(w.manifold, w.cutoff).derivatives(
        w.coefficients, *_ORDERS)
    lhs = _direct_defect_squared(u, ux, uy, uxx, uxy, uyy)
    lap_log = (uxx + uyy) / u - (ux * ux + uy * uy) / u ** 2
    rhs = u * u / w.manifold.dimension * lap_log ** 2
    return float((lhs - rhs).min()), max(float(lhs.max()), float(rhs.max()), 1e-300)


def _oracle_case(seed, cutoff, kind, v_cutoff):
    """A random positive field of the cutoff and its potential: none on the plain
    torus, an explicit one, or none on a torus drifted by it."""
    rng = np.random.default_rng(seed)
    potential = random_torus_potential(rng, TORUS, cutoff=v_cutoff)
    field = fx.random_positive_torus_field(rng, TORUS, cutoff=cutoff)
    if kind == "drifted":
        field = sp.SpectralField(sp.torus2_drift(potential), field.coefficients, cutoff)
    return field, potential if kind == "explicit" else None


_ORACLE_CASES = dict(seed=st.integers(0, 2 ** 32 - 1), cutoff=st.integers(1, 4),
                     kind=st.sampled_from(["none", "explicit", "drifted"]),
                     v_cutoff=st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**_ORACLE_CASES)
def test_bochner_residual_matches_the_direct_form(seed, cutoff, kind, v_cutoff):
    field, potential = _oracle_case(seed, cutoff, kind, v_cutoff)
    got_residual, got_scale = sp.bochner_residuals([(field, potential)])[0]
    residual, scale = _direct_bochner(field, potential)
    eps = np.finfo(float).eps
    assert abs(got_residual - residual) <= ORACLE_RESIDUAL_ULPS * eps * scale
    assert abs(got_scale - scale) <= ORACLE_SCALE_RTOL * scale
    assert got_residual / got_scale <= 1e-8


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**_ORACLE_CASES)
def test_hessian_trace_gap_matches_the_direct_form(seed, cutoff, kind, v_cutoff):
    field, _ = _oracle_case(seed, cutoff, kind, v_cutoff)
    gap, scale = sp.hessian_trace_gaps([field])[0]
    direct_gap, direct_scale = _direct_trace_gap(field)
    eps = np.finfo(float).eps
    assert abs(gap - direct_gap) <= ORACLE_GAP_ULPS * eps * direct_scale
    assert abs(scale - direct_scale) <= ORACLE_SCALE_RTOL * direct_scale


def test_identities_refuse_a_sign_changing_field():
    # u = 0.2 + cos 2 pi x has minimum -0.8; both identities divide by u, and
    # without the guard they return finite numbers that read as passing
    field = sp.project_potential(TORUS, lambda x, y: 0.2 + np.cos(2.0 * np.pi * x), 2)
    with pytest.raises(sp.PositivityError, match=r"^resolved field has minimum -8\.000e-01$"):
        sp.hessian_trace_gaps([field])
    with pytest.raises(sp.PositivityError, match=r"^resolved field has minimum -8\.000e-01$"):
        sp.bochner_residuals([(field, None)])


def _block_sizes():
    return [sp._BLOCK_FIELDS - 1, sp._BLOCK_FIELDS, sp._BLOCK_FIELDS + 1,
            2 * sp._BLOCK_FIELDS + 1]


@pytest.mark.parametrize("count", _block_sizes())
def test_batched_bochner_residuals_equal_lone_calls(count):
    # one batch alternates pairs without a potential (a zero one in the
    # block) and with one; in the other each pair changes the field's
    # manifold or cutoff or the potential's cutoff, which starts a new block
    rng = np.random.default_rng(count)
    drift = sp.torus2_drift(random_torus_potential(rng, TORUS, cutoff=1))

    def field(cutoff=2):
        return fx.random_positive_torus_field(rng, TORUS, cutoff=cutoff)

    mixed = [(field(), None if i % 2 == 0 else random_torus_potential(rng, TORUS))
             for i in range(count)]
    makers = [lambda: (sp.SpectralField(drift, field().coefficients, 2), None),
              lambda: (field(3), random_torus_potential(rng, TORUS, cutoff=1)),
              lambda: (field(), None)]
    changing = [makers[i % 3]() for i in range(count)]
    for pairs in (mixed, changing):
        rows = sp.bochner_residuals(pairs)
        assert rows.shape == (count, 2)
        for pair, row in zip(pairs, rows):
            assert row.tobytes() == sp.bochner_residuals([pair]).tobytes()
            assert row[0] / row[1] <= 1e-8
    assert sp.bochner_residuals([]).shape == (0, 2)


@pytest.mark.parametrize("count", _block_sizes())
def test_batched_hessian_trace_gaps_equal_lone_calls(count):
    rng = np.random.default_rng(20 + count)
    fields = [fx.random_positive_torus_field(rng, TORUS, cutoff=1 + i % 2) for i in range(count)]
    gaps = sp.hessian_trace_gaps(fields)
    assert gaps.shape == (count, 2)
    for field, row in zip(fields, gaps):
        assert row.tobytes() == sp.hessian_trace_gaps([field]).tobytes()
    assert sp.hessian_trace_gaps([]).shape == (0, 2)


@pytest.mark.parametrize("name", ["circle", "torus", "sphere"])
@pytest.mark.parametrize("count", _block_sizes())
def test_cauchy_step_trace_equals_lone_calls(name, count):
    # every row of one propagation against evolve and a call at t = 0
    field = fx.get_fixture(name).initial
    times = np.linspace(0.0, 1.0, count)
    rows = sp.cauchy_step_trace(field, times)
    assert rows.shape == (count, 3)
    for t, row in zip(times, rows):
        assert row.tobytes() == sp.cauchy_step_trace(sp.evolve(field, t), [0.0]).tobytes()


def test_a_batch_refuses_its_non_positive_field_in_the_lone_words():
    good = sp.project_initial(TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)
    bad = sp.project_potential(TORUS, lambda x, y: 0.3 + np.cos(2.0 * np.pi * y), 2)
    fields = [good, bad, good, good]
    for lone, batched in ((lambda w: sp.hessian_trace_gaps([w]),
                           lambda: sp.hessian_trace_gaps(fields)),
                          (lambda w: sp.bochner_residuals([(w, None)]),
                           lambda: sp.bochner_residuals([(w, None) for w in fields]))):
        with pytest.raises(sp.PositivityError) as want:
            lone(bad)
        with pytest.raises(sp.PositivityError, match=r"^resolved field has minimum -7\.000e-01$"):
            batched()
        assert str(want.value) == "resolved field has minimum -7.000e-01"
    # at t = 0 the sign-changing circle field is refused, as a grid of t = 0 alone refuses it
    field = sp.project_potential(CIRCLE, lambda x: 0.2 + np.cos(2.0 * np.pi * x), 2)
    with pytest.raises(sp.PositivityError, match=r"^resolved field has minimum -8\.000e-01$"):
        sp.cauchy_step_trace(field, [0.0])
    with pytest.raises(sp.PositivityError, match=r"^resolved field has minimum -8\.000e-01$"):
        sp.cauchy_step_trace(field, [1.0, 0.0, 2.0])


def test_a_batch_keeps_the_lone_refusals():
    good = sp.project_initial(TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)
    other = sp.project_potential(sp.torus2(1.0, 2.0), lambda x, y: 0.3 * np.sin(2.0 * np.pi * x),
                                 2)
    with pytest.raises(ValueError, match="^the potential must live on the field's manifold$"):
        sp.bochner_residuals([(good, None), (good, other)])
    circle = two_mode_circle()
    with pytest.raises(ValueError, match="^the residual check runs on flat tori$"):
        sp.bochner_residuals([(good, None), (circle, None)])
    with pytest.raises(ValueError, match="^the trace inequality check runs on flat tori$"):
        sp.hessian_trace_gaps([good, circle])
    drifted = fx.get_fixture("torus-drift").initial
    for times in ([0.0], [0.1, 0.2]):
        with pytest.raises(ValueError, match="^cauchy step values are defined for the plain "
                                             "volume measure$"):
            sp.cauchy_step_trace(drifted, times)
    for times in ([-1.0], [math.inf], [[0.1]]):
        with pytest.raises(ValueError, match="^times must be a sequence of finite nonnegative"):
            sp.cauchy_step_trace(good, times)


@pytest.mark.parametrize("residual, scale, relative", [
    (1.0, math.nan, math.nan), (math.nan, 1.0, math.nan), (math.nan, 0.0, math.nan),
    (1.0, 4.0, 0.25)])
def test_bochner_relative_keeps_a_nan(monkeypatch, residual, scale, relative):
    # verify's group divides each row's residual by its scale
    monkeypatch.setattr(sp, "bochner_residuals", lambda pairs: np.array([[residual, scale]]))
    assert vf.check_bochner().max_error == pytest.approx(relative, nan_ok=True)


def test_bochner_term_scale_keeps_a_nan():
    # a NaN drift term enters the scale; the builtin max dropped it
    field = sp.project_initial(TORUS, lambda x, y: 2.0 + np.cos(2.0 * np.pi * x), 2)
    potential = sp.project_potential(TORUS, lambda x, y: 0.3 * np.sin(2.0 * np.pi * x), 2)
    potential.coefficients[2, 3] = math.nan
    residual, scale = sp.bochner_residuals([(field, potential)])[0]
    assert math.isnan(scale)
    assert math.isnan(residual / scale)


def test_cauchy_step_and_integration_by_parts():
    field = two_mode_circle()
    for mean_sq, second, fisher in sp.cauchy_step_trace(field, (0.02, 0.2)):
        assert mean_sq <= second * (1.0 + 1e-12)
        assert math.sqrt(mean_sq) == pytest.approx(fisher, rel=1e-10)


def test_laplacian_norm_spectral():
    field = two_mode_circle()
    expected = (2.0 * math.pi) ** 2 * 0.5 / math.sqrt(2.0)
    assert sp.laplacian_l2_norm(field) == pytest.approx(expected, rel=1e-12)


def test_grid_extrema_exact_for_fixture():
    low, high = sp.grid_extrema(two_mode_circle())
    assert low == pytest.approx(0.5, abs=1e-12)
    assert high == pytest.approx(1.5, abs=1e-12)
    # The sphere fixture peaks at the poles, which Gauss-Legendre nodes miss;
    # they are evaluated exactly on top of the grid.  What remains is the
    # projection's own error, about 5e-14 relative.
    true_low, true_high = 0.5 / (4.0 * math.pi), 1.5 / (4.0 * math.pi)
    low, high = sp.grid_extrema(fx.sphere_fixture().initial)
    assert low == pytest.approx(true_low, rel=1e-13, abs=0.0)
    assert high == pytest.approx(true_high, rel=1e-13, abs=0.0)
    # the same density from its exact coefficients c_l = f_l / norm_l
    norms = np.sqrt(np.array([1.0, 3.0]) / (4.0 * math.pi))
    exact = sp.SpectralField(SPHERE, np.array([1.0, 0.5]) / (4.0 * math.pi) / norms, 1)
    low, high = sp.grid_extrema(exact)
    assert low == pytest.approx(true_low, rel=1e-15, abs=0.0)
    assert high == pytest.approx(true_high, rel=1e-15, abs=0.0)
