import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatent import quadrature
from heatent.quadrature import (
    QuadratureDomainError,
    QuadratureSpec,
    integrate_batch,
    integrate_semi_infinite,
    integrate_shifted_gaussian,
    integrate_shifted_gaussians,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def test_half_gaussian():
    result = integrate_semi_infinite(lambda r: np.exp(-0.5 * r * r))
    assert result.converged
    assert result.value == pytest.approx(SQRT_HALF_PI, rel=1e-12)


def test_exponential():
    result = integrate_semi_infinite(lambda r: np.exp(-r))
    assert result.value == pytest.approx(1.0, rel=1e-12)


def test_gaussian_times_cosh():
    # closed form: sqrt(pi/2) * exp(1/2) at unit curvature scale and time
    result = integrate_semi_infinite(lambda r: np.exp(-0.5 * r * r) * np.cosh(r))
    assert result.value == pytest.approx(SQRT_HALF_PI * math.exp(0.5), rel=1e-10)


def test_error_estimate_contract():
    spec = QuadratureSpec()
    result = integrate_semi_infinite(lambda r: np.exp(-r) * np.sin(r) ** 2, spec)
    assert result.converged
    assert result.error_estimate <= max(
        spec.relative_tolerance * abs(result.value), spec.absolute_tolerance)


def test_determinism_bit_identical():
    f = lambda r: np.exp(-0.5 * r * r) * (1.0 + r ** 3)
    a = integrate_semi_infinite(f)
    b = integrate_semi_infinite(f)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_nan_integrand_raises():
    with pytest.raises(QuadratureDomainError):
        integrate_semi_infinite(lambda r: float("nan"))


@pytest.mark.parametrize("peak_hint", [None, 1.0], ids=["probed", "hinted"])
def test_scalar_nan_return_is_broadcast_and_named(peak_hint):
    # probed: the first probe at r = 0 fails; hinted: the first panel centre
    with pytest.raises(QuadratureDomainError, match=r"returned nan at \d"):
        integrate_semi_infinite(lambda r: float("nan"), peak_hint=peak_hint)


def test_non_finite_node_names_value_and_abscissa():
    # hint 1, width 1/24: the first initial panel is [0, 0.5], centre 0.25
    f = lambda r: np.where(r == 0.25, np.inf, np.exp(-r))
    with pytest.raises(QuadratureDomainError, match=r"returned inf at 0\.25$"):
        integrate_semi_infinite(f, peak_hint=1.0, peak_width=0.5 / 12.0)


def test_non_finite_probe_before_the_split_raises():
    # the probes at 0, 1/8 and 1/4 are finite; 1/2 is not and comes before
    # any stopping probe, so the scalar probe loop would have seen it too
    with pytest.raises(QuadratureDomainError, match=r"returned nan at 0\.5"):
        integrate_semi_infinite(lambda r: np.where(r < 0.3, np.exp(-r), np.nan))


def test_overflow_past_the_stopping_probe_is_ignored():
    # All 59 split-radius probes are evaluated at once, out to 2^54; those
    # past the stopping probe (here 16) are not part of the integral.
    f = lambda r: np.where(r < 1e3, np.exp(-0.5 * r * r), np.inf)
    result = integrate_semi_infinite(f)
    assert result.converged
    assert result.value == pytest.approx(SQRT_HALF_PI, rel=1e-12)
    assert result == integrate_semi_infinite(lambda r: np.exp(-0.5 * r * r))


def _split_radius_loop(values):
    """The scalar probe loop, the reference for the vectorised scan."""
    best, r_best = 0.0, 0.0
    for r, v in zip(quadrature._PROBES.tolist(), values):
        if not math.isfinite(v):
            return ("raise", r)
        v = abs(v)
        if v > best:
            best, r_best = v, r
        if best > 0.0 and r >= 8.0 * max(r_best, 1.0) and v <= 1e-30 * best:
            return max(r, 1.0)
    return 1.0 if best == 0.0 else quadrature._PROBES[-1]


def test_split_radius_scan_matches_the_probe_loop():
    rng = np.random.default_rng(3)
    probes = quadrature._PROBES
    rows = []
    for _ in range(3000):
        peak, width = 10.0 ** rng.uniform(-3, 8), 10.0 ** rng.uniform(-3, 4)
        row = np.exp(-0.5 * ((probes - peak) / width) ** 2) * rng.choice([1.0, -1.0])
        row[:rng.integers(0, 20)] *= rng.choice([0.0, 1.0])  # underflowed origin
        if rng.random() < 0.3:
            row[rng.integers(0, probes.size)] = rng.choice([np.nan, np.inf, -np.inf])
        if rng.random() < 0.05:
            row[:] = rng.choice([0.0, 1.0])  # zero everywhere / no decay at all
        if rng.random() < 0.1:
            row = np.where(probes <= probes[rng.integers(1, 30)], 2.0, 0.0)  # flat top
        rows.append(row)
    table = np.array(rows)

    def lookup(x, j):
        return table[j, np.searchsorted(probes, x)]

    for i, row in enumerate(rows):
        expected = _split_radius_loop(row.tolist())
        if isinstance(expected, tuple):
            at = re.escape(f"at {expected[1]!r}") + "$"
            with pytest.raises(QuadratureDomainError, match=at):
                quadrature._split_radii(lookup, [i])
        else:
            assert quadrature._split_radii(lookup, [i]) == [expected], i
    clean = [i for i, row in enumerate(rows)
             if not isinstance(_split_radius_loop(row.tolist()), tuple)]
    assert quadrature._split_radii(lookup, clean) == [
        _split_radius_loop(rows[i].tolist()) for i in clean]


def _mixed_batch():
    """Eight unrelated integrands, probed and hinted, as one f(x, j)."""
    widths = np.array([0.3, 1.0, 2.5, 4.0, 0.7, 1.5, 3.0, 0.5])
    powers = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0])
    centers = np.array([0.0, 0.0, 0.0, 0.0, 6.0, 40.0, 3.0, 900.0])
    hints = [None, None, None, None, 6.0, 40.0, 3.0, 900.0]
    peak_widths = [None, None, None, None, 0.7, 1.5, 3.0, 0.5]

    def f(x, j):
        return x ** powers[j] * np.exp(-0.5 * ((x - centers[j]) / widths[j]) ** 2)

    return f, hints, peak_widths


def test_lockstep_batch_matches_each_integral_alone():
    f, hints, widths = _mixed_batch()
    batch = integrate_batch(f, 8, QuadratureSpec(), hints, widths)
    for j, result in enumerate(batch):
        alone = integrate_semi_infinite(lambda x: f(x, np.full(x.shape, j)),
                                        QuadratureSpec(), hints[j], widths[j])
        assert result == alone, j
    order = [5, 2, 7, 0, 3, 6, 1, 4]
    permuted = integrate_batch(lambda x, j: f(x, np.asarray(order)[j]), 8,
                               QuadratureSpec(), [hints[k] for k in order],
                               [widths[k] for k in order])
    assert permuted == [batch[k] for k in order]


def test_large_batch_calls_in_bounded_blocks():
    f, hints, widths = _mixed_batch()
    sizes = []

    def recorded(x, j):
        sizes.append(x.size)
        return f(x, j % 8)

    n = 400
    big = integrate_batch(recorded, n, QuadratureSpec(), hints * (n // 8), widths * (n // 8))
    assert max(sizes) <= quadrature._BLOCK_NODES
    assert big == integrate_batch(f, 8, QuadratureSpec(), hints, widths) * (n // 8)


def test_shifted_gaussians_batch_matches_singles():
    centers, scales = [5.0, -3.0, 0.0, 1e4], [1.0, 2.0, 0.5, 100.0]
    g = lambda s, j: np.exp(-0.5 * s * s) * (1.0 + np.asarray(scales)[j] * s * s)
    batch = integrate_shifted_gaussians(g, centers, scales)
    for j, (c, sc) in enumerate(zip(centers, scales)):
        alone = integrate_shifted_gaussian(
            lambda s: np.exp(-0.5 * s * s) * (1.0 + sc * s * s), c, sc)
        assert batch[j] == alone, j


def test_batch_validates_hint_lengths():
    with pytest.raises(ValueError):
        integrate_batch(lambda x, j: np.exp(-x), 2, QuadratureSpec(), [None])


def test_non_convergence_flagged_not_raised():
    # A single allowed subdivision cannot resolve a narrow far-out bump.
    spec = QuadratureSpec(relative_tolerance=1e-14, absolute_tolerance=1e-16,
                          max_subdivisions=1)
    result = integrate_semi_infinite(
        lambda r: np.exp(-((r - 3.0) ** 2) * 40.0) * (1.0 + np.cos(7.0 * r)), spec)
    assert not result.converged


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(absolute_tolerance=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(relative_tolerance=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(absolute_tolerance=bad)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_shifted_gaussian_reduces_to_half_gaussian():
    result = integrate_shifted_gaussian(lambda s: np.exp(-0.5 * s * s), 0.0, 1.0)
    assert result.value == pytest.approx(SQRT_HALF_PI, rel=1e-12)


def test_shifted_gaussian_cross_oracle():
    # center=5: the substituted integral equals the unsubstituted one exactly
    shifted = integrate_shifted_gaussian(lambda s: np.exp(-0.5 * s * s), 5.0, 1.0)
    direct = integrate_semi_infinite(lambda r: np.exp(-0.5 * (r - 5.0) ** 2))
    assert shifted.value == pytest.approx(direct.value, rel=1e-10)
    # nearly the full Gaussian mass: only the far-left tail is missing
    assert shifted.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-5)


def test_shifted_gaussian_scale_validation():
    with pytest.raises(ValueError):
        integrate_shifted_gaussian(lambda s: 1.0, 0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    p=st.integers(0, 4),
    q=st.integers(0, 3),
    width=st.floats(0.3, 4.0),
)
def test_linearity(a, b, p, q, width):
    f = lambda r: r ** p * np.exp(-0.5 * (r / width) ** 2)
    g = lambda r: r ** q * np.exp(-0.8 * r)
    combined = integrate_semi_infinite(lambda r: a * f(r) + b * g(r))
    f_only = integrate_semi_infinite(f)
    g_only = integrate_semi_infinite(g)
    expected = a * f_only.value + b * g_only.value
    tol = (combined.error_estimate + abs(a) * f_only.error_estimate
           + abs(b) * g_only.error_estimate + 1e-12 * (1.0 + abs(expected)))
    assert abs(combined.value - expected) <= tol
