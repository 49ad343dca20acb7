import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatent import quadrature
from heatent.quadrature import QuadratureDomainError, QuadratureSpec, integrate_batch
from heatent.specfun import alpha, shifted_gaussian_quadratures

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def test_half_gaussian():
    [result] = integrate_batch(lambda r, j: np.exp(-0.5 * r * r), [0.0], [1.0])
    assert result.converged
    assert result.value == pytest.approx(SQRT_HALF_PI, rel=1e-12)


def test_exponential():
    [result] = integrate_batch(lambda r, j: np.exp(-r), [0.0], [1.0])
    assert result.value == pytest.approx(1.0, rel=1e-12)


def test_gaussian_times_cosh():
    # closed form: sqrt(pi/2) * exp(1/2) at unit curvature scale and time
    [result] = integrate_batch(lambda r, j: np.exp(-0.5 * r * r) * np.cosh(r), [1.0], [1.0])
    assert result.value == pytest.approx(SQRT_HALF_PI * math.exp(0.5), rel=1e-10)


def test_error_estimate_contract():
    spec = QuadratureSpec()
    [result] = integrate_batch(lambda r, j: np.exp(-r) * np.sin(r) ** 2, [0.0], [1.0], spec)
    assert result.converged
    assert result.error_estimate <= max(
        spec.relative_tolerance * abs(result.value), spec.absolute_tolerance)


def test_determinism_bit_identical():
    f = lambda r, j: np.exp(-0.5 * r * r) * (1.0 + r ** 3)
    [a] = integrate_batch(f, [1.5], [1.0])
    [b] = integrate_batch(f, [1.5], [1.0])
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_nan_integrand_raises():
    with pytest.raises(QuadratureDomainError):
        integrate_batch(lambda r, j: float("nan"), [0.0], [1.0])


@pytest.mark.parametrize("peak", [1.0], ids=["hinted"])
def test_scalar_nan_return_is_broadcast_and_named(peak):
    # the first panel centre fails
    with pytest.raises(QuadratureDomainError, match=r"returned nan at \d"):
        integrate_batch(lambda r, j: float("nan"), [peak], [1.0])


def test_non_finite_node_names_value_and_abscissa():
    # peak 1, width 1/24: the first initial panel is [0, 0.5], centre 0.25
    f = lambda r, j: np.where(r == 0.25, np.inf, np.exp(-r))
    with pytest.raises(QuadratureDomainError, match=r"returned inf at 0\.25$"):
        integrate_batch(f, [1.0], [0.5 / 12.0])


def test_overflow_past_the_stopping_probe_is_ignored():
    # Only the nodes of an integral's panels are evaluated: with peak 0 and
    # width 1 the tail nodes stay far inside r < 1e3, so the overflow beyond
    # is never seen.
    plain = lambda r, j: np.exp(-0.5 * r * r)
    [result] = integrate_batch(lambda r, j: np.where(r < 1e3, plain(r, j), np.inf),
                               [0.0], [1.0])
    assert result.converged
    assert result.value == pytest.approx(SQRT_HALF_PI, rel=1e-12)
    assert [result] == integrate_batch(plain, [0.0], [1.0])


def _mixed_batch():
    """Eight unrelated integrands as one f(x, j), with their peaks and widths."""
    widths = np.array([0.3, 1.0, 2.5, 4.0, 0.7, 1.5, 3.0, 0.5])
    powers = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0])
    centers = np.array([0.0, 0.0, 0.0, 0.0, 6.0, 40.0, 3.0, 900.0])

    def f(x, j):
        return x ** powers[j] * np.exp(-0.5 * ((x - centers[j]) / widths[j]) ** 2)

    return f, centers.tolist(), widths.tolist()


def test_lockstep_batch_matches_each_integral_alone():
    f, peaks, widths = _mixed_batch()
    batch = integrate_batch(f, peaks, widths)
    for k, result in enumerate(batch):
        alone = integrate_batch(lambda x, j: f(x, np.full(x.shape, k)),
                                [peaks[k]], [widths[k]])
        assert [result] == alone, k
    order = [5, 2, 7, 0, 3, 6, 1, 4]
    permuted = integrate_batch(lambda x, j: f(x, np.asarray(order)[j]),
                               [peaks[k] for k in order], [widths[k] for k in order])
    assert permuted == [batch[k] for k in order]


def test_large_batch_calls_in_bounded_blocks():
    f, peaks, widths = _mixed_batch()
    sizes = []

    def recorded(x, j):
        sizes.append(x.size)
        return f(x, j % 8)

    n = 400
    big = integrate_batch(recorded, peaks * (n // 8), widths * (n // 8))
    assert max(sizes) <= quadrature._BLOCK_NODES
    assert big == integrate_batch(f, peaks, widths) * (n // 8)


def test_shifted_gaussians_batch_matches_singles():
    # (kappa, t) give the halves' shifts +-kappa t and scales sqrt t
    cases = [(5.0, 1.0), (0.75, 4.0), (0.0, 0.25), (1.0, 1e4)]
    scales = np.sqrt([t for _, t in cases])
    batch = shifted_gaussian_quadratures(
        lambda gauss, r, i: gauss * (1.0 + scales[i] * r * r), cases, lambda i: "batch")
    for k, (case, sc) in enumerate(zip(cases, scales.tolist())):
        alone = shifted_gaussian_quadratures(
            lambda gauss, r, i: gauss * (1.0 + sc * r * r), [case], lambda i: "alone")
        assert [batch[k]] == alone, k
    # at kappa = 0 the two halves are the same integral, and sinh 0 = 0
    assert batch[2] == 0.0


def test_batch_validates_hint_lengths():
    with pytest.raises(ValueError, match="one peak and one width"):
        integrate_batch(lambda x, j: np.exp(-x), [0.0, 1.0], [1.0])


@pytest.mark.parametrize("peak, width", [
    (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
    (0.0, 0.0), (0.0, -1.0), (0.0, math.inf), (0.0, math.nan),
])
def test_batch_validates_peaks_and_widths(peak, width):
    with pytest.raises(ValueError, match="finite peak >= 0 and a finite width > 0"):
        integrate_batch(lambda x, j: np.exp(-x), [1.0, peak], [1.0, width])


def test_non_convergence_flagged_not_raised(monkeypatch):
    # A single allowed subdivision cannot resolve a narrow far-out bump.
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    spec = QuadratureSpec(relative_tolerance=1e-14, absolute_tolerance=1e-16)
    [result] = integrate_batch(
        lambda r, j: np.exp(-((r - 3.0) ** 2) * 40.0) * (1.0 + np.cos(7.0 * r)),
        [3.0], [0.11], spec)
    assert not result.converged


def test_require_converged_names_only_a_failure():
    results = integrate_batch(lambda r, j: np.exp(-r), [0.0, 0.0], [1.0, 1.0])

    def never(i):
        raise AssertionError(f"named converged integral {i}")

    assert quadrature.require_converged(results, never) == [r.value for r in results]
    failed = replace(results[1], converged=False)
    with pytest.raises(quadrature.QuadratureConvergenceError,
                       match=r"^second: error estimate [0-9.e+-]+ after [0-9]+ evaluations$"):
        quadrature.require_converged([results[0], failed, failed],
                                     ["first", "second"].__getitem__)


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


def test_shifted_gaussian_reduces_to_half_gaussian():
    # with weight 1 the value is M(0) = sqrt(t) alpha(kappa, t), a truncated
    # half-Gaussian mass
    kappa, t = 0.75, 4.0
    [value] = shifted_gaussian_quadratures(lambda gauss, r, i: gauss, [(kappa, t)],
                                           lambda i: "half-Gaussian")
    assert value == pytest.approx(math.sqrt(t) * alpha(kappa, t), rel=1e-12)


def test_shifted_gaussian_cross_oracle():
    # kappa = 5, t = 1: the substituted integral equals the unsubstituted
    # exp(-r^2/2) sinh(5r) exp(-25/2) integrated directly
    [shifted] = shifted_gaussian_quadratures(lambda gauss, r, i: gauss, [(5.0, 1.0)],
                                             lambda i: "cross-oracle")
    [direct] = integrate_batch(
        lambda r, j: 0.5 * (np.exp(-0.5 * (r - 5.0) ** 2) - np.exp(-0.5 * (r + 5.0) ** 2)),
        [5.0], [1.0])
    assert shifted == pytest.approx(direct.value, rel=1e-10)
    # nearly half the full Gaussian mass: only the far-left tail of the plus
    # half is missing, and the minus half is as small
    assert shifted == pytest.approx(0.5 * math.sqrt(2.0 * math.pi), rel=1e-5)


def test_shifted_gaussian_scale_validation():
    bad = [(1.0, t) for t in (0.0, -1.0, math.inf, math.nan)]
    bad += [(kappa, 1.0) for kappa in (-1.0, math.inf, math.nan)]
    for case in bad:
        # the failing case is named, after a valid one
        with pytest.raises(ValueError, match=r"^case 1: shifted Gaussians require finite"):
            shifted_gaussian_quadratures(lambda gauss, r, i: gauss, [(1.0, 1.0), case],
                                         "case {}".format)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    p=st.integers(0, 4),
    q=st.integers(0, 3),
    width=st.floats(0.3, 4.0),
)
def test_linearity(a, b, p, q, width):
    f = lambda r, j: r ** p * np.exp(-0.5 * (r / width) ** 2)
    g = lambda r, j: r ** q * np.exp(-0.8 * r)
    # every integrand has its mass within r < 48
    [combined] = integrate_batch(lambda r, j: a * f(r, j) + b * g(r, j), [0.0], [4.0])
    [f_only] = integrate_batch(f, [0.0], [4.0])
    [g_only] = integrate_batch(g, [0.0], [4.0])
    expected = a * f_only.value + b * g_only.value
    tol = (combined.error_estimate + abs(a) * f_only.error_estimate
           + abs(b) * g_only.error_estimate + 1e-12 * (1.0 + abs(expected)))
    assert abs(combined.value - expected) <= tol
