import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatent import quadrature
from heatent.quadrature import QuadratureConvergenceError, QuadratureDomainError, integrate_batch

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def name(i):
    return f"case {i}"


def one(f, peak, width):
    """(value, estimate) of one integral of f(d) without case parameters."""
    [value], [estimate] = integrate_batch(f, [peak], [width], (), name)
    return value, estimate


def test_half_gaussian():
    value, estimate = one(lambda d: np.exp(-0.5 * d * d), 0.0, 1.0)
    assert value == pytest.approx(SQRT_HALF_PI, rel=1e-12)
    assert abs(value - SQRT_HALF_PI) <= estimate <= 1e-10 * value


def test_exponential():
    value, estimate = one(lambda d: np.exp(-d), 0.0, 1.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert abs(value - 1.0) <= estimate <= 1e-10


@pytest.mark.parametrize("peak", [1e-300, 1e-3, 1.0, 30.0, 1e60, 1e300])
def test_gaussian_keeps_both_sides_of_any_peak(peak):
    # exp(-(r - c)^2/2) over r > 0 is sqrt(pi/2) (1 + erf(c/sqrt 2)); the
    # nodes of [0, c] next to the peak sit at the width's scale however far
    # out it is, so the mass below it is not lost
    value, estimate = one(lambda d: np.exp(-0.5 * d * d), peak, 1.0)
    exact = SQRT_HALF_PI * (1.0 + math.erf(peak / math.sqrt(2.0)))
    assert value == pytest.approx(exact, rel=1e-14)
    assert abs(value - exact) <= estimate


def test_integrable_singularity_at_a_zero_peak_is_not_evaluated():
    # with c = 0 there is no [0, c] part, so r = 0, where 1/sqrt(r) is
    # infinite, is never a node
    value, estimate = one(lambda d: np.exp(-d) / np.sqrt(d), 0.0, 1.0)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gaussian_times_cosh():
    # closed form: sqrt(pi/2) exp(1/2); the peak is r = 1, and the integrand
    # exp(-r^2/2) cosh r is written with its exponentials combined, as the
    # far nodes (r up to about 5e30) overflow cosh
    def f(d):
        r = 1.0 + d
        return 0.5 * (np.exp(r - 0.5 * r * r) + np.exp(-r - 0.5 * r * r))

    value, estimate = one(f, 1.0, 1.0)
    exact = SQRT_HALF_PI * math.exp(0.5)
    assert abs(value - exact) <= estimate <= 1e-10 * exact


def test_error_estimate_contract():
    value, estimate = one(lambda d: np.exp(-d) * np.sin(d) ** 2, 0.0, 1.0)
    assert estimate <= max(quadrature.RELATIVE_TOLERANCE * abs(value),
                           quadrature.ABSOLUTE_TOLERANCE)
    assert abs(value - 0.4) <= estimate  # the integral is 2/5


def test_determinism_bit_identical():
    f = lambda d: np.exp(-0.5 * d * d) * (1.0 + (1.5 + d) ** 3)
    assert one(f, 1.5, 1.0) == one(f, 1.5, 1.0)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureDomainError):
        one(lambda d: np.full(d.shape, np.nan), 0.0, 1.0)


@pytest.mark.parametrize("peak", [1.0], ids=["hinted"])
def test_scalar_nan_return_is_broadcast_and_named(peak):
    with pytest.raises(QuadratureDomainError, match=r"^case 0: integrand returned nan at \d"):
        one(lambda d: float("nan"), peak, 1.0)


def test_non_finite_node_names_value_and_abscissa():
    # the middle node of [0, c] (tau = 0) has the offset -c/2 exactly: with
    # peak 1 it sits at r = 0.5
    f = lambda d: np.where(d == -0.5, np.inf, np.exp(-(1.0 + d)))
    with pytest.raises(QuadratureDomainError, match=r"^case 0: integrand returned inf at 0\.5$"):
        one(f, 1.0, 1.0)


def test_overflow_past_the_stopping_probe_is_ignored():
    # The rule's farthest node sits w e^{pi/2 sinh 4.5}, about 5.3e30 w, past
    # the peak: an integrand that overflows beyond is never evaluated there.
    plain = lambda d: np.exp(-0.5 * d * d)
    guarded = lambda d: np.where(d < 1e31, plain(d), np.inf)
    value, estimate = one(guarded, 0.0, 1.0)
    assert value == pytest.approx(SQRT_HALF_PI, rel=1e-12)
    assert abs(value - SQRT_HALF_PI) <= estimate
    assert (value, estimate) == one(plain, 0.0, 1.0)


def _mixed_batch():
    """Eight unrelated integrands as one f(d, power, center, width), with
    their parameter columns."""
    widths = np.array([0.3, 1.0, 2.5, 4.0, 0.7, 1.5, 3.0, 0.5])
    powers = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0])
    centers = np.array([0.0, 0.0, 0.0, 0.0, 6.0, 40.0, 3.0, 900.0])

    def f(d, power, center, width):
        return (center + d) ** power * np.exp(-0.5 * (d / width) ** 2)

    return f, (powers, centers, widths)


def test_case_is_bit_identical_alone_in_any_batch_and_order():
    f, columns = _mixed_batch()
    _, centers, widths = columns
    batch = integrate_batch(f, centers, widths, columns, name)
    for k in range(centers.size):
        alone = integrate_batch(f, centers[k:k + 1], widths[k:k + 1],
                                [column[k:k + 1] for column in columns], name)
        assert [v[k] for v in batch] == [v[0] for v in alone], k
    order = [5, 2, 7, 0, 3, 6, 1, 4]
    permuted = integrate_batch(f, centers[order], widths[order],
                               [column[order] for column in columns], name)
    assert [v.tolist() for v in permuted] == [v[order].tolist() for v in batch]
    big = integrate_batch(f, np.tile(centers, 50), np.tile(widths, 50),
                          [np.tile(column, 50) for column in columns], name)
    assert [v.tolist() for v in big] == [np.tile(v, 50).tolist() for v in batch]


B = quadrature._BLOCK_CASES


@pytest.mark.parametrize("count", [B - 1, B, B + 1, 3 * B + 5])
def test_blocked_batch_equals_lone_runs(count):
    # the cases run in blocks of _BLOCK_CASES; at every case count each
    # case's value and estimate are those of its lone run
    f, columns = _mixed_batch()
    columns = [np.resize(column, count) for column in columns]
    _, centers, widths = columns
    values, estimates = integrate_batch(f, centers, widths, columns, name)
    for k in range(count):
        alone = integrate_batch(f, centers[k:k + 1], widths[k:k + 1],
                                [column[k:k + 1] for column in columns], name)
        assert (values[k], estimates[k]) == (alone[0][0], alone[1][0]), k


def _failure(f, peaks, columns, monkeypatch, block):
    """The message integrate_batch raises with blocks of `block` cases."""
    monkeypatch.setattr(quadrature, "_BLOCK_CASES", block)
    with pytest.raises((QuadratureDomainError, QuadratureConvergenceError)) as raised:
        integrate_batch(f, peaks, np.ones(peaks.size), columns, name)
    return f"{type(raised.value).__name__}: {raised.value}"


@pytest.mark.parametrize("inner, outer, named", [
    # the [0, c] parts of every case come before any part beyond c, and
    # cases in their order, whichever blocks they fall in
    ((B + 2,), (1,), B + 2), ((B - 1, B), (), B - 1), ((), (B, B - 1), B - 1),
    ((3 * B + 1,), (2 * B,), 3 * B + 1), ((), (B,), B)])
def test_domain_failure_named_across_blocks_as_in_one_array(inner, outer, named, monkeypatch):
    # a NaN on one side of a case's peak: the case and the abscissa named
    # are the ones a single (cases x nodes) array names first
    count = 3 * B + 5
    side = np.zeros(count)
    side[list(inner)], side[list(outer)] = -1.0, 1.0

    def f(d, side):
        return np.where(side * d > 0.0, np.nan, np.exp(-0.5 * d * d))

    peaks = np.full(count, 3.0)
    blocked = _failure(f, peaks, (side,), monkeypatch, B)
    assert blocked == _failure(f, peaks, (side,), monkeypatch, count)
    assert blocked.startswith(f"QuadratureDomainError: case {named}: integrand returned nan at ")


@pytest.mark.parametrize("failing", [(B + 3, B - 2), (2 * B, 3 * B + 4), (B,)])
def test_convergence_failure_named_across_blocks_as_in_one_array(failing, tolerances,
                                                                 monkeypatch):
    # a zero integrand meets any tolerance; of the cases that miss them, on
    # both sides of block boundaries, the first is named, with its estimate
    tolerances(1e-300, 1e-300)
    count = 3 * B + 5
    on = np.zeros(count)
    on[list(failing)] = 1.0

    def f(d, on):
        return on * np.exp(-40.0 * d * d) * (1.0 + np.cos(7.0 * (3.0 + d)))

    peaks = np.full(count, 3.0)
    blocked = _failure(f, peaks, (on,), monkeypatch, B)
    assert blocked == _failure(f, peaks, (on,), monkeypatch, count)
    assert blocked.startswith(f"QuadratureConvergenceError: case {min(failing)}: error estimate")


def test_batch_validates_hint_lengths():
    with pytest.raises(ValueError, match="one peak and one width"):
        integrate_batch(lambda d: np.exp(-d), [0.0, 1.0], [1.0], (), name)


@pytest.mark.parametrize("peak, width", [
    (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
    (0.0, 0.0), (0.0, -1.0), (0.0, math.inf), (0.0, math.nan),
])
def test_batch_validates_peaks_and_widths(peak, width):
    with pytest.raises(ValueError, match="^case 1: need a finite peak >= 0 and a finite width > 0"):
        integrate_batch(lambda d: np.exp(-d), [1.0, peak], [1.0, width], (), name)


def test_unmet_spec_raises_at_the_finest_step(tolerances):
    # a narrow far-out bump at tolerances no step meets (the estimate carries
    # a rounding term): the first case still short at step 1/512 is named
    tolerances(1e-300, 1e-300)
    f = lambda d: np.exp(-40.0 * d * d) * (1.0 + np.cos(7.0 * (3.0 + d)))
    with pytest.raises(QuadratureConvergenceError,
                       match=r"^case 0: error estimate [0-9.e+-]+ at the finest step 1/512$"):
        integrate_batch(f, [3.0, 3.0], [0.11, 0.11], (), name)


def test_convergence_failure_names_only_the_failing_case(tolerances):
    # a zero integrand meets any tolerance; only the case that fails is named
    tolerances(1e-300, 1e-300)

    def context(i):
        assert i == 1, f"named the converged case {i}"
        return "second"

    with pytest.raises(QuadratureConvergenceError, match=r"^second: error estimate "):
        integrate_batch(lambda d, on: on * np.exp(-d), [0.0, 0.0], [1.0, 1.0],
                        ([0.0, 1.0],), context)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    p=st.integers(0, 4),
    q=st.integers(0, 3),
    width=st.floats(0.3, 4.0),
)
def test_linearity(a, b, p, q, width):
    f = lambda d: d ** p * np.exp(-0.5 * (d / width) ** 2)
    g = lambda d: d ** q * np.exp(-0.8 * d)
    combined, combined_estimate = one(lambda d: a * f(d) + b * g(d), 0.0, 4.0)
    f_only, f_estimate = one(f, 0.0, 4.0)
    g_only, g_estimate = one(g, 0.0, 4.0)
    expected = a * f_only + b * g_only
    tol = (combined_estimate + abs(a) * f_estimate + abs(b) * g_estimate
           + 1e-12 * (1.0 + abs(expected)))
    assert abs(combined - expected) <= tol
