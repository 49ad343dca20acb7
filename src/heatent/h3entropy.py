"""Heat-kernel entropy on 3-dimensional hyperbolic space of curvature -kappa^2.

The kernel is an explicit Gaussian times a sinh correction, so its entropy
splits into a closed-form part plus one genuinely transcendental piece

    I2(t) = xi(t) * eta(t),

where xi is elementary and eta is a Gaussian-hyperbolic integral with a
log(sinh r / r) weight.  eta and its derivative are pinned between
closed-form envelopes; the entropy rate assembles as

    d/dt Ent = 3/(2t) + kappa^2 + xi'(t) eta(t) + xi(t) eta'(t),

and for large t it settles inside the band kappa^2 * (2 -+ log sqrt 2).

xi carries a factor exp(-kappa^2 t/2) and eta a factor exp(+kappa^2 t/2).
Each is returned as a plain float with its factor taken out: xi and xi'
times exp(kappa^2 t/2); eta, eta' and their envelopes times exp(-kappa^2 t/2).
So xi eta and xi' eta + xi eta' are plain products, and nothing overflows at
any kappa^2 t.

The trapezoid rule.  With L(x) = log(sinh x / x), eta is the integral over
r > 0 of exp(-r^2/2t) r^p sinh(kappa r) L(kappa r), p = 1 (eta' is the
p = 3 integral times 1/(2t^2)).  The integrand is even in r, so one
exponential half of sinh carries it, and completing the square gives

    eta exp(-kappa^2 t/2) = (sqrt t / 2) integral_R exp(-s^2/2) r^p L(kappa |r|) ds,

with r = kappa t + sqrt(t) s: a Gaussian times a function analytic in a
strip, on which the trapezoid rule converges geometrically.  The rule runs
on the nodes s = -9.5 ... 9.5 at step h = 1/8; its error estimate is
|I_h - I_2h|, I_2h being the sum over every other node.

The remainder.  Since L(x) = x - G(x) with G(x) = log(2x) - log(1 - e^{-2x}),
eta = kappa M(2, sinh) - R, where the closed part is the moment both
envelopes share and R is the same integral with G in place of L.  From
kappa^2 t = 100 on, every node has r > 0 and the rule integrates R itself.
Every envelope verdict is taken on R: eta - lower = coeff log(...) - R, a
difference of two quantities each known to a few ulp, never a rounded eta
against a rounded envelope.  Each side is inside, outside or unresolved
against the error estimate.  ``eta_quadrature``, the same eta by adaptive
quadrature, is the oracle the tests hold the rule to.

A note on the radial weight: the density decomposition used here carries a
single Gaussian factor exp(-r^2/2t) inside eta.  A doubled-Gaussian variant
of that integrand is inconsistent with the closed-form pieces; the direct
quadrature of -integral h log h dV (``entropy_quadrature``) confirms the
single-Gaussian reading to full tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_semi_infinite,
    integrate_shifted_gaussians,
    require_converged,
)
from .specfun import alpha, log_sinh_ratio

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_SQRT2 = 0.5 * math.log(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Trapezoid nodes in the shifted variable s: |s| <= 9.5 at step 1/8, where
# exp(-s^2/2) has fallen below 3e-20.  Every other node is the step-1/4 rule.
_STEP = 0.125
_NODES = np.arange(-76, 77) * _STEP
_GAUSS = np.exp(-0.5 * _NODES * _NODES)
# From kappa^2 t = 100 on, r = kappa t + sqrt(t) s is positive at every node
# (9.5^2 < 100) and the remainder R = closed - eta is integrated instead.
_REMAINDER_FROM = 100.0
# Relative rounding allowed, on top of the quadrature estimate, for each of
# the two terms an envelope slack is the difference of.
_SLACK_ROUNDING = 4.0 * sys.float_info.epsilon

# Central-difference step for the entropy-rate cross-check; balances
# truncation against quadrature noise at the default tolerances.
_FD_STEP_SCALE = 1e-4

# Slack of the large-time band check, in units of kappa^2.
_BAND_SLACK = 0.05


@dataclass(frozen=True)
class H3Params:
    """Hyperbolic-space configuration: curvature magnitude and quadrature budget."""

    kappa: float
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")


def heat_kernel(p: H3Params, t: float, d: float) -> float:
    """Transition density at time t between points at geodesic distance d."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if d < 0.0:
        raise ValueError("d must be nonnegative")
    k = p.kappa
    log_h = (
        -d * d / (2.0 * t)
        - 1.5 * math.log(2.0 * math.pi * t)
        - log_sinh_ratio(k * d)
        - 0.5 * k * k * t
    )
    return math.exp(log_h)


def _radial_mass(p: H3Params, t: float, r: float) -> float:
    """Radial density of the kernel: h(t, r) times the 4 pi sinh^2(kr)/k^2 shell.

    Written with the exponentials combined so it stays finite at any
    kappa^2 t (the raw shell factor alone would overflow).  Elementwise in r.
    """
    k = p.kappa
    expo = -((r - k * t) ** 2) / (2.0 * t)
    pref = 4.0 * math.pi / k * (2.0 * math.pi * t) ** -1.5
    return pref * r * np.exp(expo) * 0.5 * -np.expm1(-2.0 * k * r)


def normalization_quadrature(p: H3Params, t: float) -> float:
    """Total kernel mass by radial quadrature; equals 1 for every t."""
    result = integrate_semi_infinite(
        lambda r: _radial_mass(p, t, r), p.quadrature,
        peak_hint=p.kappa * t, peak_width=math.sqrt(t))
    return require_converged(result, "kernel normalization").value


def I1(p: H3Params, t: float) -> float:
    """Scaled second moment of the kernel, in closed form: (kappa^2 t + 3)/2."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    return 0.5 * (p.kappa * p.kappa * t + 3.0)


def I1_quadrature(p: H3Params, t: float) -> float:
    """Second-moment integral done honestly by radial quadrature."""
    result = integrate_semi_infinite(
        lambda r: _radial_mass(p, t, r) * r * r, p.quadrature,
        peak_hint=p.kappa * t, peak_width=math.sqrt(t))
    return require_converged(result, "second moment").value / (2.0 * t)


def xi(p: H3Params, t: float) -> float:
    """xi times exp(kappa^2 t/2): sqrt(2/pi) / (kappa t^{3/2}); always positive."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    return _SQRT_TWO_OVER_PI / (p.kappa * t ** 1.5)


def xi_prime(p: H3Params, t: float) -> float:
    """d/dt of xi, times exp(kappa^2 t/2); always negative."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    k = p.kappa
    return -(k * k * t + 3.0) / (math.sqrt(2.0 * math.pi) * k * t ** 2.5)


def _closed_form(p: H3Params, t: float, prime: bool) -> tuple[float, float, float]:
    """(closed, lower term, upper term) for eta, or for eta' where prime is
    set, all times exp(-kappa^2 t/2).

    closed is kappa M(2, sinh) for eta and kappa M(4, sinh)/(2t^2) for eta',
    the part of the integral that log(sinh x/x) = x - G(x) gives in closed
    form.  The envelope is (closed - lower term, closed - upper term), so the
    remainder R = closed - eta lies strictly between the upper and the lower
    term.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    k = p.kappa
    k2t = k * k * t
    a = alpha(k, t)
    st = math.sqrt(t)
    decayed = math.exp(-0.5 * k2t)  # harmless underflow to 0 at large k2t
    if not prime:
        closed = k * t * st * (k2t + 1.0) * a + k * k * t * t * decayed
        coeff = _SQRT_HALF_PI * k * t * st
        return (closed, coeff * math.log(2.0 * k2t + 4.0),
                coeff * math.log1p(_SQRT_HALF_PI * k2t / a))
    quartic = k2t * k2t + 6.0 * k2t + 3.0
    closed = 0.5 * k * st * quartic * a + 0.5 * k * k * t * (k2t + 5.0) * decayed
    coeff = 0.5 * _SQRT_HALF_PI * k * st * (k2t + 3.0)
    lower_arg = (
        2.0 * k * _SQRT_TWO_OVER_PI * st * (k2t + 5.0) / (k2t + 3.0) * decayed
        + 2.0 * _SQRT_TWO_OVER_PI * quartic / (k2t + 3.0) * a
    )
    upper_arg = _SQRT_HALF_PI * k2t * (k2t + 3.0) / (k * st * decayed + (k2t + 1.0) * a)
    return closed, coeff * math.log1p(lower_arg), coeff * math.log1p(upper_arg)


class _Integral(NamedTuple):
    """eta (or eta') at one point, with its remainder R = closed - eta, the
    error estimate they share and the point's ``_closed_form``, all times
    exp(-kappa^2 t/2)."""

    value: float
    remainder: float
    error: float
    closed_form: tuple[float, float, float]

    def verdicts(self, name: str) -> tuple["Verdict", "Verdict"]:
        """The lower and upper envelope checks, each taken on the remainder:
        eta - lower = (lower term) - R and upper - eta = R - (upper term)."""
        _, lower, upper = self.closed_form
        rest = self.remainder
        size = abs(self.value) or 1.0  # an eta that underflowed to 0: margins stay absolute
        return tuple(
            Verdict(f"{name} {side}", slack / size,
                    (self.error + _SLACK_ROUNDING * (abs(term) + abs(rest))) / size)
            for side, slack, term in (("lower", lower - rest, lower),
                                      ("upper", rest - upper, upper)))


def _trapezoid(p: H3Params, points: Sequence[tuple[float, bool]]) -> list[_Integral]:
    """eta, or eta' where the flag is set, at each (t, prime) point, by the
    fixed-node trapezoid rule; see the module docstring.

    Every point is one row of a (points x nodes) array program, so a point's
    result does not depend on the batch it is in.  Raises
    QuadratureConvergenceError, for the first point in order, when the
    estimate |I_h - I_2h| exceeds max(rtol |I_h|, atol) of the quadrature spec.
    """
    for t, _ in points:
        if t <= 0.0:
            raise ValueError("t must be positive")
    k = p.kappa
    ts = np.array([t for t, _ in points], dtype=float)
    cubic = np.array([prime for _, prime in points], dtype=bool)
    remainder = k * k * ts >= _REMAINDER_FROM
    r = (k * ts)[:, None] + np.sqrt(ts)[:, None] * _NODES
    x = k * r
    f = np.empty(r.shape)
    f[~remainder] = log_sinh_ratio(np.abs(x[~remainder]))
    far = x[remainder]  # >= 5 at every node
    # G(x) = x - log(sinh x / x), written so that nothing cancels
    f[remainder] = np.log(2.0 * far) - np.log(-np.expm1(-2.0 * far))
    weight = r.copy()
    cube = r[cubic]
    weight[cubic] = cube * cube * cube
    f *= weight * _GAUSS
    fine = _STEP * f.sum(axis=1)
    coarse = 2.0 * _STEP * f[:, ::2].sum(axis=1)
    estimate = np.abs(fine - coarse)
    spec = p.quadrature
    tolerance = np.maximum(spec.relative_tolerance * np.abs(fine), spec.absolute_tolerance)
    unconverged = np.flatnonzero(~(estimate <= tolerance))  # a NaN estimate too
    if unconverged.size:
        t, prime = points[unconverged[0]]
        raise QuadratureConvergenceError(
            f"log-weighted sinh integral (power {3 if prime else 1}) at t={t!r}: "
            f"error estimate {estimate[unconverged[0]]:.3e} on {_NODES.size} nodes")
    integrals = []
    for (t, prime), rem, quad, est in zip(points, remainder.tolist(), fine.tolist(),
                                          estimate.tolist()):
        scale = 0.5 * math.sqrt(t) * (0.5 / (t * t) if prime else 1.0)
        terms = _closed_form(p, t, prime)
        quad *= scale
        value, rest = (terms[0] - quad, quad) if rem else (quad, terms[0] - quad)
        integrals.append(_Integral(value, rest, scale * est, terms))
    return integrals


def eta_batch(p: H3Params, points: Sequence[tuple[float, bool]]) -> list[float]:
    """eta(t), or eta'(t) where the flag is set, times exp(-kappa^2 t/2), at
    each (t, prime) point, by the fixed-node trapezoid rule."""
    return [integral.value for integral in _trapezoid(p, points)]


def eta_quadrature(p: H3Params, points: Sequence[tuple[float, bool]]) -> list[float]:
    """``eta_batch`` by adaptive quadrature: the oracle the trapezoid rule is
    tested against.

    Each value is the log-weighted sinh integral

        integral_0^inf exp(-r^2/2t) r^power sinh(kappa r) log(sinh kr/kr) dr

    with power 1 for eta and power 3 (times 1/(2t^2)) for eta'.  sinh is
    split into its exponential halves, the square is completed, and each
    half is integrated in the substituted variable r = -+kappa t + sqrt(t) s,
    so nothing ever sees the exp(kappa^2 t/2) growth directly.  All 2 x len
    (points) integrals run as one lockstep quadrature batch; convergence is
    required point by point, in order.
    """
    for t, _ in points:
        if t <= 0.0:
            raise ValueError("t must be positive")
    k = p.kappa
    ts = np.repeat([t for t, _ in points], 2)
    centers = k * ts
    centers[1::2] *= -1.0
    scales = np.sqrt(ts)
    cubic = np.repeat([prime for _, prime in points], 2)

    def g(s, j):
        # maximum() absorbs the one-ulp negative r at the substituted domain edge
        r = np.maximum(0.0, centers[j] + scales[j] * s)
        weight = np.where(cubic[j], r * r * r, r)
        return np.exp(-0.5 * s * s) * weight * log_sinh_ratio(k * r)

    results = integrate_shifted_gaussians(g, centers.tolist(), scales.tolist(),
                                          p.quadrature)
    values = []
    for (t, prime), plus, minus in zip(points, results[0::2], results[1::2]):
        context = f"log-weighted sinh integral (power {3 if prime else 1})"
        jp = require_converged(plus, context).value
        jm = require_converged(minus, context).value
        value = 0.5 * math.sqrt(t) * (jp - jm)
        values.append(value * (0.5 / (t * t)) if prime else value)
    return values


def eta(p: H3Params, t: float) -> float:
    """The transcendental factor of I2, times exp(-kappa^2 t/2)."""
    return eta_batch(p, [(t, False)])[0]


def eta_prime(p: H3Params, t: float) -> float:
    """d/dt of eta, times exp(-kappa^2 t/2): the same integral with an
    r^3/(2t^2) weight."""
    return eta_batch(p, [(t, True)])[0]


def eta_envelope(p: H3Params, t: float) -> tuple[float, float]:
    """Closed-form (lower, upper) bounds that eta must sit strictly inside,
    times exp(-kappa^2 t/2)."""
    return _envelope(_closed_form(p, t, False))


def eta_prime_envelope(p: H3Params, t: float) -> tuple[float, float]:
    """Closed-form (lower, upper) bounds for eta', times exp(-kappa^2 t/2)."""
    return _envelope(_closed_form(p, t, True))


def _envelope(closed_form: tuple[float, float, float]) -> tuple[float, float]:
    closed, lower, upper = closed_form
    return closed - lower, closed - upper


def entropy(p: H3Params, t: float) -> float:
    """Differential entropy of the kernel at time t (nats)."""
    return entropies(p, [t])[0]


def entropies(p: H3Params, times) -> list[float]:
    """The entropy at each time, from one trapezoid batch."""
    times = [float(t) for t in times]
    etas = eta_batch(p, [(t, False) for t in times])
    return [_assemble_entropy(p, t, e)[0] for t, e in zip(times, etas)]


def _assemble_entropy(p: H3Params, t: float, e: float) -> tuple[float, float, float]:
    """(entropy, I1, I2) from scaled eta: the closed-form pieces plus I2 = xi eta."""
    k = p.kappa
    i1 = I1(p, t)
    i2 = xi(p, t) * e
    return 1.5 * math.log(2.0 * math.pi * t) + 0.5 * k * k * t + i1 + i2, i1, i2


def entropy_quadrature(p: H3Params, t: float) -> float:
    """Entropy by one direct radial quadrature of -h log h, no decomposition.

    Independent oracle for the assembled value; also settles the radial
    Gaussian-weight reading discussed in the module docstring.
    """
    k = p.kappa
    base = 1.5 * math.log(2.0 * math.pi * t) + 0.5 * k * k * t

    def integrand(r):
        neg_log_h = r * r / (2.0 * t) + base + log_sinh_ratio(k * r)
        return _radial_mass(p, t, r) * neg_log_h

    result = integrate_semi_infinite(integrand, p.quadrature,
                                     peak_hint=k * t, peak_width=math.sqrt(t))
    return require_converged(result, "direct entropy integral").value


def entropy_rate(p: H3Params, t: float) -> float:
    """d/dt of the entropy, assembled from the remainders of eta and eta'."""
    plain, prime = _trapezoid(p, [(t, False), (t, True)])
    return _assemble_rate(p, t, plain.remainder, prime.remainder)


def _assemble_rate(p: H3Params, t: float, rest: float, rest_prime: float) -> float:
    """d/dt Ent = 3/(2t) + kappa^2 + xi' eta + xi eta' from the scaled
    remainders R and R' of eta and eta'.

    With eta = kappa M_2 - R and eta' = kappa M_4/(2t^2) - R', the closed
    part xi' kappa M_2 + xi kappa M_4/(2t^2) cancels analytically to
    2 kappa^2 alpha/sqrt(2 pi) + 2 kappa exp(-kappa^2 t/2)/sqrt(2 pi t),
    which leaves -(xi' R + xi R') as the only computed term.
    """
    k = p.kappa
    closed = 2.0 * k * (k * alpha(k, t) + math.exp(-0.5 * k * k * t) / math.sqrt(t))
    return 1.5 / t + k * k + closed / _SQRT_TWO_PI - (
        xi_prime(p, t) * rest + xi(p, t) * rest_prime)


def entropy_rate_fd(p: H3Params, t: float) -> float:
    """Central finite difference of the entropy, for cross-checking the rate."""
    h = _FD_STEP_SCALE * t
    return _assemble_rate_fd(p, t, h, *eta_batch(p, [(t + h, False), (t - h, False)]))


def _assemble_rate_fd(p: H3Params, t: float, h: float,
                      e_up: float, e_down: float) -> float:
    """(Ent(t + h) - Ent(t - h)) / 2h from scaled eta at t + h and t - h."""
    return (_assemble_entropy(p, t + h, e_up)[0]
            - _assemble_entropy(p, t - h, e_down)[0]) / (2.0 * h)


def asymptotic_band(p: H3Params) -> tuple[float, float]:
    """Large-time band for the entropy rate: kappa^2 (2 -+ log sqrt 2)."""
    k2 = p.kappa * p.kappa
    return k2 * (2.0 - _LOG_SQRT2), k2 * (2.0 + _LOG_SQRT2)


@dataclass(frozen=True)
class Verdict:
    """One side of an envelope check.

    margin is how far eta (or eta') sits inside the bound, negative outside;
    error is the error estimate of that margin.  Both are relative to the
    checked value.
    """

    check: str
    margin: float
    error: float

    @property
    def state(self) -> str:
        """inside or outside when the margin clears its error, else unresolved."""
        if self.margin > self.error:
            return "inside"
        if self.margin < -self.error:
            return "outside"
        return "unresolved"


@dataclass(frozen=True)
class H3EntropyRecord:
    """One time-grid row of the hyperbolic entropy sweep.

    The six eta fields hold eta, eta' and their envelopes times
    exp(-kappa^2 t/2), the scale ``eta_batch`` returns them at.  verdicts
    holds the four envelope checks (eta and eta', lower and upper).
    """

    t: float
    entropy: float
    I1: float
    I2: float
    rate_direct: float
    rate_fd: float
    eta: float
    eta_lower: float
    eta_upper: float
    etap: float
    etap_lower: float
    etap_upper: float
    band_lo: float
    band_hi: float
    verdicts: tuple[Verdict, ...]

    @property
    def envelope_ok(self) -> bool:
        return all(v.state == "inside" for v in self.verdicts)

    def band_margin(self, kappa: float) -> float:
        """How far rate_direct sits inside the band widened by _BAND_SLACK
        kappa^2; negative outside."""
        slack = _BAND_SLACK * kappa * kappa
        return min(self.rate_direct - (self.band_lo - slack),
                   (self.band_hi + slack) - self.rate_direct)

    def band_ok(self, kappa: float) -> bool:
        """Band containment, enforced once t >= 20/kappa^2."""
        return self.t * kappa * kappa < 20.0 or self.band_margin(kappa) >= 0.0


def evaluate_records(p: H3Params, times) -> list[H3EntropyRecord]:
    """One record per time, from a single trapezoid batch.

    Per row the batch holds eta and eta' at t and eta at t -+ h for rate_fd;
    each row is then assembled exactly as the single-time functions do.
    """
    times = [float(t) for t in times]
    points = []
    for t in times:
        h = _FD_STEP_SCALE * t
        points += [(t, False), (t, True), (t + h, False), (t - h, False)]
    integrals = _trapezoid(p, points)
    band_lo, band_hi = asymptotic_band(p)
    records = []
    for i, t in enumerate(times):
        e, ep, e_up, e_down = integrals[4 * i:4 * i + 4]
        e_lo, e_hi = _envelope(e.closed_form)
        ep_lo, ep_hi = _envelope(ep.closed_form)
        ent, i1, i2 = _assemble_entropy(p, t, e.value)
        records.append(H3EntropyRecord(
            t=t,
            entropy=ent,
            I1=i1,
            I2=i2,
            rate_direct=_assemble_rate(p, t, e.remainder, ep.remainder),
            rate_fd=_assemble_rate_fd(p, t, _FD_STEP_SCALE * t, e_up.value, e_down.value),
            eta=e.value,
            eta_lower=e_lo,
            eta_upper=e_hi,
            etap=ep.value,
            etap_lower=ep_lo,
            etap_upper=ep_hi,
            band_lo=band_lo,
            band_hi=band_hi,
            verdicts=e.verdicts("eta") + ep.verdicts("eta'"),
        ))
    return records


def evaluate_record(p: H3Params, t: float) -> H3EntropyRecord:
    return evaluate_records(p, [t])[0]
