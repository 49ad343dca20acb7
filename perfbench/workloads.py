"""Seeded request streams for the heatent benchmark, and the output checks.

A stream is a sequence of blocks.  Block ``b`` of a workload is drawn from
``numpy.random.default_rng([seed, 0, b])`` and a fixed low-discrepancy
offset, so the same seed always yields the same stream and any block can be
rebuilt on its own.  Every block holds one draw from each stratum of the
workload's inputs.  The offsets place the cost-setting parameters (h3
windows of kappa^2 t, row counts, cutoffs, drift stop times) and the
repeated request; the seed sets every other input (kappa, the times, the
random fields, the formats, the order).  Each block ends with a repeat of
one of its own requests; the repeat's output must be byte-identical to the
original's.

A request is either an in-process call to ``heatent.cli.main(argv)`` or, for
inputs the command line cannot reach (random fields), a call to the public
``spectral.entropy_trace`` and ``bounds.check_bounds`` functions.  Every
request is expected to succeed: a non-zero exit, an exception or a broken
invariant counts it as failed.  Checks use invariants only, never stored
outputs, so a change that legitimately moves numbers within their stated
tolerances still passes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from heatent import bounds as bd
from heatent import cli
from heatent import fixtures as fx
from heatent import spectral as sp

WORKLOADS = ("h3-sweep", "spectral-evolve", "drift-evolve")

# Quadrature-side verify groups mixed into h3-sweep.
H3_VERIFY_GROUPS = (
    "moment_table", "second_moment", "h3_normalization", "envelopes", "band",
    "euclidean_limit", "entropy_decomposition", "sinh_ratio_bounds",
    "log_sandwich",
)
SPECTRAL_VERIFY_GROUPS = ("bochner_residual", "hessian_trace", "cauchy_step")

# Tolerances of the output checks.
RATE_RTOL = 1e-4  # rate_direct vs rate_fd, the rate_consistency tolerance
ULP_RTOL = 4.0 * np.finfo(float).eps  # "exact" closed forms, allowing reassociation
# Relative roundoff assumed for a computed entropy; rate_fd divides the
# difference of two entropies by 2e-4*t, so its roundoff is about
# 1e-14*|S|/(1e-4*t).  rate_fd is compared only where that stays below
# RATE_RTOL of the rate.
ENTROPY_ROUNDOFF = 1e-14
FD_STEP_SCALE = 1e-4
BAND_SLACK = 0.05  # the h3 band check's slack, in units of kappa^2


@dataclass
class Request:
    """One request of a stream.

    ``argv`` is set for a CLI request; ``field``/``times`` for an API trace.
    ``check`` inspects (exit status, stdout) and returns a list of problems.
    """

    label: str
    check: Callable[[int, str], list]
    argv: Optional[list] = None
    field: Optional[sp.SpectralField] = None
    times: Optional[np.ndarray] = None
    repeat_of: Optional[int] = None  # index within the block of the original


@dataclass
class Outcome:
    """What one request did, as the benchmark saw it."""

    seconds: float
    cpu_seconds: float
    status: Optional[int]
    stdout: str
    problems: list = field(default_factory=list)
    raised: Optional[str] = None


# ---------------------------------------------------------------------------
# execution


def execute(req: Request) -> Outcome:
    """Run one request with output captured; exceptions become outcomes."""
    out, err = io.StringIO(), io.StringIO()
    status: Optional[int] = None
    raised = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req.argv is not None:
                status = cli.main(req.argv)
            else:
                status = _api_trace(req, out)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a failing request must not stop the run
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    outcome = Outcome(seconds, cpu, status, out.getvalue(), raised=raised)
    if raised is None:
        try:
            outcome.problems = req.check(status, outcome.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            outcome.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return outcome


def _api_trace(req: Request, out) -> int:
    """entropy_trace plus check_bounds on a random field; the arrays are
    written to ``out`` as JSON so the repeat check can compare bytes."""
    trace = sp.entropy_trace(req.field, req.times)
    reports = bd.check_bounds(trace, req.field.manifold, req.field)
    payload = {
        "trace": {name: getattr(trace, name).tolist()
                  for name in ("times", "entropy", "fisher", "rate_direct", "rate_fd")},
        "reports": {r.bound_name: {"rhs": np.asarray(r.rhs).tolist(),
                                   "satisfied": [bool(s) for s in r.satisfied]}
                    for r in reports},
    }
    out.write(json.dumps(payload, sort_keys=True))
    return 0 if all(r.all_satisfied for r in reports) else 1


# ---------------------------------------------------------------------------
# output checks


def _rows(stdout: str) -> list[dict]:
    """Rows of a CSV table or a JSON list of row objects, as float dicts."""
    text = stdout.lstrip()
    if text.startswith("["):
        return [{k: float(v) for k, v in row.items()} for row in json.loads(text)]
    reader = csv.DictReader(io.StringIO(stdout))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def _grid_problems(t: list, count: int, t_start: float, t_stop: float) -> list:
    problems = []
    if len(t) != count:
        return [f"{len(t)} rows, expected {count}"]
    if any(b <= a for a, b in zip(t, t[1:])):
        problems.append("time grid not strictly increasing")
    if not (math.isclose(t[0], t_start, rel_tol=1e-12)
            and math.isclose(t[-1], t_stop, rel_tol=1e-12)):
        problems.append(f"time grid [{t[0]!r}, {t[-1]!r}] is not the requested window")
    return problems


def _rate_problems(times, entropy, rate_direct, rate_fd) -> list:
    """Shared invariants of a spectral trace: entropy never decreases beyond
    its roundoff (it flattens to float noise once the field is uniform), the
    direct rate is nonnegative and matches the finite difference wherever
    the finite difference is above its roundoff floor."""
    problems = []
    for i in range(1, len(times)):
        if entropy[i] < entropy[i - 1] - ENTROPY_ROUNDOFF * max(1.0, abs(entropy[i - 1])):
            problems.append(f"entropy decreases at t={times[i]!r}")
    for t, s, rd, rf in zip(times, entropy, rate_direct, rate_fd):
        if rd < 0.0:
            problems.append(f"negative rate_direct at t={t!r}")
        floor = ENTROPY_ROUNDOFF * max(1.0, abs(s)) / (FD_STEP_SCALE * t) / RATE_RTOL
        if rd > floor and abs(rd - rf) > RATE_RTOL * abs(rd):
            problems.append(f"rate_fd disagrees at t={t!r}: {rd!r} vs {rf!r}")
    return problems


def check_h3(kappa: float, t_start: float, t_stop: float, count: int):
    def check(status: int, stdout: str) -> list:
        rows = _rows(stdout)
        t = [r["t"] for r in rows]
        problems = _grid_problems(t, count, t_start, t_stop)
        k2 = kappa * kappa
        any_fail = False
        unresolved = False
        for r in rows:
            closed = 0.5 * (k2 * r["t"] + 3.0)
            if abs(r["I1"] - closed) > ULP_RTOL * closed:
                problems.append(f"I1 != (k^2 t + 3)/2 at t={r['t']!r}")
            rd, rf = r["rate_direct"], r["rate_fd"]
            if not abs(rd - rf) <= RATE_RTOL * abs(rd):
                problems.append(f"rate_fd disagrees at t={r['t']!r}: {rd!r} vs {rf!r}")
            if r["t"] * k2 >= 20.0:
                slack = BAND_SLACK * k2
                if not r["band_lo"] - slack <= rd <= r["band_hi"] + slack:
                    any_fail = True
            env = [r[c] for c in ("eta_lower", "eta", "eta_upper",
                                  "etap_lower", "etap", "etap_upper")]
            if not all(math.isfinite(v) for v in env):
                # The CSV collapses split-exponent values to floats, which
                # overflow from kappa^2 t ~ 1e3 on; the verdict is then the
                # program's alone.
                unresolved = True
            elif not (env[0] < env[1] < env[2] and env[3] < env[4] < env[5]):
                any_fail = True
        if any_fail and status != 1:
            problems.append(f"a row fails its envelope or band check but exit is {status}")
        if not any_fail and not unresolved and status != 0:
            problems.append(f"every row passes its checks but exit is {status}")
        return problems
    return check


def check_evolve(count: int, t_start: float, t_stop: float):
    def check(status: int, stdout: str) -> list:
        rows = _rows(stdout)
        t = [r["t"] for r in rows]
        problems = _grid_problems(t, count, t_start, t_stop)
        problems += _rate_problems(t, [r["entropy"] for r in rows],
                                   [r["rate_direct"] for r in rows],
                                   [r["rate_fd"] for r in rows])
        oks = [v for r in rows for k, v in r.items() if k.startswith("ok_")]
        if not oks:
            problems.append("no bound columns")
        all_ok = all(v == 1.0 for v in oks)
        if not all_ok:
            problems.append("a bound is violated")
        if status != (0 if all_ok else 1):
            problems.append(f"exit {status} does not match the bound columns")
        return problems
    return check


def check_bounds_table(dimension: int, count: int, t_start: float, t_stop: float):
    def check(status: int, stdout: str) -> list:
        rows = _rows(stdout)
        problems = _grid_problems([r["t"] for r in rows], count, t_start, t_stop)
        for r in rows:
            if not all(math.isfinite(v) and v >= 0.0 for v in r.values()):
                problems.append(f"non-finite or negative entry at t={r['t']!r}")
            euclid = dimension / (2.0 * r["t"])
            if abs(r["euclidean_reference"] - euclid) > ULP_RTOL * euclid:
                problems.append(f"euclidean_reference != n/(2t) at t={r['t']!r}")
        return problems
    return check


def check_verify(group: str):
    def check(status: int, stdout: str) -> list:
        report = json.loads(stdout)
        passed = report[group]["pass"] is True
        problems = [] if passed else [f"verify group {group} did not pass"]
        if status != (0 if passed else 1):
            problems.append(f"exit {status} does not match the report")
        return problems
    return check


def check_api(count: int):
    def check(status: int, stdout: str) -> list:
        payload = json.loads(stdout)
        tr = payload["trace"]
        problems = [] if len(tr["times"]) == count else ["wrong trace length"]
        problems += _rate_problems(tr["times"], tr["entropy"], tr["rate_direct"],
                                   tr["rate_fd"])
        all_ok = all(all(r["satisfied"]) for r in payload["reports"].values())
        if not payload["reports"] or not all_ok:
            problems.append("a bound is violated")
        return problems
    return check


# ---------------------------------------------------------------------------
# request generators


def _grid_argv(t_start: float, t_stop: float, count: int, scale: str) -> list:
    return ["--t-start", repr(float(t_start)), "--t-stop", repr(float(t_stop)),
            "--t-count", str(count), "--t-scale", scale]


def _window(rng, lo: float, hi: float, count: int):
    """Seeded time window inside [lo, hi] with a seeded scale."""
    a, b = np.sort(rng.uniform(math.log(lo), math.log(hi), size=2))
    scale = "log" if rng.random() < 0.5 else "lin"
    return math.exp(a), math.exp(b), count, scale


def _strata(offset: float, k: int, lo: int, hi: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal strata, at ``offset``."""
    return [lo + int((hi - lo + 1) * (j + offset) / k) for j in range(k)]


def verify_request(group: str) -> Request:
    return Request(f"verify:{group}", check_verify(group), argv=["verify", "--only", group])


def h3_request(kappa: float, t_start: float, t_stop: float, fmt: str) -> Request:
    argv = ["h3", "--kappa", repr(float(kappa)), *_grid_argv(t_start, t_stop, 40, "log"),
            "--format", fmt]
    return Request("h3", check_h3(kappa, t_start, t_stop, 40), argv=argv)


def h3_block(rng, offset: float) -> list[Request]:
    """20 h3 sweeps whose 1-decade windows of kappa^2 t together cover
    [1e-8, 1e12], with kappa in [0.25, 4] (both stratified), plus the nine
    quadrature-side verify groups."""
    n = 20
    v, perm = rng.random(n), rng.permutation(n)
    fmts = rng.random(n)
    reqs = []
    for i in range(n):
        a = -8.0 + 19.0 * (i + offset) / n  # log10 of kappa^2 t at the window start
        kappa = 0.25 * 16.0 ** ((perm[i] + v[i]) / n)
        k2 = kappa * kappa
        reqs.append(h3_request(kappa, 10.0 ** a / k2, 10.0 ** (a + 1.0) / k2,
                               "json" if fmts[i] < 0.25 else "csv"))
    reqs += [verify_request(g) for g in H3_VERIFY_GROUPS]
    return reqs


# Fixture time ranges, and dimensions for the euclidean_reference column.
_SPECTRAL_RANGES = {"circle": (0.01, 2.0), "torus": (0.01, 2.0), "sphere": (0.01, 8.0),
                    "torus-drift": (0.02, 2.0)}
_DIMENSION = {"circle": 1, "torus": 2, "sphere": 2, "torus-drift": 2}


def evolve_request(manifold: str, t_start: float, t_stop: float, count: int,
                   scale: str) -> Request:
    argv = ["evolve", "--manifold", manifold, *_grid_argv(t_start, t_stop, count, scale)]
    return Request(f"evolve:{manifold}", check_evolve(count, t_start, t_stop), argv=argv)


def random_torus_field(rng, cutoff: int) -> sp.SpectralField:
    """Seeded positive band-limited torus density of unit mass."""
    raw = fx.random_positive_torus_field(rng, sp.torus2(1.0, 1.0), cutoff=cutoff)
    return sp.SpectralField(raw.manifold, raw.coefficients / sp.mass(raw), raw.cutoff)


def random_sphere_field(rng, cutoff: int) -> sp.SpectralField:
    """Seeded positive zonal sphere density of unit mass.

    The data are a polynomial in cos(theta) of degree cutoff // 2, so the
    cutoff leaves headroom for the non-polynomial entropy integrands, as in
    the built-in sphere fixture.
    """
    degree = max(1, cutoff // 2)
    coeffs = rng.normal(size=degree) * 0.6 ** np.arange(1, degree + 1)
    fine = np.cos(np.linspace(0.0, math.pi, 1025))
    peak = float(np.abs(np.polynomial.polynomial.polyval(fine, np.r_[0.0, coeffs])).max())
    poly = np.r_[1.5, 0.5 * coeffs / peak]
    raw = sp.project_initial(
        sp.sphere2(1.0), lambda th: np.polynomial.polynomial.polyval(np.cos(th), poly),
        cutoff)
    return sp.SpectralField(raw.manifold, raw.coefficients / sp.mass(raw), raw.cutoff)


def api_request(label: str, fld: sp.SpectralField, t_start: float, t_stop: float,
                count: int, scale: str) -> Request:
    times = (np.geomspace if scale == "log" else np.linspace)(t_start, t_stop, count)
    return Request(label, check_api(count), field=fld, times=times)


def spectral_block(rng, offset) -> list[Request]:
    """Exact spectral traffic: evolve and bounds on the built-in fixtures,
    API traces on random torus and zonal-sphere fields of varying cutoff,
    and the three pointwise-identity verify groups.  Row counts and cutoffs,
    which set a request's cost, are stratified with rotating offsets."""
    reqs = []
    for salt, manifold in enumerate(("circle", "torus", "sphere"), start=2):
        for count in _strata(offset(salt), 2, 2, 16):
            reqs.append(evolve_request(
                manifold, *_window(rng, *_SPECTRAL_RANGES[manifold], count)))
    for manifold in ("circle", "torus", "sphere", "torus-drift"):
        t0, t1, count, scale = _window(rng, *_SPECTRAL_RANGES[manifold],
                                       int(rng.integers(2, 25)))
        fmt = "json" if rng.random() < 0.5 else "csv"
        argv = ["bounds", "--manifold", manifold, *_grid_argv(t0, t1, count, scale),
                "--format", fmt]
        reqs.append(Request(f"bounds:{manifold}",
                            check_bounds_table(_DIMENSION[manifold], count, t0, t1),
                            argv=argv))
    for salt, (label, build, lo, hi, t_hi) in enumerate(
            (("api:torus", random_torus_field, 2, 6, 2.0),
             ("api:sphere", random_sphere_field, 6, 14, 8.0)), start=5):
        # small cutoffs get long grids and large cutoffs short ones
        cutoffs = _strata(offset(salt), 2, lo, hi)
        counts = _strata(offset(salt + 2), 2, 2, 16)[::-1]
        for cutoff, count in zip(cutoffs, counts):
            reqs.append(api_request(label, build(rng, cutoff), *_window(rng, 0.01, t_hi, count)))
    reqs += [verify_request(g) for g in SPECTRAL_VERIFY_GROUPS]
    return reqs


# Drift windows per block: DRIFT_SHORT short ones stratified over
# t_stop in [0.025, 0.25], one medium one of MEDIUM_ROWS rows ending at
# MEDIUM_STOP, and a long one (t_stop in [1, 2]) every other block.  The
# heavy verify groups come once per DRIFT_PERIOD blocks.
DRIFT_SHORT = 10
MEDIUM_STOP = 0.45
MEDIUM_ROWS = 5
DRIFT_PERIOD = 8


def drift_window(rng, t_stop: float, count: int) -> Request:
    t_start = 0.02 * (t_stop / 0.02) ** rng.uniform(0.0, 0.9)
    scale = "log" if rng.random() < 0.5 else "lin"
    return evolve_request("torus-drift", t_start, t_stop, count, scale)


def drift_block(rng, index: int, offset) -> list[Request]:
    """Drifted-torus evolve requests with seeded windows inside [0.02, 2].

    A request costs time in proportion to its t_stop, and about 5% more per
    row, so t_stop and the row count (2 to 8, scrambled over the windows)
    are placed by the rotating offsets rather than drawn from the seed.  Most
    windows are short, so that a run of a few tens of seconds holds more
    than 100 requests; the medium windows all have the same t_stop and row
    count, a cluster of equal cost with the 90th latency percentile inside
    it, which keeps that percentile steady; the long windows reach the end
    of the fixture's range.
    """
    x = (np.arange(DRIFT_SHORT) + offset(0)) / DRIFT_SHORT
    stops = [0.025 * 10.0 ** xi for xi in x]
    if index % 2 == 1:
        stops.append(1.0 + offset(3))
    reqs = [drift_window(rng, t_stop, 2 + int(7 * ((offset(4) + j * _GOLDEN) % 1.0)))
            for j, t_stop in enumerate(stops)]
    reqs.append(drift_window(rng, MEDIUM_STOP, MEDIUM_ROWS))
    if index % DRIFT_PERIOD == 0:
        reqs.append(verify_request("fixture_bounds"))
    if index % DRIFT_PERIOD == DRIFT_PERIOD // 2:
        reqs.append(verify_request("rate_consistency"))
    return reqs


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rotation(index: int, salt: int) -> float:
    """Offset in [0, 1) for block ``index``: a fixed start per ``salt``
    advanced by the golden ratio each block.  The offsets of any run of
    consecutive blocks spread evenly over [0, 1), and they do not depend on
    the seed, so neither does the cost mix of a run of whole blocks."""
    return (math.sqrt(2.0) * (salt + 1) + index * _GOLDEN) % 1.0


def block(workload: str, seed: int, index: int) -> list[Request]:
    """Block ``index`` of a workload's stream: shuffled, plus one repeat."""
    rng = np.random.default_rng([seed, 0, index])
    offset = functools.partial(_rotation, index)
    if workload == "h3-sweep":
        reqs = h3_block(rng, offset(0))
    elif workload == "spectral-evolve":
        reqs = spectral_block(rng, offset)
    elif workload == "drift-evolve":
        reqs = drift_block(rng, index, offset)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    original = reqs[int(len(reqs) * offset(1))]
    reqs = [reqs[i] for i in rng.permutation(len(reqs))]
    position = next(i for i, r in enumerate(reqs) if r is original)
    reqs.append(replace(original, repeat_of=position))
    return reqs


def warmup_requests(workload: str) -> list[Request]:
    """Cheap requests touching each code path once, run before timing."""
    if workload == "h3-sweep":
        return [h3_request(1.0, 0.1, 10.0, "csv"), verify_request("second_moment")]
    if workload == "spectral-evolve":
        rng = np.random.default_rng(0)
        return [evolve_request(m, 0.1, 1.0, 2, "log") for m in ("circle", "torus", "sphere")] + [
            api_request("api:torus", random_torus_field(rng, 2), 0.1, 1.0, 2, "log"),
            verify_request("hessian_trace")]
    return [evolve_request("torus-drift", 0.02, 0.03, 2, "log")]


def build_inputs(workload: str, seed: int) -> None:
    """Set-up a CLI user pays: the workload's fixtures and its first block."""
    names = {"h3-sweep": (), "spectral-evolve": ("circle", "torus", "sphere"),
             "drift-evolve": ("torus-drift",)}[workload]
    for name in names:
        fx.get_fixture(name)
    block(workload, seed, 0)
