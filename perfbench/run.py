"""heatent benchmark: one seeded workload, closed loop with one client.

    python3 perfbench/run.py --workload h3-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  One process, no extra threads: the
BLAS/OpenMP thread counts are pinned to 1 before numpy is imported.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a warm closed loop over a fixed number of blocks of the
workload's request stream, sized so that the loop takes about ``--seconds``
on the reference machine.  Fixed work makes ``attempted`` and ``failed`` a
function of the seed alone.  Request times are normalised by the host's
speed, sampled with a reference kernel between requests (``reference.py``);
the raw times are in the detail line.  ``--trace 1`` runs each block of a
fixed prefix of the same stream (``TRACE_BLOCKS`` blocks) twice, traced and
untraced, and reports the per-layer metrics per request plus the tracing
overhead; the fixed prefix makes the deterministic counts repeat exactly for
a seed.

The last stdout line is the result object; the line before it records the
environment and the details behind the metrics.  Exit status 0 on a
completed run (failed requests are reported, not fatal), 2 when the
checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import reference  # noqa: E402 - numpy must see the thread settings above

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up timing: one fresh interpreter is started and discarded before the
# loop (cold file cache, first LAPACK load), then SETUP_SAMPLES between
# blocks spread over the loop, so that their median sees the same phases of
# the host's speed as the loop does.  Each is bracketed by SETUP_KERNEL_CALLS
# reference kernel calls before and after, which give its slowdown.
SETUP_SAMPLES = 7
SETUP_KERNEL_CALLS = 4
# Blocks in the traced prefix, per workload: each covers every request kind,
# including drift-evolve's once-per-DRIFT_PERIOD verify groups.
TRACE_BLOCKS = {"h3-sweep": 3, "spectral-evolve": 8, "drift-evolve": 5}
SPAN_DIR = ROOT / ".perfbench_out"
# Seconds one block of each workload takes on the reference machine (2 vCPUs
# of a shared x86-64 host, CPython 3.11, numpy 2.4); a run is
# ceil(--seconds / BLOCK_SECONDS) blocks.
BLOCK_SECONDS = {"h3-sweep": 2.0, "spectral-evolve": 0.6, "drift-evolve": 3.1}
# A loop that runs past DEADLINE_FACTOR * --seconds (a program many times
# slower than the reference) stops at the next request and reports what it
# has, so that the run ends within its time limit.
DEADLINE_FACTOR = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


class Unusable(Exception):
    """The checkout cannot be benchmarked; exit 2 without a result."""


def import_program():
    """Import heatent from the checkout's src/ and the workload module."""
    if not (SRC / "heatent" / "cli.py").is_file():
        raise Unusable(f"no heatent sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import heatent.cli
    if Path(heatent.cli.__file__).resolve().parent != (SRC / "heatent").resolve():
        raise Unusable(f"imported heatent from {heatent.cli.__file__}, not {SRC}")
    import workloads
    return workloads


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " + deps.get(k, {}).get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # older numpy without mode="dicts"
        blas = {"blas": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "blas_threads": {k: os.environ[k] for k in THREAD_VARIABLES},
        "fft": "numpy.fft (pocketfft), single-threaded",
        "clients": 1,
        "seed": seed,
        "setup_first_process_discarded": True,
        "machine": platform.machine(),
    }


def setup_once(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports heatent.cli and builds
    the workload's fixtures and first block of inputs."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import heatent.cli, workloads; "
            "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))")
    argv = [sys.executable, "-c", code, str(SRC), str(HERE), workload, str(seed)]
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Tally:
    """Outcome counts, and the byte-identity check of repeated requests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0  # exit 0 with a broken invariant, or not byte-identical
        self.reasons: dict = {}
        self.examples: list = []
        self.bytes_out = 0

    def add(self, req, outcome, block_outputs: dict, position: int) -> None:
        self.attempted += 1
        self.bytes_out += len(outcome.stdout.encode())
        key = (outcome.status, outcome.stdout)
        reasons = []
        if outcome.raised is not None:
            reasons.append("raised")
        elif outcome.status != 0:
            reasons.append("status")
        if outcome.problems:
            reasons.append("check")
            if outcome.status == 0:
                self.incorrect += 1
        if req.repeat_of is not None and block_outputs.get(req.repeat_of) != key:
            reasons.append("not_identical")
            self.incorrect += 1
        block_outputs[position] = key
        if reasons:
            self.failed += 1
            for r in reasons:
                self.reasons[r] = self.reasons.get(r, 0) + 1
            if len(self.examples) < 5:
                detail = outcome.raised or "; ".join(outcome.problems[:2]) or f"exit {outcome.status}"
                self.examples.append(f"{req.label} {req.argv or ''}: {detail}"[:300])


def run_stream(wl, blocks, deadline: float = None, tally: Tally = None, on_request=None,
               after_request=None):
    """Closed loop over ``blocks`` (an iterable of request lists) until they
    run out or ``deadline`` (perf_counter) has passed; returns per-request
    (seconds, cpu seconds).  ``after_request(seconds)`` runs untimed after
    each request."""
    samples = []
    for block in blocks:
        outputs: dict = {}
        for position, req in enumerate(block):
            if deadline is not None and time.perf_counter() >= deadline:
                return samples
            if on_request is not None:
                on_request(len(samples))
            outcome = wl.execute(req)
            samples.append((outcome.seconds, outcome.cpu_seconds))
            if tally is not None:
                tally.add(req, outcome, outputs, position)
            if after_request is not None:
                after_request(outcome.seconds)
    return samples


def loop_metrics(samples: list, wall_slowdown: list, cpu_slowdown: list) -> dict:
    """Closed-loop metrics from per-request (seconds, cpu seconds), each
    divided by the host's slowdown at that request (1.0 for raw times)."""
    latencies = [1000.0 * s / f for (s, _), f in zip(samples, wall_slowdown)]
    cpu = [1000.0 * c / f for (_, c), f in zip(samples, cpu_slowdown)]
    return {
        "requests_per_s": 1000.0 * len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "cpu_ms_per_request": sum(cpu) / len(cpu),
    }


def end_to_end(wl, workload: str, seed: int, seconds: float):
    setup_once(workload, seed)
    for req in wl.warmup_requests(workload):
        wl.execute(req)
    reference.sample()
    tally = Tally()
    speed: list = []
    setup: list = []
    blocks = math.ceil(seconds / BLOCK_SECONDS[workload])
    setup_points = [j * blocks // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]

    def timed_setup():
        kernel = [reference.sample()[0] for _ in range(SETUP_KERNEL_CALLS)]
        wall = setup_once(workload, seed)
        kernel += [reference.sample()[0] for _ in range(SETUP_KERNEL_CALLS)]
        return wall, statistics.median(kernel) / reference.NOMINAL_WALL_S

    def stream():
        for i in range(blocks):
            setup.extend(timed_setup() for _ in range(setup_points.count(i)))
            yield wl.block(workload, seed, i)

    start = time.perf_counter()
    samples = run_stream(wl, stream(), deadline=start + DEADLINE_FACTOR * seconds, tally=tally,
                         after_request=lambda s: speed.append(reference.samples_after(s)))
    wall = time.perf_counter() - start
    wall_slowdown = reference.slowdowns([[w for w, _ in ts] for ts in speed],
                                        reference.NOMINAL_WALL_S)
    cpu_slowdown = reference.slowdowns([[c for _, c in ts] for ts in speed],
                                       reference.NOMINAL_CPU_S)
    metrics = {
        "setup_s": statistics.median(w / f for w, f in setup),
        **loop_metrics(samples, wall_slowdown, cpu_slowdown),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    ones = [1.0] * len(samples)
    details = {"setup_samples_s": [w for w, _ in setup],
               "setup_slowdowns": [f for _, f in setup],
               "setup_raw_s": statistics.median(w for w, _ in setup), "loop_wall_s": wall,
               "blocks": blocks, "deadline_hit": wall >= DEADLINE_FACTOR * seconds,
               "latency_samples": len(samples),
               "slowdown_median": statistics.median(wall_slowdown),
               "slowdown_range": [min(wall_slowdown), max(wall_slowdown)],
               "raw": loop_metrics(samples, ones, ones)}
    return metrics, END_TO_END_UNITS, tally, details


def traced(wl, workload: str, seed: int, blocks: int):
    from tracing import METRIC_UNITS, Tracer
    for req in wl.warmup_requests(workload):
        wl.execute(req)
    # Each block of the fixed prefix runs twice, traced and untraced, in
    # alternating order so that neither side always runs warm or cold and
    # both see the same phases of a noisy machine.  Inputs are built before
    # tracing starts.
    prefix = [wl.block(workload, seed, i) for i in range(blocks)]
    tracer = Tracer()
    tally = Tally()
    walls = {False: 0.0, True: 0.0}
    n = 0
    for i, block in enumerate(prefix):
        for traced_pass in ((True, False) if i % 2 == 0 else (False, True)):
            if not traced_pass:
                start = time.perf_counter()
                run_stream(wl, [block])
                walls[False] += time.perf_counter() - start
                continue
            tracer.install()
            try:
                start = time.perf_counter()
                samples = run_stream(wl, [block], tally=tally,
                                     on_request=lambda k: setattr(tracer, "request", n + k))
                walls[True] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            n += len(samples)
    metrics = tracer.metrics(n, tally.bytes_out)
    metrics["trace.overhead_ms"] = 1000.0 * (walls[True] - walls[False]) / n
    metrics["trace.overhead_share"] = 100.0 * (walls[True] - walls[False]) / walls[False]
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(span_file)
    details = {"requests": n, "untraced_wall_s": walls[False], "traced_wall_s": walls[True],
               "spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT))}
    return metrics, METRIC_UNITS, tally, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TRACE_BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = import_program()
    except (Unusable, ImportError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    if args.trace:
        metrics, units, tally, details = traced(wl, args.workload, args.seed,
                                                TRACE_BLOCKS[args.workload])
    else:
        metrics, units, tally, details = end_to_end(wl, args.workload, args.seed, args.seconds)
    details.update({
        "workload": args.workload, "trace": args.trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_share": tally.failed / tally.attempted,
        "failure_reasons": tally.reasons, "incorrect": tally.incorrect,
        "failure_examples": tally.examples,
        "environment": environment(args.seed),
    })
    print("perfbench detail " + json.dumps(details, sort_keys=True))
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
