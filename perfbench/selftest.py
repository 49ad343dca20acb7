"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:

1. every end-to-end and per-layer metric named in BENCHMARK.json is printed
   with its unit for every workload (one short untraced and one traced run
   per workload, as the benchmark command is run);
2. the built-in fault ``verify --only envelopes --inject-fault envelopes``
   is counted as a failed request, and an output that differs from its
   repeat is counted as failed and incorrect;
3. the same seed gives the same request stream, and a second traced run of
   the same seed gives exactly the same deterministic counts.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

DETERMINISTIC = ("quadrature.evaluations", "spectral.fft_calls", "spectral.leggauss_calls")
SEED = 7


def bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                         check=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict, failures: list) -> dict:
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{workload} trace {trace}: {metric['name']} "
                                    f"missing or wrong unit: {got}")
            if trace:
                traced[workload] = result
    return traced


def check_fault(wl, failures: list) -> None:
    fault = wl.Request("verify:envelopes-fault", wl.check_verify("envelopes"),
                       argv=["verify", "--only", "envelopes", "--inject-fault", "envelopes"])
    good = wl.verify_request("second_moment")
    # A "repeat" of the fault request that points at the good one cannot match.
    mismatch = wl.Request(good.label, good.check, argv=good.argv, repeat_of=0)
    tally = run.Tally()
    run.run_stream(wl, [[fault, good, mismatch]], tally=tally)
    if (tally.attempted, tally.failed, tally.incorrect) != (3, 2, 1):
        failures.append("fault/identity accounting: attempted, failed, incorrect = "
                        f"{tally.attempted}, {tally.failed}, {tally.incorrect}; "
                        "expected 3, 2, 1")
    if tally.reasons.get("status") != 1 or tally.reasons.get("not_identical") != 1:
        failures.append(f"failure reasons {tally.reasons}")


def check_determinism(wl, workloads, traced: dict, failures: list) -> None:
    def stream(workload, seed):
        return [(r.label, r.argv, None if r.times is None else r.times.tolist(),
                 None if r.field is None else r.field.coefficients.tolist(), r.repeat_of)
                for i in range(3) for r in wl.block(workload, seed, i)]

    for workload in workloads:
        if stream(workload, SEED) != stream(workload, SEED):
            failures.append(f"{workload}: same seed gave a different request stream")
        if stream(workload, SEED) == stream(workload, SEED + 1):
            failures.append(f"{workload}: different seeds gave the same request stream")
        again = bench(workload, 1)
        for name in DETERMINISTIC:
            first = traced[workload]["metrics"][name]["value"]
            second = again["metrics"][name]["value"]
            if first != second:
                failures.append(f"{workload}: {name} {first!r} then {second!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = run.import_program()
    workloads = [w["name"] for w in spec["workloads"]]
    failures: list = []
    traced = check_metrics(spec, failures)
    print(f"metrics: {'ok' if not failures else 'FAILED'}", flush=True)
    n = len(failures)
    check_fault(wl, failures)
    print(f"fault accounting: {'ok' if len(failures) == n else 'FAILED'}", flush=True)
    n = len(failures)
    check_determinism(wl, workloads, traced, failures)
    print(f"determinism: {'ok' if len(failures) == n else 'FAILED'}", flush=True)
    for failure in failures:
        print("  " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
