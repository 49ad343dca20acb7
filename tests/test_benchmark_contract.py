"""The benchmark's request contract, run in-process against this heatent.

``perfbench/workloads.py`` calls the CLI and the public API; an API change it
does not survive should fail here, not first inside a benchmark run.  Block 0
of each workload (seed 1) must run without an exception or a failed check,
and its closing repeat must reproduce its original byte for byte.  So must
blocks 1 and 4 of ``drift-evolve``, which add the request kinds its block 0
lacks: a long window (odd blocks) and the ``rate_consistency`` group.
Every CLI request of blocks 0 to 3 of each workload is parsed by the CLI's
flag table, never by argparse.  Block 0 of ``h3-sweep`` also meets the
contract under ``perfbench/tracing.py``'s tracer, which ``run.py --trace 1``
installs and which wraps heatent functions by name.
"""

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402
from heatent import cli  # noqa: E402


def meets_the_request_contract(reqs: list) -> None:
    assert reqs[-1].repeat_of is not None
    outcomes = []
    for req in reqs:
        outcome = workloads.execute(req)
        assert outcome.raised is None, (req.label, req.argv, outcome.raised)
        assert outcome.problems == [], (req.label, req.argv, outcome.problems)
        assert outcome.status == 0, (req.label, req.argv, outcome.status)
        if req.repeat_of is not None:
            original = outcomes[req.repeat_of]
            assert (outcome.status, outcome.stdout) == (original.status, original.stdout)
        outcomes.append(outcome)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_block_meets_the_request_contract(workload):
    meets_the_request_contract(workloads.block(workload, 1, 0))


@pytest.mark.parametrize("index, kind", [(1, "long window"), (4, "rate_consistency")])
def test_drift_block_meets_the_request_contract(index, kind):
    reqs = workloads.block("drift-evolve", 1, index)
    if kind == "long window":
        assert any(float(req.argv[req.argv.index("--t-stop") + 1]) >= 1.0
                   for req in reqs if req.argv[0] == "evolve")
    else:
        assert "verify:rate_consistency" in {req.label for req in reqs}
    meets_the_request_contract(reqs)


def test_every_cli_request_takes_the_flag_table(monkeypatch):
    def refuse(parser, argv=None, namespace=None):
        raise AssertionError(f"argparse parsed {argv}")

    argvs = [req.argv for workload in workloads.WORKLOADS for index in range(4)
             for req in workloads.block(workload, 1, index) if req.argv is not None]
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert [cli._parse(argv).command for argv in argvs] == [argv[0] for argv in argvs]


def test_traced_first_block_meets_the_request_contract():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        meets_the_request_contract(workloads.block("h3-sweep", 1, 0))
    finally:
        tracer.uninstall()
    assert tracer.spans
