import argparse
import ast
import csv
import io
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli, run_python
from heatent import bounds as bd
from heatent import cli
from heatent import fixtures as fx
from heatent import h3entropy as h3
from heatent import spectral as sp
from heatent import verify as vf
from heatent.quadrature import QuadratureConvergenceError, QuadratureDomainError

H3_HEADER = ("t,entropy,I1,I2,rate_direct,rate_fd,eta,eta_lower,eta_upper,"
             "etap,etap_lower,etap_upper,band_lo,band_hi")


def test_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "h3" in proc.stdout and "verify" in proc.stdout


def test_h3_csv(tmp_path: Path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("h3", "--kappa", "1", "--t-start", "0.5", "--t-stop", "4",
                   "--t-count", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == H3_HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[2]) == 1.75  # I1 at kappa=1, t=0.5


def test_h3_json_matches_csv_data(tmp_path: Path):
    args = ["h3", "--kappa", "1", "--t-start", "1", "--t-stop", "2", "--t-count", "3"]
    csv_proc = run_cli(*args)
    json_proc = run_cli(*args, "--format", "json")
    assert csv_proc.returncode == 0 and json_proc.returncode == 0
    rows = [line.split(",") for line in csv_proc.stdout.splitlines()[1:]]
    payload = json.loads(json_proc.stdout)
    assert len(payload) == len(rows) == 3
    for row, record in zip(rows, payload):
        assert float(row[1]) == record["entropy"]
        assert float(row[4]) == record["rate_direct"]


def test_h3_default_grid_is_forty_rows():
    proc = run_cli("h3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == H3_HEADER
    assert len(lines) == 41
    assert float(lines[1].split(",")[0]) == 0.1
    assert float(lines[-1].split(",")[0]) == 100.0


def test_h3_rejects_bad_kappa():
    proc = run_cli("h3", "--kappa", "-1")
    assert proc.returncode == 2
    assert "kappa" in proc.stderr


def test_h3_rejects_bad_grid():
    proc = run_cli("h3", "--t-start", "0", "--t-stop", "1", "--t-count", "3")
    assert proc.returncode == 2


def test_unknown_manifold_lists_the_fixtures():
    # the choices are the fixture table's names, in its order
    proc = run_python("-m", "heatent", "evolve", "--manifold", "klein", COLUMNS="80")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "usage: heatent evolve [-h] [--manifold {circle,torus,sphere,torus-drift}]\n"
        "                      [--format {csv,json}] [--config CONFIG] [--out OUT]\n"
        "                      [--t-start T_START] [--t-stop T_STOP]\n"
        "                      [--t-count T_COUNT] [--t-scale {lin,log}]\n"
        "heatent evolve: error: argument --manifold: invalid choice: 'klein' "
        "(choose from 'circle', 'torus', 'sphere', 'torus-drift')\n")


# past kappa^2 t ~ 1.4e3 the eta columns overflow, so the second window also
# pins JSON's non-finite spellings
H3_WINDOWS = [["--kappa", "2", "--t-start", "0.2", "--t-stop", "30", "--t-count", "7"],
              ["--kappa", "1", "--t-start", "1000", "--t-stop", "3000", "--t-count", "7"]]


def test_h3_deterministic_bytes(tmp_path: Path):
    # each window twice in each format, in fresh processes
    for window in H3_WINDOWS:
        outputs = {}
        for fmt in ("csv", "json"):
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            args = ["h3", *window, "--format", fmt]
            assert run_cli(*args, "--out", str(a)).returncode == 0
            assert run_cli(*args, "--out", str(b)).returncode == 0
            assert a.read_bytes() == b.read_bytes()
            outputs[fmt] = a.read_text()
    assert "Infinity" in outputs["json"] and "inf" in outputs["csv"]


def _json_of_csv_rows(csv_text: str) -> str:
    """What json.dumps(indent=2, sort_keys=True) writes for a CSV's rows."""
    header, *lines = csv_text.splitlines()
    payload = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["h3", *H3_WINDOWS[0]], id="h3-finite"),
    pytest.param(["h3", *H3_WINDOWS[1]], id="h3-overflow"),
    *(pytest.param([command, "--manifold", m], id=f"{command}-{m}")
      for command in ("bounds", "evolve") for m in ("circle", "torus", "sphere", "torus-drift")),
])
def test_every_table_json_is_json_dumps_of_its_csv_rows(argv, capsys):
    # one table shape: each command's JSON holds exactly its CSV's columns
    outputs = {}
    for fmt in ("csv", "json"):
        assert cli.main([*argv, "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    assert outputs["json"] == _json_of_csv_rows(outputs["csv"])


# values a table can hold, in every awkward spelling float repr and json have
AWKWARD = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
           -2.2250738585072014e-308, 1e16, 1e-7, 0.1, np.float64(2.5e-300),
           np.float64(-1.0 / 3.0), float(np.True_), float(np.False_), 1.0, 0.0]


@pytest.mark.parametrize("header", [
    ["t", "entropy", "I1", "I2", "band_hi", "band_lo", "a", "B", "_", "z", "y", "x",
     "w", "v", "u", "s", "r"],
    ['odd "key"', "brace{0}", "}{", "ünï", "n", "nan", "inf", "-inf", "k:", ",", "0",
     "10", "9", "e", "E", "f", "g"],
    # keys holding what the JSON writer spells at a value position, one with
    # a real newline (json escapes it)
    ["a: inf", "b: nan,", "c: -inf", "d: -inf,", "e: inf\n", "f: nan\n", "g: inf,\n", "h"],
])
def test_table_writer_matches_the_stdlib(header):
    rng = np.random.default_rng(5)
    rows = [[AWKWARD[(i + 3 * j) % len(AWKWARD)] for j in range(len(header))]
            for i in range(len(AWKWARD))]
    rows += [list(rng.normal(size=len(header)) * 10.0 ** rng.integers(-300, 300))
             for _ in range(5)]
    columns = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    # the same table with every other column given as one float, non-finite ones among them
    fixed = {name: AWKWARD[j // 2] if j % 2 else columns[name]
             for j, name in enumerate(header)}
    for table in (columns, fixed):
        table_rows = [[table[name] if isinstance(table[name], float) else table[name][i]
                       for name in header] for i in range(len(rows))]
        assert cli._table_text(table, "json") == json.dumps(
            [dict(zip(header, map(float, row))) for row in table_rows],
            indent=2, sort_keys=True) + "\n"
        assert cli._table_text(table, "csv") == "\n".join([",".join(header)] + [
            ",".join(repr(float(v)) for v in row) for row in table_rows]) + "\n"
    empty = {name: [] for name in header}
    assert cli._table_text(empty, "json") == json.dumps([], indent=2) + "\n"
    assert cli._table_text(empty, "csv") == ",".join(header) + "\n"


def test_evolve_circle():
    proc = run_cli("evolve", "--manifold", "circle", "--t-start", "0.01",
                   "--t-stop", "1", "--t-count", "4")
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0].split(",")
    assert header[:5] == ["t", "entropy", "fisher", "rate_direct", "rate_fd"]
    assert "rhs_ricci_curvature" in header
    assert "rhs_spectral_gap" in header


def test_evolve_drift_json():
    proc = run_cli("evolve", "--manifold", "torus-drift", "--t-start", "0.25",
                   "--t-stop", "0.5", "--t-count", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["t"] for row in rows] == [0.25, 0.5]
    assert sorted(rows[0]) == sorted(["t", "entropy", "fisher", "rate_direct", "rate_fd",
                                      "rhs_drift_curvature", "ok_drift_curvature"])
    assert all(row["ok_drift_curvature"] == 1.0 for row in rows)


def test_evolve_torus_drift_deterministic_bytes():
    first = run_cli("evolve", "--manifold", "torus-drift")
    second = run_cli("evolve", "--manifold", "torus-drift")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


def test_evolve_rejects_removed_dt_flag():
    proc = run_cli("evolve", "--manifold", "torus-drift", "--dt", "1e-3")
    assert proc.returncode == 2
    assert "--dt" in proc.stderr


def test_config_rejects_removed_dt_key(tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"manifold": "torus-drift", "dt": 1e-3}))
    proc = run_cli("evolve", "--config", str(config))
    assert proc.returncode == 2
    assert "dt" in proc.stderr


def test_propagator_failure_exits_one(monkeypatch, capsys):
    def refuse(*args):
        raise sp.PropagatorError("drift mass matrix too ill-conditioned")

    monkeypatch.setattr(sp, "_operator", refuse)
    assert cli.main(["evolve", "--manifold", "torus-drift"]) == 1
    assert "propagator failure" in capsys.readouterr().err


@pytest.mark.parametrize("error, status, prefix", [
    (QuadratureDomainError, 1, "quadrature failure"),
    (QuadratureConvergenceError, 1, "quadrature failure"),
    (sp.PropagatorError, 1, "propagator failure"), (sp.PositivityError, 2, "error"),
    (sp.SpectralTruncationError, 2, "error"), (cli.UsageError, 2, "error"),
    (ValueError, 2, "error")])
def test_each_error_exits_by_its_clause(error, status, prefix, monkeypatch, capsys):
    # a QuadratureDomainError is a ValueError, and still a numerical failure
    def refuse(*args):
        raise error("refused")

    monkeypatch.setattr(h3, "evaluate_records", refuse)
    assert cli.main(["h3"]) == status
    assert tuple(capsys.readouterr()) == ("", f"{prefix}: refused\n")


# argvs the flag table leaves to argparse, which accepts, refuses or helps
REFUSED_FORMS = [["h3", "--kap", "2"], ["h3", "--kappa=2"], ["h3", "--t-count", "x"],
                 ["h3", "--format", "xml"], ["h3", "--t-count", "3", "--out"],
                 ["evolve", "--dt", "1e-3"], ["h3", "-h"], [], ["bogus"],
                 ["h3", "--kappa", "-1"]]


def test_one_process_reuses_its_parser(capsys):
    """main() builds the parser once per process; every call after other
    subcommands and usage errors prints what a fresh process prints."""
    runs = [["evolve", "--manifold", "torus"], ["bounds", "--manifold", "sphere"],
            ["h3", "--t-count", "3"], ["verify", "--only", "second_moment"],
            ["evolve", "--manifold", "klein"], ["evolve", "--manifold", "torus"],
            *REFUSED_FORMS]
    statuses = []
    for argv in runs:
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (status, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        statuses.append(status)
    assert statuses == [0, 0, 0, 0, 2, 0] + [0, 0, 2, 2, 2, 2, 0, 2, 2, 2]
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, out", [
    (["h3", "--t-count", "2"], "missing/x.csv"), (["h3", "--t-count", "2"], ""),
    (["verify", "--only", "band"], "."),
])
def test_unwritable_out_is_usage_error(argv, out, tmp_path, capsys):
    # one stderr line naming the path, in process and in a fresh process
    out = str(tmp_path / out) if out else out
    assert cli.main([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    fresh = run_cli(*argv, "--out", out)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, captured.out, captured.err)
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output {out!r}: ")
    assert captured.err.count("\n") == 1


# values that are valid for some flag and invalid for others, negative, empty
# or flag-like, plus any float or int spelling
VALUES = st.one_of(
    st.sampled_from(["", "x", "xml", "-1", "-0.5", "1e-3", "2", "0", "inf", "nan", " 3",
                     "1_000", "csv", "json", "lin", "log", "circle", "torus", "sphere",
                     "torus-drift", "klein", "band", "envelopes", "h3", "--kappa", "-h"]),
    st.floats().map(repr), st.integers(-3, 100).map(str), st.text(max_size=4))


def _flags(command):
    """Each flag of ``command`` in the CLI's flag table, by option string:
    its type or tuple of choices."""
    return {option: kind for option, kind, _, _ in cli._COMMANDS[command][1]}


def _valid_values(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(sorted(kind))
    if kind is float:
        return st.floats(min_value=0.0).map(repr)
    if kind is int:
        return st.integers(0, 10**6).map(str)
    return st.text(max_size=6)


@st.composite
def argvs(draw):
    """An argv of a subcommand's flags: all valid pairs, or pairs mixed with
    invalid, negative and empty values, missing values, '=' forms,
    abbreviations and flags of other subcommands; its head is sometimes no
    subcommand."""
    command = draw(st.sampled_from(["h3", "evolve", "bounds", "verify"]))
    kinds = _flags(command)
    flags = st.sampled_from(sorted(kinds))
    valid = flags.flatmap(lambda f: st.tuples(st.just(f), _valid_values(kinds[f])))
    other = {f for c in ("h3", "evolve", "verify") for f in _flags(c)}
    mixed = st.one_of(
        valid, st.tuples(flags, VALUES), st.tuples(flags),
        st.tuples(flags, VALUES).map(lambda pair: ("=".join(pair),)),
        st.tuples(flags.map(lambda f: f[:-1]), VALUES),
        st.tuples(st.sampled_from(sorted(other - set(kinds)) + ["--bogus", "-h"]), VALUES))
    pieces = draw(st.lists(valid, max_size=6) | st.lists(mixed, max_size=6))
    head = draw(st.sampled_from([[command]] * 7 + [[], ["bogus"], ["-h"]]))
    return head + [token for piece in pieces for token in piece]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=argvs())
def test_table_path_equals_argparse(argv):
    args = cli._table_parse(argv)
    if args is not None:
        expected = cli._build_parser().parse_args(argv)  # must not exit
        assert list(vars(args).items()) == list(vars(expected).items())
        assert [type(v) for v in vars(args).values()] == [type(v) for v in vars(expected).values()]


def test_table_argv_builds_no_parser(tmp_path):
    argvs = [["h3", "--kappa", "2", "--t-count", "3", "--format", "json"],
             ["evolve", "--manifold", "torus", "--t-scale", "lin", "--t-start", "0.5"],
             ["bounds", "--manifold", "sphere", "--out", str(tmp_path / "b.csv")],
             ["verify", "--only", "band", "--inject-fault", "envelopes"]]
    cli._build_parser.cache_clear()
    assert [cli._parse(argv).command for argv in argvs] == ["h3", "evolve", "bounds", "verify"]
    assert cli._build_parser.cache_info().misses == 0


def test_no_private_name_of_argparse_is_read():
    # argparse's private names: its module's, its classes' and a parser's own
    parser = argparse.ArgumentParser()
    parser.add_subparsers().add_parser("sub")
    private = {name for owner in (argparse, *(v for v in vars(argparse).values()
                                              if isinstance(v, type)), parser)
               for name in dir(owner) if name.startswith("_") and not name.endswith("__")}
    read = [f"{path.name}:{node.lineno}: {node.attr}"
            for path in sorted(Path(cli.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in private]
    assert read == []


def test_bounds_table():
    proc = run_cli("bounds", "--manifold", "sphere", "--t-start", "0.1",
                   "--t-stop", "10", "--t-count", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("t,ricci_curvature,gradient_log_sup,spectral_gap,"
                        "euclidean_reference")
    assert len(lines) == 5


@pytest.mark.parametrize("manifold", ["circle", "torus", "sphere", "torus-drift"])
def test_bounds_columns_equal_check_bounds_rhs(manifold, capsys):
    grid = ["--t-start", "0.05", "--t-stop", "20", "--t-count", "9"]
    assert cli.main(["bounds", "--manifold", manifold, *grid, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    fixture = fx.get_fixture(manifold)
    trace = sp.entropy_trace(fixture.initial, np.geomspace(0.05, 20.0, 9))
    reports = bd.check_bounds(trace, fixture.manifold, fixture.initial)
    assert [r["t"] for r in rows] == trace.times.tolist()
    assert list(rows[0]) == sorted(["t", "euclidean_reference",
                                    *(r.bound_name for r in reports)])
    for report in reports:
        assert [r[report.bound_name] for r in rows] == report.rhs.tolist()


@pytest.mark.parametrize("command", ["bounds", "evolve"])
@pytest.mark.parametrize("manifold", ["circle", "torus", "sphere", "torus-drift"])
def test_tables_do_not_depend_on_the_constants_cache(command, manifold, capsys):
    # the initial field's constants built afresh, then served from the cache
    for fmt in ("csv", "json"):
        argv = [command, "--manifold", manifold, "--t-start", "0.05", "--t-stop", "2",
                "--t-count", "7", "--format", fmt]
        bd._initial_constants.cache_clear()
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert bd._initial_constants.cache_info().hits == 1
        assert capsys.readouterr().out == cold


def test_bounds_drift_default_grid_past_overflow(capsys):
    # e^{-k t} leaves double range before the default t_stop of 100
    assert cli.main(["bounds", "--manifold", "torus-drift"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,drift_curvature,euclidean_reference"
    assert len(lines) == 41
    assert lines[-1] == "100.0,inf,0.01"
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:-1])


def test_evolve_drift_past_overflow_is_satisfied(capsys):
    argv = ["evolve", "--manifold", "torus-drift", "--t-start", "1", "--t-stop", "100",
            "--t-count", "3"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split(",")[-2:] == ["inf", "1.0"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["h3", "evolve", "bounds"])
def test_non_finite_time_grid_is_usage_error(command, value, tmp_path, capsys):
    flag = "--t-start" if value == "nan" else "--t-stop"
    assert cli.main([command, flag, value]) == 2
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): float(value)}))
    assert cli.main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: need finite") == 2


@pytest.mark.parametrize("grid", [("1", "1.0000000000000002", "3", "log"),
                                  ("1", "1.0000000000000002", "3", "lin"),
                                  ("1", "1", "2", "log"), ("2.5", "2.5", "4", "lin")])
def test_time_grid_that_repeats_a_time_is_usage_error(grid, capsys):
    # one rule for every subcommand that reads a time grid: exit 2, one line
    start, stop, count, scale = grid
    for command in ("h3", "evolve", "bounds"):
        argv = [command, "--t-start", start, "--t-stop", stop, "--t-count", count,
                "--t-scale", scale]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: t-start {float(start)!r}, t-stop {float(stop)!r} "
                                f"and t-count {count} give a time grid that is not "
                                "strictly increasing\n")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ends=st.lists(st.floats(1e-12, 1e12), min_size=2, max_size=2),
       count=st.integers(2, 59), scale=st.sampled_from(["log", "lin"]))
def test_time_grid_is_numpys_grid_bit_for_bit(ends, count, scale):
    # the installed numpy's geomspace or linspace, bit for bit, and a usage
    # error exactly where that grid repeats a time
    start, stop = sorted(ends)
    args = argparse.Namespace(t_start=start, t_stop=stop, t_count=count, t_scale=scale)
    expected = (np.geomspace if scale == "log" else np.linspace)(start, stop, count)
    if (expected[1:] > expected[:-1]).all():
        grid = cli._time_grid(args)
        assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()
    else:
        with pytest.raises(cli.UsageError, match="not strictly increasing"):
            cli._time_grid(args)


@pytest.mark.parametrize("command", ["h3", "evolve", "bounds"])
def test_subnormal_time_grid_is_usage_error(command, tmp_path, capsys):
    grid = {"t_start": 1e-320, "t_stop": 1e-320, "t_count": 1}
    assert cli.main([command, "--t-start", "1e-320", "--t-stop", "1e-320", "--t-count", "1"]) == 2
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(grid))
    assert cli.main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Warning" not in captured.err
    assert captured.err.count("error: t-start 1e-320 is below the least normal double") == 2


@pytest.mark.parametrize("t, status", [("1e-125", 2), ("1e-130", 2), ("1e-300", 2),
                                       ("1e-120", 2)])
def test_h3_refuses_times_past_double_range(t, status, capsys):
    assert cli.main(["h3", "--t-start", t, "--t-stop", t, "--t-count", "1"]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the double range is checked first; 1e-120 is inside it, but below kappa^2 t = 1e-10
    reason = "puts kappa^2 t below 1e-10" if t == "1e-120" else "leaves the double range"
    assert f"error: t={float(t)!r} {reason}" in err


@pytest.mark.parametrize("key", ["kappa"])
def test_h3_rejects_non_finite_parameters(key, tmp_path, capsys):
    assert cli.main(["h3", f"--{key}", "inf"]) == 2
    assert _config_exit_status("h3", {key: math.inf}, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("must be positive and finite") == 2


@pytest.mark.parametrize("argv", [
    ("--t-count", "2"),
    ("--t-start", "1e8", "--t-stop", "1e10", "--t-count", "3")])
def test_h3_numerical_failure_is_one_stderr_line(argv):
    # a tolerance the trapezoid rule cannot meet, below and above
    # kappa^2 t = 100; no numpy warning precedes the stated failure
    proc = run_python("-c", "import sys; from heatent import cli, quadrature; "
                      "quadrature.RELATIVE_TOLERANCE = quadrature.ABSOLUTE_TOLERANCE = 1e-300; "
                      f"sys.exit(cli.main(['h3', *{list(argv)!r}]))")
    assert proc.returncode == 1
    assert proc.stderr.startswith("quadrature failure: log-weighted sinh integral")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, t", [
    (("--kappa", "1e150"), 0.1),
    (("--t-start", "1e300", "--t-stop", "1e300", "--t-count", "1"), 1e300),
    (("--kappa", "1e100"), 28.942661247167518)])
def test_h3_range_limit_is_refused_naming_t(argv, t):
    # kappa^2 t stays finite, but a node sum of eta' overflows: refused as a
    # range limit, not reported as a quadrature failure
    proc = run_cli("h3", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: t={t!r} leaves the double range: "
                           "a node sum of eta or eta' overflows\n")


def test_h3_closed_part_past_double_range_is_refused_naming_t(capsys):
    # kappa^2 t, the node sums, xi and the moment factors are finite, but the
    # closed part x F_4/2 of eta' overflows at x = kappa sqrt(t) = 3e70: a
    # range limit (exit 2, one line), not an inf column and a failed verdict
    argv = ["h3", "--kappa", "1e40", "--t-start", "1e61", "--t-stop", "1e61", "--t-count", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: t=1e+61 leaves the double range: a closed part, envelope term or "
            "margin is not finite\n")


def test_h3_unresolved_rows_keep_their_verdict(capsys):
    # rows past kappa^2 t = 3e13 are unresolved (not out of range): exit 1
    argv = ["h3", "--kappa", "100", "--t-start", "1e-12", "--t-stop", "1e12", "--t-count", "50"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("h3: 6 of 50 rows failed; first at t=3556480306.223121: "
                          "envelope check (eta lower unresolved: margin 9.478e-28")


def warm_faults(commands: list[str]) -> dict[str, float]:
    """The minor page faults per call of each command over 20 rounds, each
    calling every command once in turn, after three warm-up rounds, all in
    one child process.  A command is an argv of ``cli.main`` joined by
    spaces, or ``trace CUTOFF COUNT``: ``entropy_trace`` and ``check_bounds``
    of a seeded unit-mass torus field of that cutoff at COUNT log-spaced
    times in [0.01, 2], as an API client runs them.  Every call must exit 0
    (a trace: every bound satisfied)."""
    code = ("import contextlib, os, resource, sys\n"
            "import numpy as np\n"
            "from heatent import bounds, cli, fixtures, spectral\n"
            "def call(command):\n"
            "    words = command.split()\n"
            "    if words[0] != 'trace':\n"
            "        return lambda: cli.main(words)\n"
            "    raw = fixtures.random_positive_torus_field(\n"
            "        np.random.default_rng(0), spectral.torus2(), int(words[1]))\n"
            "    field = spectral.SpectralField(raw.manifold, raw.coefficients / spectral.mass(raw),\n"
            "                                   raw.cutoff)\n"
            "    times = np.geomspace(0.01, 2.0, int(words[2]))\n"
            "    return lambda: 0 if all(report.all_satisfied for report in bounds.check_bounds(\n"
            "        spectral.entropy_trace(field, times), field.manifold, field)) else 1\n"
            "calls, faults = [call(command) for command in sys.argv[1:]], [0] * (len(sys.argv) - 1)\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    for turn in range(23):\n"
            "        for i, run in enumerate(calls):\n"
            "            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "            assert run() == 0, sys.argv[1 + i]\n"
            "            if turn >= 3:\n"
            "                faults[i] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "for command, count in zip(sys.argv[1:], faults):\n"
            "    print(command, count / 20, sep=',', file=sys.stderr)\n")
    proc = run_python("-c", code, *commands)
    assert proc.returncode == 0, proc.stderr
    faults = {command: float(count) for command, count in
              (line.split(",") for line in proc.stderr.splitlines())}
    assert sorted(faults) == sorted(commands)
    return faults


def test_warm_long_h3_sweep_hardly_faults():
    # the trapezoid kernel runs in fixed row blocks: a warm h3 request of
    # 6,000 kernel rows maps no node-sized arrays afresh (about 4,500 minor
    # faults per request when the kernel took every row at once)
    command = f"h3 --t-count 2000 --out {os.devnull}"
    assert warm_faults([command])[command] < 500.0


def test_warm_identity_checks_hardly_fault():
    # the pointwise identities run in blocks of _BLOCK_FIELDS fields, whose
    # arrays stay below the sizes glibc maps afresh for each request (blocks
    # of four fields took about 200 minor faults per bochner_residual request)
    for group in ("bochner_residual", "hessian_trace"):
        command = f"verify --only {group}"
        assert warm_faults([command])[command] < 10.0, group


def test_warm_torus_requests_hardly_fault_between_other_requests():
    # the row functionals work each chunk in one kept buffer, so a torus
    # request after a sphere request finds its pages mapped (when each chunk
    # allocated and freed its own arrays, these took 224, 67 and 93 faults)
    commands = ["evolve --manifold sphere", "trace 2 16", "verify --only bochner_residual",
                "evolve --manifold torus"]
    faults = warm_faults(commands)
    for command in commands[1:]:
        assert faults[command] < 15.0, (command, faults)


def warm_peaks(commands: list[str]) -> dict[str, int]:
    """The tracemalloc peak in bytes of a call of each command (an argv
    joined by spaces) after three warm-up calls, all in one child process."""
    code = ("import contextlib, os, sys, tracemalloc; from heatent import cli\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    for command in sys.argv[1:]:\n"
            "        argv = command.split()\n"
            "        for _ in range(3): cli.main(argv)\n"
            "        tracemalloc.start()\n"
            "        assert cli.main(argv) == 0\n"
            "        peak = tracemalloc.get_traced_memory()[1]\n"
            "        tracemalloc.stop()\n"
            "        print(command, peak, sep=',', file=sys.stderr)\n")
    proc = run_python("-c", code, *commands)
    assert proc.returncode == 0, proc.stderr
    peaks = {command: int(peak) for command, peak in
             (line.split(",") for line in proc.stderr.splitlines())}
    assert sorted(peaks) == sorted(commands)
    return peaks


def test_warm_identity_checks_allocate_within_the_direct_forms_peaks():
    # tracemalloc peak of a warm request of each identity group, in bytes: the
    # direct-form arithmetic these groups replaced read 0.80, 0.40 and 0.18 MB
    bounds = {"bochner_residual": 800_000, "hessian_trace": 400_000, "cauchy_step": 180_000}
    peaks = warm_peaks([f"verify --only {group}" for group in bounds])
    for group, bound in bounds.items():
        assert peaks[f"verify --only {group}"] <= bound, (group, peaks)


# tracemalloc peak of a warm request of each command, in bytes: 1.25 times
# the peak each read when its bound was set, the 0.57 and 2.31 MB of h3 and
# the 622,690 and 536,145 bytes of verify and its moment table among them,
# and the evolve peaks with the row functionals' kept chunk buffer
# (allocated in the warm-up calls) of 11,648, 75,704, 16,413 and 124,536
# bytes (README's layer table states each)
COMMAND_PEAKS = {
    "h3": 715_000, "h3 --t-count 2000": 2_892_000, "verify": 778_400,
    "verify --only moment_table": 670_200,
    "evolve --manifold circle": 14_560, "evolve --manifold torus": 94_630,
    "evolve --manifold sphere": 20_516, "evolve --manifold torus-drift": 155_670,
    "bounds --manifold circle": 21_500, "bounds --manifold torus": 21_300,
    "bounds --manifold sphere": 21_700, "bounds --manifold torus-drift": 15_700,
}


def test_warm_commands_allocate_within_their_peaks():
    for command, peak in warm_peaks(list(COMMAND_PEAKS)).items():
        assert peak <= COMMAND_PEAKS[command], (command, peak)


def test_h3_kappa2t_overflow_is_usage_error(capsys):
    # refused by name before any integral, in process and in a fresh one
    argv = ["h3", "--kappa", "1e200", "--t-count", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    fresh = run_cli(*argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, captured.out, captured.err)
    assert captured == ("", "error: t=0.1 leaves the double range: kappa^2 t overflows\n")


def test_h3_rows_past_kappa2t_1e8_pass(capsys):
    # These rows sit inside their envelopes.  The verdicts are taken on the
    # closed-form remainder, so none of them is decided in the last bit.
    argv = ["h3", "--t-start", "1e8", "--t-stop", "1e10", "--t-count", "3"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4
    assert captured.err == ""


def test_h3_up_to_kappa2t_1e12_passes(capsys):
    assert cli.main(["h3", "--t-stop", "1e12"]) == 0
    assert capsys.readouterr().err == ""


def test_h3_failure_names_check_row_and_count(monkeypatch, capsys):
    # A failing envelope is injected into the sweep: row 0 has one side
    # outside and its rate outside the band, row 2 one side unresolved.
    original = h3.evaluate_records

    def failing(p, times):
        sweep = original(p, times)
        margins, errors = sweep.margins.copy(), sweep.errors.copy()
        margins[2, 0], errors[2, 0] = -2.5e-10, 3.0e-16  # eta' lower, outside
        margins[1, 2], errors[1, 2] = 1.0e-17, 4.0e-16  # eta upper, unresolved
        rate_direct = sweep.rate_direct.copy()
        rate_direct[0] = h3.asymptotic_band(p)[1] + 1.0
        return replace(sweep, margins=margins, errors=errors, rate_direct=rate_direct)

    monkeypatch.setattr(h3, "evaluate_records", failing)
    argv = ["h3", "--t-start", "100", "--t-stop", "1000", "--t-count", "3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4
    assert captured.err == (
        "h3: 2 of 3 rows failed; first at t=100.0: envelope check (eta' lower "
        "outside: margin -2.500e-10, error 3.0e-16) and band check (margin -9.500e-01)\n")


def test_evolve_failure_names_bounds_row_and_count(monkeypatch, capsys):
    # Two bounds fail at the second time, a third bound at the fourth one;
    # the line names the row count, the first failing t and every bound
    # failing there with its margin rhs - rate_direct.  The rates and the rhs
    # are injected, and check_bounds finds the failing rows itself.
    trace_of, table_of = sp.entropy_trace, bd.bound_table

    def rates(field, times):
        trace = trace_of(field, times)
        rate_direct = trace.rate_direct.copy()
        rate_direct[[1, 3]] = 1.5, 2.0
        return replace(trace, rate_direct=rate_direct)

    def table(initial, times):
        columns = {name: rhs.copy() for name, rhs in table_of(initial, times).items()}
        for rhs, (i, value) in zip(columns.values(), ((1, 1.0), (1, 1.25), (3, 1.0))):
            rhs[i] = value
        return columns

    monkeypatch.setattr(sp, "entropy_trace", rates)
    monkeypatch.setattr(bd, "bound_table", table)
    times = fx.get_fixture("circle").default_times
    assert cli.main(["evolve", "--manifold", "circle"]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == times.size + 1
    assert captured.err == (
        f"evolve: 2 of {times.size} rows failed; first at t={float(times[1])!r}: "
        "ricci_curvature bound (margin -5.000e-01) and "
        "gradient_log_sup bound (margin -2.500e-01)\n")


def test_h3_eta_columns_overflow_only_past_exp_709(capsys):
    # The sweep holds the eta family times exp(-kappa^2 t/2); the CSV puts
    # the factor back, so an entry is inf exactly where its log passes 709,
    # and where all six are finite their order is the envelope verdict.
    argv = ["h3", "--kappa", "1", "--t-start", "1000", "--t-stop", "2000", "--t-count", "4"]
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    sweep = h3.evaluate_records(h3.H3Params(1.0), [float(row["t"]) for row in rows])
    names = ("eta_lower", "eta", "eta_upper", "etap_lower", "etap", "etap_upper")
    finite_rows = 0
    for i, (row, t) in enumerate(zip(rows, sweep.t.tolist())):
        values = [float(row[name]) for name in names]
        for name, value in zip(names, values):
            below = 0.5 * t + math.log(getattr(sweep, name)[i]) <= 709.0
            assert math.isfinite(value) == below, (t, name)
            assert below or value == math.inf
        if all(math.isfinite(v) for v in values):
            finite_rows += 1
            ordered = values[0] < values[1] < values[2] and values[3] < values[4] < values[5]
            assert ordered == sweep.envelope_ok[i]
    assert 0 < finite_rows < len(rows)


def _check_unscaled(mp, values, kappa, t):
    """cli._unscaled of the values at (kappa, t) against mpmath at 200 bits:
    each value times exp(kappa^2 t/2), kappa^2 t the exact product of the
    floats, to 1e-15 relative, or inf of the value's sign where its log
    passes 709."""
    got = cli._unscaled(np.array(values)[:, None], kappa, np.array([t]))[:, 0]
    with mp.workprec(200):
        half = mp.mpf(kappa) ** 2 * mp.mpf(t) / 2
        for value, result in zip(values, got.tolist()):
            size = mp.log(abs(mp.mpf(value))) + half
            assert abs(size - 709) > 1e-9, (value, kappa, t)  # no case decided by rounding
            if size > 709:
                assert result == math.copysign(math.inf, value), (value, kappa, t)
            else:
                exact = mp.mpf(value) * mp.exp(half)
                assert abs(mp.mpf(result) / exact - 1) <= 1e-15, (value, kappa, t)


def test_unscaled_against_mpmath():
    # kappa in [0.25, 4] and kappa^2 t in [1e-8, 1e12] at random, values of
    # either sign from 1e-300 to 1e300
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        kappa = 0.25 * 16.0 ** rng.random()
        t = 10.0 ** rng.uniform(-8.0, 12.0) / kappa ** 2
        values = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-300.0, 300.0, 3)
        _check_unscaled(mp, values.tolist(), kappa, t)


@pytest.mark.parametrize("kappa, t", [(1.0, 100.0), (0.3, 9000.0), (2.7, 300.0), (1.0, 2e3)])
def test_unscaled_on_both_sides_of_the_709_cut(kappa, t):
    # log|value| + kappa^2 t/2 is 709 -+ 1/2: the value grown, or inf of its sign
    mp = pytest.importorskip("mpmath")
    below, above = (math.exp(709.0 + side - kappa * kappa * t / 2) for side in (-0.5, 0.5))
    _check_unscaled(mp, [below, -below, above, -above], kappa, t)


@pytest.mark.parametrize("k2t", [2839.0, 2841.0, 2860.0, 2900.0, 2950.0, 3000.0])
def test_unscaled_grows_subnormal_values(k2t):
    # from kappa^2 t of about 2839 on exp(kappa^2 t/4) overflows, and only a
    # subnormal value stays below the cut; its product is finite and exact to
    # 1e-15, at several kappa
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(round(k2t))
    for kappa in (0.3, 1.0, 2.7):
        values = rng.choice([-1.0, 1.0], 8) * 10.0 ** rng.uniform(-323.5, -307.7, 8)
        _check_unscaled(mp, [5e-324, -1e-315, *values.tolist()], kappa, k2t / kappa ** 2)
    assert math.isfinite(cli._unscaled(np.array([[1e-315]]), 1.0, np.array([2860.0]))[0, 0])


@pytest.mark.parametrize("k2t", [1e-8, 1.0, 1e3, 2839.0, 3000.0, 1e12])
def test_unscaled_keeps_signed_zeros_and_nan(k2t):
    # exp(kappa^2 t/4) overflows from kappa^2 t of about 2839 on; 0 stays 0
    got = cli._unscaled(np.array([[0.0], [-0.0], [math.nan]]), 1.0, np.array([k2t]))[:, 0]
    assert got[:2].tolist() == [0.0, 0.0] and np.signbit(got[:2]).tolist() == [False, True]
    assert math.isnan(got[2])


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0, 100.0, 0.3])
def test_h3_eta_columns_against_mpmath(kappa, capsys):
    # The written eta columns are the sweep's scaled values times
    # exp(kappa^2 t/2), to 1e-15 relative of that product at 200 bits, with
    # kappa^2 t the exact product of the float kappa and t.  For kappa = 100
    # and 0.3 the float kappa^2 t/2 is rounded, by up to 5e-14 relative of
    # the result near kappa^2 t/2 = 700.
    mp = pytest.importorskip("mpmath")
    # 200 times log-spaced over kappa^2 t in [1e-3, 1.4e3]
    argv = ["h3", "--kappa", repr(kappa), "--t-start", repr(1e-3 / kappa ** 2),
            "--t-stop", repr(1.4e3 / kappa ** 2), "--t-count", "200"]
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    times = [float(row["t"]) for row in rows]
    sweep = h3.evaluate_records(h3.H3Params(kappa), times)
    names = ("eta", "eta_lower", "eta_upper", "etap", "etap_lower", "etap_upper")
    finite = 0
    with mp.workprec(200):
        for i, (row, t) in enumerate(zip(rows, times)):
            scale = mp.exp(mp.mpf(kappa) ** 2 * mp.mpf(t) / 2)
            for name in names:
                written = float(row[name])
                if not math.isfinite(written):
                    continue
                finite += 1
                exact = mp.mpf(float(getattr(sweep, name)[i])) * scale
                assert abs(mp.mpf(written) / exact - 1) <= 1e-15, (t, name)
    assert finite > 0.9 * 6 * len(rows)


def test_verify_all_pass(tmp_path: Path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert all(entry["pass"] for entry in report.values())
    assert "moment_table" in report and "band" in report


def test_verify_only_filters():
    proc = run_cli("verify", "--only", "log_sandwich")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert list(report) == ["log_sandwich"]


def test_verify_unknown_check():
    proc = run_cli("verify", "--only", "not_a_check")
    assert proc.returncode == 2
    assert proc.stderr == (f"error: unknown check 'not_a_check'; "
                           f"choose from {sorted(vf.CHECKS)}\n")


def test_verify_check_bug_is_not_a_usage_error(monkeypatch):
    # only an unknown group name is a usage error; a KeyError raised inside
    # a check group is a bug and propagates
    monkeypatch.setitem(vf.CHECKS, "band", lambda: {}["missing"])
    with pytest.raises(KeyError, match="missing"):
        cli.main(["verify", "--only", "band"])


def test_verify_injected_fault_names_check():
    proc = run_cli("verify", "--only", "envelopes", "--inject-fault", "envelopes")
    assert proc.returncode == 1
    assert "envelopes" in proc.stderr
    report = json.loads(proc.stdout)
    assert report["envelopes"]["pass"] is False


def test_verify_injected_fault_report_is_unchanged(capsys):
    # the fault moves each side's margin by 10% of its envelope's width; the
    # same 24 of the 80 (row, eta or eta') pairs fail as when the envelope
    # bounds themselves were narrowed
    assert cli.main(["verify", "--only", "envelopes", "--inject-fault", "envelopes"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        '{\n  "envelopes": {\n    "details": "eta and eta\' strictly inside their '
        'envelopes on the log grid (fault injected: narrowed by 10% per side)",\n'
        '    "max_error": 24.0,\n    "pass": false\n  }\n}\n')
    assert captured.err == "verify: failed checks: envelopes\n"


def test_verify_fault_outside_its_group_is_a_usage_error(capsys):
    # --only band never runs the envelopes group, so the fault could not fire
    assert cli.main(["verify", "--only", "band", "--inject-fault", "envelopes"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: fault 'envelopes' cannot fire in group 'band'; "
                            "it acts on the 'envelopes' group only\n")


def test_verify_deterministic_bytes(tmp_path: Path):
    # restricted to the fast closed-form checks; the acceptance suite runs the
    # full-report determinism criterion
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("verify", "--only", "sinh_ratio_bounds", "--out", str(a)).returncode == 0
    assert run_cli("verify", "--only", "sinh_ratio_bounds", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": 2.0, "t_start": 1.0, "t_stop": 1.0,
                                  "t_count": 1}))
    base = run_cli("h3", "--config", str(config))
    assert base.returncode == 0, base.stderr
    assert float(base.stdout.splitlines()[1].split(",")[2]) == 3.5  # I1, kappa=2, t=1
    overridden = run_cli("h3", "--config", str(config), "--kappa", "1")
    assert float(overridden.stdout.splitlines()[1].split(",")[2]) == 2.0


def test_config_rejects_unknown_keys(tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nonsense": 1}))
    proc = run_cli("h3", "--config", str(config))
    assert proc.returncode == 2


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config {path}: "), ("{bad", "cannot read config {path}: "),
    ("[1, 2]", "config file must hold a JSON object\n")], ids=["missing", "invalid", "list"])
def test_config_that_is_no_json_object_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["h3", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def _config_exit_status(command: str, config: dict, tmp_path: Path, *flags: str) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    try:
        return cli.main([command, "--config", str(path), *flags])
    except SystemExit as exc:  # argparse refuses the value
        return exc.code


@pytest.mark.parametrize("config", [{"t_scale": "cubic"}, {"format": "xml"},
                                    {"t_count": 2.9}, {"t_count": True},
                                    {"t_stop": [1, 2]}])
def test_config_values_pass_flag_checks(config, tmp_path, capsys):
    assert _config_exit_status("bounds", config, tmp_path) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, key, value", [
    ("evolve", "rtol", 5.0), ("evolve", "atol", 7.0), ("bounds", "kappa", 2.0),
    ("bounds", "only", "band"), ("bounds", "inject_fault", "envelopes"),
    ("verify", "t_count", 3), ("h3", "manifold", "torus"), ("h3", "config", "x.json"),
    ("h3", "rtol", 1e-9), ("h3", "atol", 1e-15), ("verify", "rtol", 1e-9),
    ("verify", "atol", 1e-15),
])
def test_config_rejects_keys_the_subcommand_does_not_read(command, key, value,
                                                          tmp_path, capsys):
    assert _config_exit_status(command, {key: value}, tmp_path) == 2
    assert f"unknown config keys for {command}: ['{key}']" in capsys.readouterr().err


def test_readme_names_every_flag_and_no_other():
    # README's placeholder --flag and pip's --no-build-isolation are not flags
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme)) - {"--flag", "--no-build-isolation"}
    options = {option for _, flags in cli._COMMANDS.values() for option, *_ in flags}
    assert (sorted(options - named), sorted(named - options)) == ([], [])


@pytest.mark.parametrize("command", ["h3", "evolve", "bounds", "verify"])
def test_quadrature_flags_are_not_accepted_without_quadrature(command, capsys):
    # the tolerances are one stated policy of heatent.quadrature, not flags
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--rtol", "5", "--atol", "7"])
    assert exc.value.code == 2
    assert "--rtol" in capsys.readouterr().err

