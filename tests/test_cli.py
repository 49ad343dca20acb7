import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from heatent import bounds as bd
from heatent import cli
from heatent import fixtures as fx
from heatent import h3entropy as h3
from heatent import spectral as sp
from heatent import verify as vf

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


def test_h3_deterministic_bytes(tmp_path: Path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["h3", "--kappa", "2", "--t-start", "0.2", "--t-stop", "30",
            "--t-count", "7"]
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


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
    payload = json.loads(proc.stdout)
    assert payload["manifold"] == "torus-drift"
    assert [r["bound_name"] for r in payload["reports"]] == ["drift_curvature"]
    assert all(all(r["satisfied"]) for r in payload["reports"])


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

    monkeypatch.setattr(sp, "_drift_propagator", refuse)
    assert cli.main(["evolve", "--manifold", "torus-drift"]) == 1
    assert "propagator failure" in capsys.readouterr().err


def test_one_process_reuses_its_parser(capsys):
    """main() builds the parser once per process; every call after other
    subcommands and a usage error prints what a fresh process prints."""
    runs = [["evolve", "--manifold", "torus"], ["bounds", "--manifold", "sphere"],
            ["h3", "--t-count", "3"], ["verify", "--only", "second_moment"],
            ["evolve", "--manifold", "klein"], ["evolve", "--manifold", "torus"]]
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
    assert statuses == [0, 0, 0, 0, 2, 0]
    assert cli._build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("t, status", [("1e-125", 2), ("1e-130", 2), ("1e-300", 2),
                                       ("1e-120", 0)])
def test_h3_refuses_times_past_double_range(t, status, capsys):
    assert cli.main(["h3", "--t-start", t, "--t-stop", t, "--t-count", "1"]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"error: t={float(t)!r} leaves the double range" in err) == (status == 2)


@pytest.mark.parametrize("key", ["kappa", "atol", "rtol"])
def test_h3_rejects_non_finite_parameters(key, tmp_path, capsys):
    assert cli.main(["h3", f"--{key}", "inf"]) == 2
    assert _config_exit_status("h3", {key: math.inf}, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("must be positive and finite") == 2


@pytest.mark.parametrize("argv", [("--kappa", "1e200"),
                                  ("--t-start", "1e300", "--t-stop", "1e300", "--t-count", "1")])
def test_h3_numerical_failure_is_one_stderr_line(argv):
    # no numpy warning precedes the stated failure
    proc = run_cli("h3", *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("quadrature failure: log-weighted sinh integral")
    assert proc.stderr.count("\n") == 1


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
    # failing there with its margin rhs - lhs.
    original = bd.check_bounds

    def failing(trace, manifold, initial):
        reports = original(trace, manifold, initial)
        for j, (i, lhs, rhs) in enumerate(((1, 1.5, 1.0), (1, 0.75, 0.5), (3, 2.0, 1.0))):
            report = reports[j]
            values = {name: getattr(report, name).copy()
                      for name in ("lhs", "rhs", "satisfied")}
            values["lhs"][i], values["rhs"][i], values["satisfied"][i] = lhs, rhs, False
            reports[j] = replace(report, **values)
        return reports

    monkeypatch.setattr(bd, "check_bounds", failing)
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
    monkeypatch.setitem(vf.CHECKS, "band", lambda spec: {}["missing"])
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
])
def test_config_rejects_keys_the_subcommand_does_not_read(command, key, value,
                                                          tmp_path, capsys):
    assert _config_exit_status(command, {key: value}, tmp_path) == 2
    assert f"unknown config keys for {command}: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "bounds"])
def test_quadrature_flags_are_not_accepted_without_quadrature(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--rtol", "5", "--atol", "7"])
    assert exc.value.code == 2
    assert "--rtol" in capsys.readouterr().err

