"""Command-line front end emitting CSV tables and JSON verification reports.

Subcommands:

  h3       hyperbolic-space entropy sweep over a time grid
  evolve   spectral trace plus bound reports for a manifold fixture
  bounds   closed-form right-hand-side tables for a manifold fixture
  verify   run the verification suite and emit a JSON report

Numbers are serialised in shortest-roundtrip decimal, CSV uses a mandatory
header row with LF line endings, and identical configurations produce
byte-identical output.  Exit status: 0 success, 1 verification or numerical
(quadrature, drift propagator) failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import bounds as bd
from . import fixtures as fx
from . import h3entropy as h3
from . import spectral as sp
from . import verify as vf
from .quadrature import QuadratureConvergenceError, QuadratureDomainError, QuadratureSpec

H3_COLUMNS = [
    "t", "entropy", "I1", "I2", "rate_direct", "rate_fd",
    "eta", "eta_lower", "eta_upper", "etap", "etap_lower", "etap_upper",
    "band_lo", "band_hi",
]

# Time-grid flags default to None so that ``evolve`` can tell a requested
# grid from its fixture's own; these fill in the ones left unset.
_TIME_GRID = {"t_start": 0.1, "t_stop": 100.0, "t_count": 40, "t_scale": "log"}


class UsageError(ValueError):
    """Bad flags or config; maps to exit status 2."""


def _fmt(x) -> str:
    return repr(float(x))


def _unscaled(scaled: float, exponent: float) -> float:
    """scaled * exp(exponent) as a float, inf once its log passes 709."""
    if scaled == 0.0:
        return 0.0
    total = exponent + math.log(abs(scaled))
    return math.copysign(math.exp(total) if total <= 709.0 else math.inf, scaled)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The flag parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="heatent",
        description="Entropy and entropy-rate of heat flow on model manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, time_grid: bool = True,
                   quadrature: bool = False):
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of flag values; explicit flags win")
        p.add_argument("--out", type=str, default=None,
                       help="output path (default: stdout)")
        if quadrature:
            p.add_argument("--rtol", type=float, default=1e-10,
                           help="quadrature relative tolerance")
            p.add_argument("--atol", type=float, default=1e-14,
                           help="quadrature absolute tolerance")
        if time_grid:
            p.add_argument("--t-start", type=float, default=None)
            p.add_argument("--t-stop", type=float, default=None)
            p.add_argument("--t-count", type=int, default=None)
            p.add_argument("--t-scale", choices=("lin", "log"), default=None)

    p_h3 = sub.add_parser("h3", help="hyperbolic-space entropy sweep")
    p_h3.add_argument("--kappa", type=float, default=1.0)
    p_h3.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p_h3, quadrature=True)

    for name, help_text in (("evolve", "spectral trace plus bound reports"),
                            ("bounds", "closed-form bound tables")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifold", choices=("circle", "torus", "sphere", "torus-drift"),
                       default="circle")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_common(p)

    p_vf = sub.add_parser("verify", help="run the verification suite")
    p_vf.add_argument("--only", type=str, default=None,
                      help="run a single named check group")
    p_vf.add_argument("--inject-fault", type=str, default=None,
                      help="debug: force a named check to fail "
                           "(supported: envelopes)")
    add_common(p_vf, time_grid=False, quadrature=True)

    return parser


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse the flags; a ``--config`` file's entries are parsed as flags of
    the same subcommand placed before the explicit ones, so they pass the
    same checks and explicit flags win."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise UsageError(f"unknown config keys for {args.command}: {unknown}")
    flags = []
    for key, value in config.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config key {key!r} needs a number or a string")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def _time_grid(args: argparse.Namespace) -> np.ndarray:
    start, stop, count, scale = (
        default if getattr(args, key) is None else getattr(args, key)
        for key, default in _TIME_GRID.items())
    # chained so that a NaN or infinite end fails too
    if not 0.0 < start <= stop < math.inf or count < 1:
        raise UsageError("need finite 0 < t-start <= t-stop and t-count >= 1")
    if count == 1:
        return np.array([start])
    if scale == "log":
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _quadrature_spec(args: argparse.Namespace) -> QuadratureSpec:
    try:
        return QuadratureSpec(
            relative_tolerance=args.rtol, absolute_tolerance=args.atol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_table(header: Sequence[str], rows: Sequence[Sequence[float]],
                args: argparse.Namespace) -> None:
    """One row per time, as CSV or as a JSON list of {column: value}."""
    if args.format == "json":
        payload = [dict(zip(header, [float(v) for v in row])) for row in rows]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv(header, rows), args.out)


def _report_failures(command: str, ok: np.ndarray, times: Sequence[float],
                     checks_at: Callable[[int], list[str]]) -> int:
    """Exit status 0 when every row is ok.  Otherwise 1, and one stderr line
    names the failing row count, the first failing t and the checks
    ``checks_at`` gives for its row index."""
    failing = np.flatnonzero(~ok)
    if failing.size == 0:
        return 0
    i = int(failing[0])
    sys.stderr.write(f"{command}: {failing.size} of {ok.size} rows failed; first at "
                     f"t={_fmt(times[i])}: {' and '.join(checks_at(i))}\n")
    return 1


def cmd_h3(args: argparse.Namespace) -> int:
    kappa = args.kappa
    times = _time_grid(args)
    params = h3.H3Params(kappa, _quadrature_spec(args))
    sweep = h3.evaluate_records(params, times)

    t = sweep.t.tolist()
    # the sweep holds the eta family times exp(-kappa^2 t/2)
    exponents = [0.5 * kappa * kappa * s for s in t]
    etas = [[_unscaled(v, e) for v, e in zip(column.tolist(), exponents)]
            for column in (sweep.eta, sweep.eta_lower, sweep.eta_upper,
                           sweep.etap, sweep.etap_lower, sweep.etap_upper)]
    band = h3.asymptotic_band(params)
    columns = zip(t, sweep.entropy.tolist(), sweep.I1.tolist(), sweep.I2.tolist(),
                  sweep.rate_direct.tolist(), sweep.rate_fd.tolist(), *etas)
    _emit_table(H3_COLUMNS, [[*row, *band] for row in columns], args)

    band_ok = sweep.band_ok

    def checks_at(i: int) -> list[str]:
        # A side that is not resolved inside fails the row, as one outside does.
        margins, errors = sweep.margins[:, i], sweep.errors[:, i]
        problems = [f"{side} {state}: margin {margin:.3e}, error {error:.1e}"
                    for side, state, margin, error in zip(
                        h3.SIDES, h3.verdict_states(margins, errors).tolist(),
                        margins.tolist(), errors.tolist())
                    if state != "inside"]
        checks = [f"envelope check ({'; '.join(problems)})"] if problems else []
        if not band_ok[i]:
            checks.append(f"band check (margin {sweep.band_margin[i]:.3e})")
        return checks

    return _report_failures("h3", sweep.envelope_ok & band_ok, t, checks_at)


def cmd_evolve(args: argparse.Namespace) -> int:
    fixture = fx.get_fixture(args.manifold)
    grid_requested = any(getattr(args, key) is not None for key in _TIME_GRID)
    times = _time_grid(args) if grid_requested else fixture.default_times
    trace = sp.entropy_trace(fixture.initial, times)
    reports = bd.check_bounds(trace, fixture.manifold, fixture.initial)

    header = ["t", "entropy", "fisher", "rate_direct", "rate_fd"]
    for report in reports:
        header += [f"rhs_{report.bound_name}", f"ok_{report.bound_name}"]
    rows = []
    for i, t in enumerate(trace.times):
        row = [t, trace.entropy[i], trace.fisher[i],
               trace.rate_direct[i], trace.rate_fd[i]]
        for report in reports:
            row += [report.rhs[i], int(report.satisfied[i])]
        rows.append(row)

    if args.format == "json":
        payload = {
            "manifold": fixture.name,
            "trace": [
                {
                    "t": float(trace.times[i]),
                    "entropy": float(trace.entropy[i]),
                    "fisher": float(trace.fisher[i]),
                    "rate_direct": float(trace.rate_direct[i]),
                    "rate_fd": float(trace.rate_fd[i]),
                }
                for i in range(trace.times.size)
            ],
            "reports": [
                {
                    "bound_name": r.bound_name,
                    "rhs": [float(v) for v in r.rhs],
                    "satisfied": [bool(v) for v in r.satisfied],
                    "min_margin": float(r.min_margin),
                }
                for r in reports
            ],
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv(header, rows), args.out)

    return _report_failures(
        "evolve", np.all([r.satisfied for r in reports], axis=0), trace.times,
        lambda i: [f"{r.bound_name} bound (margin {r.rhs[i] - r.lhs[i]:.3e})"
                   for r in reports if not r.satisfied[i]])


def cmd_bounds(args: argparse.Namespace) -> int:
    fixture = fx.get_fixture(args.manifold)
    times = _time_grid(args)
    table = bd.bound_table(fixture.manifold, fixture.initial, times)
    n = fixture.manifold.dimension
    header = ["t", *table, "euclidean_reference"]
    rows = [[t, *(rhs[i] for rhs in table.values()), bd.euclidean_rate_reference(n, t)]
            for i, t in enumerate(times)]
    _emit_table(header, rows, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    fault = args.inject_fault
    if fault is not None and fault != "envelopes":
        raise UsageError(f"unsupported fault {fault!r}; supported: envelopes")
    if fault is not None and args.only in vf.CHECKS and args.only != fault:
        raise UsageError(f"fault {fault!r} cannot fire in group {args.only!r}; "
                         f"it acts on the {fault!r} group only")
    try:
        results = vf.run_checks(only=args.only, spec=_quadrature_spec(args),
                                inject_fault=fault)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        name: {
            "pass": result.passed,
            "max_error": float(result.max_error),
            "details": result.details,
        }
        for name, result in results.items()
    }
    _emit(_json_text(payload), args.out)
    failed = [name for name, result in results.items() if not result.passed]
    if failed:
        sys.stderr.write(f"verify: failed checks: {', '.join(failed)}\n")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
        if args.command == "h3":
            return cmd_h3(args)
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "bounds":
            return cmd_bounds(args)
        return cmd_verify(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (QuadratureDomainError, QuadratureConvergenceError) as exc:
        sys.stderr.write(f"quadrature failure: {exc}\n")
        return 1
    except sp.PropagatorError as exc:
        sys.stderr.write(f"propagator failure: {exc}\n")
        return 1
    except (sp.PositivityError, sp.SpectralTruncationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
