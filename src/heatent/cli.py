"""Command-line front end emitting CSV tables and JSON verification reports.

Subcommands:

  h3       hyperbolic-space entropy sweep over a time grid
  evolve   spectral trace plus bound reports for a manifold fixture
  bounds   closed-form right-hand-side tables for a manifold fixture
  verify   run the verification suite and emit a JSON report

Every subcommand's flags are declared once, as data, in ``_COMMANDS``: an
argv ``command --flag value ...`` is read from its flag map and defaults,
built once at import, and argparse, built from it, parses any other argv
and owns the usage errors and the help.

Numbers are serialised in shortest-roundtrip decimal, CSV uses a mandatory
header row with LF line endings, and identical configurations produce
byte-identical output.  ``h3``, ``evolve`` and ``bounds`` each write one
table, an ordered dict of column name to array (``h3``'s from
``h3entropy.table``), and the one writer ``_table_text`` writes it as CSV or
as the JSON list of row objects, byte for byte what ``json.dumps(...,
indent=2, sort_keys=True)`` writes for its rows; only the nested ``verify``
report goes through json itself.  Exit status: 0 success, 1 verification or
numerical (quadrature, drift propagator) failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import bounds as bd
from . import fixtures as fx
from . import h3entropy as h3
from . import spectral as sp
from . import verify as vf
from .quadrature import QuadratureConvergenceError, QuadratureDomainError

# Every subcommand's flags, declared once: per subcommand its help and its
# flags in order, each (option, type or tuple of choices, default, help).
# ``_build_parser`` builds argparse from it and ``_table_parse`` its tables.
_OUTPUT = (("--config", str, None, "JSON file of flag values; explicit flags win"),
           ("--out", str, None, "output path (default: stdout)"))
# default None so that ``evolve`` can tell a requested grid from its
# fixture's own; ``_TIME_GRID`` fills in the ones left unset
_GRID = (("--t-start", float, None, None), ("--t-stop", float, None, None),
         ("--t-count", int, None, None), ("--t-scale", ("lin", "log"), None, None))
_FORMAT = ("--format", ("csv", "json"), "csv", None)
_MANIFOLD = ("--manifold", tuple(fx.FIXTURE_BUILDERS), "circle", None)
_COMMANDS = {
    "h3": ("hyperbolic-space entropy sweep",
           (("--kappa", float, 1.0, None), _FORMAT, *_OUTPUT, *_GRID)),
    "evolve": ("spectral trace plus bound reports", (_MANIFOLD, _FORMAT, *_OUTPUT, *_GRID)),
    "bounds": ("closed-form bound tables", (_MANIFOLD, _FORMAT, *_OUTPUT, *_GRID)),
    "verify": ("run the verification suite",
               (("--only", str, None, "run a single named check group"),
                ("--inject-fault", str, None,
                 "debug: force a named check to fail (supported: envelopes)"),
                *_OUTPUT)),
}
_TIME_GRID = {"t_start": 0.1, "t_stop": 100.0, "t_count": 40, "t_scale": "log"}


class UsageError(ValueError):
    """Bad flags or config; maps to exit status 2."""


# ``_table_parse``'s tables, built once: per subcommand (dest, convert, default) by option (a
# type converts the text, a tuple of choices looks it up), and defaults
_FLAGS = {name: {option: (option[2:].replace("-", "_"),
                          kind if callable(kind) else {c: c for c in kind}.__getitem__, default)
                 for option, kind, default, _ in flags} for name, (_, flags) in _COMMANDS.items()}
_DEFAULTS = {name: {"command": name, **{dest: default for dest, _, default in flags.values()}}
             for name, flags in _FLAGS.items()}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``, built at most once per process,
    for an argv the table path refuses or a ``--config`` file."""
    parser = argparse.ArgumentParser(
        prog="heatent",
        description="Entropy and entropy-rate of heat flow on model manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, kind, default, help_text in flags:
            p.add_argument(option, default=default, help=help_text,
                           **{"choices" if isinstance(kind, tuple) else "type": kind})
    return parser


def _table_parse(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace of ``command --flag value ...`` with every flag a full
    option string of the command's flags in ``_COMMANDS`` and no value
    starting with '-', each value converted by its flag's type or checked
    against its choices: what argparse returns for it.  None for any other
    argv, or a value that fails, which argparse parses (and refuses) itself."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    flags, values = _FLAGS[argv[0]], dict(_DEFAULTS[argv[0]])
    for option, text in zip(argv[1::2], argv[2::2]):
        flag = flags.get(option)
        if flag is None or text.startswith("-"):
            return None
        dest, convert, _ = flag
        try:
            values[dest] = convert(text)
        except (KeyError, ValueError):  # not one of the choices, or not of the type
            return None
    vars(args := argparse.Namespace()).update(values)  # __init__ would loop over them in Python
    return args


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse the flags, from the flag table where it reads the argv and by
    argparse otherwise; a ``--config`` file's entries are parsed as flags of
    the same subcommand placed before the explicit ones, so they pass the
    same checks and explicit flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_parse(argv) or _build_parser().parse_args(argv)
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
    return _build_parser().parse_args([argv[0], *flags, *argv[1:]])


def _time_grid(args: argparse.Namespace, fixed: Optional[np.ndarray] = None) -> np.ndarray:
    """The grid flags' time grid, ``_TIME_GRID`` filling unset ones; ``fixed`` if none is set."""
    given = [args.t_start, args.t_stop, args.t_count, args.t_scale]
    if fixed is not None and given == [None] * 4:
        return fixed
    start, stop, count, scale = [default if value is None else value
                                 for value, default in zip(given, _TIME_GRID.values())]
    # chained so that a NaN or infinite end fails too
    if not 0.0 < start <= stop < math.inf or count < 1:
        raise UsageError("need finite 0 < t-start <= t-stop and t-count >= 1")
    # below it 1/t overflows, and every rate and bound with it
    if start < sys.float_info.min:
        raise UsageError(f"t-start {start!r} is below the least normal double "
                         f"{sys.float_info.min!r}")
    if count == 1:
        return np.array([start])
    if scale == "log":
        # np.geomspace's arithmetic: 10 ** linspace of the log10 ends, with
        # the ends themselves put back (the ends as floats, which np.linspace
        # takes about 2.5 us faster than numpy scalars)
        grid = np.power(10.0, np.linspace(*np.log10([start, stop]).tolist(), count))
        grid[0], grid[-1] = start, stop
    else:
        grid = np.linspace(start, stop, count)
    values = grid.tolist()
    # a grid too fine for its window repeats a time, as does t-start = t-stop
    if not all(map(operator.lt, values, values[1:])):
        raise UsageError(f"t-start {start!r}, t-stop {stop!r} and t-count {count} "
                         "give a time grid that is not strictly increasing")
    return grid


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output {out!r}: {exc}") from exc


# json's spellings of the floats that have no JSON number, each replacing a
# repr at a value position of a JSON table: after a key's ": " and at a line's
# end (json escapes a newline in a key, and no finite repr holds these letters)
_JSON_NONFINITE = {f": {value}{end}": f": {spelled}{end}"
                   for value, spelled in (("nan", "NaN"), ("inf", "Infinity"),
                                          ("-inf", "-Infinity"))
                   for end in (",\n", "\n")}


def _table_text(columns: Mapping[str, float | Sequence[float]], fmt: str) -> str:
    """The one table writer: columns of equal length, by name in output
    order, every value a float, written one row per index as CSV or as the
    JSON list of {column: value} objects, byte for byte what
    ``json.dumps(..., indent=2, sort_keys=True)`` writes for it.  A column
    given as one float holds it on every row; at least one column is a
    sequence.

    Each row fills one row template by ``%``: the CSV line in column order,
    the JSON object in sorted-key order.  A one-float column's repr is
    written into the template once; the others are ``%r``, a float's repr.
    On a JSON table one pass over the text then spells each non-finite value
    as json does (NaN, Infinity, -Infinity), through ``_JSON_NONFINITE``."""
    names = list(columns) if fmt == "csv" else sorted(columns)
    rows = list(zip(*[np.asarray(columns[name], dtype=float).tolist() for name in names
                      if not isinstance(columns[name], float)]))
    cells = [float.__repr__(columns[name]) if isinstance(columns[name], float) else "%r"
             for name in names]
    if fmt == "csv":
        return "\n".join([",".join(names), *map(",".join(cells).__mod__, rows)]) + "\n"
    if not rows:
        return "[]\n"
    template = "  {\n" + ",\n".join(f"    {json.dumps(name).replace('%', '%%')}: {cell}"
                                    for name, cell in zip(names, cells)) + "\n  }"
    text = "[\n" + ",\n".join(map(template.__mod__, rows)) + "\n]\n"
    for value, spelled in _JSON_NONFINITE.items():
        text = text.replace(value, spelled)
    return text


def _report_failures(command: str, ok: np.ndarray, times: Sequence[float],
                     checks_at: Callable[[int], list[str]]) -> int:
    """Exit status 0 when every row is ok.  Otherwise 1, and one stderr line
    names the failing row count, the first failing t and the checks
    ``checks_at`` gives for its row index."""
    if ok.all():
        return 0
    failing = np.flatnonzero(~ok)
    i = int(failing[0])
    sys.stderr.write(f"{command}: {failing.size} of {ok.size} rows failed; first at "
                     f"t={float(times[i])!r}: {' and '.join(checks_at(i))}\n")
    return 1


def cmd_h3(args: argparse.Namespace) -> int:
    sweep = h3.evaluate_records(h3.H3Params(args.kappa), _time_grid(args))
    _emit(_table_text(h3.table(sweep), args.format), args.out)

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

    return _report_failures("h3", sweep.envelope_ok & band_ok, sweep.t, checks_at)


def cmd_evolve(args: argparse.Namespace) -> int:
    fixture = fx.get_fixture(args.manifold)
    trace = sp.entropy_trace(fixture.initial, _time_grid(args, fixture.default_times))
    reports = bd.check_bounds(trace, fixture.manifold, fixture.initial)

    columns = {"t": trace.times, "entropy": trace.entropy, "fisher": trace.fisher,
               "rate_direct": trace.rate_direct, "rate_fd": trace.rate_fd}
    for r in reports:
        columns[f"rhs_{r.bound_name}"] = r.rhs
        columns[f"ok_{r.bound_name}"] = r.satisfied
    _emit(_table_text(columns, args.format), args.out)

    return _report_failures(
        "evolve", functools.reduce(np.logical_and, [r.satisfied for r in reports]), trace.times,
        lambda i: [f"{r.bound_name} bound (margin {r.rhs[i] - trace.rate_direct[i]:.3e})"
                   for r in reports if not r.satisfied[i]])


def cmd_bounds(args: argparse.Namespace) -> int:
    fixture = fx.get_fixture(args.manifold)
    times = _time_grid(args)
    # bd.ricci_bound_rhs(n, 0.0, math.inf, t) over the grid, which _time_grid has checked
    columns = {"t": times, **bd.bound_table(fixture.initial, times),
               "euclidean_reference": fixture.manifold.dimension / (2.0 * times)}
    _emit(_table_text(columns, args.format), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = vf.run_checks(only=args.only, inject_fault=args.inject_fault)
    payload = {
        name: {
            "pass": result.passed,
            "max_error": float(result.max_error),
            "details": result.details,
        }
        for name, result in results.items()
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
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
    # the numerical clauses first: a QuadratureDomainError is a ValueError too
    except (QuadratureDomainError, QuadratureConvergenceError) as exc:
        sys.stderr.write(f"quadrature failure: {exc}\n")
        return 1
    except sp.PropagatorError as exc:
        sys.stderr.write(f"propagator failure: {exc}\n")
        return 1
    except ValueError as exc:  # usage and config errors, PositivityError, SpectralTruncationError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
