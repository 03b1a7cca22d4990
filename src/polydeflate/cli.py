"""Command line front end for the deflation solver.

Subcommands:

* ``solve``: run the refinement/deflation loop from a start point and
  write a JSON report.
* ``deflate``: apply one deflation stage at a point and write the
  expanded polynomial system.
* ``multiplicity``: print the dual-space multiplicity of a root.

Exit codes: 0 on success, 1 for unusable input (bad flags, files that
cannot be read or are not UTF-8 text, parse errors), 2 when the computation did not reach its goal
(no convergence, divergence, deflation requested at a regular point
or at one where the Jacobian overflows, an expanded system for
``--emit-deflated`` or ``deflate`` above ``deflate.EXPAND_TERM_CAP`` terms,
or memory running out, say for the table of every power of x up to a
degree of 10^9: one ``error: out of memory`` line, printed once the
traceback has let the memory go), 3 when the multiplicity search did not
stabilize.

Reports are written with a fixed key order and 17 significant digits,
so two runs with the same inputs and seed produce identical bytes
except for the wall-time field on the final line. ``render_report`` and
``render_reports`` write that fixed layout in one pass over each report's
fields, with no intermediate tree. Complex numbers
appear as two-element ``[re, im]`` arrays; a number that is not finite
(after divergence) is written as ``null``.
"""

import argparse
import functools
import json
import math
import pathlib
import sys

import numpy as np

from . import deflate, linalg, newton, oracle
from .polysys import ParseError, check_point, parse_system


class CliError(Exception):
    """Failure with a specific process exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _UsageError(Exception):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


# ---------------------------------------------------------------------------
# deterministic JSON rendering
# ---------------------------------------------------------------------------

def _num(x) -> str:
    """17 significant digits; null for None, inf and NaN, which JSON cannot hold."""
    x = math.nan if x is None else float(x)
    return "%.17g" % x if math.isfinite(x) else "null"


def _string(s) -> str:
    """A JSON string in ASCII: control and non-ASCII characters escaped."""
    return json.dumps(str(s))


def _pair(z) -> str:
    z = complex(z)
    return "[%s, %s]" % (_num(z.real), _num(z.imag))


def _array(items, pad) -> str:
    """The rendered ``items`` as a JSON array, one to a line, indented two
    spaces past ``pad``, where the closing bracket stands; ``[]`` when empty."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _object(fields, pad) -> str:
    """The (key, rendered value) ``fields`` as a JSON object laid out as
    ``_array`` lays out its items; the keys are plain ASCII names."""
    inner = pad + "  "
    return f"{{\n{inner}" + f",\n{inner}".join(
        f'"{key}": {value}' for key, value in fields) + f"\n{pad}}}"


def _report(report: deflate.SolverReport, pad: str) -> str:
    """One report in the fixed layout, in one pass over its fields, the
    lines after the first indented past ``pad``; wall time stays last."""
    inner = pad + "  "
    stage_pad = inner + "  "
    stages = [_object((
        ("corank_before", stage.corank_before),
        ("corank_after", stage.corank_after),
        ("inverse_condition_before", _num(stage.inverse_condition_before)),
        ("inverse_condition_after", _num(stage.inverse_condition_after)),
        ("multipliers", _array([_pair(z) for z in stage.multiplier_values],
                               stage_pad + "  ")),
    ), stage_pad) for stage in report.stages]
    return _object((
        ("system", _string(report.system_name)),
        ("nvars", report.nvars),
        ("neqs", report.neqs),
        ("status", _string(report.status)),
        ("seed", report.seed),
        ("deflations", report.deflations),
        ("corank_sequence", _array([str(c) for c in report.corank_sequence], inner)),
        ("corank_arrow", _string(report.corank_arrow)),
        ("residual_initial", _num(report.residual_initial)),
        ("residual_final", _num(report.residual_final)),
        ("inverse_condition_original", _num(report.inverse_condition_original)),
        ("inverse_condition_final", _num(report.inverse_condition_final)),
        ("correct_digits_initial", _num(report.correct_digits_initial)),
        ("correct_digits_final", _num(report.correct_digits_final)),
        ("solution", _array([_pair(z) for z in report.solution], inner)),
        ("stages", _array(stages, inner)),
        ("wall_time_seconds", _num(report.wall_time_seconds)),
    ), pad)


def render_report(report: deflate.SolverReport) -> str:
    return _report(report, "") + "\n"


def render_reports(reports) -> str:
    return _array([_report(r, "  ") for r in reports], "") + "\n"


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    try:
        # one leading byte-order mark is dropped; decoding with utf-8-sig would
        # count a bad byte's offset from after the mark, not from the file start
        return pathlib.Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as err:
        raise CliError(1, f"cannot read {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:   # no strerror: name the first bad byte
        raise CliError(1, f"cannot read {path}: not UTF-8 text "
                          f"(byte {err.object[err.start]:#04x} at offset {err.start})")


def _load_system(path):
    text = _read_text(path)
    try:
        return parse_system(text)
    except ParseError as err:
        raise CliError(1, f"{path}: {err}")


def _parse_point(data, expected, origin):
    """The point in ``data``, a JSON array of ``expected`` [re, im] pairs."""
    if not isinstance(data, list):
        raise CliError(1, f"{origin}: expected a JSON array of [re, im] pairs")
    values = []
    for entry in data:
        # JSON integers load as floats (``_load_json``), and true and false as bool
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, float) for v in entry)):
            raise CliError(1, f"{origin}: expected a JSON array of [re, im] pairs")
        if not all(map(math.isfinite, entry)):
            raise CliError(1, f"{origin}: coordinate {len(values) + 1} is not finite")
        values.append(complex(entry[0], entry[1]))
    try:
        return check_point(np.asarray(values, dtype=complex), expected)
    except ValueError as err:
        raise CliError(1, f"{origin}: {err}")


def _load_json(path):
    try:
        # integers read as floats: one beyond the float range is inf, not an error
        return json.loads(_read_text(path), parse_int=float)
    except json.JSONDecodeError as err:
        raise CliError(1, f"{path}: invalid JSON ({err.msg} at line {err.lineno})")


def _load_point(path, expected):
    return _parse_point(_load_json(path), expected, path)


def _load_point_list(path, expected):
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise CliError(1, f"{path}: expected a non-empty JSON array of points")
    return [_parse_point(entry, expected, f"{path}[{k}]")
            for k, entry in enumerate(data)]


def _say(text):
    """Print ``text``, backslash-escaping what standard output cannot encode
    (a file name holding a byte that is not UTF-8, say)."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _write_text(path, text):
    try:
        pathlib.Path(path).write_text(text)
    except OSError as err:
        raise CliError(1, f"cannot write {path}: {err.strerror or err}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    system = _load_system(args.system)
    name = pathlib.Path(args.system).stem
    reference = None
    if args.reference is not None:
        reference = _load_point(args.reference, system.nvars)
    opts = newton.NewtonOptions(rank_tol=args.rank_tol,
                                residual_tol=args.residual_tol)

    # --point runs as a batch of one start, reported as one object, not a list
    if args.points is None:
        starts = [_load_point(args.point, system.nvars)]
    elif args.emit_deflated is not None:
        raise CliError(1, "--emit-deflated needs a single --point run")
    else:
        starts = _load_point_list(args.points, system.nvars)
    reports = [deflate.deflate_loop(system, start, opts, seed=args.seed + index,
                                    max_stages=args.max_deflations, reference=reference,
                                    system_name=name)
               for index, start in enumerate(starts)]
    if args.points is None:
        _write_text(args.out, render_report(reports[0]))
    else:
        _write_text(args.out, render_reports(reports))
    if args.emit_deflated is not None:
        _write_text(args.emit_deflated, deflate.format_deflated(reports[0].deflated))
    for report in reports:
        _say(f"{name}: {report.status}, deflations {report.deflations}, "
             f"corank {report.corank_arrow}")
    good = all(r.status == newton.CONVERGED_REGULAR for r in reports)
    return 0 if good else 2


def cmd_deflate(args) -> int:
    system = _load_system(args.system)
    point = _load_point(args.point, system.nvars)
    extended, _ = deflate.deflate_once(system, point, args.rank_tol, args.seed)
    _write_text(args.out, deflate.format_deflated(extended))
    _say(f"wrote {args.out}: {extended.neqs} equations, "
         f"{extended.nvars} variables (stage rank {extended.stages[-1].rank})")
    return 0


def cmd_multiplicity(args) -> int:
    system = _load_system(args.system)
    point = _load_point(args.point, system.nvars)
    try:
        result = oracle.multiplicity(system, point, max_order=args.max_order)
    except ValueError as err:
        raise CliError(1, str(err))
    if result is None:
        raise CliError(3, f"multiplicity did not stabilize up to order {args.max_order}")
    print(result)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _at_least(low: int, rule: str):
    """A check in the form of ``linalg.check_tol``: a ValueError, naming the
    option, unless its value is at least ``low``."""
    def check(value, what):
        if value < low:
            raise ValueError(f"{what} {rule}")
    return check


# option -> its check, run once parsing is done, so a bad value is a
# one-line error before any work starts; the tolerances take the package's
# one tolerance rule
_OPTION_RULES = {
    "rank_tol": linalg.check_tol,
    "residual_tol": linalg.check_tol,
    "max_deflations": _at_least(0, "must be nonnegative"),
    "seed": _at_least(0, "must be nonnegative"),
    "max_order": _at_least(1, "must be at least 1"),
}


def _check_options(args):
    for name, check in _OPTION_RULES.items():
        value = getattr(args, name, None)
        if value is not None:
            try:
                check(value, "--" + name.replace("_", "-"))
            except ValueError as err:
                raise CliError(1, f"{err}, got {value}") from None


@functools.cache
def build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(prog="polydeflate",
                     description="Newton solver with randomized deflation "
                                 "for singular roots of polynomial systems")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run the deflation loop")
    solve.add_argument("--system", required=True, help="polynomial system file")
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", help="JSON start point ([re, im] pairs)")
    group.add_argument("--points", help="JSON array of start points")
    solve.add_argument("--seed", type=int, default=deflate.DEFAULT_SEED,
                       help="random seed (with --points, point k uses seed+k)")
    solve.add_argument("--rank-tol", type=float, default=newton.NewtonOptions.rank_tol)
    solve.add_argument("--residual-tol", type=float,
                       default=newton.NewtonOptions.residual_tol)
    solve.add_argument("--max-deflations", type=int, default=deflate.STAGE_CAP)
    solve.add_argument("--reference", help="known root for digit counting")
    solve.add_argument("--out", required=True, help="JSON report destination")
    solve.add_argument("--emit-deflated",
                       help="also write the final deflated system")
    solve.set_defaults(func=cmd_solve)

    deflate_cmd = commands.add_parser("deflate", help="apply one deflation stage")
    deflate_cmd.add_argument("--system", required=True)
    deflate_cmd.add_argument("--point", required=True)
    deflate_cmd.add_argument("--seed", type=int, default=deflate.DEFAULT_SEED)
    deflate_cmd.add_argument("--rank-tol", type=float,
                             default=newton.NewtonOptions.rank_tol)
    deflate_cmd.add_argument("--out", required=True)
    deflate_cmd.set_defaults(func=cmd_deflate)

    mult = commands.add_parser("multiplicity",
                               help="dual-space multiplicity at a root")
    mult.add_argument("--system", required=True)
    mult.add_argument("--point", required=True)
    mult.add_argument("--max-order", type=int, default=oracle.MAX_ORDER)
    mult.set_defaults(func=cmd_multiplicity)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        # an iterate that overflows ends its solve with status "diverged";
        # numpy's overflow warnings would only repeat that on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _UsageError as err:
        print(err.parser.format_usage(), end="", file=sys.stderr)
        message, code = str(err), 1
    except CliError as err:
        message, code = str(err), err.code
    except (deflate.RegularPointError, deflate.NonFiniteJacobianError,
            deflate.ExpansionTooLargeError) as err:   # deflate, or --emit-deflated's expansion
        message, code = str(err), 2
    except MemoryError:
        # printed below, once the traceback and the memory its frames hold are let go
        message, code = "out of memory", 2
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
