"""Command-line front end.

Subcommands:
    verify   check the polygon equation for one n, possibly at several assignments
    show     print one side's step-by-step triangulations and moves
    export   write matrices, invariant vectors and reports as JSON or LaTeX
    suite    batch verification plus property suite over a range of n

``export`` and ``suite`` take what they write from ``commands``, which each imports when it
runs and which imports nothing from this module: a ``verify`` or ``show`` line compiles only
``cli``, ``verifier``, ``pmatrix``, ``simplicial``, ``exactfield``, ``errors`` and ``version``.

Every option is one row of COMMANDS. _read_exact reads a line without argparse when each
token is an exact option name of its command, as --opt=value or --opt value with a value not
led by "-", every value converts and every required option is there. Any other line (help,
--version, abbreviations, dash-led values, stray tokens, bad values) goes to the argparse
tree build_parser() makes from the table, which prints and exits as it always has.
_json_dumps writes the bytes of json.dumps(doc, indent=2) without its pure-Python encoder.

Exit codes: 0 all verified, 1 mathematical mismatch, 2 usage or input error,
3 internal error (a failed consistency check or any other unexpected
exception; a bug, never a verdict about the equation).
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import InvalidInputError
from .exactfield import ZetaAssignment
from .simplicial import MoveSequence, check_n, equation_sequences
from .verifier import verify_equation
from .version import __version__

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _json_dumps(doc) -> str:
    """json.dumps(doc, indent=2) + "\n", one canonical form so exported JSON round-trips."""
    return _json_value(doc, "\n") + "\n"


def _json_value(x, newline: str) -> str:
    """x as json.dumps(x, indent=2) writes it at the depth whose line break is ``newline``."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is int:
        return str(x)
    if not isinstance(x, (dict, list, tuple)):
        return json.dumps(x)  # bool, None, float, subclasses of str and int
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = newline + "  "
    if isinstance(x, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_value(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    kinds = set(map(type, x))
    if kinds == {str}:
        items = map(encode_basestring_ascii, x)
    elif kinds == {int}:
        items = map(str, x)
    else:
        items = [_json_value(v, inner) for v in x]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _emit(out: str | dict, out_path: str | None) -> None:
    """Write ``out``, a text or a JSON document, to stdout or to ``out_path``."""
    text = out if type(out) is str else _json_dumps(out)
    if out_path is None:
        sys.stdout.write(text)
        return
    # Write beside the target, then rename over it, so a failure leaves it as it was.
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    try:
        handle = open(tmp_path, "x", encoding="utf-8")
    except OSError as exc:  # name the user's path, not the temp file
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with handle:
            handle.write(text)
        os.replace(tmp_path, out_path)
    except BaseException as exc:
        os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.filename == tmp_path:
            raise OSError(exc.errno, exc.strerror, out_path) from None
        raise


def _simplex_str(vertices: tuple[int, ...], n: int) -> str:
    sep = "" if n <= 9 else "."
    return sep.join(str(v) for v in vertices)


def _resolve_assignments(args) -> list[ZetaAssignment]:
    """Build the list of assignments implied by --zeta/--seed/--trials."""
    n = args.n
    check_n(n)
    if args.trials < 1:
        raise InvalidInputError("--trials must be >= 1")
    if args.zeta is not None:
        if args.trials != 1:
            raise InvalidInputError("an explicit --zeta fixes one assignment; --trials must be 1")
        if args.seed is not None:
            raise InvalidInputError("an explicit --zeta fixes the assignment; --seed does not apply")
        values = args.zeta.split(",")
        if not all(v.strip() for v in values):
            raise InvalidInputError(f"--zeta has an empty field: {args.zeta!r}")
        if len(values) != n:
            raise InvalidInputError(f"--zeta needs {n} comma-separated values, got {len(values)}")
        return [ZetaAssignment.from_strings(values)]
    if args.seed is not None:
        return [
            ZetaAssignment.random_distinct(n, args.seed + k) for k in range(args.trials)
        ]
    assignments = [ZetaAssignment.consecutive(n)]
    for k in range(1, args.trials):
        assignments.append(ZetaAssignment.random_distinct(n, k))
    return assignments


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    assignments = _resolve_assignments(args)
    reports = [verify_equation(args.n, zeta) for zeta in assignments]

    if args.format == "json":
        doc = {
            "command": "verify",
            "n": args.n,
            "trials": len(reports),
            "all_equal": all(r.equal for r in reports),
            "reports": [r.to_json_dict() for r in reports],
        }
        _emit(doc, args.out)
    else:
        lines = []
        for report in reports:
            rows, cols = report.shape
            lines.append(
                f"n={report.n} zeta={report.zeta.label}: "
                f"equal: {str(report.equal).lower()}, shape {rows}x{cols}"
            )
            if not report.equal and report.first_difference is not None:
                d = report.first_difference
                lines.append(
                    f"  first difference at row {d.row} "
                    f"(simplex {_simplex_str(d.row_simplex, report.n)}), "
                    f"col {d.col} (simplex {_simplex_str(d.col_simplex, report.n)}): "
                    f"lhs={d.lhs_value} rhs={d.rhs_value}"
                )
        verified = sum(1 for r in reports if r.equal)
        lines.append(f"{verified}/{len(reports)} assignments verified")
        _emit("\n".join(lines) + "\n", args.out)

    return EXIT_OK if all(r.equal for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# show, export, suite
# ---------------------------------------------------------------------------

def _cmd_show(args) -> int:
    lhs, rhs = equation_sequences(args.n)
    seq: MoveSequence = lhs if args.side == "lhs" else rhs
    path = seq.path

    lines = [f"n={args.n} side={args.side}: {len(seq.moves)} moves"]
    for k, t in enumerate(path):
        simplices = " ".join(_simplex_str(s, args.n) for s in t.simplices())
        pairs = " ".join(f"({p.i},{p.j})" for p in t.pairs)
        lines.append(f"step {k}: {simplices}   pairs: {pairs}")
        if k < len(seq.moves):
            move = seq.moves[k]
            rows, cols = len(path[k + 1]), len(path[k])
            lines.append(
                f"  apply {move.label()}   extended matrix {rows}x{cols}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    if args.trials > 1:
        raise InvalidInputError("export writes one assignment; --trials must be 1")
    (zeta,) = _resolve_assignments(args)
    from .commands import export  # compiled, with fvectors, the first time it runs

    _emit(export(args, zeta), args.out)
    return EXIT_OK


def _cmd_suite(args) -> int:
    from .commands import suite  # compiled, with fvectors, the first time it runs

    out, all_ok = suite(args)
    _emit(out, args.out)
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

Option = namedtuple("Option", "flag type default choices required help",
                    defaults=(None, None, False, None))

_ASSIGNMENT_OPTIONS = (
    Option("--n", int, required=True),
    Option("--zeta", str, help="comma-separated p/q values, one per vertex"),
    Option("--seed", int, help="seed for random distinct assignments"),
    Option("--trials", int, 1, help="number of assignments to check"),
)
_OUT = Option("--out", str)

COMMANDS = {
    "verify": ("verify the equation for one n", _cmd_verify, _ASSIGNMENT_OPTIONS + (
        Option("--format", str, "text", ("text", "json")), _OUT)),
    "show": ("print one side's move-by-move steps", _cmd_show, (
        Option("--n", int, required=True),
        Option("--side", str, choices=("lhs", "rhs"), required=True), _OUT)),
    "export": ("export matrices and vectors", _cmd_export, _ASSIGNMENT_OPTIONS + (
        Option("--side", str, "both", ("lhs", "rhs", "both")),
        Option("--format", str, "json", ("json", "latex")), _OUT)),
    "suite": ("batch verify a range of n", _cmd_suite, (
        Option("--min-n", int, required=True),
        Option("--max-n", int, required=True),
        Option("--seed", int),
        Option("--trials", int, 1),
        Option("--format", str, "text", ("text", "json")), _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only for lines _read_exact declines: an accepted line never loads it

    parser = argparse.ArgumentParser(
        prog="ngoneq",
        description="Construct and verify exact matrix solutions of polygon equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for o in options:
            command.add_argument(o.flag, type=o.type, default=o.default, choices=o.choices,
                                 required=o.required, help=o.help)
        command.set_defaults(func=func)
    return parser


def _read_exact(argv: list[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv) for an exact-form line (module docstring), else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    flags, values, tokens = {o.flag: o for o in options}, {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq and (value := next(tokens, "-")).startswith("-"):
            return None
        o = flags.get(flag)
        if o is None:
            return None
        try:
            values[flag] = value = o.type(value)
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
    if any(o.required and o.flag not in values for o in options):
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        o.flag[2:].replace("-", "_"): values.get(o.flag, o.default) for o in options})


def parse_command_line(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """Parse argv as build_parser() does; that tree is built only for lines _read_exact
    declines, to parse them or to print help, the version or a usage error."""
    args = _read_exact(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = parse_command_line(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path: a passing run never loads it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
