"""Command-line front end.

Subcommands:
    verify   check the polygon equation for one n, possibly at several assignments
    show     print one side's step-by-step triangulations and moves
    export   write matrices, invariant vectors and reports as JSON or LaTeX
    suite    batch verification plus property suite over a range of n

Exit codes: 0 all verified, 1 mathematical mismatch, 2 usage or input error,
3 internal error (a failed consistency check or any other unexpected
exception; a bug, never a verdict about the equation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from .errors import InvalidInputError
from .exactfield import ZetaAssignment
from .fvectors import f_vector
from .pmatrix import extended_matrices, product_for_side
from .simplicial import (
    MoveSequence,
    equation_sequences,
    initial_triangulation,
    triangulation_path,
)
from .verifier import verify_equation, verify_with_properties
from .version import __version__

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _json_dumps(doc) -> str:
    # One canonical form so exported JSON round-trips byte-identically.
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    # Write beside the target, then rename over it, so a failure leaves it as it was.
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    handle = open(tmp_path, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _simplex_str(vertices: tuple[int, ...], n: int) -> str:
    sep = "" if n <= 9 else "."
    return sep.join(str(v) for v in vertices)


def _resolve_assignments(args) -> list[ZetaAssignment]:
    """Build the list of assignments implied by --zeta/--seed/--trials."""
    n = args.n
    if args.trials < 1:
        raise InvalidInputError("--trials must be >= 1")
    if args.zeta is not None:
        if args.trials != 1:
            raise InvalidInputError("an explicit --zeta fixes one assignment; --trials must be 1")
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
        _emit(_json_dumps(doc), args.out)
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
# show
# ---------------------------------------------------------------------------

def _cmd_show(args) -> int:
    lhs, rhs = equation_sequences(args.n)
    seq: MoveSequence = lhs if args.side == "lhs" else rhs
    path = triangulation_path(seq)

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


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _export_side(seq: MoveSequence, zeta: ZetaAssignment) -> dict:
    matrices = extended_matrices(seq, zeta)
    return {
        "moves": [m.to_json_dict() for m in seq.moves],
        "shapes": [[m.rows, m.cols] for m in matrices],
        "matrices": [m.to_json_rows() for m in matrices],
        "product": product_for_side(seq, zeta).to_json_rows(),
    }


def _cmd_export(args) -> int:
    zeta = _resolve_assignments(args)[0]
    lhs, rhs = equation_sequences(args.n)
    sides = {"lhs": lhs, "rhs": rhs}
    if args.side != "both":
        sides = {args.side: sides[args.side]}

    if args.format == "json":
        doc = {
            "command": "export",
            "n": args.n,
            "zeta": zeta.to_strings(),
            "zeta_label": zeta.label,
            "sides": {name: _export_side(seq, zeta) for name, seq in sides.items()},
            "fvectors": {
                f"{p.i},{p.j}": [str(x) for x in f_vector(args.n, p, zeta).components]
                for p in initial_triangulation(args.n).pairs
            },
            "version": __version__,
        }
        _emit(_json_dumps(doc), args.out)
    else:
        blocks = []
        for name, seq in sides.items():
            matrices = extended_matrices(seq, zeta)
            blocks.append(f"% {name} product, leftmost factor applied last")
            for move, matrix in reversed(list(zip(seq.moves, matrices))):
                blocks.append(f"% factor for {move.label()}")
                blocks.append(matrix.to_latex())
            blocks.append(f"% {name} product value")
            blocks.append(product_for_side(seq, zeta).to_latex())
        _emit("\n".join(blocks) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _cmd_suite(args) -> int:
    if args.min_n < 5 or args.max_n < args.min_n:
        raise InvalidInputError(
            f"need 5 <= --min-n <= --max-n, got {args.min_n}..{args.max_n}"
        )
    if args.trials < 1:
        raise InvalidInputError("--trials must be >= 1")
    rows = []
    all_ok = True
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        report = verify_with_properties(n, ZetaAssignment.consecutive(n))
        extra_ok = True
        for k in range(1, args.trials):
            seed = (args.seed if args.seed is not None else 0) + k
            extra_ok &= verify_equation(n, ZetaAssignment.random_distinct(n, seed)).equal
        elapsed = time.perf_counter() - start
        passed = sum(1 for p in report.properties if p.passed)
        total = len(report.properties)
        verified = report.equal and extra_ok
        all_ok &= verified and passed == total
        details = {p.name: p.detail for p in report.properties}
        rows.append((n, verified, f"{passed}/{total}", f"{elapsed:.2f}s", details))

    if args.format == "json":
        doc = {
            "command": "suite",
            "min_n": args.min_n,
            "max_n": args.max_n,
            "rows": [
                {"n": n, "verified": v, "properties": p, "time": t, "details": d}
                for (n, v, p, t, d) in rows
            ],
            "all_passed": all_ok,
        }
        _emit(_json_dumps(doc), args.out)
    else:
        lines = [f"{'n':>3}  {'verified':>8}  {'properties':>10}  {'time':>8}"]
        for n, verified, props, elapsed, _ in rows:
            lines.append(f"{n:>3}  {str(verified).lower():>8}  {props:>10}  {elapsed:>8}")
        lines.append(f"all passed: {str(all_ok).lower()}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_zeta_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zeta", help="comma-separated p/q values, one per vertex")
    parser.add_argument("--seed", type=int, help="seed for random distinct assignments")
    parser.add_argument(
        "--trials", type=int, default=1, help="number of assignments to check"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngoneq",
        description="Construct and verify exact matrix solutions of polygon equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the equation for one n")
    p_verify.add_argument("--n", type=int, required=True)
    _add_zeta_options(p_verify)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_show = sub.add_parser("show", help="print one side's move-by-move steps")
    p_show.add_argument("--n", type=int, required=True)
    p_show.add_argument("--side", choices=["lhs", "rhs"], required=True)
    p_show.add_argument("--out")
    p_show.set_defaults(func=_cmd_show)

    p_export = sub.add_parser("export", help="export matrices and vectors")
    p_export.add_argument("--n", type=int, required=True)
    _add_zeta_options(p_export)
    p_export.add_argument("--side", choices=["lhs", "rhs", "both"], default="both")
    p_export.add_argument("--format", choices=["json", "latex"], default="json")
    p_export.add_argument("--out")
    p_export.set_defaults(func=_cmd_export)

    p_suite = sub.add_parser("suite", help="batch verify a range of n")
    p_suite.add_argument("--min-n", dest="min_n", type=int, required=True)
    p_suite.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_suite.add_argument("--seed", type=int)
    p_suite.add_argument("--trials", type=int, default=1)
    p_suite.add_argument("--format", choices=["text", "json"], default="text")
    p_suite.add_argument("--out")
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
