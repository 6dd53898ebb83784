"""What ``export`` and ``suite`` write, a JSON document or a text, for ``cli`` to write out: it
imports this module when one of them runs. Nothing here imports ``cli``.

Every matrix stays in exact integers until ``export`` writes it, each entry (numerator,
denominator) reduced on its own into the JSON "p/q" strings and LaTeX arrays made here, from the
move matrices of every side written, built in one ``move_matrices`` call, each product (an
extended matrix is the product of its one move) walked by ``pmatrix.side_columns`` and taken
out of the pair gauge by ``true_product``, and from the vectors of ``fvectors.vector_rows``.
"""

from __future__ import annotations

import time
from math import gcd

from .errors import InvalidInputError
from .exactfield import EntryRow, ZetaAssignment
from .fvectors import vector_rows
from .pmatrix import move_matrices, side_columns, true_product
from .simplicial import MoveSequence, equation_sequences
from .verifier import verify_equation, verify_with_properties
from .version import __version__


def _entry(x: int, d: int, fraction: str) -> str:
    """x / d in lowest terms: the integer, or ``fraction`` filled with the sign, |p| and q."""
    if not x:  # most entries of an extended factor: no gcd
        return "0"
    g = gcd(x, d)
    return str(x // g) if g == d else fraction.format("-" if x < 0 else "", abs(x) // g, d // g)


def _json_rows(rows: list[EntryRow]) -> list[list[str]]:
    """Rows of entries (x, d) as "p/q" strings, "p" when q = 1."""
    return [[_entry(x, d, "{}{}/{}") for x, d in row] for row in rows]


def _latex_rows(rows: list[EntryRow]) -> str:
    """Rows of entries (x, d) as a LaTeX array with \\frac{p}{q} entries."""
    lines = ["\\left(\\begin{array}{%s}" % ("c" * len(rows[0]))]
    for row in rows:
        lines.append(" & ".join(_entry(x, d, "{}\\frac{{{}}}{{{}}}") for x, d in row) + " \\\\")
    lines.append("\\end{array}\\right)")
    return "\n".join(lines)


def _side_products(seq: MoveSequence, matrices, zeta: ZetaAssignment):
    """One side's true extended factors and product, left for ``_entry`` to reduce, from the
    move matrices of both sides: each factor is the side product of its one-move sequence."""
    path = seq.path
    factors = [true_product(side_columns(MoveSequence(seq.n, seq.side, (move,), (old, new)),
                                         matrices), new.pairs, old.pairs, zeta)
               for move, old, new in zip(seq.moves, path, path[1:])]
    return factors, true_product(side_columns(seq, matrices), path[-1].pairs, path[0].pairs, zeta)


def _export_side(seq: MoveSequence, matrices, zeta: ZetaAssignment) -> dict:
    factors, product = _side_products(seq, matrices, zeta)
    return {
        "moves": [m.to_json_dict() for m in seq.moves],
        "shapes": [[len(rows), len(rows[0])] for rows in factors],
        "matrices": [_json_rows(rows) for rows in factors],
        "product": _json_rows(product),
    }


def export(args, zeta: ZetaAssignment) -> dict | str:
    """The JSON document or LaTeX text of an ``export`` line at ``zeta``."""
    lhs, rhs = equation_sequences(args.n)
    pairs = lhs.path[0].pairs
    sides = {"lhs": lhs, "rhs": rhs}
    if args.side != "both":
        sides = {args.side: sides[args.side]}
    matrices = move_matrices([move for seq in sides.values() for move in seq.moves], zeta)

    if args.format == "json":
        return {
            "command": "export",
            "n": args.n,
            "zeta": zeta.to_strings(),
            "zeta_label": zeta.label,
            "sides": {name: _export_side(seq, matrices, zeta) for name, seq in sides.items()},
            "fvectors": dict(zip([f"{p.i},{p.j}" for p in pairs],
                                 _json_rows(vector_rows(args.n, zeta, pairs)))),
            "version": __version__,
        }
    blocks = []
    for name, seq in sides.items():
        factors, product = _side_products(seq, matrices, zeta)
        blocks.append(f"% {name} product, leftmost factor applied last")
        for move, rows in reversed(list(zip(seq.moves, factors))):
            blocks.append(f"% factor for {move.label()}")
            blocks.append(_latex_rows(rows))
        blocks.append(f"% {name} product value")
        blocks.append(_latex_rows(product))
    return "\n".join(blocks) + "\n"


def suite(args) -> tuple[dict | str, bool]:
    """The JSON document or text of a ``suite`` line, and whether every n passed."""
    if args.min_n < 5 or args.max_n < args.min_n:
        raise InvalidInputError(
            f"need 5 <= --min-n <= --max-n, got {args.min_n}..{args.max_n}"
        )
    if args.trials < 1:
        raise InvalidInputError("--trials must be >= 1")
    if args.seed is not None and args.trials == 1:
        raise InvalidInputError(
            "--seed seeds only the extra trials, which need --trials 2 or more; "
            "the first trial always uses the consecutive assignment"
        )
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
        rows.append((n, verified, f"{passed}/{total}", f"{elapsed:.2f}s", report.properties))

    if args.format == "json":
        return {
            "command": "suite",
            "min_n": args.min_n,
            "max_n": args.max_n,
            "rows": [
                {"n": n, "verified": v, "properties": p, "time": t,
                 "details": {r.name: r.detail for r in results}}
                for (n, v, p, t, results) in rows
            ],
            "all_passed": all_ok,
        }, all_ok
    lines = [f"{'n':>3}  {'verified':>8}  {'properties':>10}  {'time':>8}"]
    for n, verified, props, elapsed, results in rows:
        lines.append(f"{n:>3}  {str(verified).lower():>8}  {props:>10}  {elapsed:>8}")
        lines.extend(f"     {r.name}: {r.detail}" for r in results if not r.passed)
    lines.append(f"all passed: {str(all_ok).lower()}")
    return "\n".join(lines) + "\n", all_ok
