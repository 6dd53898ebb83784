"""Full-equation verification and the property suite, with structured reports.

A verification builds both move sequences for a given n, forms the two side products by their
columns in the pair gauge (``pmatrix.side_columns``) at one concrete distinct-value assignment,
compares them column by column, by value, and reads them row by row out of the gauge only to
report a first difference (row-major); the initial and final triangulations are the ends of a
sequence's path. A passing check certifies the identity there.

Error bound (Schwartz-Zippel): let move k remove the pairs of its b-set B_k, m = |B_k| =
floor((n-1)/2). Each column weight W_j divides V_k = prod_{a<b in B_k} (z_a - z_b), so V_k E_k
(E_k the extended matrix) has polynomial entries, homogeneous of degree C(m, 2). With V_L, V_R
the products of the V_k over each side and K_L, K_R the move counts, every entry of V_L V_R
(LHS - RHS) has degree at most d = (K_L + K_R) C(m, 2) (120 at n=12, 210 at n=14) and, at
distinct values, vanishes exactly when the entries agree. A false identity would pass one
``random_distinct`` trial (values in 1..10^6, drawn distinct, so conditioned on no collision)
with probability at most (d / 10^6) / (1 - C(n,2) / 10^6), and t independent trials with at
most its t-th power. The consecutive assignment is one fixed point and carries no such bound.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .errors import InvalidInputError
from .exactfield import IntRow, Rat, ZetaAssignment, rank, same_rows
from .fvectors import annihilates, check_move_action, columns_annihilated, gale_table, power_weights
from .pmatrix import IntMatrix, move_matrices, side_columns, true_product, true_rows
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    equation_sequences,
    move_size,
)
from .version import __version__


class FirstDifference(
    namedtuple("FirstDifference", "row col row_simplex col_simplex lhs_value rhs_value")
):
    """Location and values of the first unequal product entry (row-major)."""

    __slots__ = ()


class PropertyResult(namedtuple("PropertyResult", "name passed detail", defaults=("",))):
    __slots__ = ()


class VerificationReport(namedtuple(
    "VerificationReport", "n zeta lhs rhs shape equal first_difference properties",
    defaults=(None, None)
)):
    """One verification. Its wall time per layer, ``timings``, is set beside the fields by the
    verification and is no field, so equality, hash and the JSON form ignore it."""

    timings = MappingProxyType({})

    def to_json_dict(self) -> dict:
        """Canonical JSON form; deterministic for identical inputs (timings
        are deliberately excluded)."""
        doc = {
            "n": self.n,
            "zeta": self.zeta.to_strings(),
            "zeta_label": self.zeta.label,
            "lhs_moves": [m.to_json_dict() for m in self.lhs.moves],
            "rhs_moves": [m.to_json_dict() for m in self.rhs.moves],
            "shape": list(self.shape),
            "equal": self.equal,
            "properties": (
                None
                if self.properties is None
                else {r.name: r.passed for r in self.properties}
            ),
            "version": __version__,
        }
        if self.first_difference is not None:
            d = self.first_difference
            doc["first_difference"] = {
                "row": d.row,
                "col": d.col,
                "row_simplex": list(d.row_simplex),
                "col_simplex": list(d.col_simplex),
                "lhs": d.lhs_value,
                "rhs": d.rhs_value,
            }
        return doc


def _first_difference(lhs: list[IntRow], rhs: list[IntRow], final: Triangulation,
                      initial: Triangulation, zeta: ZetaAssignment) -> FirstDifference | None:
    """The first unequal entry (row-major) of two sides given by their columns in the pair
    gauge, at its true values: ``true_product`` reads both entry by entry out of it, alike,
    and each entry is compared as one ``Rat``."""
    lhs, rhs = (true_product(cols, final.pairs, initial.pairs, zeta) for cols in (lhs, rhs))
    for i, rows in enumerate(zip(lhs, rhs)):
        for j, (x, y) in enumerate(zip(*rows)):
            x, y = Rat(*x), Rat(*y)
            if x != y:
                return FirstDifference(
                    row=i,
                    col=j,
                    row_simplex=final.pairs[i].simplex(),
                    col_simplex=initial.pairs[j].simplex(),
                    lhs_value=str(x),
                    rhs_value=str(y),
                )
    return None


def verify_equation(n: int, zeta: ZetaAssignment) -> VerificationReport:
    """Check that both side products agree entrywise."""
    return _verify(n, zeta)[0]


def _verify(n: int, zeta: ZetaAssignment) -> tuple[VerificationReport, dict]:
    """``verify_equation`` and the move matrices of its side products, for the suite."""
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    timings: dict = {}
    t0 = time.perf_counter()
    lhs_seq, rhs_seq = equation_sequences(n)
    initial, final = lhs_seq.path[0], lhs_seq.path[-1]
    timings["sequences"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    matrices = move_matrices(lhs_seq.moves + rhs_seq.moves, zeta)
    timings["matrices"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    lhs_cols = side_columns(lhs_seq, matrices)
    timings["lhs_product"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rhs_cols = side_columns(rhs_seq, matrices)
    timings["rhs_product"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    equal = all(map(same_rows, lhs_cols, rhs_cols))  # by value: columns are not reduced
    difference = None if equal else _first_difference(lhs_cols, rhs_cols, final, initial, zeta)
    timings["compare"] = time.perf_counter() - t0

    shape = (len(final), len(initial))
    report = VerificationReport(n, zeta, lhs_seq, rhs_seq, shape, equal, difference)
    report.timings = timings
    return report, matrices


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

class SuiteContext:
    """What one (n, zeta) suite run reads, built once: the move sequences and matrices,
    the integer Gale rows of all C(n,2) pairs (``gale_table``), the weighted power rows
    (``power_weights``), and on first use each row's orthogonality, each q-stack and its
    rank. By Identity 1 each vector is Lambda G'_ij with one global diagonal Lambda, so
    ranks ignore Lambda, moves act on the rows, and orthogonality reads ``powers``."""

    def __init__(self, n: int, zeta: ZetaAssignment, sequences: tuple[MoveSequence, MoveSequence],
                 matrices: Mapping[PachnerMove, IntMatrix], rows: Mapping[Pair, tuple[int, ...]]):
        self.n, self.zeta, self.sequences = n, zeta, sequences
        self.matrices, self.rows, self.powers = matrices, rows, power_weights(zeta)[0]

    def stack_rank(self, pairs) -> int:
        """Rank of the Gale rows of the given pairs, stacked."""
        return rank([self.rows[pair] for pair in pairs])

    @cached_property
    def orthogonal(self) -> dict[Pair, bool]:
        """Whether each pair's vector annihilates the power rows, taken once: iff its Gale
        row has zero dot product with every row of ``powers``."""
        return {pair: annihilates(self.powers, row) for pair, row in self.rows.items()}

    @cached_property
    def q_stacks(self) -> tuple[dict[Pair, tuple[int, ...]], ...]:
        """At index q - 1, the Gale rows of the n-1 pairs containing q by their other vertex."""
        n, rows, everyone = self.n, self.rows, range(1, self.n + 1)
        return tuple(  # valid pairs by construction: Pair._make skips Pair's check
            {p: rows[p] for p in
             [Pair._make((q, v, n) if q < v else (v, q, n)) for v in everyone if v != q]}
            for q in everyone
        )

    @cached_property
    def stack_ranks(self) -> tuple[int, ...]:
        """Rank of the q-stack at index q - 1, taken once. Orthogonal rows that vanish at
        column q span at most n - 1 - floor(n/2) = m dimensions, so a nonsingular m x m block
        (first m rows, first m columns other than q) certifies rank m; else the full rank."""
        m, ranks = move_size(self.n), []
        for q, stack in enumerate(self.q_stacks, start=1):
            rows = list(stack.values())
            bounded = all(self.orthogonal[pair] and not row[q - 1] for pair, row in stack.items())
            block = bounded and rank([(row[: q - 1] + row[q:])[:m] for row in rows[:m]]) == m
            ranks.append(m if block else rank(rows))
        return tuple(ranks)


def _prop_row_sums(ctx: SuiteContext) -> PropertyResult:
    """Every move matrix's rows sum to 1: its true rows (``true_rows``) are rows v / e with
    sum(v) = e. An extended matrix's rows are its move matrix's rows and identity rows, so
    this covers them too."""
    for seq in ctx.sequences:
        for move in seq.moves:
            for i, (v, e) in enumerate(true_rows(move, ctx.matrices[move], ctx.zeta)):
                if (total := sum(v)) != e:
                    where = f"{seq.side} {move.label()} move matrix row {i}"
                    return PropertyResult("row_sums", False, f"{where} sums to {Rat(total, e)}")
    return PropertyResult("row_sums", True)


def _prop_orthogonality(ctx: SuiteContext) -> PropertyResult:
    bad = [pair for pair, orthogonal in ctx.orthogonal.items() if not orthogonal]
    return PropertyResult("orthogonality", not bad, f"pair ({bad[0].i},{bad[0].j})" if bad else "")


def _prop_move_action(ctx: SuiteContext) -> PropertyResult:
    for seq in ctx.sequences:
        for move in seq.moves:
            if not check_move_action(move, ctx.matrices[move], ctx.rows, ctx.zeta):
                return PropertyResult("move_action", False, f"{seq.side} {move.label()}")
    return PropertyResult("move_action", True)


def _prop_independence(ctx: SuiteContext) -> PropertyResult:
    """Every choice of m = floor((n-1)/2) vectors omitting a common vertex q has rank
    m, for all C(n-1, m) choices at once. A q-stack W with orthogonal rows and columns
    (``columns_annihilated``) is V K (diag(mu) V)^T, V the (n-1) x m Vandermonde matrix on T
    (Gale duality, Eisenbud-Popescu 2000); any m rows of V are invertible, so every m-choice
    of rows has rank m iff rank W = m (``stack_ranks``: one m x m block), none when less."""
    m, columns = move_size(ctx.n), columns_annihilated(ctx.zeta, ctx.powers, ctx.q_stacks)
    for q, (got, stack, annihilated) in enumerate(zip(ctx.stack_ranks, ctx.q_stacks, columns), 1):
        if not (all(ctx.orthogonal[pair] for pair in stack) and annihilated):
            return PropertyResult("independence", False, f"q={q} rows or columns not orthogonal")
        if got < m:
            picked = ",".join(str(k) for k in range(m))
            return PropertyResult("independence", False, f"q={q} choice [{picked}] rank deficient")
    return PropertyResult("independence", True)


def _prop_span_rank(ctx: SuiteContext) -> PropertyResult:
    """All n-1 vectors omitting a common vertex span exactly floor((n-1)/2)
    dimensions, for every choice of the common vertex."""
    m = move_size(ctx.n)
    for q, got in enumerate(ctx.stack_ranks, start=1):
        if got != m:
            return PropertyResult("span_rank", False, f"q={q} rank {got}, want {m}")
    return PropertyResult("span_rank", True)


def _prop_initial_stack_rank(ctx: SuiteContext) -> PropertyResult:
    """The initial triangulation's stacked vectors reach the maximum attainable rank want =
    min(row count, n - floor(n/2)). Orthogonal rows span at most n - floor(n/2) dimensions: if every
    initial row is, want independent rows (those through n first) certify it; else the full rank."""
    n, pairs = ctx.n, ctx.sequences[0].path[0].pairs
    want = min(len(pairs), n - n // 2)
    chosen = sorted(pairs, key=lambda pair: pair.j != n)[:want]  # stable: through n first
    bounded = all(ctx.orthogonal[pair] for pair in pairs)
    got = want if bounded and ctx.stack_rank(chosen) == want else ctx.stack_rank(pairs)
    if got != want:
        return PropertyResult("initial_stack_rank", False, f"rank {got}, want {want}")
    return PropertyResult("initial_stack_rank", True, f"rank {got}")


def _run_suite(ctx: SuiteContext) -> tuple[PropertyResult, ...]:
    return (
        _prop_row_sums(ctx),
        _prop_orthogonality(ctx),
        _prop_move_action(ctx),
        _prop_independence(ctx),
        _prop_span_rank(ctx),
        _prop_initial_stack_rank(ctx),
    )


def verify_with_properties(n: int, zeta: ZetaAssignment) -> VerificationReport:
    """verify_equation plus the property suite, bundled into one report; the
    suite reuses the report's move sequences and move matrices."""
    report, matrices = _verify(n, zeta)
    t0 = time.perf_counter()
    sequences = (report.lhs, report.rhs)
    properties = _run_suite(SuiteContext(n, zeta, sequences, matrices, gale_table(n, zeta)))
    report.timings["properties"] = time.perf_counter() - t0
    checked = report._replace(properties=properties)
    checked.timings = report.timings
    return checked
