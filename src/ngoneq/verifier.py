"""Full-equation verification and the property suite, with structured reports.

A verification builds both move sequences for a given n, forms the two side
products at one concrete distinct-value assignment, and compares them
entrywise; the initial and final triangulations are the ends of a sequence's
path. A passing check certifies the identity at that point.

Error bound (Schwartz-Zippel): with K the longer side's move count and
D = prod_{a<b} (z_b - z_a), every entry of D^K * (LHS - RHS) is a polynomial in
z of degree at most d = K * C(n,2) (396 at n=12, 637 at n=14), and at distinct
values it vanishes exactly when the two entries agree. If the identity were
false, one ``random_distinct`` trial (values in 1..10^6, drawn distinct) would
still pass with probability at most (d / 10^6) / (1 - C(n,2) / 10^6), and t
independent trials would all pass with at most that bound to the power t. The
consecutive assignment is one fixed point and carries no such bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import lcm, prod
from typing import Mapping

from .errors import InvalidInputError
from .exactfield import IntMatrix, IntRow, Rat, ZetaAssignment, rank, rat_row
from .fvectors import FVector, check_move_action, check_orthogonality, f_vector_table
from .pmatrix import int_p_matrix, side_rows
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    equation_sequences,
    move_size,
)
from .version import __version__


@dataclass(frozen=True)
class FirstDifference:
    """Location and values of the first unequal product entry (row-major)."""

    row: int
    col: int
    row_simplex: tuple[int, ...]
    col_simplex: tuple[int, ...]
    lhs_value: str
    rhs_value: str


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    n: int
    zeta: ZetaAssignment
    lhs: MoveSequence
    rhs: MoveSequence
    shape: tuple[int, int]
    equal: bool
    first_difference: FirstDifference | None = None
    properties: tuple[PropertyResult, ...] | None = None
    timings: dict = field(default_factory=dict, compare=False)

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


def _first_difference(
    lhs: list[IntRow], rhs: list[IntRow], final: Triangulation, initial: Triangulation
) -> FirstDifference | None:
    """The first unequal entry of two sides given as integer rows."""
    for i, rows in enumerate(zip(lhs, rhs)):
        for j, (x, y) in enumerate(zip(*map(rat_row, rows))):
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
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    timings: dict = {}
    t0 = time.perf_counter()
    lhs_seq, rhs_seq = equation_sequences(n)
    initial, final = lhs_seq.path[0], lhs_seq.path[-1]
    timings["sequences"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lhs_rows = side_rows(lhs_seq, zeta)
    timings["lhs_product"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rhs_rows = side_rows(rhs_seq, zeta)
    timings["rhs_product"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    equal = lhs_rows == rhs_rows  # integer rows are canonical
    difference = None if equal else _first_difference(lhs_rows, rhs_rows, final, initial)
    timings["compare"] = time.perf_counter() - t0

    return VerificationReport(
        n=n,
        zeta=zeta,
        lhs=lhs_seq,
        rhs=rhs_seq,
        shape=(len(final), len(initial)),
        equal=equal,
        first_difference=difference,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def max_stack_rank(n: int) -> int:
    """Largest possible rank of any stack of invariant vectors: they all lie in
    the orthogonal complement of the floor(n/2) power rows, so the rank of a
    k-row stack is at most min(k, n - floor(n/2))."""
    return n - n // 2


@dataclass(frozen=True)
class SuiteContext:
    """Everything the properties of one (n, zeta) suite run read, built once: the two
    move sequences, every move's integer matrix, the invariant vectors of all C(n,2)
    pairs and, on first use, the n q-stack ranks. The vector properties read each
    vector's row (``FVector.row``) and the assignment's (``ZetaAssignment.row``)."""

    n: int
    zeta: ZetaAssignment
    sequences: tuple[MoveSequence, MoveSequence]
    matrices: Mapping[PachnerMove, IntMatrix]
    vectors: Mapping[Pair, FVector]

    def stack_rank(self, pairs) -> int:
        """Rank of the vectors of the given pairs, stacked as rows."""
        return rank([self.vectors[pair].row[0] for pair in pairs])

    @cached_property
    def stack_ranks(self) -> tuple[int, ...]:
        """Rank of the q-stack (the n-1 pairs containing q) at index q - 1, taken once."""
        return tuple(self.stack_rank(self.omit_vertex_pairs(q)) for q in range(1, self.n + 1))

    def omit_vertex_pairs(self, q: int) -> list[Pair]:
        """The n-1 pairs containing q, ordered by their other vertex."""
        return [Pair.of(self.n, q, v) for v in range(1, self.n + 1) if v != q]


def _prop_row_sums(ctx: SuiteContext) -> PropertyResult:
    """Every move matrix's rows sum to 1 (numerators to the denominator). An extended
    matrix's rows are its move matrix's rows and identity rows, so this covers them too."""
    for seq in ctx.sequences:
        for move in seq.moves:
            rows, d = ctx.matrices[move]
            for i, row in enumerate(rows):
                if sum(row) != d:
                    return PropertyResult(
                        "row_sums",
                        False,
                        f"{seq.side} {move.label()} move matrix row {i} sums to {Rat(sum(row), d)}",
                    )
    return PropertyResult("row_sums", True)


def _prop_orthogonality(ctx: SuiteContext) -> PropertyResult:
    for pair, vector in ctx.vectors.items():
        if not check_orthogonality(vector, ctx.zeta):
            return PropertyResult("orthogonality", False, f"pair ({pair.i},{pair.j})")
    return PropertyResult("orthogonality", True)


def _prop_move_action(ctx: SuiteContext) -> PropertyResult:
    for seq in ctx.sequences:
        for move in seq.moves:
            if not check_move_action(move, ctx.matrices[move], ctx.vectors):
                return PropertyResult(
                    "move_action", False, f"{seq.side} {move.label()}"
                )
    return PropertyResult("move_action", True)


def _stack_is_orthogonal(ctx: SuiteContext, q: int) -> bool:
    """True iff every row of the q-stack passes ``check_orthogonality`` and every
    column w is annihilated by the rows mu_v * z_v^j, j < floor(n/2), v in T = [n] \\ {q},
    mu_v = 1 / prod_{y in T, y != v} (z_v - z_y): over integers z = u / s and rows
    a_v / d_v, sum_v c_v * u_v^j * a_v[w] = 0 with c_v = lcm(L d) / (L_v d_v) and
    L_v = prod_{y in T, y != v} (u_v - u_y); the powers of s cancel per j."""
    vectors = [ctx.vectors[pair] for pair in ctx.omit_vertex_pairs(q)]
    points = [x for v, x in enumerate(ctx.zeta.row[0], start=1) if v != q]
    scaled = [prod([x - y for y in points if y != x]) * f.row[1] for x, f in zip(points, vectors)]
    top = lcm(*scaled)
    weights = [top // w for w in scaled]
    columns = list(zip(*[f.row[0] for f in vectors]))
    for _ in range(ctx.n // 2):
        if any(sum([c * a for c, a in zip(weights, column)]) for column in columns):
            return False
        weights = [c * x for c, x in zip(weights, points)]
    return all(check_orthogonality(f, ctx.zeta) for f in vectors)


def _prop_independence(ctx: SuiteContext) -> PropertyResult:
    """Every choice of m = floor((n-1)/2) vectors omitting a common vertex q has rank
    m, for all C(n-1, m) choices at once. A q-stack W that passes ``_stack_is_orthogonal``
    is V K (diag(mu) V)^T, V the (n-1) x m Vandermonde matrix on T (Gale duality,
    Eisenbud-Popescu 2000); any m rows of V are invertible, so every m-choice of
    rows has rank m exactly when rank W = m, and none has when rank W < m."""
    m = move_size(ctx.n)
    for q, got in enumerate(ctx.stack_ranks, start=1):
        if not _stack_is_orthogonal(ctx, q):
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
    """The stacked vectors of the initial triangulation achieve the maximum
    attainable rank min(row count, n - floor(n/2))."""
    initial = ctx.sequences[0].path[0]
    got = ctx.stack_rank(initial.pairs)
    want = min(len(initial), max_stack_rank(ctx.n))
    if got != want:
        return PropertyResult(
            "initial_stack_rank", False, f"rank {got}, want {want}"
        )
    return PropertyResult("initial_stack_rank", True, f"rank {got}")


def run_property_suite(
    n: int, zeta: ZetaAssignment, sequences: tuple[MoveSequence, MoveSequence]
) -> tuple[PropertyResult, ...]:
    """Run every structural property at one assignment, over the two move
    sequences of n, from one shared SuiteContext."""
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    matrices = {move: int_p_matrix(move, zeta) for seq in sequences for move in seq.moves}
    ctx = SuiteContext(n, zeta, sequences, matrices, f_vector_table(n, zeta))
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
    suite reuses the report's move sequences."""
    report = verify_equation(n, zeta)
    t0 = time.perf_counter()
    properties = run_property_suite(n, zeta, (report.lhs, report.rhs))
    timings = {**report.timings, "properties": time.perf_counter() - t0}
    return replace(report, properties=properties, timings=timings)
