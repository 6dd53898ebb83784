"""Full-equation verification and the property suite, with structured reports.

A verification builds both move sequences for a given n, forms the two side
products at one concrete distinct-value assignment, and compares them
entrywise. A passing check certifies the identity at that point.

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

import random
import time
from dataclasses import dataclass, field, replace
from itertools import combinations

from .errors import InvalidInputError
from .exactfield import DenseMatrix, ZetaAssignment
from .fvectors import check_move_action, check_orthogonality, f_vector, stack_f_matrix
from .pmatrix import build_p_matrix, extended_matrices, product_for_side
from .simplicial import (
    MoveSequence,
    Pair,
    Triangulation,
    equation_sequences,
    final_triangulation,
    initial_triangulation,
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
    lhs: DenseMatrix, rhs: DenseMatrix, final: Triangulation, initial: Triangulation
) -> FirstDifference | None:
    for i in range(lhs.rows):
        for j in range(lhs.cols):
            if lhs[i, j] != rhs[i, j]:
                return FirstDifference(
                    row=i,
                    col=j,
                    row_simplex=final.pairs[i].simplex(),
                    col_simplex=initial.pairs[j].simplex(),
                    lhs_value=str(lhs[i, j]),
                    rhs_value=str(rhs[i, j]),
                )
    return None


def verify_equation(n: int, zeta: ZetaAssignment) -> VerificationReport:
    """Check that both side products agree entrywise."""
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    timings: dict = {}
    t0 = time.perf_counter()
    lhs_seq, rhs_seq = equation_sequences(n)
    timings["sequences"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lhs_product = product_for_side(lhs_seq, zeta)
    timings["lhs_product"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rhs_product = product_for_side(rhs_seq, zeta)
    timings["rhs_product"] = time.perf_counter() - t0

    initial = initial_triangulation(n)
    final = final_triangulation(n)

    t0 = time.perf_counter()
    equal = lhs_product == rhs_product
    difference = None if equal else _first_difference(lhs_product, rhs_product, final, initial)
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

# Subset choices checked per common vertex by the independence property.
INDEPENDENCE_SAMPLE = 50


def max_stack_rank(n: int) -> int:
    """Largest possible rank of any stack of invariant vectors: they all lie in
    the orthogonal complement of the floor(n/2) power rows, so the rank of a
    k-row stack is at most min(k, n - floor(n/2))."""
    return n - n // 2


def _prop_row_sums(n: int, zeta: ZetaAssignment) -> PropertyResult:
    for seq in equation_sequences(n):
        for move, matrix in zip(seq.moves, extended_matrices(seq, zeta)):
            p, _ = build_p_matrix(move, zeta)
            for source, mat in (("move matrix", p), ("extended matrix", matrix)):
                for i, s in enumerate(mat.row_sums()):
                    if s != 1:
                        return PropertyResult(
                            "row_sums",
                            False,
                            f"{seq.side} {move.label()} {source} row {i} sums to {s}",
                        )
    return PropertyResult("row_sums", True)


def _prop_orthogonality(n: int, zeta: ZetaAssignment) -> PropertyResult:
    for i, j in combinations(range(1, n + 1), 2):
        pair = Pair(i, j, n)
        if not check_orthogonality(f_vector(n, pair, zeta), zeta):
            return PropertyResult("orthogonality", False, f"pair ({i},{j})")
    return PropertyResult("orthogonality", True)


def _prop_move_action(n: int, zeta: ZetaAssignment) -> PropertyResult:
    for seq in equation_sequences(n):
        for move in seq.moves:
            if not check_move_action(move, zeta):
                return PropertyResult(
                    "move_action", False, f"{seq.side} {move.label()}"
                )
    return PropertyResult("move_action", True)


def _omit_vertex_vectors(n: int, q: int, zeta: ZetaAssignment) -> list:
    others = [v for v in range(1, n + 1) if v != q]
    return [f_vector(n, Pair.of(n, q, v), zeta) for v in others]


def _prop_independence(n: int, zeta: ZetaAssignment) -> PropertyResult:
    """Every choice of floor((n-1)/2) vectors omitting a common vertex has full
    rank; exhaustive when feasible, otherwise a seeded INDEPENDENCE_SAMPLE."""
    m = move_size(n)
    for q in range(1, n + 1):
        vectors = _omit_vertex_vectors(n, q, zeta)
        all_choices = list(combinations(range(len(vectors)), m))
        if len(all_choices) > INDEPENDENCE_SAMPLE:
            rng = random.Random(10_000 * n + q)
            choices = rng.sample(all_choices, INDEPENDENCE_SAMPLE)
        else:
            choices = all_choices
        for choice in choices:
            stack = DenseMatrix([list(vectors[k].components) for k in choice])
            if stack.rank() != m:
                picked = ",".join(str(k) for k in choice)
                return PropertyResult(
                    "independence", False, f"q={q} choice [{picked}] rank deficient"
                )
    return PropertyResult("independence", True)


def _prop_span_rank(n: int, zeta: ZetaAssignment) -> PropertyResult:
    """All n-1 vectors omitting a common vertex span exactly floor((n-1)/2)
    dimensions, for every choice of the common vertex."""
    m = move_size(n)
    for q in range(1, n + 1):
        vectors = _omit_vertex_vectors(n, q, zeta)
        rank = DenseMatrix([list(v.components) for v in vectors]).rank()
        if rank != m:
            return PropertyResult("span_rank", False, f"q={q} rank {rank}, want {m}")
    return PropertyResult("span_rank", True)


def _prop_initial_stack_rank(n: int, zeta: ZetaAssignment) -> PropertyResult:
    """The stacked vectors of the initial triangulation achieve the maximum
    attainable rank min(row count, n - floor(n/2))."""
    initial = initial_triangulation(n)
    rank = stack_f_matrix(initial, zeta).rank()
    want = min(len(initial), max_stack_rank(n))
    if rank != want:
        return PropertyResult(
            "initial_stack_rank", False, f"rank {rank}, want {want}"
        )
    return PropertyResult("initial_stack_rank", True, f"rank {rank}")


def run_property_suite(n: int, zeta: ZetaAssignment) -> tuple[PropertyResult, ...]:
    """Run every structural property at one assignment."""
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    return (
        _prop_row_sums(n, zeta),
        _prop_orthogonality(n, zeta),
        _prop_move_action(n, zeta),
        _prop_independence(n, zeta),
        _prop_span_rank(n, zeta),
        _prop_initial_stack_rank(n, zeta),
    )


def verify_with_properties(n: int, zeta: ZetaAssignment) -> VerificationReport:
    """verify_equation plus the property suite, bundled into one report."""
    report = verify_equation(n, zeta)
    t0 = time.perf_counter()
    properties = run_property_suite(n, zeta)
    timings = {**report.timings, "properties": time.perf_counter() - t0}
    return replace(report, properties=properties, timings=timings)
