"""Invariant vectors attached to simplices.

Each simplex on vertex set S (|S| = n - 2) carries a length-n vector supported
on S whose components annihilate every power row (z_1^m, ..., z_n^m) for
m = 0 .. floor(n/2) - 1. The component at vertex v is the elementary symmetric
polynomial e_k, k = floor(n/2), of the values 1 / (z_v - z_w) over the other
vertices w of S, computed over integers by the O(n k) recurrence (see f_value);
the move matrices map stacked old vectors exactly to stacked new vectors, which
is what makes the two sides of the polygon equation agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod
from typing import Iterable, Mapping

from .errors import InvalidInputError
from .exactfield import IntMatrix, IntRow, Rat, ZetaAssignment, int_row
from .pmatrix import act_on_int_rows
from .simplicial import PachnerMove, Pair, check_n


def f_value(n: int, head: int, rest: Iterable[int], zeta: ZetaAssignment) -> Rat:
    """e_k, k = floor(n/2), of the values 1 / (z[head] - z[r]) over r in rest.

    Equivalently, the sum over all k-subsets s of rest of
    1 / prod_{r in s} (z[head] - z[r]). rest must list the other n-3 vertices
    of the simplex. With the values scaled to integers u = s * z and
    d_r = u[head] - u[r], this is s^k * e_{n-3-k}(d) / prod(d); the recurrence
    adds one d at a time, updating e[j] += e[j-1] * d with j running downward.
    """
    check_n(n)
    rest = list(rest)
    if len(rest) != n - 3:
        raise InvalidInputError(f"rest must have {n - 3} vertices, got {len(rest)}")
    if head in rest or len(set(rest)) != len(rest):
        raise InvalidInputError("f_value requires pairwise distinct indices")
    k = n // 2
    u, s = int_row([zeta[v] for v in (head, *rest)])
    diffs = [u[0] - x for x in u[1:]]
    e = [1] + [0] * (n - 3 - k)
    for count, d in enumerate(diffs, start=1):
        for j in range(min(count, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * d
    return Fraction(s**k * e[-1], prod(diffs))


@dataclass(frozen=True)
class FVector:
    """Length-n vector of a simplex: zero at the two omitted vertices."""

    n: int
    pair: Pair
    components: tuple[Rat, ...]

    def __getitem__(self, vertex: int) -> Rat:
        return self.components[vertex - 1]

    @cached_property
    def row(self) -> IntRow:
        """The components as an integer row, cleared once per vector."""
        return int_row(self.components)


def f_vector(n: int, pair: Pair, zeta: ZetaAssignment) -> FVector:
    """The invariant vector of the simplex named by the pair."""
    if pair.n != n or zeta.n != n:
        raise InvalidInputError("pair, assignment and n must agree")
    simplex = pair.simplex()
    components = [Fraction(0)] * n
    for v in simplex:
        components[v - 1] = f_value(n, v, [w for w in simplex if w != v], zeta)
    return FVector(n, pair, tuple(components))


def f_vector_table(n: int, zeta: ZetaAssignment) -> dict[Pair, FVector]:
    """The invariant vectors of all C(n,2) simplices, keyed by pair in
    lexicographic (i, j) order."""
    return {
        pair: f_vector(n, pair, zeta)
        for pair in (Pair(i, j, n) for i, j in combinations(range(1, n + 1), 2))
    }


def check_orthogonality(v: FVector, zeta: ZetaAssignment) -> bool:
    """True iff sum_r v_r * z_r^m = 0 exactly for m = 0 .. floor(n/2) - 1: over
    integer rows v = a / d and z = u / s, iff sum_r a_r * u_r^m = 0."""
    if zeta.n != v.n:
        raise InvalidInputError(f"assignment has {zeta.n} values, vector has {v.n}")
    a, u = v.row[0], zeta.row[0]
    return not any(sum([x * y**m for x, y in zip(a, u)]) for m in range(v.n // 2))


def check_move_action(
    move: PachnerMove, p: IntMatrix, vectors: Mapping[Pair, FVector]
) -> bool:
    """True iff the move matrix ``p = int_p_matrix(move, zeta)`` maps the stacked
    removed-simplex vectors exactly to the stacked created-simplex vectors, both
    read from ``vectors`` (e.g. ``f_vector_table(move.n, zeta)``), as integer rows."""
    rows = {pair: vectors[pair].row for pair in move.removed_pairs}
    act_on_int_rows(move, p, rows)
    return rows == {pair: vectors[pair].row for pair in move.created_pairs}
