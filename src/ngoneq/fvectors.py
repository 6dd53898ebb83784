"""Invariant vectors attached to simplices, in Gale coordinates.

The simplex on S = [n] \\ {i, j} carries a vector f_ij, zero off S, whose component
at w is e_k, k = floor(n/2), of the 1 / (z_w - z_x) over the other x in S. It
annihilates the power rows (z_1^t, ..., z_n^t), t < k, and the move matrices map
stacked old vectors exactly to stacked new ones, which makes the two sides of the
polygon equation agree. Identity 1, the Gale form: f_ij(w) = lambda_w * g_ij(z_w),
with one global diagonal lambda_w = 1 / prod_{y != w} (z_w - z_y) and the Gale
polynomial g_ij(t) = (t - z_i)(t - z_j) e_r(t - z_x : x not in {i, j}), r = n - 3 - k,
as e_k(1/d) prod(d) = e_r(d) and the zero difference at x = w adds nothing. The
package works on the integer rows (g_ij(u_w))_w of ``gale_table``, u = s * z (Gale
duality, Eisenbud-Popescu 2000); ``f_vector_table`` is their ``Fraction`` view.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul

from .errors import InvalidInputError
from .exactfield import IntMatrix, Rat, ZetaAssignment, same_rows
from .pmatrix import act_on_int_rows, pair_gauge
from .simplicial import PachnerMove, Pair, check_n


def gale_table(n: int, zeta: ZetaAssignment) -> dict[Pair, tuple[int, ...]]:
    """The integer Gale rows (g_ij(u_w))_w of all C(n,2) pairs in lexicographic order,
    zero at w = i and w = j. At each w, e_0..e_{r+1} of all d_x = u_w - u_x are built once;
    a Horner deletion gives E_x = e_{r+1}(d without d_x). As E_i - E_j = (u_i - u_j) *
    e_r(d without d_i, d_j), each component is d_i d_j (E_i - E_j) / (u_i - u_j), exact: O(1)."""
    check_n(n)
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    u, r = zeta.row[0], n - 3 - n // 2
    pairs = [(i, j, u[i] - u[j]) for i, j in combinations(range(n), 2)]
    columns = []
    for uw in u:
        d, e = [uw - x for x in u], [1] + [0] * (r + 1)
        for x in d:
            for t in range(r + 1, 0, -1):
                e[t] += e[t - 1] * x
        deleted = [0] * n
        for c in e:  # Horner, for every x at once: h <- e_t - d_x h
            deleted = [c - x * h for x, h in zip(d, deleted)]
        columns.append([d[i] * d[j] * ((deleted[i] - deleted[j]) // g) for i, j, g in pairs])
    return {  # i < j by construction: Pair._make skips Pair's check
        Pair._make((i + 1, j + 1, n)): row for (i, j, _), row in zip(pairs, zip(*columns))
    }


class FVector(namedtuple("FVector", "n pair components")):
    """Length-n vector of a simplex, zero at the two omitted vertices; a tuple (n, pair,
    components) indexed 1-based by vertex."""

    __slots__ = ()

    def __getitem__(self, vertex: int) -> Rat:
        return self.components[vertex - 1]


def f_vector_table(n: int, zeta: ZetaAssignment) -> dict[Pair, FVector]:
    """All C(n,2) vectors, f_ij(w) = s^k g_ij(u_w) / prod_{y != w} (u_w - u_y), by pair."""
    u, s = zeta.row
    scales = [Fraction(s ** (n // 2), prod([x - y for y in u if y != x])) for x in u]
    return {
        pair: FVector(n, pair, tuple([g * c for g, c in zip(row, scales)]))
        for pair, row in gale_table(n, zeta).items()
    }


def annihilates(weights: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """True iff every weight row has zero dot product with the vector."""
    return not any(sum(map(mul, row, vector)) for row in weights)


def check_move_action(move: PachnerMove, p: IntMatrix, rows: Mapping[Pair, tuple],
                      zeta: ZetaAssignment) -> bool:
    """True iff ``p = int_p_matrix(move, zeta)`` maps the removed pairs' Gale rows (from
    ``gale_table``) exactly to the created pairs': iff P F_removed = F_created, that is, as
    P = S_c^-1 P_hom S_r (``pair_gauge``), iff P_hom maps S G_removed to S G_created."""
    if zeta.row[1] > 1:  # not integral: every s(pair) is 1 otherwise
        pairs = move.removed_pairs + move.created_pairs
        rows = {pair: tuple([s * x for x in rows[pair]])
                for pair, s in zip(pairs, pair_gauge(zeta, pairs))}
    acted = {pair: (rows[pair], 1) for pair in move.removed_pairs}
    act_on_int_rows(move, p, acted)
    return all(same_rows(acted[pair], (rows[pair], 1)) for pair in move.created_pairs)
