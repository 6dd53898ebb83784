"""Invariant vectors attached to simplices, in Gale coordinates.

The simplex on S = [n] \\ {i, j} carries a vector f_ij, zero off S, whose component
at w is e_k, k = floor(n/2), of the 1 / (z_w - z_x) over the other x in S. It
annihilates the power rows (z_1^t, ..., z_n^t), t < k, and the move matrices map
stacked old vectors exactly to stacked new ones, which makes the two sides of the
polygon equation agree. Identity 1, the Gale form: f_ij(w) = lambda_w * g_ij(z_w),
with one global diagonal lambda_w = 1 / prod_{y != w} (z_w - z_y) and the Gale
polynomial g_ij(t) = (t - z_i)(t - z_j) e_r(t - z_x : x not in {i, j}), r = n - 3 - k,
as e_k(1/d) prod(d) = e_r(d) and the zero difference at x = w adds nothing. The
package works on integer rows in homogeneous coordinates, z = p / q and Delta_ab =
p_a q_b - p_b q_a (``ZetaAssignment.deltas``): ``gale_table`` holds G'_ij(w) =
g_ij(z_w) c_w, one factor c_w = q_w^(r+3) prod_{x != w} q_x per column, so that
f_ij(w) = G'_ij(w) q_w^(k-1) / L_w, L_w = prod_{y != w} Delta_wy (Gale duality,
Eisenbud-Popescu 2000). At integral values G' is (g_ij(z_w))_w. Only this module knows
Lambda = diag(q_w^(k-1) / L_w): row 0 of ``power_weights`` over its top, which the suite's
row and column tests read (``annihilates``, ``columns_annihilated``), and entry by entry over
|L_w| in ``vector_rows``, which multiplies it out for export. The move-action check reads G'
in the pair gauge (``gauged``)."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import combinations
from math import lcm, prod
from operator import mul

from .errors import InvalidInputError
from .exactfield import EntryRow, ZetaAssignment, same_rows
from .pmatrix import IntMatrix, act_on_int_rows, gauged
from .simplicial import PachnerMove, Pair, check_n


def gale_table(n: int, zeta: ZetaAssignment) -> dict[Pair, tuple[int, ...]]:
    """The integer Gale rows G'_ij of all C(n,2) pairs in lexicographic order, zero at
    w = i and w = j. At each w, with D = ``zeta.deltas``, e_0..e_{r+1} of prod_{x != w}
    (q_x + D_wx T) are built once; a Horner deletion h <- (e_t - D_wx h) / q_x gives q_x E_x,
    E_x the coefficient of T^(r+1) without the factor of x. As q_i E_i - q_j E_j = q_w D_ij
    h_r(w; i, j), h_r the coefficient of T^r without both, each component is D_wi D_wj
    (q_i E_i - q_j E_j) / D_ij = g_ij(z_w) c_w, exact: O(1)."""
    check_n(n)
    if zeta.n != n:
        raise InvalidInputError(f"assignment has {zeta.n} values, expected {n}")
    delta, r = zeta.deltas, n - 3 - n // 2
    q = [x.denominator for x in zeta.values]
    pairs = [(i, j, delta[i][j]) for i, j in combinations(range(n), 2)]
    columns, steps = [], range(r + 1, 0, -1)
    for d in delta:
        e = [1] + [0] * (r + 1)
        for y, x in zip(q, d):
            if x:  # x = w has no factor
                for t in steps:
                    e[t] = e[t] * y + e[t - 1] * x
                e[0] *= y
        h = [0] * n
        for c in e[:-1]:  # Horner, for every x at once; exact but at x = w, where D_ww = 0
            h = [(c - x * a) // y for x, a, y in zip(d, h, q)]
        top = e[-1]
        deleted = [top - x * a for x, a in zip(d, h)]  # q_x E_x: the last step, undivided
        columns.append([d[i] * d[j] * ((deleted[i] - deleted[j]) // g) for i, j, g in pairs])
    return {  # i < j by construction: Pair._make skips Pair's check
        Pair._make((i + 1, j + 1, n)): row for (i, j, _), row in zip(pairs, zip(*columns))
    }


def power_weights(zeta: ZetaAssignment) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The floor(n/2) = k rows (c_w p_w^t q_w^(k-1-t))_w, t = 0, 1, ..., and top = lcm |L|,
    c_w = top / L_w, L_w = prod_{y != w} Delta_wy. Row 0 over top is Lambda: q_w^(k-1) / L_w.
    A Gale row G' (``gale_table``) has zero dot product with all of them iff its vector
    f = Lambda G' annihilates the power rows z^t, t < k."""
    ells, k = [prod([x for x in row if x]) for row in zeta.deltas], zeta.n // 2
    top = lcm(*ells)
    cpq = [(top // w, x.numerator, x.denominator) for w, x in zip(ells, zeta.values)]
    return tuple(tuple([c * p**t * q ** (k - 1 - t) for c, p, q in cpq]) for t in range(k)), top


def vector_rows(n: int, zeta: ZetaAssignment, pairs) -> list[EntryRow]:
    """The vectors f_ij = Lambda G'_ij of ``pairs``, entry by entry over its own |L_w|, not
    reduced: component w is (G'_ij(w) q_w^(k-1) sgn L_w, |L_w|), L_w = prod_{y != w} Delta_wy."""
    ells = [prod([x for x in row if x]) for row in zeta.deltas]
    weights = [(z.denominator ** (n // 2 - 1) * (1 if w > 0 else -1), abs(w))
               for z, w in zip(zeta.values, ells)]
    rows = gale_table(n, zeta)
    return [tuple([(g * c, w) for g, (c, w) in zip(rows[pair], weights)]) for pair in pairs]


def annihilates(weights: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """True iff every weight row has zero dot product with the vector."""
    return not any(sum(map(mul, row, vector)) for row in weights)


def columns_annihilated(zeta: ZetaAssignment, weights, stacks) -> list[bool]:
    """At index q - 1, True iff every column w of the q-stack W (``stacks[q - 1]``: the Gale
    rows of the pairs {q, v} by pair, v in T = [n] \\ {q} ascending) is annihilated by mu_v z_v^t,
    t < floor(n/2), mu_v = 1 / prod_{y in T, y != v} (z_v - z_y) = (z_v - z_q) lambda_v: by F,
    the rows of ``weights`` (``power_weights``) on T, column v times Delta_qv q_v^(r+1),
    r = n - 3 - floor(n/2): the n powers once, Delta_qv = -Delta_vq (all signs alike) per q. If
    W's rows are orthogonal, each row of F W is, up to one factor per column, the values at the
    z_w of a polynomial of degree below n - floor(n/2), so that many columns decide all."""
    n, e = zeta.n, zeta.n - 2 - zeta.n // 2
    powers = [x.denominator ** e for x in zeta.values]
    weights = [[s * w for s, w in zip(powers, row)] for row in weights]
    folds = ([[d * w for d, w in zip(row_q, row) if d] for row in weights] for row_q in zeta.deltas)
    return [all(annihilates(folded, column) for column in list(zip(*stack.values()))[: n - n // 2])
            for folded, stack in zip(folds, stacks)]  # Delta_qq = 0: on T


def check_move_action(move: PachnerMove, p: IntMatrix, rows: Mapping[Pair, tuple],
                      zeta: ZetaAssignment) -> bool:
    """True iff the move's matrix ``p`` (``move_matrices``) maps the removed pairs' Gale rows
    (from ``gale_table``) exactly to the created pairs': iff P F_removed = F_created, that is,
    as P = S_c^-1 P_hom S_r, iff P_hom maps S G_removed to S G_created (``gauged``)."""
    rows = gauged(zeta, {pair: rows[pair] for pair in move.removed_pairs + move.created_pairs})
    acted = {pair: (rows[pair], 1) for pair in move.removed_pairs}
    act_on_int_rows(move, p, acted, zeta.n)
    return all(same_rows(acted[pair], (rows[pair], 1)) for pair in move.created_pairs)
