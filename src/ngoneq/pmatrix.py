"""Flip matrices: the exact matrix attached to one move, and the action of a
move on a family of rows indexed by simplex pairs.

The matrix P of a move has one row per created simplex and one column per
removed simplex, in the order of ``move.created_pairs`` and
``move.removed_pairs``: c-vertices and b-vertices descending. The (i, j)
entry is the Lagrange basis ratio

    prod_{j' != j} (z[row_i] - z[col_j']) / prod_{j' != j} (z[col_j] - z[col_j'])

which makes every row sum to 1. Only ``int_p_matrix`` computes it, with no ``Fraction``:
P_hom = N diag(1 / W_j) over the determinants Delta_ab = p_a q_b - p_b q_a of z = p / q
(``ZetaAssignment.deltas``), and P = S_c^-1 P_hom S_r with s(i, j) = (q_i q_j)^(m-1)
(Identity 3, the pair gauge, in README; ``pair_gauge``). A side product of P_hom is
S_final M S_initial^-1, and every s is 1 at integral values. ``tests/oracles.py`` keeps
the Vandermonde-ratio form of the entries as a cross-check.

One primitive, ``act_on_int_rows``, applies a move's integer matrix in place to integer
rows (``IntRow``) keyed by pair: the rows of the removed pairs become P times those rows,
keyed by the created pairs, and every other row is carried over. It is the one loop that
combines rows. A row is reduced when a move reads it, so the final rows, which no move
reads (53-62% of the created rows at n = 8..30), leave unreduced and are compared by value
(``same_rows``). The side product (``side_rows``) is that loop folded over a move sequence
from the identity rows of its first triangulation; an extended (identity-padded) matrix
(``side_factors``) and the move-action check of ``fvectors`` are one move applied to
identity rows or to Gale rows (g, 1). Both take their triangulations from
``MoveSequence.path`` and their move matrices from the caller, so all run in the pair
gauge. The dense product of extended matrices is kept in the tests as an oracle.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import itemgetter

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import IntMatrix, IntRow, ZetaAssignment
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    move_size,
)


def int_p_matrix(move: PachnerMove, zeta: ZetaAssignment) -> IntMatrix:
    """The move matrix in the pair gauge as (N, W), P_hom_ij = N_ij / W_j; row i belongs to
    ``move.created_pairs[i]``, column j to ``move.removed_pairs[j]``. Shape is m x m for odd
    n and (m+1) x m for even n, m = floor((n-1)/2). Over D = ``zeta.deltas``, N_ij = l_i //
    D(c_i, b_j) = prod_{j' != j} D(c_i, b_j'), l_i = prod_j D(c_i, b_j), and the signed W_j =
    prod_{j' != j} D(b_j, b_j'), the nonzero ones of D(b_j, b) over all b (D(b_j, b_j) = 0),
    with no scaling common to the columns. The true P is S_c^-1 P_hom S_r (``pair_gauge``);
    at integral values D is z_a - z_b and P_hom is P.
    """
    if zeta.n != move.n:
        raise InvalidInputError(
            f"assignment is for n={zeta.n} but move is for n={move.n}"
        )
    delta, pick = zeta.deltas, itemgetter(*[b - 1 for b in reversed(move.b_set)])
    weights = tuple([prod([x for x in pick(delta[b - 1]) if x]) for b in reversed(move.b_set)])
    diffs = [pick(delta[c - 1]) for c in reversed(move.c_set)]
    rows = tuple([tuple([ell // x for x in row]) for row, ell in zip(diffs, map(prod, diffs))])
    return rows, weights


def pair_gauge(zeta: ZetaAssignment, pairs) -> list[int]:
    """s(i, j) = (q_i q_j)^(m-1) per pair, z = p / q, m = floor((n-1)/2): a matrix built from
    ``int_p_matrix`` holding x at row pair A, column pair B has the true entry x s(B) / s(A)."""
    e, z = move_size(zeta.n) - 1, zeta.values
    return [(z[p.i - 1].denominator * z[p.j - 1].denominator) ** e for p in pairs]


def act_on_int_rows(move: PachnerMove, p: IntMatrix, rows: dict[Pair, IntRow]) -> None:
    """Apply a move's matrix ``p = int_p_matrix(move, zeta)`` in place to integer rows keyed
    by pair: the rows of the removed pairs are replaced by P times those rows, keyed by the
    created pairs; every other row is left as it is. With P = (N, W) and removed rows v_j /
    d_j, reduced by gcd(d_j, *v_j) as they are read, created row i is sum_j N_ij * f_j * v_j
    over L = lcm(d_j W_j) > 0, f_j = L // (d_j W_j) signed, skipping zero v entries, left
    unreduced for its reader: a later move here, ``same_rows`` or ``rat_row``."""
    numerators, denominators = [], []
    for pair, w in zip(move.removed_pairs, p[1]):
        if pair not in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        v, d = rows.pop(pair)
        g = gcd(d, *v)
        numerators.append([(k, x // g) for k, x in enumerate(v) if x])
        denominators.append(d // g * w)
    common = lcm(*denominators)
    factors = [common // d for d in denominators]
    for pair, coeffs in zip(move.created_pairs, p[0]):
        if pair in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) already present")
        acc = [0] * len(v)
        for c, f, source in zip(coeffs, factors, numerators):
            scale = c * f
            for k, x in source:
                acc[k] += scale * x
        rows[pair] = (tuple(acc), common)


def _identity_rows(t: Triangulation) -> dict[Pair, IntRow]:
    """Rows of the |t| x |t| identity, keyed by t's pairs in canonical order: row i is
    the slice of one zero tuple, 1 in its middle, that puts the 1 at index i."""
    size = len(t)
    unit = (0,) * (size - 1) + (1,) + (0,) * (size - 1)
    return {pair: (unit[size - 1 - i:2 * size - 1 - i], 1) for i, pair in enumerate(t.pairs)}


def side_factors(seq: MoveSequence, matrices: dict[PachnerMove, IntMatrix]) -> list[list[IntRow]]:
    """The extended (identity-padded) matrix of every move along a sequence, in application
    order, given each move's ``int_p_matrix``: move k applied to the identity rows of
    ``seq.path[k]``, as integer rows in ``seq.path[k + 1]`` order."""
    factors = []
    for move, t_old, t_new in zip(seq.moves, seq.path, seq.path[1:]):
        rows = _identity_rows(t_old)
        act_on_int_rows(move, matrices[move], rows)
        factors.append([rows[pair] for pair in t_new.pairs])
    return factors


def side_rows(seq: MoveSequence, matrices: dict[PachnerMove, IntMatrix]) -> list[IntRow]:
    """The side product M_k ... M_1 (first-applied move rightmost), given each move's
    ``int_p_matrix``, as integer rows in final triangulation order, columns in
    initial triangulation order, the two ends of ``seq.path``.

    Computed by applying each move to the rows it touches, starting from the
    identity rows of the initial triangulation; no extended matrix is formed.
    """
    initial, final = seq.path[0], seq.path[-1]
    rows = _identity_rows(initial)
    for move in seq.moves:
        act_on_int_rows(move, matrices[move], rows)
    if rows.keys() != set(final.pairs):
        raise InternalError(
            f"{seq.side} sequence for n={seq.n} does not end at the final triangulation"
        )
    return [rows[pair] for pair in final.pairs]
