"""Flip matrices: the exact matrix attached to one move, and the action of a
move on a family of rows indexed by simplex pairs.

The matrix P of a move has one row per created simplex and one column per
removed simplex, in the order of ``move.created_pairs`` and
``move.removed_pairs``: c-vertices and b-vertices descending. The (i, j)
entry is the Lagrange basis ratio

    prod_{j' != j} (z[row_i] - z[col_j']) / prod_{j' != j} (z[col_j] - z[col_j'])

which makes every row sum to 1. Only ``int_p_matrix`` computes P, with no
``Fraction``: P = N diag(1 / W_j), integer numerator rows N and one signed
column weight W_j (the entry's denominator) per column. The same entries are
alternating-sign ratios of Vandermonde determinants over an interleaved vertex
frame; ``tests/oracles.py`` keeps that form as a cross-check.

One primitive, ``act_on_int_rows``, applies a move's integer matrix in place to
integer rows (``IntRow``) keyed by pair: the rows of the removed pairs become P
times those rows, keyed by the created pairs, and every other row is carried
over. It is the one loop that combines rows. The side product is that loop
folded over a move sequence from the identity rows of its first triangulation;
an extended (identity-padded) matrix and the move-action check of ``fvectors``
are one move applied to identity rows or to Gale rows (g, 1). The side product
and the extended matrices of a sequence take their triangulations from
``MoveSequence.path``. The dense product of extended matrices is kept in the
tests as an oracle.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import DenseMatrix, IntMatrix, IntRow, ZetaAssignment, rat_row
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
)


def int_p_matrix(move: PachnerMove, zeta: ZetaAssignment) -> IntMatrix:
    """The move matrix as (N, W), P_ij = N_ij / W_j; row i belongs to
    ``move.created_pairs[i]``, column j to ``move.removed_pairs[j]``. Shape is m x m
    for odd n and (m+1) x m for even n, m = floor((n-1)/2). Over integers u = s * z
    (s cancels), N_ij = l_i // d_ij = prod_{j' != j} d_ij', d_ij = u[row_i] - u[col_j],
    l_i = prod_j d_ij, and the nonzero, signed W_j = prod_{j' != j} (u[col_j] - u[col_j']),
    with no scaling common to the columns.
    """
    if zeta.n != move.n:
        raise InvalidInputError(
            f"assignment is for n={zeta.n} but move is for n={move.n}"
        )
    u = zeta.row[0]
    u_cols = [u[b - 1] for b in reversed(move.b_set)]
    weights = tuple([prod([uj - uk for uk in u_cols if uk != uj]) for uj in u_cols])
    diffs = [[u[c - 1] - uc for uc in u_cols] for c in reversed(move.c_set)]
    rows = tuple([tuple([ell // x for x in row]) for row, ell in zip(diffs, map(prod, diffs))])
    return rows, weights


def act_on_int_rows(move: PachnerMove, p: IntMatrix, rows: dict[Pair, IntRow]) -> None:
    """Apply a move's matrix ``p = int_p_matrix(move, zeta)`` in place to integer
    rows keyed by pair: the rows of the removed pairs are replaced by P times
    those rows, keyed by the created pairs; every other row is left as it is.
    With P = (N, W) and removed rows v_j / d_j, created row i is sum_j N_ij * f_j *
    v_j over L = lcm(d_j W_j) > 0, f_j = L // (d_j W_j) signed, skipping zero v
    entries, reduced once."""
    numerators, denominators = [], []
    for pair, w in zip(move.removed_pairs, p[1]):
        if pair not in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        v, d = rows.pop(pair)
        numerators.append([(k, x) for k, x in enumerate(v) if x])
        denominators.append(d * w)
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
        g = gcd(common, *acc)
        rows[pair] = (tuple([x // g for x in acc]), common // g)


def _identity_rows(t: Triangulation) -> dict[Pair, IntRow]:
    """Rows of the |t| x |t| identity, keyed by t's pairs in canonical order."""
    size = len(t)
    return {
        pair: (tuple([int(k == i) for k in range(size)]), 1)
        for i, pair in enumerate(t.pairs)
    }


def extend_matrix(
    move: PachnerMove,
    t_old: Triangulation,
    t_new: Triangulation,
    zeta: ZetaAssignment,
) -> DenseMatrix:
    """The move matrix padded to |t_new| x |t_old| over the ambient triangulations.

    Every simplex untouched by the move contributes a single 1 at its
    (row, column) position; the active rows and columns carry the move matrix
    entries. Row and column order follow the canonical triangulation order.
    This is the move applied to the identity rows of t_old.
    """
    rows = _identity_rows(t_old)
    act_on_int_rows(move, int_p_matrix(move, zeta), rows)
    if rows.keys() != set(t_new.pairs):
        raise InvalidInputError("t_new is not the result of applying the move to t_old")
    return DenseMatrix([rat_row(rows[pair]) for pair in t_new.pairs])


def extended_matrices(seq: MoveSequence, zeta: ZetaAssignment) -> list[DenseMatrix]:
    """Extended matrix of every move along a sequence, in application order."""
    return [
        extend_matrix(move, seq.path[k], seq.path[k + 1], zeta)
        for k, move in enumerate(seq.moves)
    ]


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


def product_for_side(seq: MoveSequence, zeta: ZetaAssignment) -> DenseMatrix:
    """The side product of ``side_rows`` as a matrix of rationals."""
    matrices = {move: int_p_matrix(move, zeta) for move in seq.moves}
    return DenseMatrix([rat_row(row) for row in side_rows(seq, matrices)])
