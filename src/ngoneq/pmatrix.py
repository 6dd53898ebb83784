"""Flip matrices: the exact matrix attached to one move, and the action of a
move on a family of rows indexed by simplex pairs.

The matrix P of a move has one row per created simplex and one column per
removed simplex, in the order of ``move.created_pairs()`` and
``move.removed_pairs()``: c-vertices and b-vertices descending. The (i, j)
entry is the Lagrange basis ratio

    prod_{j' != j} (z[row_i] - z[col_j']) / prod_{j' != j} (z[col_j] - z[col_j'])

which makes every row sum to 1. The same entries can be written as
alternating-sign ratios of Vandermonde determinants over an interleaved
vertex frame; ``tests/oracles.py`` keeps that form as a cross-check.

One primitive, ``act_on_rows``, applies a move to rows keyed by pair: the
rows of the removed pairs become P times those rows, keyed by the created
pairs, and every other row is carried over. Inside, one loop does this over
integer rows (``IntRow``). The side product is that loop folded over a move
sequence from the identity rows of the initial triangulation, and an extended
(identity-padded) matrix is one move applied to the identity rows of its
source triangulation; their dense product is kept in the tests as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import DenseMatrix, IntRow, Rat, ZetaAssignment, int_row, rat_row
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    apply_move,
    final_triangulation,
    initial_triangulation,
    triangulation_path,
)


def build_p_matrix(move: PachnerMove, zeta: ZetaAssignment) -> DenseMatrix:
    """The move matrix in Lagrange-product form; row i belongs to
    ``move.created_pairs()[i]`` and column j to ``move.removed_pairs()[j]``.

    Shape is m x m for odd n and (m+1) x m for even n, where m = floor((n-1)/2).
    Entries are Fraction(l(r) // (u[r] - u[col_j]), W_j), l(r) = prod_j (u[r] - u[col_j]),
    W_j = prod_{j' != j} (u[col_j] - u[col_j']), over integers u = s * z: s cancels.
    """
    if zeta.n != move.n:
        raise InvalidInputError(
            f"assignment is for n={zeta.n} but move is for n={move.n}"
        )
    u, _ = int_row(zeta.values)
    u_cols = [u[pair.other(move.q) - 1] for pair in move.removed_pairs()]
    weights = [prod([uj - uk for uk in u_cols if uk != uj]) for uj in u_cols]
    entries = []
    for pair in move.created_pairs():
        diffs = [u[pair.other(move.q) - 1] - uc for uc in u_cols]
        ell = prod(diffs)
        entries.append([Fraction(ell // d, w) for d, w in zip(diffs, weights)])
    return DenseMatrix(entries)


def _apply(move: PachnerMove, zeta: ZetaAssignment, rows: dict[Pair, IntRow]) -> None:
    """``act_on_rows`` in place on integer rows: the one loop that combines
    rows. A created row sum_j (a_j / b_j) * (v_j / d_j) is taken over
    L = lcm(b_j * d_j), skipping zero v entries, and reduced once."""
    p = build_p_matrix(move, zeta)
    removed = []
    for pair in move.removed_pairs():
        if pair not in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        numerators, d = rows.pop(pair)
        removed.append(([(k, x) for k, x in enumerate(numerators) if x], d))
    for pair, coeffs in zip(move.created_pairs(), p.entries):
        if pair in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) already present")
        common = lcm(*[c.denominator * d for c, (_, d) in zip(coeffs, removed)])
        acc = [0] * len(numerators)
        for c, (source, d) in zip(coeffs, removed):
            scale = c.numerator * (common // (c.denominator * d))
            for k, x in source:
                acc[k] += scale * x
        g = gcd(common, *acc)
        rows[pair] = (tuple([x // g for x in acc]), common // g)


def act_on_rows(
    move: PachnerMove, zeta: ZetaAssignment, rows: Mapping[Pair, Sequence[Rat]]
) -> dict[Pair, tuple[Rat, ...]]:
    """Apply a move to a family of rows keyed by pair.

    The rows of the removed pairs are replaced by P times those rows, keyed by
    the created pairs; every other row is carried over unchanged (the same
    object). Returns a new dict and leaves ``rows`` untouched.
    """
    removed = set(move.removed_pairs())
    out = {pair: int_row(row) if pair in removed else row for pair, row in rows.items()}
    _apply(move, zeta, out)
    for pair in move.created_pairs():
        out[pair] = rat_row(out[pair])
    return out


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
    if apply_move(t_old, move) != t_new:
        raise InvalidInputError("t_new is not the result of applying the move to t_old")
    rows = _identity_rows(t_old)
    _apply(move, zeta, rows)
    return DenseMatrix([rat_row(rows[pair]) for pair in t_new.pairs])


def extended_matrices(seq: MoveSequence, zeta: ZetaAssignment) -> list[DenseMatrix]:
    """Extended matrix of every move along a sequence, in application order."""
    path = triangulation_path(seq)
    return [
        extend_matrix(move, path[k], path[k + 1], zeta)
        for k, move in enumerate(seq.moves)
    ]


def side_rows(seq: MoveSequence, zeta: ZetaAssignment) -> list[IntRow]:
    """The side product M_k ... M_1 (first-applied move rightmost) as integer
    rows in final triangulation order, columns in initial triangulation order.

    Computed by applying each move to the rows it touches, starting from the
    identity rows of the initial triangulation; no extended matrix is formed.
    """
    rows = _identity_rows(initial_triangulation(seq.n))
    for move in seq.moves:
        _apply(move, zeta, rows)
    final = final_triangulation(seq.n)
    if rows.keys() != set(final.pairs):
        raise InternalError(
            f"{seq.side} sequence for n={seq.n} does not end at the final triangulation"
        )
    return [rows[pair] for pair in final.pairs]


def product_for_side(seq: MoveSequence, zeta: ZetaAssignment) -> DenseMatrix:
    """The side product of ``side_rows`` as a matrix of rationals."""
    return DenseMatrix([rat_row(row) for row in side_rows(seq, zeta)])
