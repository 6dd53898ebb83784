"""Flip matrices: the exact matrix attached to one move, and the action of a
move on a family of rows indexed by simplex pairs.

The matrix P of a move has one row per created simplex and one column per
removed simplex. Rows are labelled by the c-vertices in descending order,
columns by the b-vertices in descending order, and the (i, j) entry is the
Lagrange basis ratio

    prod_{j' != j} (z[row_i] - z[col_j']) / prod_{j' != j} (z[col_j] - z[col_j'])

which makes every row sum to 1. The same entries can be written as
alternating-sign ratios of Vandermonde determinants over an interleaved
vertex frame; ``tests/oracles.py`` keeps that form as a cross-check.

One primitive, ``act_on_rows``, applies a move to rows keyed by pair: the
rows of the removed pairs become P times those rows, keyed by the created
pairs, and every other row is carried over. The side product of the polygon
equation is that primitive folded over a move sequence from the identity
rows of the initial triangulation, and an extended (identity-padded) matrix
is one move applied to the identity rows of its source triangulation. The
dense product of extended matrices gives the same side product and is kept
in the tests as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, Sequence

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import DenseMatrix, Rat, ZetaAssignment
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ActiveIndexMap:
    """Which pair each matrix row creates and each column consumes."""

    row_pairs: tuple[Pair, ...]
    col_pairs: tuple[Pair, ...]


def build_p_matrix(
    move: PachnerMove, zeta: ZetaAssignment
) -> tuple[DenseMatrix, ActiveIndexMap]:
    """The move matrix in Lagrange-product form, with its row/column labels.

    Shape is m x m for odd n and (m+1) x m for even n, where m = floor((n-1)/2).
    Entries are computed in barycentric form, l(r) * w_j / (z[r] - z[col_j]) with
    l(r) = prod_j (z[r] - z[col_j]) and w_j = 1 / prod_{j' != j} (z[col_j] - z[col_j']),
    which is O(m^2) rational operations per move.
    """
    if zeta.n != move.n:
        raise InvalidInputError(
            f"assignment is for n={zeta.n} but move is for n={move.n}"
        )
    rows = sorted(move.c_set, reverse=True)
    cols = sorted(move.b_set, reverse=True)
    z_cols = [zeta[c] for c in cols]
    weights = [
        1 / prod(zj - zj2 for j2, zj2 in enumerate(z_cols) if j2 != j)
        for j, zj in enumerate(z_cols)
    ]
    entries = []
    for r in rows:
        diffs = [zeta[r] - zc for zc in z_cols]
        ell = prod(diffs)
        entries.append([ell * w / d for w, d in zip(weights, diffs)])
    index_map = ActiveIndexMap(
        tuple(Pair.of(move.n, v, move.q) for v in rows),
        tuple(Pair.of(move.n, v, move.q) for v in cols),
    )
    return DenseMatrix(entries), index_map


def act_on_rows(
    move: PachnerMove, zeta: ZetaAssignment, rows: Mapping[Pair, Sequence[Rat]]
) -> dict[Pair, tuple[Rat, ...]]:
    """Apply a move to a family of rows keyed by pair.

    The rows of the removed pairs are replaced by P times those rows, keyed by
    the created pairs; every other row is carried over unchanged. Zero
    coefficients and zero entries are skipped, so the cost is proportional to
    the nonzeros the move actually combines. Returns a new dict and leaves
    ``rows`` untouched.
    """
    p, index_map = build_p_matrix(move, zeta)
    out = dict(rows)
    removed = []
    for pair in index_map.col_pairs:
        if pair not in out:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        removed.append(out.pop(pair))
    width = len(removed[0])
    sources = [[(k, x) for k, x in enumerate(row) if x] for row in removed]
    for pair, coeffs in zip(index_map.row_pairs, p.entries):
        if pair in out:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) already present")
        acc = [_ZERO] * width
        for coeff, source in zip(coeffs, sources):
            if coeff:
                for k, x in source:
                    acc[k] += coeff * x
        out[pair] = tuple(acc)
    return out


def _identity_rows(t: Triangulation) -> dict[Pair, tuple[Rat, ...]]:
    """Rows of the |t| x |t| identity, keyed by t's pairs in canonical order."""
    size = len(t)
    return {
        pair: tuple(_ONE if k == i else _ZERO for k in range(size))
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
    rows = act_on_rows(move, zeta, _identity_rows(t_old))
    return DenseMatrix([rows[pair] for pair in t_new.pairs])


def extended_matrices(seq: MoveSequence, zeta: ZetaAssignment) -> list[DenseMatrix]:
    """Extended matrix of every move along a sequence, in application order."""
    path = triangulation_path(seq)
    return [
        extend_matrix(move, path[k], path[k + 1], zeta)
        for k, move in enumerate(seq.moves)
    ]


def product_for_side(seq: MoveSequence, zeta: ZetaAssignment) -> DenseMatrix:
    """The side product M_k ... M_1 (first-applied move rightmost), with rows
    in final and columns in initial triangulation order.

    Computed by applying each move to the rows it touches, starting from the
    identity rows of the initial triangulation; no extended matrix is formed.
    """
    rows = _identity_rows(initial_triangulation(seq.n))
    for move in seq.moves:
        rows = act_on_rows(move, zeta, rows)
    final = final_triangulation(seq.n)
    if rows.keys() != set(final.pairs):
        raise InternalError(
            f"{seq.side} sequence for n={seq.n} does not end at the final triangulation"
        )
    return DenseMatrix([rows[pair] for pair in final.pairs])
