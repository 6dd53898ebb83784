"""Independent oracles for the move matrices and the row-action side products.

The library computes each move-matrix entry in Lagrange (barycentric) form and
never forms identity-padded move matrices on its hot path. These helpers do
both the other way: entries as signed ratios of Vandermonde determinants over
an interleaved vertex frame, and side products as dense folds of padded
matrices, exactly as the polygon equation is stated, so that the library's
results can be checked against them.
"""

from dataclasses import dataclass
from fractions import Fraction

from ngoneq import (
    DenseMatrix,
    InvalidInputError,
    PachnerMove,
    Rat,
    ZetaAssignment,
    build_p_matrix,
    triangulation_path,
)


def vandermonde(indices, zeta: ZetaAssignment) -> Rat:
    """Determinant of the moment matrix whose columns are (1, z, z^2, ...) at the
    given vertices, taken in the given column order.

    For ascending indices this is the product of (z_later - z_earlier) over all
    pairs; an arbitrary order contributes the sign of the permutation that sorts
    it. Nonzero whenever the indices are distinct.
    """
    if not indices:
        raise InvalidInputError("vandermonde requires at least one index")
    if len(set(indices)) != len(indices):
        raise InvalidInputError(f"duplicate index in {indices}")
    for i in indices:
        if not 1 <= i <= zeta.n:
            raise InvalidInputError(f"index {i} out of range 1..{zeta.n}")
    inversions = sum(
        1
        for p in range(len(indices))
        for q in range(p + 1, len(indices))
        if indices[p] > indices[q]
    )
    ordered = sorted(indices)
    det = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
    for p in range(len(ordered)):
        for q in range(p + 1, len(ordered)):
            det *= zeta[ordered[q]] - zeta[ordered[p]]
    return det


@dataclass(frozen=True)
class InterleavedFrame:
    """The interleaving a_1, ..., a_{n-1} of {1..n} \\ {q} behind a move.

    For odd n the odd positions a_1 < a_3 < ... hold the c-vertices and the
    even positions a_2 < a_4 < ... hold the b-vertices. For even n the odd
    positions a_1 < a_3 < ... < a_{n-3} hold the b-vertices while the
    c-vertices fill positions 2, 4, ..., n-2 and the last position n-1, all
    ascending.
    """

    n: int
    q: int
    a_seq: tuple[int, ...]

    @classmethod
    def from_move(cls, move: PachnerMove) -> "InterleavedFrame":
        n = move.n
        a = [0] * (n - 1)
        if n % 2 == 1:
            a[0::2] = move.c_set
            a[1::2] = move.b_set
        else:
            a[0:n - 3:2] = move.b_set
            a[1:n - 2:2] = move.c_set[:-1]
            a[n - 2] = move.c_set[-1]
        return cls(n, move.q, tuple(a))

    def at(self, k: int) -> int:
        """1-based access a_k."""
        return self.a_seq[k - 1]

    def row_vertices(self) -> list[int]:
        """Created-simplex partner vertices in row order (c descending)."""
        n = self.n
        if n % 2 == 1:
            return [self.at(n - 2 * i) for i in range(1, (n - 1) // 2 + 1)]
        return [self.at(n - 1)] + [self.at(n + 2 - 2 * i) for i in range(2, n // 2 + 1)]

    def col_vertices(self) -> list[int]:
        """Removed-simplex partner vertices in column order (b descending)."""
        n = self.n
        if n % 2 == 1:
            return [self.at(n + 1 - 2 * j) for j in range(1, (n - 1) // 2 + 1)]
        return [self.at(n - 1 - 2 * j) for j in range(1, n // 2)]

    def b_ascending(self) -> list[int]:
        n = self.n
        if n % 2 == 1:
            return [self.at(k) for k in range(2, n, 2)]
        return [self.at(k) for k in range(1, n - 2, 2)]


def p_entry_vandermonde(move: PachnerMove, zeta: ZetaAssignment, i: int, j: int) -> Rat:
    """The (i, j) entry (1-based) of the move matrix as a signed ratio of
    Vandermonde determinants; must agree with build_p_matrix entrywise."""
    frame = InterleavedFrame.from_move(move)
    b_asc = frame.b_ascending()
    row_vertex = frame.row_vertices()[i - 1]
    omitted = frame.col_vertices()[j - 1]
    sign = -1 if (j + (move.n - 1) // 2) % 2 else 1
    numerator_args = [row_vertex] + [b for b in b_asc if b != omitted]
    return sign * vandermonde(numerator_args, zeta) / vandermonde(b_asc, zeta)


def dense_extend(move, t_old, t_new, zeta) -> DenseMatrix:
    """The move matrix padded to |t_new| x |t_old|: a 1 for every simplex the
    move leaves alone, the move matrix entries at the active rows and columns."""
    p, index_map = build_p_matrix(move, zeta)
    row_of = {pair: k for k, pair in enumerate(t_new.pairs)}
    col_of = {pair: k for k, pair in enumerate(t_old.pairs)}
    out = [[Fraction(0)] * len(t_old) for _ in range(len(t_new))]
    for pair in set(t_old.pairs) & set(t_new.pairs):
        out[row_of[pair]][col_of[pair]] = Fraction(1)
    for i, row_pair in enumerate(index_map.row_pairs):
        for j, col_pair in enumerate(index_map.col_pairs):
            out[row_of[row_pair]][col_of[col_pair]] = p[i, j]
    return DenseMatrix(out)


def dense_factors(seq, zeta) -> list[DenseMatrix]:
    """Padded matrix of every move of a sequence, in application order."""
    path = triangulation_path(seq)
    return [dense_extend(move, path[k], path[k + 1], zeta) for k, move in enumerate(seq.moves)]


def dense_fold(factors) -> DenseMatrix:
    """M_k ... M_1 by dense multiplication, the first factor rightmost."""
    product = factors[0]
    for factor in factors[1:]:
        product = factor.mul(product)
    return product


def dense_product(seq, zeta) -> DenseMatrix:
    """The side product as the dense fold of the padded move matrices."""
    return dense_fold(dense_factors(seq, zeta))
