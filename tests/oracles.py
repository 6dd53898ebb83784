"""Independent oracles for the library's fast paths.

The library computes each move-matrix entry in Lagrange (barycentric) form and
never forms identity-padded move matrices on its hot path. These helpers do
both the other way: entries as signed ratios of Vandermonde determinants over
an interleaved vertex frame, and side products as dense folds of padded
matrices, exactly as the polygon equation is stated, so that the library's
results can be checked against them. Likewise the invariant-vector components
are computed here as explicit sums over subsets and by the O(n k) recurrence
``f_value`` the library used before its Gale rows, the Gale polynomial is
evaluated directly in ``Fraction`` arithmetic (``gale_polynomial``), the Gale
table is built with two deletions per component as the library built it before
its difference form (``deletion_gale_table``), the whole property suite is run
the old way on ``FVector`` rows built from ``f_value``
(``fvector_property_suite``), and ranks are taken by Gaussian elimination in
``Fraction`` arithmetic. The padded factors walk their own
triangulations from the initial one rather than read ``MoveSequence.path``.
``derive_move`` and ``apply_move`` are the stepwise derivation the library used before
its vertex links: each move read off, and applied to, the whole current triangulation
(``stepwise_sequences`` folds them over both q-orders).
``int_p_matrix`` is ``move_matrices`` of one move, which the package no longer exports,
and ``build_p_matrix`` is its ``Fraction`` view that the tests compare against (and whose
row sums ``fvector_property_suite`` checks), taken out of the pair gauge: ``gauge`` is
s(i, j) = (q_i q_j)^(m-1) written out afresh. ``one_denominator_p_matrix`` and
``one_denominator_act`` keep the move matrix and row action as they were before column
weights: every column scaled to one denominator D = lcm |W_j|, and each created row
accumulated over D lcm(d_j) (``one_denominator_side_rows`` folds them over a sequence), and ``cofactor_product_act`` is
the row action as it was before each read row was scaled by its lcm cofactor once. The row
walk the column walk (``pmatrix.side_columns``) replaced is kept verbatim: ``side_rows``
folds ``reduce_on_read_act``, the row action that reduced each row it read by its gcd, over
a sequence, and ``row_walk_first_difference`` is the first difference read off its rows,
taken out of the gauge here as ``pmatrix.true_rows`` took them before it read move matrices;
``transposed_move`` gives the row action a move's transpose, so that it walks a product's
columns backwards, ``true_column_matrix`` reads integer columns in the gauge as the matrix of
their true values, and ``same_product`` compares integer columns with integer rows by value.
``sampled_independence`` is the independence property as it was before the certificate: Bareiss ranks of
seeded sampled (or, with ``sample=inf``, all) choices of vectors omitting a common
vertex, and
``lagrange_orthogonality`` is the orthogonality test as it was before the weighted power
rows (``fvectors.power_weights``): Lagrange weights and every power taken afresh, and
``window_rows`` is a row test over windows of consecutive vertices that decides as they do
(README, orthogonality by windows), kept here as research.
The package read each value through u = s z, s the lcm of all n denominators, before it
read (p, q) and Delta everywhere; that coordinate system is kept here: ``int_row`` clears a
row of rationals and ``rat_row``, which the package no longer has, reads an integer row back
as rationals, ``cleared_gale_table`` and ``cleared_weighted_powers`` are the Gale rows
(g_ij(u_w))_w and the weights (c_w u_w^t)_w over u, ``f_vector_table`` and ``FVector`` are
the ``Fraction`` vectors s^k g_ij(u_w) / prod_{y != w} (u_w - u_y) that ``export`` printed
from them, ``gale_column_scales`` relates those rows to the homogeneous ``gale_table`` column
by column, and ``gale_vectors`` reads homogeneous rows as ``FVector``s.
``factors_view`` and ``product_view`` read the library's side products as ``DenseMatrix``es
of true values, for comparison with tabulated factors and with the dense oracle: an extended
factor is the side product of its one-move sequence read entry by entry through
``true_product`` (``one_move_products``), as ``export`` builds it, and a whole side is
``side_columns``;
``f_vector``, ``check_orthogonality``, ``max_stack_rank`` and
``other_vertex`` are the small lookups the package no longer exports, and ``pair_of`` and
``triangulation_from_pairs`` the checked constructors it no longer has. ``identity_rows``
writes out the identity rows that the row action holds as column indices, and
``tamper_move_matrices`` changes one move's view of its b-set's block for the negative
controls. The small
dense-matrix helpers at the end (identity, zeros, transpose, single-entry edits,
vector stacks) serve the tests only.
"""

import random
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, gcd, lcm, prod

from hypothesis import strategies as st

from ngoneq import (
    DenseMatrix,
    InternalError,
    InvalidInputError,
    MoveNotApplicableError,
    MoveSequence,
    PachnerMove,
    Pair,
    Rat,
    Triangulation,
    ZetaAssignment,
    final_triangulation,
    initial_triangulation,
)
import ngoneq.pmatrix as pmatrix_module
from ngoneq.exactfield import IntRow, rank
from ngoneq.fvectors import annihilates, power_weights
from ngoneq.pmatrix import (
    IntMatrix, _identity, _rows_at, act_on_int_rows, side_columns, true_product,
)
from ngoneq.simplicial import check_n, lhs_q_order, move_size, rhs_q_order
from ngoneq.verifier import FirstDifference, PropertyResult, SuiteContext


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


def int_p_matrix(move: PachnerMove, zeta: ZetaAssignment):
    """The matrix of one move in the pair gauge, ``move_matrices`` of that move alone, looked
    up in ``pmatrix`` at each call so that ``tamper_move_matrices`` reaches it."""
    return pmatrix_module.move_matrices((move,), zeta)[move]


def gauge(zeta: ZetaAssignment, pair: Pair) -> int:
    """The pair gauge s(i, j) = (q_i q_j)^(m - 1), q the denominators of z_i and z_j,
    m = floor((n - 1)/2): the library's matrices hold x s(A) / s(B) at row pair A and
    column pair B for the true entry x."""
    return (zeta[pair.i].denominator * zeta[pair.j].denominator) ** (move_size(zeta.n) - 1)


def true_column_matrix(columns, row_pairs, col_pairs, zeta: ZetaAssignment) -> DenseMatrix:
    """Integer columns in the pair gauge, at the given column pairs, their entries at the given
    row pairs, as the matrix of their true values x s(B) / (d s(A)), A the row pair and B the
    column pair of the entry."""
    return DenseMatrix([
        [Fraction(v[i] * gauge(zeta, b), d * gauge(zeta, a))
         for (v, d), b in zip(columns, col_pairs)]
        for i, a in enumerate(row_pairs)
    ])


def build_p_matrix(move: PachnerMove, zeta: ZetaAssignment) -> DenseMatrix:
    """The move matrix of ``int_p_matrix`` as a matrix of rationals, the true entries
    (N_ij / W_j) s(b_j) / s(c_i)."""
    rows, weights = int_p_matrix(move, zeta)
    return DenseMatrix([
        [Fraction(x * gauge(zeta, b), w * gauge(zeta, c))
         for x, w, b in zip(row, weights, move.removed_pairs)]
        for row, c in zip(rows, move.created_pairs)
    ])


def one_denominator_p_matrix(move: PachnerMove, zeta: ZetaAssignment):
    """The move matrix as integer rows over one denominator D = lcm |W_j| > 0, as
    ``int_p_matrix`` returned it before column weights: numerator (i, j) is
    (l_i // d_ij) * (D // W_j), d_ij = u[row_i] - u[col_j], l_i = prod_j d_ij, and
    each row sums to D."""
    u = int_row(zeta.values)[0]
    u_cols = [u[b - 1] for b in reversed(move.b_set)]
    weights = [prod([uj - uk for uk in u_cols if uk != uj]) for uj in u_cols]
    d = lcm(*weights)
    scales = [d // w for w in weights]
    rows = []
    for c in reversed(move.c_set):
        diffs = [u[c - 1] - uc for uc in u_cols]
        ell = prod(diffs)
        rows.append(tuple([ell // x * f for x, f in zip(diffs, scales)]))
    return tuple(rows), d


def one_denominator_act(move: PachnerMove, p, rows) -> None:
    """``act_on_int_rows`` as it was before column weights, on ``p =
    one_denominator_p_matrix(move, zeta)``: with P = N / D and removed rows v_j / d_j,
    created row i is sum_j N_ij (L // d_j) v_j over D L, L = lcm(d_j), reduced once."""
    numerators, denominators = [], []
    for pair in move.removed_pairs:
        v, d = rows.pop(pair)
        numerators.append(v)
        denominators.append(d)
    common = lcm(*denominators)
    factors = [common // d for d in denominators]
    common *= p[1]
    for pair, coeffs in zip(move.created_pairs, p[0]):
        acc = [0] * len(v)
        for c, f, source in zip(coeffs, factors, numerators):
            for k, x in enumerate(source):
                acc[k] += c * f * x
        g = gcd(common, *acc)
        rows[pair] = (tuple([x // g for x in acc]), common // g)


def cofactor_product_act(move: PachnerMove, p, rows: dict, width: int) -> None:
    """``act_on_int_rows`` as it was before each read row was scaled by its lcm cofactor once:
    created row i is sum_j (N_ij * f_j) * v_j, f_j = L // (d_j W_j), the wide product N_ij f_j
    taken per (i, j) and multiplied into every entry of v_j. The same integers, over the same
    L, as the row action; kept as its oracle."""
    numerators, denominators = [], []
    for pair, w in zip(move.removed_pairs, p[1]):
        row = rows.pop(pair, None)
        if row is None:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        if type(row) is int:
            numerators.append(((row, 1),))
            denominators.append(w)
            continue
        v, d = row
        g = gcd(d, *v)
        numerators.append([(k, x // g) for k, x in enumerate(v) if x])
        denominators.append(d // g * w)
    common = lcm(*denominators)
    factors = [common // d for d in denominators]
    for pair, coeffs in zip(move.created_pairs, p[0]):
        if pair in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) already present")
        acc = [0] * width
        for c, f, source in zip(coeffs, factors, numerators):
            scale = c * f
            for k, x in source:
                acc[k] += scale * x
        rows[pair] = (tuple(acc), common)


# The row walk as it was before the column walk, kept verbatim as the side products' reference:
# ``act_on_int_rows`` reduced each row it read by its gcd, and ``side_rows`` folded it forwards
# over a sequence from the identity rows of the initial triangulation.
def reduce_on_read_act(move: PachnerMove, p: IntMatrix, rows: dict[Pair, IntRow | int],
                       width: int) -> None:
    """Apply a move's matrix ``p`` (``move_matrices``) in place to rows of ``width`` entries
    keyed by pair: the rows of the removed pairs are replaced by P times those rows, keyed by
    the created pairs; every other row is left as it is. A row is an ``IntRow`` or, while no
    move has read it, the column index k of its identity row e_k, read as the one entry (k, 1).
    With P = (N, W), each removed row v_j / d_j is reduced by its gcd as it is read and scaled
    once to u_j = f_j v_j, f_j = L // (d_j W_j) signed, L = lcm(d_j W_j) > 0, skipping zeros
    (e_k to the one entry (k, L // W_j)); created row i is sum_j N_ij u_j over L (narrow times
    wide), left unreduced for its reader: a later move here, ``same_rows`` or ``rat_row``."""
    reads, denominators = [], []
    for pair, w in zip(move.removed_pairs, p[1]):
        row = rows.pop(pair, None)
        if row is None:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        if type(row) is int:
            reads.append((row, 0))  # gcd 0 marks e_k: no gcd(d, *v) is 0, as d > 0
            denominators.append(w)
            continue
        v, d = row
        g = gcd(d, *v)
        reads.append((v, g))
        denominators.append(d // g * w)
    common = lcm(*denominators)
    sources = [[(k, x // g * f) for k, x in enumerate(v) if x] if g else ((v, f),)
               for (v, g), f in zip(reads, [common // d for d in denominators])]
    for pair, coeffs in zip(move.created_pairs, p[0]):
        if pair in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) already present")
        acc = [0] * width
        for c, source in zip(coeffs, sources):
            for k, u in source:
                acc[k] += c * u
        rows[pair] = (tuple(acc), common)


def side_rows(seq: MoveSequence, matrices: dict[PachnerMove, IntMatrix]) -> list[IntRow]:
    """The side product M_k ... M_1 (first-applied move rightmost), given each move's
    matrix (``move_matrices``), as integer rows in final triangulation order, columns in
    initial triangulation order, the two ends of ``seq.path``.

    Computed by applying each move to the rows it touches, starting from the
    identity rows of the initial triangulation, held as column indices until a move
    reads them; no extended matrix is formed.
    """
    initial, final = seq.path[0], seq.path[-1]
    rows = _identity(initial)
    for move in seq.moves:
        reduce_on_read_act(move, matrices[move], rows, len(initial))
    if rows.keys() != set(final.pairs):
        raise InternalError(
            f"{seq.side} sequence for n={seq.n} does not end at the final triangulation"
        )
    return _rows_at(rows, final, len(initial))


def same_product(columns, rows) -> bool:
    """Whether integer columns and integer rows hold the same matrix by value: entry (A, B)
    is x / d in column B and y / e in row A, equal iff x e = y d."""
    return all(x * e == y * d for (v, d), y_row in zip(columns, zip(*[v for v, _ in rows]))
               for x, y, e in zip(v, y_row, [e for _, e in rows]))

TransposedMove = namedtuple("TransposedMove", "removed_pairs created_pairs")


def transposed_move(move: PachnerMove, p):
    """A move's transpose for the row action: a record whose removed pairs are the move's
    created pairs and whose created pairs are its removed pairs, and the matrix P^T as (N', W')
    with P^T_ji = N_ij / W_j = N'_ji / D, D = lcm |W_j| (N'_ji = N_ij (D // W_j)). Applied to a
    product's columns, it is the move applied backwards, as the column walk applies it."""
    rows, weights = p
    d = lcm(*weights)
    columns = tuple([tuple([x * (d // w) for x in col]) for col, w in zip(zip(*rows), weights)])
    return TransposedMove(move.created_pairs, move.removed_pairs), (columns, (d,) * len(rows))


def identity_rows(t: Triangulation) -> dict:
    """The rows of the |t| x |t| identity as ``IntRow``s, keyed by t's pairs in canonical
    order, all written out (the library holds an unread one as its column index)."""
    size = len(t)
    return {pair: ((0,) * i + (1,) + (0,) * (size - 1 - i), 1) for i, pair in enumerate(t.pairs)}


def one_denominator_side_rows(seq, zeta: ZetaAssignment) -> tuple:
    """``side_rows`` with the one-denominator matrix and row action, from the identity
    rows of the initial triangulation, in final triangulation order."""
    rows = identity_rows(seq.path[0])
    for move in seq.moves:
        one_denominator_act(move, one_denominator_p_matrix(move, zeta), rows)
    return tuple([rows[pair] for pair in seq.path[-1].pairs])


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


def act_on_rows(move: PachnerMove, zeta: ZetaAssignment, rows) -> dict:
    """``act_on_int_rows`` on rows of rationals keyed by pair: returns a new
    dict in which the rows of the removed pairs are replaced by P times those
    rows, keyed by the created pairs, and every other row is carried over (the
    same object); ``rows`` is left untouched. As P = S_c^-1 P_hom S_r, the removed
    rows enter scaled by their gauge and the created rows leave divided by theirs."""
    removed = set(move.removed_pairs)
    out = {pair: int_row([x * gauge(zeta, pair) for x in row]) if pair in removed else row
           for pair, row in rows.items()}
    act_on_int_rows(move, int_p_matrix(move, zeta), out, len(next(iter(rows.values()))))
    for pair in move.created_pairs:
        out[pair] = tuple([x / gauge(zeta, pair) for x in rat_row(out[pair])])
    return out


def derive_move(t: Triangulation, q: int) -> PachnerMove:
    """Read the move at q off a triangulation: b_set collects every b with
    pair {b, q} present. Fails unless exactly floor((n-1)/2) pairs contain q."""
    n = t.n
    if not 1 <= q <= n:
        raise InvalidInputError(f"vertex {q} out of range 1..{n}")
    b = sorted([p.i + p.j - q for p in t.pairs if p.i == q or p.j == q])
    if len(b) != move_size(n):
        raise MoveNotApplicableError(
            f"vertex {q} lies in {len(b)} pairs, need {move_size(n)}"
        )
    c = sorted(set(range(1, n + 1)).difference(b, (q,)))
    return PachnerMove(n, q, tuple(b), tuple(c))


def apply_move(t: Triangulation, move: PachnerMove) -> Triangulation:
    """Replace the removed pairs with the created pairs, re-sorted canonically."""
    if move.n != t.n:
        raise InvalidInputError("move and triangulation have different n")
    current = set(t.pairs)
    if not current.issuperset(move.removed_pairs):
        p = next(p for p in move.removed_pairs if p not in current)
        raise MoveNotApplicableError(f"pair ({p.i},{p.j}) not present")
    current.difference_update(move.removed_pairs)
    if not current.isdisjoint(move.created_pairs):
        p = next(p for p in move.created_pairs if p in current)
        raise MoveNotApplicableError(f"pair ({p.i},{p.j}) already present")
    current.update(move.created_pairs)
    return Triangulation(t.n, tuple(sorted(current, reverse=True)))  # a set: no duplicates


def stepwise_sequences(n: int) -> tuple[MoveSequence, MoveSequence]:
    """Both move sequences derived the stepwise way: every move read off the whole
    current triangulation by ``derive_move`` and applied to it by ``apply_move``."""
    check_n(n)
    initial, final = initial_triangulation(n), final_triangulation(n)
    sides = []
    for side, q_order in (("lhs", lhs_q_order(n)), ("rhs", rhs_q_order(n))):
        path, moves = [initial], []
        try:
            for q in q_order:
                moves.append(derive_move(path[-1], q))
                path.append(apply_move(path[-1], moves[-1]))
        except InvalidInputError as exc:
            raise InternalError(f"{side} sequence for n={n}: {exc}") from exc
        if path[-1] != final:
            raise InternalError(
                f"{side} sequence for n={n} did not reach the final triangulation"
            )
        sides.append(MoveSequence(n, side, tuple(moves), tuple(path)))
    return sides[0], sides[1]


def dense_extend(move, t_old, t_new, zeta) -> DenseMatrix:
    """The move matrix padded to |t_new| x |t_old|: a 1 for every simplex the
    move leaves alone, the move matrix entries at the active rows and columns.
    The active rows and columns are labelled from the interleaved frame, not
    from the move's own pair order."""
    p = build_p_matrix(move, zeta)
    frame = InterleavedFrame.from_move(move)
    row_of = {pair: k for k, pair in enumerate(t_new.pairs)}
    col_of = {pair: k for k, pair in enumerate(t_old.pairs)}
    out = [[Fraction(0)] * len(t_old) for _ in range(len(t_new))]
    for pair in set(t_old.pairs) & set(t_new.pairs):
        out[row_of[pair]][col_of[pair]] = Fraction(1)
    created = [pair_of(move.n, v, move.q) for v in frame.row_vertices()]
    removed = [pair_of(move.n, v, move.q) for v in frame.col_vertices()]
    for i, row_pair in enumerate(created):
        for j, col_pair in enumerate(removed):
            out[row_of[row_pair]][col_of[col_pair]] = p[i, j]
    return DenseMatrix(out)


def dense_factors(seq, zeta) -> list[DenseMatrix]:
    """Padded matrix of every move of a sequence, in application order. The
    triangulations are walked here from the initial one, not read from
    ``seq.path``."""
    path = [initial_triangulation(seq.n)]
    for move in seq.moves:
        path.append(apply_move(path[-1], move))
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


def one_move_products(seq, matrices, zeta) -> list[DenseMatrix]:
    """The extended factors of a side as ``export`` builds them, each the side product of its
    one-move sequence (``side_columns``) read through ``true_product``, as matrices of their
    true rationals."""
    return [
        DenseMatrix([[Fraction(*entry) for entry in row] for row in true_product(
            side_columns(MoveSequence(seq.n, seq.side, (move,), (old, new)), matrices),
            new.pairs, old.pairs, zeta)])
        for move, old, new in zip(seq.moves, seq.path, seq.path[1:])
    ]


def factors_view(seq, zeta) -> list[DenseMatrix]:
    """The library's extended factors of a side (``one_move_products``) over the matrices of
    its moves alone."""
    return one_move_products(seq, {move: int_p_matrix(move, zeta) for move in seq.moves}, zeta)


def product_view(seq, zeta) -> DenseMatrix:
    """The library's side product, ``side_columns``, as a matrix of its true rationals."""
    matrices = {move: int_p_matrix(move, zeta) for move in seq.moves}
    columns = side_columns(seq, matrices)
    return true_column_matrix(columns, seq.path[-1].pairs, seq.path[0].pairs, zeta)



# ``verifier._first_difference`` as it was before the column walk, kept verbatim: the first
# unequal entry of two sides given by their rows in the pair gauge.
def row_walk_first_difference(lhs: list[IntRow], rhs: list[IntRow], final: Triangulation,
                              initial: Triangulation,
                              zeta: ZetaAssignment) -> FirstDifference | None:
    """The first unequal entry of two sides in the pair gauge, at its true values: both sides
    are taken out of the gauge (``true_rows`` as it was, rows at the pairs A of ``final``
    and columns at the pairs B of ``initial``: x / d becomes x s(B) / (d s(A))), which scales
    each entry of both alike."""
    cols = [gauge(zeta, pair) for pair in initial.pairs]
    lhs, rhs = ([(tuple([x * c for x, c in zip(v, cols)]), d * gauge(zeta, pair))
                 for (v, d), pair in zip(rows, final.pairs)] for rows in (lhs, rhs))
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

def pair_of(n: int, i: int, j: int) -> Pair:
    """The checked pair {i, j}, with i and j given in either order."""
    return Pair(min(i, j), max(i, j), n)


def triangulation_from_pairs(n: int, pairs) -> Triangulation:
    """The triangulation of the given pairs in canonical order, checked: no pair twice, and
    every pair for the same n."""
    pairs = tuple(pairs)
    if len(set(pairs)) != len(pairs):
        raise InvalidInputError("duplicate pairs in triangulation")
    for p in pairs:
        if p.n != n:
            raise InvalidInputError(f"pair {p} has wrong ambient size")
    return Triangulation(n, tuple(sorted(pairs, reverse=True)))


def other_vertex(pair: Pair, v: int) -> int:
    """The vertex paired with v."""
    if v not in (pair.i, pair.j):
        raise InvalidInputError(f"vertex {v} not in pair ({pair.i},{pair.j})")
    return pair.i if v == pair.j else pair.j


def rat_row(row: IntRow) -> tuple[Rat, ...]:
    """An integer row's entries as rationals in lowest terms."""
    return tuple([Fraction(x, row[1]) for x in row[0]])


def int_row(row) -> IntRow:
    """(numerators, d) with d the lcm of the denominators; canonical, as each entry is reduced.
    ``int_row(zeta.values)`` is (u, s), u = s z."""
    d = lcm(*[x.denominator for x in row])
    return tuple([x.numerator * (d // x.denominator) for x in row]), d


class FVector(namedtuple("FVector", "n pair components")):
    """Length-n vector of a simplex, zero at the two omitted vertices; a tuple (n, pair,
    components) indexed 1-based by vertex."""

    __slots__ = ()

    def __getitem__(self, vertex: int) -> Rat:
        return self.components[vertex - 1]


def cleared_gale_table(n: int, zeta: ZetaAssignment) -> dict[Pair, tuple[int, ...]]:
    """``gale_table`` as it was built before homogeneous coordinates: the rows (g_ij(u_w))_w
    at u = s z. At each w, e_0..e_{r+1} of all d_x = u_w - u_x are built once; a Horner
    deletion gives E_x = e_{r+1}(d without d_x), and each component is d_i d_j (E_i - E_j) /
    (u_i - u_j), exact, as E_i - E_j = (u_i - u_j) e_r(d without d_i, d_j)."""
    check_n(n)
    u, r = int_row(zeta.values)[0], n - 3 - n // 2
    pairs = [(i, j, u[i] - u[j]) for i, j in combinations(range(n), 2)]
    columns = []
    for uw in u:
        d, e = [uw - x for x in u], [1] + [0] * (r + 1)
        for x in d:
            for t in range(r + 1, 0, -1):
                e[t] += e[t - 1] * x
        deleted = [0] * n
        for c in e:
            deleted = [c - x * h for x, h in zip(d, deleted)]
        columns.append([d[i] * d[j] * ((deleted[i] - deleted[j]) // g) for i, j, g in pairs])
    return {Pair(i + 1, j + 1, n): row for (i, j, _), row in zip(pairs, zip(*columns))}


def cleared_weighted_powers(zeta: ZetaAssignment) -> tuple[tuple[int, ...], ...]:
    """The rows of ``fvectors.power_weights`` as they were before homogeneous coordinates: the
    floor(n/2) rows (c_w u_w^t)_w, c_w = lcm(L) / L_w, L_w = prod_{y != w} (u_w - u_y)."""
    u = int_row(zeta.values)[0]
    scaled = [prod([x - y for y in u if y != x]) for x in u]
    top = lcm(*scaled)
    return tuple(tuple([top // w * x**t for w, x in zip(scaled, u)]) for t in range(zeta.n // 2))


def f_vector_table(n: int, zeta: ZetaAssignment) -> dict[Pair, FVector]:
    """All C(n,2) vectors as ``Fraction``s, f_ij(w) = s^k g_ij(u_w) / prod_{y != w} (u_w - u_y)
    from ``cleared_gale_table``, by pair: the vectors ``export`` printed before it read the
    homogeneous rows."""
    u, s = int_row(zeta.values)
    scales = [Fraction(s ** (n // 2), prod([x - y for y in u if y != x])) for x in u]
    return {
        pair: FVector(n, pair, tuple([g * c for g, c in zip(row, scales)]))
        for pair, row in cleared_gale_table(n, zeta).items()
    }


def gale_column_scales(zeta: ZetaAssignment) -> tuple[list[int], int]:
    """(c, t): column w of ``gale_table`` is g_ij(z_w) c_w, c_w = q_w^(r+3) prod_{x != w} q_x,
    r = n - 3 - floor(n/2), and that of ``cleared_gale_table`` is g_ij(z_w) t, t = s^(r+2),
    so G'_ij(w) t = G_ij(w) c_w."""
    n = zeta.n
    r, q = n - 3 - n // 2, [x.denominator for x in zeta.values]
    return [y ** (r + 2) * prod(q) for y in q], int_row(zeta.values)[1] ** (r + 2)


def gale_vectors(n: int, zeta: ZetaAssignment, rows) -> dict[Pair, FVector]:
    """Rows in the columns of ``gale_table`` read as vectors, f(w) = lambda_w row_w / c_w
    (``gale_column_scales``), lambda_w = 1 / prod_{y != w} (z_w - z_y) in ``Fraction``s."""
    c, z = gale_column_scales(zeta)[0], zeta.values
    scales = [1 / (x * prod([zw - zy for zy in z if zy != zw], start=Fraction(1)))
              for x, zw in zip(c, z)]
    return {pair: FVector(n, pair, tuple([g * a for g, a in zip(row, scales)]))
            for pair, row in rows.items()}


def f_vector(n: int, pair: Pair, zeta: ZetaAssignment) -> FVector:
    """The invariant vector of the simplex named by the pair, from ``f_vector_table``."""
    if pair.n != n or zeta.n != n:
        raise InvalidInputError("pair, assignment and n must agree")
    return f_vector_table(n, zeta)[pair]


def check_orthogonality(row, zeta: ZetaAssignment) -> bool:
    """The suite's orthogonality test of one Gale row: zero dot product with every weighted
    power row (``power_weights``)."""
    return annihilates(power_weights(zeta)[0], row)


def max_stack_rank(n: int) -> int:
    """Largest possible rank of any stack of invariant vectors: they all lie in the
    orthogonal complement of the floor(n/2) power rows, so at most n - floor(n/2)."""
    return n - n // 2


def g_value(head: int, rest, zeta: ZetaAssignment) -> Rat:
    """1 / prod_{r in rest} (z[head] - z[r]); symmetric in rest."""
    rest = list(rest)
    if head in rest or len(set(rest)) != len(rest):
        raise InvalidInputError("g_value requires pairwise distinct indices")
    denominator = Fraction(1)
    for r in rest:
        denominator *= zeta[head] - zeta[r]
    return 1 / denominator


def subset_sum_f_value(n: int, head: int, rest, zeta: ZetaAssignment) -> Rat:
    """Sum of g_value(head, s) over all floor(n/2)-subsets s of rest, the
    defining form of the invariant-vector component; must equal f_value."""
    rest = sorted(rest)
    if len(rest) != n - 3:
        raise InvalidInputError(f"rest must have {n - 3} vertices, got {len(rest)}")
    if head in rest or len(set(rest)) != len(rest):
        raise InvalidInputError("f_value requires pairwise distinct indices")
    return sum((g_value(head, s, zeta) for s in combinations(rest, n // 2)), Fraction(0))


def f_value(n: int, head: int, rest, zeta: ZetaAssignment) -> Rat:
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


def f_value_vector(n: int, pair: Pair, zeta: ZetaAssignment) -> FVector:
    """The invariant vector of a pair with every component from ``f_value``."""
    simplex = pair.simplex()
    components = [Fraction(0)] * n
    for v in simplex:
        components[v - 1] = f_value(n, v, [w for w in simplex if w != v], zeta)
    return FVector(n, pair, tuple(components))


def deletion_gale_table(n: int, zeta: ZetaAssignment) -> dict[Pair, tuple[int, ...]]:
    """``gale_table`` as it was built before the difference form: at each w, e_0..e_r of
    all d_x = u_w - u_x once, then two deletions e'_t = e_t - d * e'_{t-1} drop d_i and
    d_j from them for every component, O(r) each."""
    def delete(e, d):
        return list(accumulate(e, lambda previous, current: current - d * previous))

    check_n(n)
    u, r = int_row(zeta.values)[0], n - 3 - n // 2
    rows = {pair: [0] * n for pair in combinations(range(n), 2)}
    for w, uw in enumerate(u):
        d = [uw - x for x in u]
        e = [1] + [0] * r
        for x in d:
            for t in range(r, 0, -1):
                e[t] += e[t - 1] * x
        without = [delete(e, x) for x in d]
        for (i, j), row in rows.items():
            if w != i and w != j:
                row[w] = d[i] * d[j] * delete(without[i], d[j])[-1]
    return {Pair(i + 1, j + 1, n): tuple(row) for (i, j), row in rows.items()}


def cleared_row(v: FVector):
    """The components as an integer row (numerators, lcm of the denominators)."""
    return int_row(v.components)


def gale_polynomial(n: int, i: int, j: int, t, values):
    """g_ij(t) = (t - v_i)(t - v_j) e_r(t - v_x : x not in {i, j}), r = n - 3 - floor(n/2),
    over the 1-based values v (integers or rationals), e_r by adding one difference
    at a time: the definition, evaluated at one point."""
    e = [1] + [0] * (n - 3 - n // 2)
    for x in range(1, n + 1):
        if x not in (i, j):
            for k in range(len(e) - 1, 0, -1):
                e[k] += e[k - 1] * (t - values[x - 1])
    return (t - values[i - 1]) * (t - values[j - 1]) * e[-1]


def fvector_property_suite(n: int, zeta: ZetaAssignment, sequences) -> tuple[PropertyResult, ...]:
    """The property suite as it ran on ``FVector`` rows: row sums of the ``Fraction`` move
    matrices (``build_p_matrix``), every vector from ``f_value`` and cleared to an integer
    row a / d, orthogonality as sum_r a_r u_r^t = 0, the q-stack columns under the weights
    lcm(L d) / (L_v d_v), the move action on Fraction rows (``act_on_rows``), and ranks of
    the vectors with each column times the lcm of its denominators, as nonzero column
    scales change no rank. Names, outcomes and details are the library's."""
    vectors = {
        pair: f_value_vector(n, pair, zeta)
        for pair in (Pair(i, j, n) for i, j in combinations(range(1, n + 1), 2))
    }
    cleared = {pair: cleared_row(v) for pair, v in vectors.items()}
    column_lcms = [lcm(*[x.denominator for x in column])
                   for column in zip(*[v.components for v in vectors.values()])]
    columns_cleared = {
        pair: [x.numerator * (c // x.denominator) for x, c in zip(v.components, column_lcms)]
        for pair, v in vectors.items()
    }
    u = int_row(zeta.values)[0]
    m, everyone = move_size(n), range(1, n + 1)

    def orthogonal(a, points):
        return not any(sum([x * y**t for x, y in zip(a, points)]) for t in range(n // 2))

    def stack_is_orthogonal(q):
        rows = [cleared[pair_of(n, q, v)] for v in everyone if v != q]
        points = [x for v, x in enumerate(u, start=1) if v != q]
        scaled = [prod([x - y for y in points if y != x]) * d for x, (_, d) in zip(points, rows)]
        weights = [lcm(*scaled) // w for w in scaled]
        return all(orthogonal([c * a for c, a in zip(weights, column)], points)
                   for column in zip(*[a for a, _ in rows])) and all(orthogonal(a, u) for a, _ in rows)

    unsummed = [
        f"{seq.side} {move.label()} move matrix row {i} sums to {total}"
        for seq in sequences
        for move in seq.moves
        for i, total in enumerate(row_sums(build_p_matrix(move, zeta)))
        if total != 1
    ]
    results = [PropertyResult("row_sums", not unsummed, unsummed[0] if unsummed else "")]
    bad = [pair for pair, (a, _) in cleared.items() if not orthogonal(a, u)]
    results.append(PropertyResult("orthogonality", not bad, f"pair ({bad[0].i},{bad[0].j})" if bad else ""))
    failed = [
        f"{seq.side} {move.label()}"
        for seq in sequences
        for move in seq.moves
        if any(
            row != vectors[pair].components
            for pair, row in act_on_rows(
                move, zeta, {p: vectors[p].components for p in move.removed_pairs}
            ).items()
        )
    ]
    results.append(PropertyResult("move_action", not failed, failed[0] if failed else ""))
    ranks = [rank([columns_cleared[pair_of(n, q, v)] for v in everyone if v != q])
             for q in everyone]
    independence = PropertyResult("independence", True)
    for q in everyone:
        if not stack_is_orthogonal(q):
            independence = PropertyResult("independence", False, f"q={q} rows or columns not orthogonal")
            break
        if ranks[q - 1] < m:
            picked = ",".join(str(c) for c in range(m))
            independence = PropertyResult("independence", False, f"q={q} choice [{picked}] rank deficient")
            break
    results.append(independence)
    wrong = [(q, got) for q, got in enumerate(ranks, start=1) if got != m]
    results.append(PropertyResult(
        "span_rank", not wrong, f"q={wrong[0][0]} rank {wrong[0][1]}, want {m}" if wrong else ""
    ))
    initial = sequences[0].path[0]
    got = rank([columns_cleared[pair] for pair in initial.pairs])
    want = min(len(initial), max_stack_rank(n))
    results.append(PropertyResult(
        "initial_stack_rank", got == want, f"rank {got}" if got == want else f"rank {got}, want {want}"
    ))
    return tuple(results)


@lru_cache(maxsize=None)
def window_rows(zeta: ZetaAssignment) -> list[tuple[int, ...]]:
    """The k = floor(n/2) integer window rows: row i is T_i / prod_{y in W_i, y != w} Delta_wy
    at w in the window W_i = {i, ..., i + n - k} (0-based) and 0 off it, T_i the lcm of those
    products, Delta_wy = p_w q_y - p_y q_w written out afresh. A Gale row has zero dot product
    with row i iff the order-(n - k) divided difference over W_i of the polynomial behind it
    vanishes, so with all k rows iff that polynomial has degree below n - k, iff its vector is
    orthogonal (README, Identity 1): a row test over windows in place of ``power_weights``."""
    n, k = zeta.n, zeta.n // 2
    pq = [(x.numerator, x.denominator) for x in zeta.values]
    rows = []
    for i in range(k):
        window = range(i, i + n - k + 1)
        products = {w: prod([pq[w][0] * pq[y][1] - pq[y][0] * pq[w][1] for y in window if y != w])
                    for w in window}
        top = lcm(*products.values())
        rows.append(tuple([top // products[w] if w in products else 0 for w in range(n)]))
    return rows


def lagrange_weights(zeta: ZetaAssignment) -> tuple[int, ...]:
    """c_w = lcm(L) / L_w, L_w = prod_{y != w} (u_w - u_y): sum_w c_w p(u_w) = 0 for every
    polynomial p of degree below n - 1."""
    u = int_row(zeta.values)[0]
    scaled = [prod([x - y for y in u if y != x]) for x in u]
    top = lcm(*scaled)
    return tuple([top // w for w in scaled])


def lagrange_orthogonality(row, zeta: ZetaAssignment) -> bool:
    """``check_orthogonality`` as it was before the power table and homogeneous coordinates:
    the row, in the columns of ``gale_table``, is moved to those of ``cleared_gale_table`` (y_w =
    row_w M / q_w^(r+2), M = lcm q^(r+2); ``gale_column_scales``), then sum_w c_w y_w u_w^t = 0
    for every t < floor(n/2), c = ``lagrange_weights(zeta)``, each power u_w^t taken afresh."""
    e = zeta.n - 1 - zeta.n // 2
    powers = [x.denominator**e for x in zeta.values]
    top, u = lcm(*powers), int_row(zeta.values)[0]
    weighted = [c * g * (top // y) for c, g, y in zip(lagrange_weights(zeta), row, powers)]
    return not any(sum([x * y**t for x, y in zip(weighted, u)]) for t in range(zeta.n // 2))


def fraction_rank(matrix: DenseMatrix) -> int:
    """Rank by Gaussian elimination over Fraction, pivoting on the first nonzero
    entry in each column; must equal DenseMatrix.rank."""
    work = [list(row) for row in matrix.entries]
    r = 0
    for c in range(matrix.cols):
        pivot_row = next((i for i in range(r, matrix.rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, matrix.rows):
            if work[i][c] != 0:
                factor = work[i][c] / pivot
                for j in range(c, matrix.cols):
                    work[i][j] -= factor * work[r][j]
        r += 1
        if r == matrix.rows:
            break
    return r


def fraction_det(rows) -> Rat:
    """Determinant of a square matrix of rationals by Gaussian elimination over
    Fraction, pivoting on the first nonzero entry in each column."""
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(work)):
        pivot_row = next((i for i in range(c, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            det = -det
        pivot = work[c][c]
        det *= pivot
        for i in range(c + 1, len(work)):
            factor = work[i][c] / pivot
            for j in range(c, len(work)):
                work[i][j] -= factor * work[c][j]
    return det


# Subset choices checked per common vertex by the independence property.
INDEPENDENCE_SAMPLE = 50


def _lex_combination(size: int, m: int, index: int) -> tuple[int, ...]:
    """``list(combinations(range(size), m))[index]``, without the list."""
    choice, x = [], 0
    for left in range(m, 0, -1):
        while index >= (block := comb(size - x - 1, left - 1)):
            index, x = index - block, x + 1
        choice.append(x)
        x += 1
    return tuple(choice)


def sampled_independence(ctx: SuiteContext, sample=INDEPENDENCE_SAMPLE) -> PropertyResult:
    """Every choice of floor((n-1)/2) vectors omitting a common vertex has full
    rank; exhaustive when feasible, otherwise a seeded sample of that many
    choices per vertex (``sample=inf`` checks every choice)."""
    n = ctx.n
    m = move_size(n)
    total = comb(n - 1, m)
    for q in range(1, n + 1):
        pairs = list(ctx.q_stacks[q - 1])
        choices = combinations(range(n - 1), m)
        if total > sample:
            indices = random.Random(10_000 * n + q).sample(range(total), sample)
            choices = [_lex_combination(n - 1, m, index) for index in indices]
        for choice in choices:
            if ctx.stack_rank(pairs[k] for k in choice) != m:
                picked = ",".join(str(k) for k in choice)
                return PropertyResult(
                    "independence", False, f"q={q} choice [{picked}] rank deficient"
                )
    return PropertyResult("independence", True)


# ---------------------------------------------------------------------------
# assignments the oracle comparisons run at
# ---------------------------------------------------------------------------

def negative_fractional(n: int) -> ZetaAssignment:
    """Distinct values of both signs, none of them integers: -1/2, 4/3, -9/4, ..."""
    values = tuple(Fraction((-1) ** r * r * r, r + 1) for r in range(1, n + 1))
    return ZetaAssignment(n, values, label="negative-fractional")


def mixed_denominators(n: int) -> ZetaAssignment:
    """Distinct values of both signs over large, pairwise different
    denominators: -123456789/654321, 123457789/654342, ..."""
    values = tuple(
        Fraction((-1) ** r * (123455789 + 1000 * r), 654314 + 7 * r * r) for r in range(1, n + 1)
    )
    return ZetaAssignment(n, values, label="mixed-denominators")


def oracle_assignments(n: int) -> list[ZetaAssignment]:
    """Consecutive, seeded and negative-fractional assignments for n."""
    return [
        ZetaAssignment.consecutive(n),
        ZetaAssignment.random_distinct(n, 1000 + n),
        negative_fractional(n),
    ]


RATIONALS = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.integers(min_value=-10**15, max_value=10**15).map(Fraction),
    st.fractions(max_denominator=10**9),
)


@st.composite
def distinct_assignments(draw, max_n: int):
    """Assignments of drawn distinct rationals for n = 5..max_n."""
    n = draw(st.integers(min_value=5, max_value=max_n))
    values = draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True))
    return ZetaAssignment(n, tuple(values), label="drawn")


def tamper_move_matrices(monkeypatch, change) -> list:
    """Patch ``move_matrices`` wherever the package looks it up so that each move's matrix p
    becomes ``change(move, p)``: a new view of that move alone, never an edit of the block it
    shares with the other moves of its b-set, whose matrices stay as built (checked against a
    fresh build). Returns the moves whose view changed, one entry per build."""
    real, seen = pmatrix_module.move_matrices, []

    def tampered(moves, zeta):
        matrices = real(moves, zeta)
        changed = {}
        for move, p in matrices.items():
            view = change(move, p)
            if view != p:
                changed[move] = view
                seen.append(move)
        fresh = real(moves, zeta)
        assert all(p == fresh[move] for move, p in matrices.items())
        return {**matrices, **changed}

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ngoneq" and getattr(module, "move_matrices", None) is real:
            monkeypatch.setattr(module, "move_matrices", tampered)
    return seen


# ---------------------------------------------------------------------------
# dense-matrix helpers the tests build their cases with
# ---------------------------------------------------------------------------

def identity(n: int) -> DenseMatrix:
    return DenseMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> DenseMatrix:
    return DenseMatrix([[Fraction(0)] * cols for _ in range(rows)])


def transpose(matrix: DenseMatrix) -> DenseMatrix:
    return DenseMatrix([list(col) for col in zip(*matrix.entries)])


def row_sums(matrix: DenseMatrix) -> list[Rat]:
    return [sum(row, Fraction(0)) for row in matrix.entries]


def with_entry(matrix: DenseMatrix, i: int, j: int, value: Rat) -> DenseMatrix:
    """Copy of the matrix with one entry replaced."""
    rows = [list(row) for row in matrix.entries]
    rows[i][j] = Fraction(value)
    return DenseMatrix(rows)


def stack_f_matrix(t: Triangulation, zeta: ZetaAssignment) -> DenseMatrix:
    """|t| x n matrix whose rows are the vectors of t's pairs in canonical order."""
    return DenseMatrix([list(f_vector(t.n, pair, zeta).components) for pair in t.pairs])
