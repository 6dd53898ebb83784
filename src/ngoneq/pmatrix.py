"""Flip matrices: the exact matrix attached to one move, and the action of a
move on a family of rows indexed by simplex pairs.

The matrix P of a move has one row per created simplex and one column per
removed simplex, in the order of ``move.created_pairs`` and
``move.removed_pairs``: c-vertices and b-vertices descending. The (i, j)
entry is the Lagrange basis ratio

    prod_{j' != j} (z[row_i] - z[col_j']) / prod_{j' != j} (z[col_j] - z[col_j'])

which makes every row sum to 1. Only ``move_matrices`` computes it, with no ``Fraction``:
P_hom = N diag(1 / W_j) over the determinants Delta_ab = p_a q_b - p_b q_a of z = p / q
(``ZetaAssignment.deltas``), and P = S_c^-1 P_hom S_r with s(i, j) = (q_i q_j)^(m-1)
(Identity 3, the pair gauge, in README; ``pair_gauge``). A side product of P_hom is
S_final M S_initial^-1. Only this module reads a move matrix and knows the gauge: ``true_rows``
takes a move matrix out of it, ``true_product`` a product entry by entry, and ``gauged`` puts
rows keyed by pair in; none applies the gauge at integral values, where every s is 1.
``tests/oracles.py`` keeps the Vandermonde-ratio form of the entries as a cross-check.

The entries depend only on the b-set B and the c-vertex of a row: W_j on B, row N(c, B) on
c and B. The two sides of the equation share their b-sets: the rhs visits the lhs b-sets in
reverse order, after one move of its own at odd n, so their K_L + K_R moves use
ceil((K_L + K_R) / 2) b-sets, and two moves of one B differ in one row each (their q's swap
between c-set and centre). ``move_matrices`` builds one block per B over a list of moves,
W once and each row once, and every move's (N, W) reads the block. Each caller builds the
blocks of both sides in one call.

One primitive, ``act_on_int_rows``, applies a move's integer matrix in place to integer
rows (``IntRow``) keyed by pair, in one of two orientations; no other loop combines rows.
Forwards, the rows of the removed pairs become P times those rows, keyed by the created
pairs. Backwards (``transpose``), the columns of a product X at the created pairs become
those of X P at the removed pairs, so the column weight W_j of removed pair j scales output
column j alone. Every other row is carried over. An identity row that no move has read is
held as its column index k and read as the one entry (k, 1), with no scan; for n = 5..40 a
side product writes none out, an extended matrix its padding. A row is read as given, with
no gcd, and scaled there, once, by its lcm cofactor. The side product (``side_columns``) is
the backward loop folded over a move sequence from the identity columns of its final
triangulation, M^T = M_1^T ... M_k^T, so no read carries a W cofactor; its columns, half of
them never read by a move, leave unreduced, compared by value (``same_rows``) and read out
of the gauge by ``true_product``, each entry over its column's own denominator; so is an
extended matrix, the side product of its one-move sequence. Forwards serves only the
move-action check of ``fvectors``, on Gale rows (g, 1). All run in the pair gauge, with
triangulations from ``MoveSequence.path`` and move matrices from the caller. The dense
product of extended matrices is a test oracle.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm, prod
from operator import itemgetter, mul

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import EntryRow, IntRow, ZetaAssignment
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    move_size,
)

IntMatrix = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]  # (N, W): N_ij / W_j, W_j != 0


def move_matrices(moves, zeta: ZetaAssignment) -> dict[PachnerMove, IntMatrix]:
    """Each move's matrix in the pair gauge, (N, W) with P_hom_ij = N_ij / W_j; row i belongs
    to ``move.created_pairs[i]``, column j to ``move.removed_pairs[j]``. Shape is m x m for odd
    n and (m+1) x m for even n, m = floor((n-1)/2). Over D = ``zeta.deltas``, N_ij = l_i //
    D(c_i, b_j) = prod_{j' != j} D(c_i, b_j'), l_i = prod_j D(c_i, b_j), and the signed W_j =
    prod_{j' != j} D(b_j, b_j'), the nonzero ones of D(b_j, b) over all b (D(b_j, b_j) = 0),
    with no scaling common to the columns. The true P is S_c^-1 P_hom S_r (``pair_gauge``);
    at integral values D is z_a - z_b and P_hom is P. One block per b-set B: W once per B,
    each row once per (c, B), and the moves of B hold the block's objects.
    """
    delta, blocks, matrices = zeta.deltas, {}, {}
    for move in moves:
        if move.n != zeta.n:
            raise InvalidInputError(
                f"assignment is for n={zeta.n} but move is for n={move.n}"
            )
        block = blocks.get(move.b_set)
        if block is None:
            pick = itemgetter(*[b - 1 for b in reversed(move.b_set)])
            block = blocks[move.b_set] = pick, _column_weights(delta, move.b_set, pick), {}
        pick, weights, rows = block
        for c in move.c_set:
            if c not in rows:
                rows[c] = _numerator_row(pick(delta[c - 1]))
        matrices[move] = tuple([rows[c] for c in reversed(move.c_set)]), weights
    return matrices


def _column_weights(delta, b_set, pick) -> tuple[int, ...]:
    """W_j = prod_{j' != j} D(b_j, b_j') for b_j in B descending."""
    return tuple([prod([x for x in pick(delta[b - 1]) if x]) for b in reversed(b_set)])


def _numerator_row(diffs) -> tuple[int, ...]:
    """N(c, B)_j = l // D(c, b_j), l = prod_j D(c, b_j), from the D(c, b_j) of B descending."""
    ell = prod(diffs)
    return tuple([ell // x for x in diffs])


def pair_gauge(zeta: ZetaAssignment, pairs) -> list[int]:
    """s(i, j) = (q_i q_j)^(m-1) per pair, z = p / q, m = floor((n-1)/2): a matrix built from
    ``move_matrices`` holding x at row pair A, column pair B has the true entry x s(B) / s(A)."""
    e, z = move_size(zeta.n) - 1, zeta.values
    return [(z[p.i - 1].denominator * z[p.j - 1].denominator) ** e for p in pairs]


def true_rows(move: PachnerMove, p: IntMatrix, zeta: ZetaAssignment) -> list[IntRow]:
    """A move's matrix ``p`` (``move_matrices``) as true rows at its created pairs A over
    D = lcm |W_j|: N_ij / W_j is N_ij (D / W_j) s(B_j) over D s(A_i), B_j its removed pairs,
    not reduced; each row's numerators an iterator, read once."""
    rows, weights = p
    d = lcm(*weights)
    scales, heights = [d // w for w in weights], repeat(d)
    if not zeta.integral:  # else every s(pair) is 1
        scales = list(map(mul, scales, pair_gauge(zeta, move.removed_pairs)))
        heights = [d * s for s in pair_gauge(zeta, move.created_pairs)]
    return [(map(mul, row, scales), e) for row, e in zip(rows, heights)]


def true_product(columns: list[IntRow], row_pairs, col_pairs,
                 zeta: ZetaAssignment) -> list[EntryRow]:
    """A product in the pair gauge, given by its columns v_j / d_j at the pairs B of
    ``col_pairs``, as its true rows at the pairs A of ``row_pairs``, entry by entry over its
    own column's denominator: (i, j) is (v_j[i] s(B_j), d_j s(A_i)), not reduced."""
    numerators, denominators = zip(*columns)
    if zeta.integral:  # every s(pair) is 1
        return [tuple(zip(row, denominators)) for row in zip(*numerators)]
    cols, heights = pair_gauge(zeta, col_pairs), pair_gauge(zeta, row_pairs)
    return [tuple([(x * c, d * s) for x, c, d in zip(row, cols, denominators)])
            for row, s in zip(zip(*numerators), heights)]


def gauged(zeta: ZetaAssignment, rows: dict[Pair, tuple[int, ...]]) -> dict:
    """Rows keyed by pair put into the pair gauge, each times s(pair); ``rows`` at integral z."""
    if zeta.integral:  # every s(pair) is 1
        return rows
    return {pair: tuple([s * x for x in row])
            for (pair, row), s in zip(rows.items(), pair_gauge(zeta, rows))}


def act_on_int_rows(move: PachnerMove, p: IntMatrix, rows: dict[Pair, IntRow | int],
                    width: int, *, transpose: bool = False) -> None:
    """Apply a move's matrix ``p`` = (N, W) (``move_matrices``) in place to rows of ``width``
    entries keyed by pair; a row is an ``IntRow`` or, while no move has read it, the column
    index k of its identity row e_k, read as the one entry (k, 1). The inputs v_i / d_i are
    popped and output o is sum_i C[o][i] v_i / (d_i w_i r_o); every other row is kept.
    Forwards, which serves Gale rows, the removed pairs' rows become P times them at the
    created pairs: C = N, w = W, r = 1. With ``transpose``, which serves side products and an
    extended matrix (the side product of one move), the created pairs' columns of a product X
    become those of X P at the removed pairs: C = N^T, w = 1, r = W. No input is reduced: each
    is scaled once to u_i = f_i v_i, f_i = L // (d_i w_i) signed, L = lcm(d_i w_i) > 0,
    skipping zeros (e_k to (k, f_i)), and output o is sum_i C[o][i] u_i over L |r_o|, the sign
    of r_o in C[o], left unreduced for a later move, ``same_rows`` or ``true_product``. At
    seeded n = 14 the medians backwards are 91 bits for N and 445 for u; a read gcd would
    strip a median 11 of 183 bits of a read denominator there and 629 of 1147 at n = 30."""
    reads, writes, heights = move.removed_pairs, move.created_pairs, repeat(1)
    coefficients, weights = p
    if transpose:
        reads, writes, weights, heights = writes, reads, heights, map(abs, weights)
        coefficients = [c if w > 0 else [-x for x in c] for c, w in zip(zip(*p[0]), p[1])]
    inputs, denominators = [], []
    for pair, w in zip(reads, weights):
        row = rows.pop(pair, None)
        if row is None:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) not present")
        inputs.append(row if type(row) is int else row[0])
        denominators.append(w if type(row) is int else row[1] * w)
    common = lcm(*denominators)
    sources = [((v, f),) if type(v) is int else [(k, x * f) for k, x in enumerate(v) if x]
               for v, f in zip(inputs, [common // d for d in denominators])]
    for pair, coeffs, h in zip(writes, coefficients, heights):
        if pair in rows:
            raise MoveNotApplicableError(f"pair ({pair.i},{pair.j}) already present")
        acc = [0] * width
        for c, source in zip(coeffs, sources):
            for k, u in source:
                acc[k] += c * u
        rows[pair] = (tuple(acc), common * h)


def _identity(t: Triangulation) -> dict[Pair, int]:
    """The identity rows of t, each held as its column index: t's pairs in canonical order."""
    return dict(zip(t.pairs, range(len(t))))


def _rows_at(rows: dict[Pair, IntRow | int], t: Triangulation, width: int) -> list[IntRow]:
    """The rows of t's pairs in canonical order, an identity row k written out as e_k."""
    return [((0,) * row + (1,) + (0,) * (width - 1 - row), 1) if type(row) is int else row
            for row in map(rows.__getitem__, t.pairs)]


def side_columns(seq: MoveSequence, matrices: dict[PachnerMove, IntMatrix]) -> list[IntRow]:
    """The side product M = M_k ... M_1 (first-applied move rightmost), given each move's
    matrix (``move_matrices``), by its columns: one integer row per pair of the initial
    triangulation, in canonical order, its entries in final triangulation order, the two ends
    of ``seq.path``.

    Computed as M^T = M_1^T ... M_k^T: each move is applied backwards (``transpose``) to the
    columns it touches, starting from the identity columns of the final triangulation, held
    as column indices until a move reads them; no extended matrix is formed.
    """
    initial, final = seq.path[0], seq.path[-1]
    columns, ends = _identity(final), InternalError(
        f"{seq.side} sequence for n={seq.n} does not end at the final triangulation")
    try:
        for move in reversed(seq.moves):
            act_on_int_rows(move, matrices[move], columns, len(final), transpose=True)
    except MoveNotApplicableError as exc:  # a move that does not apply backwards
        raise ends from exc
    if columns.keys() != set(initial.pairs):
        raise ends
    return _rows_at(columns, initial, len(final))
