from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngoneq import (
    DenseMatrix,
    InternalError,
    InvalidInputError,
    MoveNotApplicableError,
    MoveSequence,
    PachnerMove,
    Pair,
    ZetaAssignment,
    equation_sequences,
    final_triangulation,
    initial_triangulation,
)
from ngoneq.exactfield import same_rows
from ngoneq.fvectors import gale_table, vector_rows
from ngoneq.pmatrix import (
    act_on_int_rows, gauged, move_matrices, pair_gauge, side_columns, true_product,
)
from oracles import (
    InterleavedFrame,
    apply_move,
    build_p_matrix,
    act_on_rows,
    cofactor_product_act,
    dense_factors,
    dense_fold,
    dense_product,
    distinct_assignments,
    f_vector_table,
    factors_view,
    gauge,
    identity,
    identity_rows,
    int_p_matrix,
    int_row,
    mixed_denominators,
    negative_fractional,
    one_denominator_side_rows,
    one_move_products,
    oracle_assignments,
    other_vertex,
    p_entry_vandermonde,
    product_view,
    rat_row,
    reduce_on_read_act,
    row_sums,
    same_product,
    side_rows,
    transposed_move,
    triangulation_from_pairs,
    true_column_matrix,
)

CONSEC = {n: ZetaAssignment.consecutive(n) for n in range(5, 13)}
PRIMES = ZetaAssignment(5, tuple(Fraction(v) for v in (2, 3, 5, 7, 11)), label="primes")


def frac(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# interleaved frames and index maps
# ---------------------------------------------------------------------------

def test_frame_odd_alternates_c_and_b():
    move = PachnerMove(5, 5, (2, 4), (1, 3))
    frame = InterleavedFrame.from_move(move)
    assert frame.a_seq == (1, 2, 3, 4)
    assert frame.row_vertices() == [3, 1]  # created partners, descending
    assert frame.col_vertices() == [4, 2]  # removed partners, descending


def test_frame_even_puts_largest_c_last():
    move = PachnerMove(6, 6, (1, 3), (2, 4, 5))
    frame = InterleavedFrame.from_move(move)
    assert frame.a_seq == (1, 2, 3, 4, 5)
    assert frame.row_vertices() == [5, 4, 2]
    assert frame.col_vertices() == [3, 1]


def test_frame_row_col_vertices_are_descending_partner_sets():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for move in seq.moves:
                frame = InterleavedFrame.from_move(move)
                assert frame.row_vertices() == sorted(move.c_set, reverse=True)
                assert frame.col_vertices() == sorted(move.b_set, reverse=True)
                assert frame.b_ascending() == list(move.b_set)


@pytest.mark.parametrize("n", range(5, 13))
def test_move_matrix_labels_follow_the_move_pairs(n):
    """For every move of both sides, P's rows belong to move.created_pairs
    and its columns to move.removed_pairs, other vertex descending: acting
    on unit rows keyed by the removed pairs returns P's rows keyed by the
    created pairs."""
    zeta = CONSEC[n]
    for seq in equation_sequences(n):
        for move in seq.moves:
            frame = InterleavedFrame.from_move(move)
            created, removed = move.created_pairs, move.removed_pairs
            rows_by_vertex = [other_vertex(pair, move.q) for pair in created]
            cols_by_vertex = [other_vertex(pair, move.q) for pair in removed]
            assert rows_by_vertex == sorted(move.c_set, reverse=True) == frame.row_vertices()
            assert cols_by_vertex == sorted(move.b_set, reverse=True) == frame.col_vertices()
            p = build_p_matrix(move, zeta)
            assert p.shape == (len(created), len(removed))
            units = {
                pair: tuple(frac(int(j == k)) for k in range(len(removed)))
                for j, pair in enumerate(removed)
            }
            rows = act_on_rows(move, zeta, units)
            assert [rows[pair] for pair in created] == list(p.entries)


# ---------------------------------------------------------------------------
# move matrices
# ---------------------------------------------------------------------------

def test_pentagon_p_matrix_formulas_and_labels():
    """Quadrilateral 1234 flip: the 2x2 matrix of difference quotients."""
    move = PachnerMove(5, 5, (2, 4), (1, 3))
    for zeta in (CONSEC[5], PRIMES):
        z = zeta
        p = build_p_matrix(move, zeta)
        expected = DenseMatrix([
            [(z[2] - z[3]) / (z[2] - z[4]), (z[3] - z[4]) / (z[2] - z[4])],
            [(z[2] - z[1]) / (z[2] - z[4]), (z[1] - z[4]) / (z[2] - z[4])],
        ])
        assert p == expected
    assert move.created_pairs == (Pair(3, 5, 5), Pair(1, 5, 5))
    assert move.removed_pairs == (Pair(4, 5, 5), Pair(2, 5, 5))


def test_pentagon_p_matrix_at_consecutive_values():
    p = build_p_matrix(PachnerMove(5, 5, (2, 4), (1, 3)), CONSEC[5])
    assert p == DenseMatrix([[frac(1, 2), frac(1, 2)], [frac(-1, 2), frac(3, 2)]])


def test_hexagon_p_matrix_formulas():
    move = PachnerMove(6, 6, (1, 3), (2, 4, 5))
    z = CONSEC[6]
    p = build_p_matrix(move, z)
    expected = DenseMatrix([
        [(z[1] - z[5]) / (z[1] - z[3]), (z[5] - z[3]) / (z[1] - z[3])],
        [(z[1] - z[4]) / (z[1] - z[3]), (z[4] - z[3]) / (z[1] - z[3])],
        [(z[1] - z[2]) / (z[1] - z[3]), (z[2] - z[3]) / (z[1] - z[3])],
    ])
    assert p == expected
    assert [pr.simplex() for pr in move.created_pairs] == [
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 3, 4, 5)
    ]
    assert [pr.simplex() for pr in move.removed_pairs] == [
        (1, 2, 4, 5), (2, 3, 4, 5)
    ]


def test_heptagon_p_entry():
    p = build_p_matrix(PachnerMove(7, 7, (2, 4, 6), (1, 3, 5)), CONSEC[7])
    assert p[0, 0] == frac(3, 8)


def test_p_matrix_shapes():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for move in seq.moves:
                p = build_p_matrix(move, CONSEC[n])
                if n % 2 == 1:
                    assert p.shape == ((n - 1) // 2, (n - 1) // 2)
                else:
                    assert p.shape == (n // 2, n // 2 - 1)


def test_p_matrix_row_sums_are_one():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for move in seq.moves:
                p = build_p_matrix(move, CONSEC[n])
                assert all(s == 1 for s in row_sums(p))


def test_p_matrix_size_mismatch():
    with pytest.raises(InvalidInputError):
        build_p_matrix(PachnerMove(5, 5, (2, 4), (1, 3)), CONSEC[6])


def test_lagrange_entries_equal_vandermonde_ratio_form():
    """The two entry formulas agree exactly for every move of both sequences,
    n <= 10, at two assignments."""
    for n in range(5, 11):
        assignments = [CONSEC[n], ZetaAssignment.random_distinct(n, n)]
        for zeta in assignments:
            for seq in equation_sequences(n):
                for move in seq.moves:
                    p = build_p_matrix(move, zeta)
                    for i in range(p.rows):
                        for j in range(p.cols):
                            assert p[i, j] == p_entry_vandermonde(
                                move, zeta, i + 1, j + 1
                            )


@settings(max_examples=60, deadline=None, database=None)
@given(distinct_assignments(max_n=10), st.data())
def test_integer_move_matrix_equals_vandermonde_ratio_form(zeta, data):
    """At drawn rationals of both signs, integer or not, the integer rows over the
    column weights, read through the pair gauge (``build_p_matrix``), equal the
    Vandermonde-ratio entries: every W_j is nonzero, some W_j is negative and every
    row of P sums to 1."""
    seq = equation_sequences(zeta.n)[data.draw(st.integers(0, 1))]
    move = seq.moves[data.draw(st.integers(0, len(seq.moves) - 1))]
    rows, weights = int_p_matrix(move, zeta)
    assert all(weights) and any(w < 0 for w in weights)
    assert len(rows) == len(move.created_pairs)
    assert all(len(row) == len(weights) == len(move.removed_pairs) for row in rows)
    p = build_p_matrix(move, zeta)
    for i, row in enumerate(p.entries):
        assert sum(row) == 1
        assert list(row) == [
            p_entry_vandermonde(move, zeta, i + 1, j + 1) for j in range(len(row))
        ]


@settings(max_examples=60, deadline=None, database=None)
@given(distinct_assignments(max_n=10), st.data())
def test_pair_gauge_takes_the_move_matrix_to_the_vandermonde_entries(zeta, data):
    """Identity 3 at drawn rationals: (P_hom)_ij s(b_j) / s(c_i), with ``int_p_matrix``
    for P_hom and the library's ``pair_gauge`` for s, is the Vandermonde-ratio entry,
    and the gauge is (q_i q_j)^(m-1)."""
    seq = equation_sequences(zeta.n)[data.draw(st.integers(0, 1))]
    move = seq.moves[data.draw(st.integers(0, len(seq.moves) - 1))]
    rows, weights = int_p_matrix(move, zeta)
    s_rows = pair_gauge(zeta, move.created_pairs)
    s_cols = pair_gauge(zeta, move.removed_pairs)
    pairs = move.created_pairs + move.removed_pairs
    assert s_rows + s_cols == [gauge(zeta, pair) for pair in pairs]
    for i, (row, s_row) in enumerate(zip(rows, s_rows)):
        assert [Fraction(x * s_col, w * s_row) for x, w, s_col in zip(row, weights, s_cols)] == [
            p_entry_vandermonde(move, zeta, i + 1, j + 1) for j in range(len(row))
        ]


def _delta(zeta, a, b):
    """p_a q_b - p_b q_a for z_a = p_a / q_a and z_b = p_b / q_b in lowest terms."""
    return zeta[a].numerator * zeta[b].denominator - zeta[b].numerator * zeta[a].denominator


@pytest.mark.parametrize("n", range(5, 15))
def test_integer_move_matrix_is_numerators_over_unscaled_column_weights(n):
    """``int_p_matrix`` returns exactly N_ij = prod_{j' != j} Delta(c_i, b_j') and
    W_j = prod_{j' != j} Delta(b_j, b_j') over the 2x2 determinants
    Delta_ab = p_a q_b - p_b q_a of z = p / q, with the created and removed partners read
    from the interleaved frame: no factor common to the columns. At integral values
    Delta_ab = z_a - z_b."""
    for zeta in (ZetaAssignment.consecutive(n), ZetaAssignment.random_distinct(n, 1000 + n),
                 mixed_denominators(n), negative_fractional(n)):
        for seq in equation_sequences(n):
            for move in seq.moves:
                frame = InterleavedFrame.from_move(move)
                cs, bs = frame.row_vertices(), frame.col_vertices()
                want_rows = tuple(
                    tuple(prod(_delta(zeta, c, b) for b in bs if b != bj) for bj in bs)
                    for c in cs
                )
                want_weights = tuple(
                    prod(_delta(zeta, bj, b) for b in bs if b != bj) for bj in bs
                )
                assert int_p_matrix(move, zeta) == (want_rows, want_weights), (n, zeta.label)


def test_odd_p_matrices_invertible():
    for n in (5, 7, 9, 11):
        for seq in equation_sequences(n):
            for move in seq.moves:
                p = build_p_matrix(move, CONSEC[n])
                assert p.rank() == p.rows


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def extend_one(move, t_old, t_new, zeta):
    """The extended factor of the one-move sequence from t_old to t_new (``factors_view``)."""
    (factor,) = factors_view(MoveSequence(move.n, "lhs", (move,), (t_old, t_new)), zeta)
    return factor


def test_extend_pentagon_first_step_keeps_fixed_triangle():
    t0 = initial_triangulation(5)
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    t1 = apply_move(t0, move)
    m = extend_one(move, t0, t1, CONSEC[5])
    assert m.shape == (3, 3)
    # triangle 123 is untouched and sits first in both orderings
    assert [m[0, j] for j in range(3)] == [1, 0, 0]
    assert all(s == 1 for s in row_sums(m))


def test_extend_hexagon_first_steps_fixed_rows():
    t0 = initial_triangulation(6)
    lhs_move = PachnerMove(6, 3, (4, 6), (1, 2, 5))
    m = extend_one(lhs_move, t0, apply_move(t0, lhs_move), CONSEC[6])
    assert m.shape == (4, 3)
    assert [m[0, j] for j in range(3)] == [1, 0, 0]  # 1234 fixed, first in both
    rhs_move = PachnerMove(6, 6, (3, 5), (1, 2, 4))
    m = extend_one(rhs_move, t0, apply_move(t0, rhs_move), CONSEC[6])
    assert m.shape == (4, 3)
    assert [m[1, j] for j in range(3)] == [0, 0, 1]  # 1256 fixed: row 2, col 3


def test_extend_with_no_fixed_simplices_is_p_up_to_ordering():
    move = PachnerMove(5, 5, (2, 4), (1, 3))
    t_old = triangulation_from_pairs(5, move.removed_pairs)
    t_new = triangulation_from_pairs(5, move.created_pairs)
    extended = extend_one(move, t_old, t_new, CONSEC[5])
    p = build_p_matrix(move, CONSEC[5])
    for i, rp in enumerate(move.created_pairs):
        for j, cp in enumerate(move.removed_pairs):
            assert extended[t_new.pairs.index(rp), t_old.pairs.index(cp)] == p[i, j]


def test_extended_row_sums_are_one_everywhere():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for m in factors_view(seq, CONSEC[n]):
                assert all(s == 1 for s in row_sums(m))


# ---------------------------------------------------------------------------
# side products
# ---------------------------------------------------------------------------

def test_product_shapes():
    lhs5, rhs5 = equation_sequences(5)
    assert product_view(lhs5, CONSEC[5]).shape == (3, 3)
    assert product_view(rhs5, CONSEC[5]).shape == (3, 3)
    lhs6, _ = equation_sequences(6)
    assert product_view(lhs6, CONSEC[6]).shape == (6, 3)


def test_factor_shapes_follow_simplex_counts():
    lhs6, _ = equation_sequences(6)
    shapes = [m.shape for m in factors_view(lhs6, CONSEC[6])]
    assert shapes == [(4, 3), (5, 4), (6, 5)]


def test_pentagon_products_agree():
    lhs, rhs = equation_sequences(5)
    assert product_view(lhs, CONSEC[5]) == product_view(rhs, CONSEC[5])


def test_product_of_a_sequence_not_ending_at_the_final_triangulation_is_internal_error():
    lhs, _ = equation_sequences(6)
    truncated = MoveSequence(6, "lhs", lhs.moves[:-1], lhs.path)
    with pytest.raises(InternalError):
        product_view(truncated, CONSEC[6])


def test_product_is_reversed_composition():
    """The product must equal fold-right of the factors: last move leftmost."""
    lhs, _ = equation_sequences(6)
    factors = factors_view(lhs, CONSEC[6])
    expected = factors[2].mul(factors[1]).mul(factors[0])
    assert product_view(lhs, CONSEC[6]) == expected


def test_path_shapes_match_product():
    for n in (5, 6, 7, 8):
        for seq in equation_sequences(n):
            path = seq.path
            product = product_view(seq, CONSEC[n])
            assert product.shape == (len(path[-1]), len(path[0]))
            assert product.shape == (
                len(final_triangulation(n)),
                len(initial_triangulation(n)),
            )


def test_product_equals_dense_fold_of_extended_matrices_n5_to_16():
    """The row-action product is the dense product M_k ... M_1 of the extended
    matrices, at three assignments for every n up to 16; the extended matrices
    themselves match the independently padded ones."""
    for n in range(5, 17):
        for zeta in oracle_assignments(n):
            for seq in equation_sequences(n):
                factors = factors_view(seq, zeta)
                assert factors == dense_factors(seq, zeta), (n, zeta.label, seq.side)
                assert product_view(seq, zeta) == dense_fold(factors), (n, zeta.label, seq.side)


@pytest.mark.parametrize("n", range(5, 17))
def test_side_rows_are_integer_rows_of_the_dense_product(n):
    """Every side column is (numerators, d) with d > 0, not necessarily in lowest terms,
    the columns read as Fractions through the pair gauge are the dense product and, by
    value, the rows of the row-walk oracle (``side_rows``), and the two sides agree by
    value (``same_rows``), at the oracle assignments and at values over large mixed
    denominators."""
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        sides = [
            (seq, side_columns(seq, {move: int_p_matrix(move, zeta) for move in seq.moves}))
            for seq in equation_sequences(n)
        ]
        for seq, columns in sides:
            assert all(d > 0 for _, d in columns), (n, zeta.label, seq.side)
            expected = dense_product(seq, zeta)
            got = true_column_matrix(columns, seq.path[-1].pairs, seq.path[0].pairs, zeta)
            assert got == expected, (n, zeta.label)
            matrices = {move: int_p_matrix(move, zeta) for move in seq.moves}
            assert same_product(columns, side_rows(seq, matrices)), (n, zeta.label, seq.side)
        assert all(map(same_rows, sides[0][1], sides[1][1])), (n, zeta.label)


@pytest.mark.parametrize("n", range(5, 13))
def test_removed_rows_are_read_by_value(n):
    """Each removed row is read as given, with no gcd: fed as (k v, k d), k > 1 and
    different for every row, instead of (v, d), it leaves every created row of
    act_on_int_rows equal by value (``same_rows``), and fed in lowest terms it leaves
    them tuple-identical to the reduce-on-read row walk (``reduce_on_read_act``), at every
    move of both sides, at a seed and at fractional values. The created rows themselves
    are stored unreduced: some are not in lowest terms."""
    for zeta in (ZetaAssignment.random_distinct(n, 3), negative_fractional(n)):
        for seq in equation_sequences(n):
            rows, unreduced = identity_rows(seq.path[0]), 0
            for step, move in enumerate(seq.moves):
                p, scaled, lowest = int_p_matrix(move, zeta), dict(rows), dict(rows)
                for k, pair in enumerate(move.removed_pairs, start=2 + step):
                    v, d = rows[pair]
                    scaled[pair] = (tuple([k * x for x in v]), k * d)
                    g = gcd(d, *v)
                    lowest[pair] = (tuple([x // g for x in v]), d // g)
                oracle = dict(lowest)
                act_on_int_rows(move, p, rows, len(seq.path[0]))
                act_on_int_rows(move, p, scaled, len(seq.path[0]))
                act_on_int_rows(move, p, lowest, len(seq.path[0]))
                reduce_on_read_act(move, p, oracle, len(seq.path[0]))
                assert scaled.keys() == rows.keys(), (n, zeta.label, seq.side, step)
                assert all(same_rows(scaled[pair], rows[pair]) for pair in rows), (
                    n, zeta.label, seq.side, step)
                assert lowest == oracle, (n, zeta.label, seq.side, step)
                unreduced += sum(gcd(d, *v) > 1 for v, d in map(rows.get, move.created_pairs))
            assert unreduced, (n, zeta.label, seq.side)


def _true_side_rows(seq, zeta):
    """A side's rows from ``side_columns``, taken out of the pair gauge and written
    canonically."""
    columns = side_columns(seq, {move: int_p_matrix(move, zeta) for move in seq.moves})
    true = true_column_matrix(columns, seq.path[-1].pairs, seq.path[0].pairs, zeta)
    return tuple([int_row(row) for row in true.entries])


@settings(max_examples=40, deadline=None, database=None)
@given(distinct_assignments(max_n=12))
def test_column_weight_side_rows_equal_the_one_denominator_oracle(zeta):
    """Both sides' rows over the column weights, out of the pair gauge, are the rows of
    the one-denominator matrix and row action, entry for entry and denominator for
    denominator."""
    for seq in equation_sequences(zeta.n):
        assert _true_side_rows(seq, zeta) == one_denominator_side_rows(seq, zeta), seq.side


@pytest.mark.parametrize("n", range(5, 13))
def test_side_rows_out_of_the_pair_gauge_equal_the_one_denominator_oracle(n):
    """Identity 3 on whole sides: S_final^-1 (gauged side rows) S_initial is the side
    product of the true move matrices, over u = s z, on both sides, at fractional values
    of both signs, over large mixed denominators and at one seed."""
    for zeta in (negative_fractional(n), mixed_denominators(n),
                 ZetaAssignment.random_distinct(n, 77)):
        for seq in equation_sequences(n):
            assert _true_side_rows(seq, zeta) == one_denominator_side_rows(seq, zeta), (
                zeta.label, seq.side)


def test_int_row_is_canonical_and_round_trips():
    row = (frac(3, 4), frac(-5, 6), frac(0), frac(7))
    assert int_row(row) == ((9, -10, 0, 84), 12)
    assert rat_row(int_row(row)) == row
    assert int_row((frac(0), frac(0))) == ((0, 0), 1)
    assert int_row((2, -3)) == ((2, -3), 1)


# ---------------------------------------------------------------------------
# the row-action primitive
# ---------------------------------------------------------------------------

def test_act_on_rows_replaces_removed_rows_and_carries_the_rest():
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    t0 = initial_triangulation(5)
    rows = {pair: (frac(k + 1), frac(0), frac(-k, 3)) for k, pair in enumerate(t0.pairs)}
    before = dict(rows)
    out = act_on_rows(move, CONSEC[5], rows)
    assert rows == before  # the input family is left as it was
    assert set(out) == set(apply_move(t0, move).pairs)
    p = build_p_matrix(move, CONSEC[5])
    for i, created in enumerate(move.created_pairs):
        expected = tuple(
            sum((p[i, j] * rows[removed][k] for j, removed in enumerate(move.removed_pairs)),
                frac(0))
            for k in range(3)
        )
        assert out[created] == expected
    for pair in set(t0.pairs) - set(move.removed_pairs):
        assert out[pair] is rows[pair]


def test_act_on_rows_rejects_inapplicable_moves():
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    removed = {pair: (frac(1),) for pair in move.removed_pairs}
    with pytest.raises(MoveNotApplicableError):
        act_on_rows(move, CONSEC[5], {move.removed_pairs[0]: (frac(1),)})
    with pytest.raises(MoveNotApplicableError):
        act_on_rows(move, CONSEC[5], {**removed, move.created_pairs[0]: (frac(1),)})


@settings(max_examples=30, deadline=None, database=None)
@given(distinct_assignments(max_n=9))
def test_row_action_matches_dense_oracle_at_drawn_rationals(zeta):
    lhs, rhs = equation_sequences(zeta.n)
    lhs_product = product_view(lhs, zeta)
    assert lhs_product == dense_product(lhs, zeta)
    assert product_view(rhs, zeta) == dense_product(rhs, zeta)
    assert lhs_product == product_view(rhs, zeta)


# ---------------------------------------------------------------------------
# move blocks and implicit identity rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 41))
def test_the_sides_pair_their_b_sets_and_share_each_block(n):
    """The rhs visits the lhs b-sets in reverse order, after one move of its own at odd n,
    so the K_L + K_R moves use ceil((K_L + K_R) / 2) b-sets. ``move_matrices`` over both
    sides gives each pair of moves one W tuple and the numerator rows of their common
    c-vertices as the same objects. Each side reads every row of its initial triangulation
    forwards and every column of its final triangulation backwards."""
    lhs, rhs = equation_sequences(n)
    left, right = [m.b_set for m in lhs.moves], [m.b_set for m in rhs.moves]
    extra = right[: n % 2]
    assert right == extra + left[::-1]
    assert not set(extra) & set(left)
    assert len(set(left + right)) == -(-(len(left) + len(right)) // 2)
    for seq in (lhs, rhs):  # every identity column is read: side_columns writes none out
        assert set(seq.path[-1].pairs) <= {pair for m in seq.moves for pair in m.created_pairs}
        assert set(seq.path[0].pairs) <= {pair for m in seq.moves for pair in m.removed_pairs}
    matrices = move_matrices(lhs.moves + rhs.moves, ZetaAssignment.random_distinct(n, n))
    for a, b in zip(lhs.moves, reversed(rhs.moves)):
        (rows_a, weights_a), (rows_b, weights_b) = matrices[a], matrices[b]
        assert weights_a is weights_b
        row_of_a = dict(zip(reversed(a.c_set), rows_a))
        common = set(a.c_set) & set(b.c_set)
        assert common == set(a.c_set) - {b.q} and len(common) == len(a.c_set) - 1
        shared = [row is row_of_a.get(c) for c, row in zip(reversed(b.c_set), rows_b)]
        assert shared == [c != a.q for c in reversed(b.c_set)]


@pytest.mark.parametrize("n", range(5, 13))
def test_every_move_of_the_shared_blocks_is_the_vandermonde_ratio(n):
    """Each move's view of the blocks built over both sides, read through the pair gauge,
    is the Vandermonde-ratio matrix, at consecutive, seeded and fractional values."""
    lhs, rhs = equation_sequences(n)
    for zeta in oracle_assignments(n):
        matrices = move_matrices(lhs.moves + rhs.moves, zeta)
        for move, (rows, weights) in matrices.items():
            s_rows = pair_gauge(zeta, move.created_pairs)
            s_cols = pair_gauge(zeta, move.removed_pairs)
            got = [[Fraction(x * s_col, w * s_row) for x, w, s_col in zip(row, weights, s_cols)]
                   for row, s_row in zip(rows, s_rows)]
            assert got == [[p_entry_vandermonde(move, zeta, i + 1, j + 1) for j in range(len(row))]
                           for i, row in enumerate(rows)], (zeta.label, move)
            assert matrices[move] == int_p_matrix(move, zeta)


@pytest.mark.parametrize("n", range(5, 13))
def test_side_rows_and_factors_from_shared_blocks_equal_the_dense_oracle(n):
    """``side_columns`` over the blocks built for both sides, with the identity columns held as
    column indices, equals ``dense_product`` on each side and, on each one-move sequence read
    through ``true_product`` (``one_move_products``), ``dense_factors``."""
    lhs, rhs = equation_sequences(n)
    for zeta in oracle_assignments(n):
        matrices = move_matrices(lhs.moves + rhs.moves, zeta)
        for seq in (lhs, rhs):
            path = seq.path
            columns = side_columns(seq, matrices)
            product = true_column_matrix(columns, path[-1].pairs, path[0].pairs, zeta)
            assert product == dense_product(seq, zeta), (zeta.label, seq.side)
            factors = one_move_products(seq, matrices, zeta)
            assert factors == dense_factors(seq, zeta), (zeta.label, seq.side)


@pytest.mark.parametrize("n", range(5, 13))
def test_products_and_vectors_leave_entry_by_entry_over_their_own_denominators(n):
    """``true_product`` gives entry (i, j) of a side product and of each extended factor as
    (x s(B_j), d_j s(A_i)), over column j's own denominator d_j times s(A_i), with no lcm over
    the columns, and its value is the dense oracle's; ``vector_rows`` gives component w of a
    vector over |L_w|, L_w = q_w^(n-1) prod_{y != w} q_y (z_w - z_y), at the oracle's value.
    At consecutive, seeded, negative-fractional and mixed-denominator values."""
    lhs, rhs = equation_sequences(n)
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        matrices = move_matrices(lhs.moves + rhs.moves, zeta)
        for seq in (lhs, rhs):
            steps = [MoveSequence(n, seq.side, (move,), (old, new))
                     for move, old, new in zip(seq.moves, seq.path, seq.path[1:])]
            wants = [*dense_factors(seq, zeta), dense_product(seq, zeta)]
            for step, want in zip([*steps, seq], wants):
                final, initial = step.path[-1].pairs, step.path[0].pairs
                columns = side_columns(step, matrices)
                rows = true_product(columns, final, initial, zeta)
                assert [[Fraction(*entry) for entry in row] for row in rows] == [
                    list(row) for row in want.entries], (zeta.label, seq.side, step.moves)
                assert [[d for _, d in row] for row in rows] == [
                    [d * gauge(zeta, a) for _, d in columns] for a in final], zeta.label
        z, vectors = zeta.values, f_vector_table(n, zeta)
        ells = [abs(z[w].denominator ** (n - 1) * prod(
            [z[y].denominator * (z[w] - z[y]) for y in range(n) if y != w])) for w in range(n)]
        pairs = list(gale_table(n, zeta))
        for pair, row in zip(pairs, vector_rows(n, zeta, pairs)):
            assert [d for _, d in row] == ells, (zeta.label, pair)
            assert tuple([Fraction(*entry) for entry in row]) == vectors[pair].components


def _inversion_holds(seq, zeta, matrices) -> bool:
    """Identity 4 on one side: M(1/z)[A][B] = M(z)[A][B] s(B) / s(A), s({i, j}) =
    (z_i z_j)^(m-1), for every entry of the true side products (``true_product``), the one at
    z from the given move matrices, the one at 1/z from its own."""
    final, initial = seq.path[-1].pairs, seq.path[0].pairs
    inverse = ZetaAssignment(zeta.n, tuple([1 / x for x in zeta.values]))
    e = (zeta.n - 1) // 2 - 1
    s = {pair: (zeta[pair.i] * zeta[pair.j]) ** e for pair in (*final, *initial)}
    got, want = (true_product(side_columns(seq, m), final, initial, z) for m, z in (
        (move_matrices(seq.moves, inverse), inverse), (matrices, zeta)))
    return all(Fraction(*x) == Fraction(*y) * s[b] / s[a]
               for a, got_row, want_row in zip(final, got, want)
               for b, x, y in zip(initial, got_row, want_row))


@pytest.mark.parametrize("n", range(5, 13))
def test_inversion_maps_each_side_product_to_its_rescaled_self(n):
    """Identity 4 (README): at 1/z each true side product is the one at z with entry (A, B)
    times s(B) / s(A), s({i, j}) = (z_i z_j)^(m-1), m = floor((n-1)/2), on both sides, at
    consecutive, seeded, negative-fractional and mixed-denominator values."""
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        for seq in equation_sequences(n):
            matrices = move_matrices(seq.moves, zeta)
            assert _inversion_holds(seq, zeta, matrices), (zeta.label, seq.side)


@pytest.mark.parametrize("n", range(5, 9))
def test_a_tampered_move_matrix_breaks_inversion(n):
    """Adding its column weight W_0 to the first numerator of any one move matrix at z, and
    not at 1/z, breaks Identity 4 on the side of that move."""
    zeta = negative_fractional(n)
    for seq in equation_sequences(n):
        matrices = move_matrices(seq.moves, zeta)
        for move in seq.moves:
            (first, *rows), weights = matrices[move]
            tampered = ((first[0] + weights[0], *first[1:]), *rows), weights
            assert not _inversion_holds(seq, zeta, {**matrices, move: tampered}), (seq.side, move)


@pytest.mark.parametrize("n", range(5, 13))
def test_an_identity_row_held_as_its_column_index_reads_as_written_out(n):
    """Every move of both sides gives the same created rows, tuple for tuple, whether the
    identity rows it reads are held as column indices or written out."""
    zeta = negative_fractional(n)
    for seq in equation_sequences(n):
        initial = seq.path[0]
        implicit, written = dict(zip(initial.pairs, range(len(initial)))), identity_rows(initial)
        for move in seq.moves:
            p = int_p_matrix(move, zeta)
            act_on_int_rows(move, p, implicit, len(initial))
            act_on_int_rows(move, p, written, len(initial))
            assert [implicit[c] for c in move.created_pairs] == [
                written[c] for c in move.created_pairs]
        unit = identity_rows(initial)
        assert implicit.keys() == written.keys()
        assert all(written[pair] == (unit[pair] if type(row) is int else row)
                   for pair, row in implicit.items())


@pytest.mark.parametrize("n", range(5, 17))
def test_row_action_equals_the_cofactor_product_oracle_at_every_move(n):
    """Each read row scaled by its lcm cofactor once leaves the same dict as the row action
    that multiplied N_ij f_j into every entry (``cofactor_product_act``): tuple-identical
    numerators and denominators after every move of both sides, on the Gale rows the
    move-action check feeds it (``gauged``), at integral, seeded, negative-fractional and
    mixed-denominator values. (Walks from column indices are the column walk's, below.)"""
    lhs, rhs = equation_sequences(n)
    for zeta in (ZetaAssignment.consecutive(n), ZetaAssignment.random_distinct(n, 1000 + n),
                 negative_fractional(n), mixed_denominators(n)):
        matrices, gale = move_matrices(lhs.moves + rhs.moves, zeta), gale_table(n, zeta)
        for seq in (lhs, rhs):
            for step, move in enumerate(seq.moves):
                p = matrices[move]
                touched = gauged(zeta, {pair: gale[pair]
                                        for pair in move.removed_pairs + move.created_pairs})
                acted = {pair: (touched[pair], 1) for pair in move.removed_pairs}
                oracle = dict(acted)
                act_on_int_rows(move, p, acted, n)
                cofactor_product_act(move, p, oracle, n)
                assert acted == oracle, (n, zeta.label, seq.side, step)
                assert all(same_rows(acted[pair], (touched[pair], 1))
                           for pair in move.created_pairs), (n, zeta.label, seq.side, step)


@pytest.mark.parametrize("n", range(5, 17))
def test_column_walk_equals_the_row_walk_oracle_at_every_move(n):
    """Each move applied backwards (``transpose``) to a product's columns leaves the same
    values as the reduce-on-read row walk (``reduce_on_read_act``) applied to those columns
    with the move's transpose (``transposed_move``): equal by value (``same_rows``) after
    every backward move of both sides, starting from the final triangulation's identity
    columns held as column indices, at integral, seeded, negative-fractional and
    mixed-denominator values; the last columns are the side product's."""
    lhs, rhs = equation_sequences(n)
    for zeta in (ZetaAssignment.consecutive(n), ZetaAssignment.random_distinct(n, 1000 + n),
                 negative_fractional(n), mixed_denominators(n)):
        matrices = move_matrices(lhs.moves + rhs.moves, zeta)
        for seq in (lhs, rhs):
            width = len(seq.path[-1])
            columns = dict(zip(seq.path[-1].pairs, range(width)))
            expected = dict(columns)
            for step, move in enumerate(reversed(seq.moves)):
                act_on_int_rows(move, matrices[move], columns, width, transpose=True)
                reduce_on_read_act(*transposed_move(move, matrices[move]), expected, width)
                assert columns.keys() == expected.keys(), (n, zeta.label, seq.side, step)
                assert all(same_rows(c, expected[pair]) if type(c) is not int
                           else c == expected[pair] for pair, c in columns.items()), (
                    n, zeta.label, seq.side, step)
            assert side_columns(seq, matrices) == [columns[p] for p in seq.path[0].pairs]


@pytest.mark.parametrize("n", range(5, 13))
def test_column_walk_equals_the_dense_suffix_product_at_every_move(n):
    """After each backward move k of both sides, the columns read through the pair gauge are
    the dense suffix product E_K ... E_k of the extended matrices (``dense_factors``), final
    triangulation by the triangulation before move k, at the oracle assignments."""
    for zeta in oracle_assignments(n):
        matrices = move_matrices([m for seq in equation_sequences(n) for m in seq.moves], zeta)
        for seq in equation_sequences(n):
            final, factors = seq.path[-1], dense_factors(seq, zeta)
            columns, suffix = dict(zip(final.pairs, range(len(final)))), identity(len(final))
            for k in reversed(range(len(seq.moves))):
                act_on_int_rows(seq.moves[k], matrices[seq.moves[k]], columns, len(final),
                                transpose=True)
                suffix, before = suffix.mul(factors[k]), seq.path[k]
                written = identity_rows(final)
                got = [written[final.pairs[c]] if type(c) is int else c
                       for c in map(columns.__getitem__, before.pairs)]
                assert true_column_matrix(got, final.pairs, before.pairs, zeta) == suffix, (
                    zeta.label, seq.side, k)


@pytest.mark.parametrize("n", (25, 30))
def test_side_rows_at_large_seeded_n_equal_the_cofactor_product_oracle(n):
    """At seeded n = 25 and 30, both sides' columns (``side_columns``) equal by value the
    rows of the row-walk oracle (``side_rows``), which are tuple-identical to the
    cofactor-product row action folded over the sequence."""
    zeta = ZetaAssignment.random_distinct(n, 1000 + n)
    lhs, rhs = equation_sequences(n)
    matrices = move_matrices(lhs.moves + rhs.moves, zeta)
    for seq in (lhs, rhs):
        width = len(seq.path[0])
        rows = dict(zip(seq.path[0].pairs, range(width)))
        for move in seq.moves:
            cofactor_product_act(move, matrices[move], rows, width)
        walked = side_rows(seq, matrices)
        assert walked == [rows[pair] for pair in seq.path[-1].pairs], seq.side
        assert same_product(side_columns(seq, matrices), walked), seq.side


def test_row_action_on_column_indices_rejects_inapplicable_moves():
    """Reading an absent pair and writing a present one raise, with identity rows held as
    column indices, in both orientations: forwards a move reads its removed pairs and
    writes its created ones, backwards (``transpose``) the other way round."""
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    p = int_p_matrix(move, CONSEC[5])
    with pytest.raises(MoveNotApplicableError, match="not present"):
        act_on_int_rows(move, p, {move.removed_pairs[0]: 0}, 3)
    present = {move.removed_pairs[0]: 0, move.removed_pairs[1]: 1, move.created_pairs[0]: 2}
    with pytest.raises(MoveNotApplicableError, match="already present"):
        act_on_int_rows(move, p, present, 3)
    with pytest.raises(MoveNotApplicableError, match="not present"):
        act_on_int_rows(move, p, {move.created_pairs[0]: 0}, 3, transpose=True)
    present = {move.created_pairs[0]: 0, move.created_pairs[1]: 1, move.removed_pairs[0]: 2}
    with pytest.raises(MoveNotApplicableError, match="already present"):
        act_on_int_rows(move, p, present, 3, transpose=True)
