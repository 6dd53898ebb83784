from fractions import Fraction

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
    Triangulation,
    ZetaAssignment,
    act_on_rows,
    apply_move,
    build_p_matrix,
    equation_sequences,
    extend_matrix,
    extended_matrices,
    final_triangulation,
    initial_triangulation,
    product_for_side,
    triangulation_path,
)
from oracles import (
    InterleavedFrame,
    dense_factors,
    dense_fold,
    dense_product,
    p_entry_vandermonde,
)

CONSEC = {n: ZetaAssignment.consecutive(n) for n in range(5, 13)}
PRIMES = ZetaAssignment(5, tuple(Fraction(v) for v in (2, 3, 5, 7, 11)), label="primes")


def frac(a, b=1):
    return Fraction(a, b)


def negative_fractional(n: int) -> ZetaAssignment:
    """Distinct values of both signs, none of them integers: -1/2, 4/3, -9/4, ..."""
    values = tuple(Fraction((-1) ** r * r * r, r + 1) for r in range(1, n + 1))
    return ZetaAssignment(n, values, label="negative-fractional")


def oracle_assignments(n: int) -> list[ZetaAssignment]:
    return [
        ZetaAssignment.consecutive(n),
        ZetaAssignment.random_distinct(n, 1000 + n),
        negative_fractional(n),
    ]


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


# ---------------------------------------------------------------------------
# move matrices
# ---------------------------------------------------------------------------

def test_pentagon_p_matrix_formulas_and_labels():
    """Quadrilateral 1234 flip: the 2x2 matrix of difference quotients."""
    move = PachnerMove(5, 5, (2, 4), (1, 3))
    for zeta in (CONSEC[5], PRIMES):
        z = zeta
        p, index_map = build_p_matrix(move, zeta)
        expected = DenseMatrix([
            [(z[2] - z[3]) / (z[2] - z[4]), (z[3] - z[4]) / (z[2] - z[4])],
            [(z[2] - z[1]) / (z[2] - z[4]), (z[1] - z[4]) / (z[2] - z[4])],
        ])
        assert p == expected
    assert index_map.row_pairs == (Pair(3, 5, 5), Pair(1, 5, 5))
    assert index_map.col_pairs == (Pair(4, 5, 5), Pair(2, 5, 5))


def test_pentagon_p_matrix_at_consecutive_values():
    p, _ = build_p_matrix(PachnerMove(5, 5, (2, 4), (1, 3)), CONSEC[5])
    assert p == DenseMatrix([[frac(1, 2), frac(1, 2)], [frac(-1, 2), frac(3, 2)]])


def test_hexagon_p_matrix_formulas():
    move = PachnerMove(6, 6, (1, 3), (2, 4, 5))
    z = CONSEC[6]
    p, index_map = build_p_matrix(move, z)
    expected = DenseMatrix([
        [(z[1] - z[5]) / (z[1] - z[3]), (z[5] - z[3]) / (z[1] - z[3])],
        [(z[1] - z[4]) / (z[1] - z[3]), (z[4] - z[3]) / (z[1] - z[3])],
        [(z[1] - z[2]) / (z[1] - z[3]), (z[2] - z[3]) / (z[1] - z[3])],
    ])
    assert p == expected
    assert [pr.simplex() for pr in index_map.row_pairs] == [
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 3, 4, 5)
    ]
    assert [pr.simplex() for pr in index_map.col_pairs] == [
        (1, 2, 4, 5), (2, 3, 4, 5)
    ]


def test_heptagon_p_entry():
    p, _ = build_p_matrix(PachnerMove(7, 7, (2, 4, 6), (1, 3, 5)), CONSEC[7])
    assert p[0, 0] == frac(3, 8)


def test_p_matrix_shapes():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for move in seq.moves:
                p, _ = build_p_matrix(move, CONSEC[n])
                if n % 2 == 1:
                    assert p.shape == ((n - 1) // 2, (n - 1) // 2)
                else:
                    assert p.shape == (n // 2, n // 2 - 1)


def test_p_matrix_row_sums_are_one():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for move in seq.moves:
                p, _ = build_p_matrix(move, CONSEC[n])
                assert all(s == 1 for s in p.row_sums())


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
                    p, _ = build_p_matrix(move, zeta)
                    for i in range(p.rows):
                        for j in range(p.cols):
                            assert p[i, j] == p_entry_vandermonde(
                                move, zeta, i + 1, j + 1
                            )


def test_odd_p_matrices_invertible():
    for n in (5, 7, 9, 11):
        for seq in equation_sequences(n):
            for move in seq.moves:
                p, _ = build_p_matrix(move, CONSEC[n])
                assert p.rank() == p.rows


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_extend_pentagon_first_step_keeps_fixed_triangle():
    t0 = initial_triangulation(5)
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    t1 = apply_move(t0, move)
    m = extend_matrix(move, t0, t1, CONSEC[5])
    assert m.shape == (3, 3)
    # triangle 123 is untouched and sits first in both orderings
    assert [m[0, j] for j in range(3)] == [1, 0, 0]
    assert all(s == 1 for s in m.row_sums())


def test_extend_hexagon_first_steps_fixed_rows():
    t0 = initial_triangulation(6)
    lhs_move = PachnerMove(6, 3, (4, 6), (1, 2, 5))
    m = extend_matrix(lhs_move, t0, apply_move(t0, lhs_move), CONSEC[6])
    assert m.shape == (4, 3)
    assert [m[0, j] for j in range(3)] == [1, 0, 0]  # 1234 fixed, first in both
    rhs_move = PachnerMove(6, 6, (3, 5), (1, 2, 4))
    m = extend_matrix(rhs_move, t0, apply_move(t0, rhs_move), CONSEC[6])
    assert m.shape == (4, 3)
    assert [m[1, j] for j in range(3)] == [0, 0, 1]  # 1256 fixed: row 2, col 3


def test_extend_with_no_fixed_simplices_is_p_up_to_ordering():
    move = PachnerMove(5, 5, (2, 4), (1, 3))
    t_old = Triangulation.from_pairs(5, move.removed_pairs())
    t_new = Triangulation.from_pairs(5, move.created_pairs())
    extended = extend_matrix(move, t_old, t_new, CONSEC[5])
    p, index_map = build_p_matrix(move, CONSEC[5])
    for i, rp in enumerate(index_map.row_pairs):
        for j, cp in enumerate(index_map.col_pairs):
            assert extended[t_new.pairs.index(rp), t_old.pairs.index(cp)] == p[i, j]


def test_extend_rejects_wrong_target():
    t0 = initial_triangulation(5)
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    with pytest.raises(InvalidInputError):
        extend_matrix(move, t0, t0, CONSEC[5])


def test_extended_row_sums_are_one_everywhere():
    for n in range(5, 13):
        for seq in equation_sequences(n):
            for m in extended_matrices(seq, CONSEC[n]):
                assert all(s == 1 for s in m.row_sums())


# ---------------------------------------------------------------------------
# side products
# ---------------------------------------------------------------------------

def test_product_shapes():
    lhs5, rhs5 = equation_sequences(5)
    assert product_for_side(lhs5, CONSEC[5]).shape == (3, 3)
    assert product_for_side(rhs5, CONSEC[5]).shape == (3, 3)
    lhs6, _ = equation_sequences(6)
    assert product_for_side(lhs6, CONSEC[6]).shape == (6, 3)


def test_factor_shapes_follow_simplex_counts():
    lhs6, _ = equation_sequences(6)
    shapes = [m.shape for m in extended_matrices(lhs6, CONSEC[6])]
    assert shapes == [(4, 3), (5, 4), (6, 5)]


def test_pentagon_products_agree():
    lhs, rhs = equation_sequences(5)
    assert product_for_side(lhs, CONSEC[5]) == product_for_side(rhs, CONSEC[5])


def test_product_of_a_sequence_not_ending_at_the_final_triangulation_is_internal_error():
    lhs, _ = equation_sequences(6)
    truncated = MoveSequence(6, "lhs", lhs.moves[:-1])
    with pytest.raises(InternalError):
        product_for_side(truncated, CONSEC[6])


def test_product_is_reversed_composition():
    """The product must equal fold-right of the factors: last move leftmost."""
    lhs, _ = equation_sequences(6)
    factors = extended_matrices(lhs, CONSEC[6])
    expected = factors[2].mul(factors[1]).mul(factors[0])
    assert product_for_side(lhs, CONSEC[6]) == expected


def test_path_shapes_match_product():
    for n in (5, 6, 7, 8):
        for seq in equation_sequences(n):
            path = triangulation_path(seq)
            product = product_for_side(seq, CONSEC[n])
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
                factors = extended_matrices(seq, zeta)
                assert factors == dense_factors(seq, zeta), (n, zeta.label, seq.side)
                assert product_for_side(seq, zeta) == dense_fold(factors), (n, zeta.label, seq.side)


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
    p, index_map = build_p_matrix(move, CONSEC[5])
    for i, created in enumerate(index_map.row_pairs):
        expected = tuple(
            sum((p[i, j] * rows[removed][k] for j, removed in enumerate(index_map.col_pairs)),
                frac(0))
            for k in range(3)
        )
        assert out[created] == expected
    for pair in set(t0.pairs) - set(move.removed_pairs()):
        assert out[pair] is rows[pair]


def test_act_on_rows_rejects_inapplicable_moves():
    move = PachnerMove(5, 2, (3, 5), (1, 4))
    removed = {pair: (frac(1),) for pair in move.removed_pairs()}
    with pytest.raises(MoveNotApplicableError):
        act_on_rows(move, CONSEC[5], {move.removed_pairs()[0]: (frac(1),)})
    with pytest.raises(MoveNotApplicableError):
        act_on_rows(move, CONSEC[5], {**removed, move.created_pairs()[0]: (frac(1),)})


RATIONALS = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.integers(min_value=-10**15, max_value=10**15).map(Fraction),
    st.fractions(max_denominator=10**9),
)


@st.composite
def distinct_assignments(draw):
    n = draw(st.integers(min_value=5, max_value=9))
    values = draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True))
    return ZetaAssignment(n, tuple(values), label="drawn")


@settings(max_examples=30, deadline=None, database=None)
@given(distinct_assignments())
def test_row_action_matches_dense_oracle_at_drawn_rationals(zeta):
    lhs, rhs = equation_sequences(zeta.n)
    lhs_product = product_for_side(lhs, zeta)
    assert lhs_product == dense_product(lhs, zeta)
    assert product_for_side(rhs, zeta) == dense_product(rhs, zeta)
    assert lhs_product == product_for_side(rhs, zeta)
