import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngoneq import (
    InvalidInputError,
    PachnerMove,
    Pair,
    ZetaAssignment,
    check_move_action,
    equation_sequences,
    gale_table,
    initial_triangulation,
)
from ngoneq.fvectors import annihilates, power_weights, vector_rows
from oracles import (
    check_orthogonality,
    cleared_gale_table,
    cleared_row,
    deletion_gale_table,
    distinct_assignments,
    f_value,
    f_value_vector,
    f_vector,
    f_vector_table,
    g_value,
    gale_column_scales,
    gale_polynomial,
    gale_vectors,
    int_p_matrix,
    int_row,
    lagrange_orthogonality,
    max_stack_rank,
    mixed_denominators,
    negative_fractional,
    oracle_assignments,
    pair_of,
    stack_f_matrix,
    subset_sum_f_value,
    triangulation_from_pairs,
    window_rows,
)

CONSEC = {n: ZetaAssignment.consecutive(n) for n in range(5, 13)}


def frac(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# g and f scalars
# ---------------------------------------------------------------------------

def test_g_value_examples():
    z = CONSEC[5]
    assert g_value(1, [2, 3], z) == frac(1, 2)
    assert g_value(2, [1, 3], z) == frac(-1)


def test_g_value_symmetric_in_rest():
    z = ZetaAssignment.random_distinct(6, 2)
    for order in permutations([2, 4, 5, 6]):
        assert g_value(3, list(order), z) == g_value(3, [2, 4, 5, 6], z)


def test_g_value_rejects_repeats():
    with pytest.raises(InvalidInputError):
        g_value(1, [1, 2], CONSEC[5])
    with pytest.raises(InvalidInputError):
        g_value(1, [2, 2], CONSEC[5])


def test_g_family_annihilates_power_sums():
    """For a vertex set S of size s, the values g(v, S minus v) satisfy
    sum_v g_v * z_v^m = 0 for m = 0..s-2; these are the family sizes the
    subset sums of f_value draw on for ambient sizes up to 12."""
    z = CONSEC[12]
    rng = random.Random(23)
    for s in range(3, 8):
        for _ in range(3):
            vertices = sorted(rng.sample(range(1, 13), s))
            for m in range(s - 1):
                total = sum(
                    g_value(v, [w for w in vertices if w != v], z) * z[v] ** m
                    for v in vertices
                )
                assert total == 0, (vertices, m)


def test_f_reduces_to_g_for_n5_and_n6():
    """floor(n/2) equals n-3 for n = 5, 6, so the subset sum has one term."""
    z5, z6 = CONSEC[5], CONSEC[6]
    assert f_value(5, 1, [2, 3], z5) == g_value(1, [2, 3], z5)
    assert f_value(6, 1, [2, 3, 4], z6) == g_value(1, [2, 3, 4], z6)
    assert f_value(6, 1, [2, 3, 4], z6) == frac(-1, 6)


def test_f_n7_is_sum_of_g_over_omissions():
    z = CONSEC[7]
    rest = [2, 3, 4, 5]
    expected = sum(
        g_value(1, [r for r in rest if r != omit], z) for omit in rest
    )
    assert f_value(7, 1, rest, z) == expected


def test_f_value_validates_rest_length():
    with pytest.raises(InvalidInputError):
        f_value(7, 1, [2, 3, 4], CONSEC[7])


def test_f_value_rejects_repeats():
    with pytest.raises(InvalidInputError):
        f_value(7, 1, [1, 2, 3, 4], CONSEC[7])
    with pytest.raises(InvalidInputError):
        f_value(7, 1, [2, 2, 3, 4], CONSEC[7])


def test_f_value_recurrence_matches_subset_sums():
    """The e_k recurrence equals the subset-sum definition, n = 5..12, at
    consecutive, seeded and negative-fractional assignments: every vertex as
    head, with the n-3 vertices after it and the n-3 before it (cyclically)."""
    for n in range(5, 13):
        for zeta in oracle_assignments(n):
            for head in range(1, n + 1):
                for step in (1, -1):
                    rest = [(head - 1 + step * k) % n + 1 for k in range(1, n - 2)]
                    assert f_value(n, head, rest, zeta) == subset_sum_f_value(
                        n, head, rest, zeta
                    ), (n, zeta.label, head, rest)


@pytest.mark.parametrize("assignment", [negative_fractional, mixed_denominators])
def test_f_value_matches_subset_sums_at_non_integer_values(assignment):
    """Non-integer values make the scale s of u = s * z differ from 1, so the
    s^k factor of the integer recurrence is exercised; n = 5..12, every head."""
    for n in range(5, 13):
        zeta = assignment(n)
        for head in range(1, n + 1):
            rest = [(head - 1 + k) % n + 1 for k in range(2, n - 1)]
            assert f_value(n, head, rest, zeta) == subset_sum_f_value(n, head, rest, zeta), (
                n, head, rest,
            )


def test_f_value_rejects_n_below_five():
    with pytest.raises(InvalidInputError):
        f_value(4, 1, [2], ZetaAssignment.consecutive(4))


@settings(max_examples=30, deadline=None, database=None)
@given(distinct_assignments(max_n=12), st.data())
def test_f_value_recurrence_matches_subset_sums_at_drawn_rationals(zeta, data):
    n = zeta.n
    head = data.draw(st.integers(min_value=1, max_value=n))
    others = [v for v in range(1, n + 1) if v != head]
    rest = data.draw(st.permutations(others))[: n - 3]
    assert f_value(n, head, rest, zeta) == subset_sum_f_value(n, head, rest, zeta)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_pentagon_vector_of_triangle_123():
    v = f_vector(5, Pair(4, 5, 5), CONSEC[5])
    assert v.components == (frac(1, 2), frac(-1), frac(1, 2), frac(0), frac(0))
    assert sum(v.components) == 0


def test_hexagon_vector_matches_reciprocal_products():
    z = CONSEC[6]
    v = f_vector(6, Pair(5, 6, 6), z)
    for vertex in (1, 2, 3, 4):
        others = [w for w in (1, 2, 3, 4) if w != vertex]
        expected = 1 / (
            (z[vertex] - z[others[0]])
            * (z[vertex] - z[others[1]])
            * (z[vertex] - z[others[2]])
        )
        assert v[vertex] == expected
    assert v[5] == 0 and v[6] == 0


def test_vector_zero_positions_match_pair():
    """The two omitted vertices carry exact zeros. On-simplex components may
    vanish accidentally at symmetric assignments, so only nonzero-overall is
    asserted there."""
    for n in (5, 8, 11):
        for i, j in ((1, 2), (2, n), (n - 1, n)):
            v = f_vector(n, Pair(i, j, n), CONSEC[n])
            assert v[i] == 0 and v[j] == 0
            assert any(v[w] != 0 for w in range(1, n + 1))


def test_orthogonality_all_pairs_small_n():
    for n in (5, 6, 7, 8):
        z = CONSEC[n]
        rows = gale_table(n, z)
        for i, j in combinations(range(1, n + 1), 2):
            assert check_orthogonality(rows[Pair(i, j, n)], z)


def test_orthogonality_trivial_vectors():
    z = CONSEC[5]
    assert check_orthogonality((0,) * 5, z)
    assert not check_orthogonality((1, 0, 0, 0, 0), z)


def _perturbed(row, changes):
    out = list(row)
    for vertex, delta in changes.items():
        out[vertex - 1] += delta
    return tuple(out)


@pytest.mark.parametrize("n", range(5, 13))
@pytest.mark.parametrize("make", [negative_fractional, mixed_denominators])
def test_orthogonality_over_integer_rows_at_non_integer_values(n, make):
    """Every true row passes at values with denominators s != 1. One perturbed
    component breaks t = 0; moving weight c_b to vertex a and -c_a to vertex b
    (c = row 0 of ``power_weights``) keeps t = 0 and breaks t = 1, where the values enter."""
    z = make(n)
    c = power_weights(z)[0][0]
    for pair, row in gale_table(n, z).items():
        assert check_orthogonality(row, z), pair
        a, b = pair.simplex()[:2]
        assert not check_orthogonality(_perturbed(row, {a: 1}), z), pair
        assert not check_orthogonality(_perturbed(row, {a: c[b - 1], b: -c[a - 1]}), z), pair


@pytest.mark.parametrize("n", range(5, 17))
def test_orthogonality_table_agrees_with_the_lagrange_oracle(n):
    """The dot products with the rows of ``power_weights`` decide as the Lagrange-weight
    formula with every power taken afresh: true on every Gale row and on every q-stack
    column Delta_vq q_v^(r+1) G'_qv(w), false on every row with one component changed."""
    r = n - 3 - n // 2
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        delta, rows = zeta.deltas, gale_table(n, zeta)
        fold = [[d * x.denominator ** (r + 1) for d in column]
                for x, column in zip(zeta.values, delta)]
        cases = [(row, True) for row in rows.values()]
        cases += [(_perturbed(row, {pair.simplex()[0]: 1}), False) for pair, row in rows.items()]
        for q in range(1, n + 1):
            stack = [
                [fold[v - 1][q - 1] * a for a in rows[pair_of(n, q, v)]] if v != q else [0] * n
                for v in range(1, n + 1)
            ]
            cases += [(column, True) for column in zip(*stack)]
        for row, want in cases:
            assert check_orthogonality(row, zeta) == lagrange_orthogonality(row, zeta) == want


@pytest.mark.parametrize("n", range(5, 17))
def test_window_rows_decide_orthogonality_as_the_power_weights(n):
    """A row has zero dot product with the k = floor(n/2) window rows (``window_rows``: one per
    window of n - k + 1 consecutive vertices) iff it has with the rows of ``power_weights``:
    every Gale row, and two tampered copies of each, one component changed (breaks t = 0) and
    weight c_b moved to vertex a and -c_a to vertex b (keeps t = 0, breaks t = 1)."""
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        windows, (weights, _) = window_rows(zeta), power_weights(zeta)
        c, outcomes = weights[0], []
        for pair, row in gale_table(n, zeta).items():
            a, b = pair.simplex()[:2]
            tampered = _perturbed(row, {a: 1}), _perturbed(row, {a: c[b - 1], b: -c[a - 1]})
            for case in (row, *tampered):
                outcomes.append(annihilates(windows, case))
                assert outcomes[-1] == annihilates(weights, case), (zeta.label, pair, case)
        assert outcomes.count(True) == len(outcomes) // 3, zeta.label


def test_vector_row_is_the_cleared_components_and_leaves_equality_alone():
    """The oracle's cleared integer row of a vector (the row the suite read
    before it read Gale rows) round-trips to its components."""
    z = mixed_denominators(7)
    v = f_vector(7, Pair(2, 5, 7), z)
    numerators, d = cleared_row(v)
    assert tuple(Fraction(x, d) for x in numerators) == v.components
    assert v == f_vector(7, Pair(2, 5, 7), z) == f_value_vector(7, Pair(2, 5, 7), z)


# ---------------------------------------------------------------------------
# the Gale form (Identity 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 17))
def test_gale_form_equals_the_defining_vectors(n):
    """Identity 1 in homogeneous form: the table's rows are G'_ij(w) = g_ij(z_w) c_w,
    c_w = q_w^(r+3) prod_{x != w} q_x, zero at i and j (checked as G' s^(r+2) = c_w g_ij(u_w)
    on the Gale polynomial at u = s z), and lambda_w g_ij(z_w), lambda_w =
    1 / prod_{y != w} (z_w - z_y), equals the defining component exactly, at consecutive,
    seeded, negative-fractional and mixed-denominator values. Every component matches the
    f_value recurrence and the vectors over u = s z (the oracle ``f_vector_table``), and up
    to n = 12 those of the pairs (1, 2) and (1, n) also match the subset sums. Row 0 of
    ``power_weights`` over its top is Lambda, q_w^(k-1) / L_w, L_w = prod_{y != w} Delta_wy,
    and ``vector_rows`` are the oracle's vectors."""
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        (u, _), (scales, t) = int_row(zeta.values), gale_column_scales(zeta)
        vectors, table = f_vector_table(n, zeta), gale_table(n, zeta)
        homogeneous = gale_vectors(n, zeta, table)
        (weights, *_), top = power_weights(zeta)
        pq = [(x.numerator, x.denominator) for x in zeta.values]
        lam = [Fraction(q ** (n // 2 - 1), prod([p * b - a * q for a, b in pq if a * q != p * b]))
               for p, q in pq]
        assert [Fraction(x, top) for x in weights] == lam, zeta.label
        got = [tuple([Fraction(*x) for x in row]) for row in vector_rows(n, zeta, list(table))]
        assert got == [vectors[pair].components for pair in table], zeta.label
        for pair, row in table.items():
            assert row[pair.i - 1] == row[pair.j - 1] == 0
            for w in pair.simplex():  # g_ij(u_w) = t g_ij(z_w)
                g = gale_polynomial(n, pair.i, pair.j, u[w - 1], u)
                assert row[w - 1] * t == scales[w - 1] * g
                got = homogeneous[pair][w]
                rest = [x for x in pair.simplex() if x != w]
                assert got == f_value(n, w, rest, zeta) == vectors[pair][w], (zeta.label, pair, w)
                if n <= 12 and pair in (Pair(1, 2, n), Pair(1, n, n)):
                    assert got == subset_sum_f_value(n, w, rest, zeta), (zeta.label, pair, w)
            assert gale_polynomial(n, pair.i, pair.j, zeta[pair.i], zeta.values) == 0


def test_gale_table_holds_every_pair_in_order():
    for n in (5, 8):
        rows = gale_table(n, ZetaAssignment.random_distinct(n, 4))
        assert list(rows) == [Pair(i, j, n) for i, j in combinations(range(1, n + 1), 2)]
        assert all(type(row) is tuple and len(row) == n for row in rows.values())


@pytest.mark.parametrize("n", range(5, 17))
def test_gale_table_agrees_with_the_deletion_oracle(n):
    """Over u = s z, the difference form d_i d_j (E_i - E_j) / (u_i - u_j) gives the table
    the two deletions per component gave, entry for entry and in the same pair order; the
    homogeneous table is that table column by column, G'_ij(w) s^(r+2) = G_ij(w) c_w, and
    at integral values the same table entry for entry."""
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        rows, cleared = gale_table(n, zeta), cleared_gale_table(n, zeta)
        assert list(cleared.items()) == list(deletion_gale_table(n, zeta).items()), zeta.label
        assert list(rows) == list(cleared)
        if zeta.integral:
            assert rows == cleared, zeta.label
        scales, t = gale_column_scales(zeta)
        for pair, row in rows.items():
            assert [x * t for x in row] == list(map(mul, cleared[pair], scales)), zeta.label


def test_gale_table_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        gale_table(4, ZetaAssignment.consecutive(4))
    with pytest.raises(InvalidInputError):
        gale_table(6, CONSEC[5])


# ---------------------------------------------------------------------------
# stacks and ranks
# ---------------------------------------------------------------------------

def test_stack_shape_and_single_row_rank():
    z = CONSEC[5]
    t = triangulation_from_pairs(5, [Pair(4, 5, 5)])
    stack = stack_f_matrix(t, z)
    assert stack.shape == (1, 5)
    assert stack.rank() == 1


def test_initial_stack_ranks():
    """The stacked vectors always achieve the largest rank the orthogonality
    constraints allow: min(row count, n - floor(n/2)). For n >= 7 the row
    count exceeds that ceiling, so the stack cannot have full row rank."""
    expected = {5: 3, 6: 3, 7: 4, 8: 4, 9: 5, 10: 5, 11: 6, 12: 6}
    for n in range(5, 13):
        t = initial_triangulation(n)
        rank = stack_f_matrix(t, CONSEC[n]).rank()
        assert rank == expected[n]
        assert rank == min(len(t), max_stack_rank(n))


# ---------------------------------------------------------------------------
# move action
# ---------------------------------------------------------------------------

def test_pentagon_move_action_explicit():
    """The quadrilateral-1234 move matrix maps the stacked vectors of 123 and
    134 to those of 124 and 234, and so their Gale rows too."""
    from ngoneq import DenseMatrix
    from oracles import build_p_matrix

    z = CONSEC[5]
    move = PachnerMove(5, 5, (2, 4), (1, 3))
    p = build_p_matrix(move, z)
    assert [pr.simplex() for pr in move.removed_pairs] == [(1, 2, 3), (1, 3, 4)]
    assert [pr.simplex() for pr in move.created_pairs] == [(1, 2, 4), (2, 3, 4)]
    old = DenseMatrix([
        list(f_vector(5, Pair(4, 5, 5), z).components),
        list(f_vector(5, Pair(2, 5, 5), z).components),
    ])
    new = DenseMatrix([
        list(f_vector(5, Pair(3, 5, 5), z).components),
        list(f_vector(5, Pair(1, 5, 5), z).components),
    ])
    assert p.mul(old) == new
    rows = gale_table(5, z)
    assert p.mul(DenseMatrix([rows[Pair(4, 5, 5)], rows[Pair(2, 5, 5)]])) == DenseMatrix(
        [rows[Pair(3, 5, 5)], rows[Pair(1, 5, 5)]]
    )
    assert check_move_action(move, int_p_matrix(move, z), rows, z)


def test_hexagon_and_heptagon_move_action():
    rows6, rows7 = gale_table(6, CONSEC[6]), gale_table(7, CONSEC[7])
    move6, move7 = PachnerMove(6, 6, (1, 3), (2, 4, 5)), PachnerMove(7, 7, (2, 4, 6), (1, 3, 5))
    assert check_move_action(move6, int_p_matrix(move6, CONSEC[6]), rows6, CONSEC[6])
    assert check_move_action(move7, int_p_matrix(move7, CONSEC[7]), rows7, CONSEC[7])


def test_move_action_along_sequences():
    for n in (5, 6, 7, 8):
        rows = gale_table(n, CONSEC[n])
        for seq in equation_sequences(n):
            for move in seq.moves:
                assert check_move_action(move, int_p_matrix(move, CONSEC[n]), rows, CONSEC[n])


def test_move_action_at_random_assignment():
    z = ZetaAssignment.random_distinct(6, 31)
    rows = gale_table(6, z)
    for seq in equation_sequences(6):
        for move in seq.moves:
            assert check_move_action(move, int_p_matrix(move, z), rows, z)


def test_move_action_detects_a_wrong_created_vector():
    z = CONSEC[6]
    move = PachnerMove(6, 6, (1, 3), (2, 4, 5))
    rows = gale_table(6, z)
    created = move.created_pairs[0]
    rows[created] = _perturbed(rows[created], {1: 1})
    assert not check_move_action(move, int_p_matrix(move, z), rows, z)


@pytest.mark.parametrize("make", [negative_fractional, mixed_denominators])
def test_move_action_detects_a_wrong_created_vector_at_fractional_values(make):
    """At fractional values the true table passes every move, and a created row
    that is doubled (the acted row is reduced, so only its numerators differ) or
    perturbed in one component fails."""
    for n in (6, 7):
        z = make(n)
        rows = gale_table(n, z)
        for seq in equation_sequences(n):
            for move in seq.moves:
                assert check_move_action(move, int_p_matrix(move, z), rows, z)
        move = equation_sequences(n)[0].moves[0]
        created = move.created_pairs[-1]
        row = rows[created]
        for wrong in (tuple(2 * x for x in row), _perturbed(row, {created.simplex()[0]: 1})):
            assert not check_move_action(move, int_p_matrix(move, z), {**rows, created: wrong}, z)


def test_f_vector_table_holds_every_pair_in_order():
    for n in (5, 8):
        z = ZetaAssignment.random_distinct(n, 4)
        table = f_vector_table(n, z)
        assert list(table) == [Pair(i, j, n) for i, j in combinations(range(1, n + 1), 2)]
        assert all(v == f_value_vector(n, pair, z) for pair, v in table.items())
