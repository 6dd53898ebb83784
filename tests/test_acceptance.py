"""Acceptance suite: one test per criterion, every comparison exact (zero
tolerance). Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.
"""

import time
from fractions import Fraction
from itertools import combinations

from ngoneq import (
    DenseMatrix,
    PachnerMove,
    Pair,
    ZetaAssignment,
    check_move_action,
    equation_sequences,
    final_triangulation,
    gale_table,
    initial_triangulation,
    verify_equation,
)
from ngoneq.simplicial import move_size
from goldens import (
    HEXAGON_LHS_PATH,
    HEXAGON_RHS_PATH,
    HEXAGON_TRIANGULATIONS,
    PENTAGON_MIDDLE_PERMUTATION,
    heptagon_m_matrix,
    heptagon_p_matrix,
    hexagon_lhs_factors,
    hexagon_rhs_factors,
    pentagon_lhs_factors,
    pentagon_rhs_factors,
    permute_cols,
    permute_rows,
)
from oracles import (
    build_p_matrix,
    check_orthogonality,
    dense_fold,
    f_vector_table,
    factors_view,
    int_p_matrix,
    pair_of,
    product_view,
    row_sums,
    stack_f_matrix,
    with_entry,
)

ALL_N = range(5, 13)
RANDOM_SEEDS = (101, 202, 303)


def consecutive(n: int) -> ZetaAssignment:
    return ZetaAssignment.consecutive(n)


def second_assignment(n: int) -> ZetaAssignment:
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    return ZetaAssignment(n, tuple(Fraction(v) for v in primes[:n]), label="primes")


def test_criterion_01_equation_verifies_for_all_n():
    """LHS and RHS products agree entrywise for n = 5..12 at the consecutive
    assignment and at three seeded random ones, within 60 s single-threaded."""
    start = time.perf_counter()
    for n in ALL_N:
        assignments = [consecutive(n)] + [
            ZetaAssignment.random_distinct(n, seed) for seed in RANDOM_SEEDS
        ]
        for zeta in assignments:
            report = verify_equation(n, zeta)
            assert report.equal, (n, zeta.label)
            assert report.shape == (
                len(final_triangulation(n)),
                len(initial_triangulation(n)),
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"verification took {elapsed:.1f}s"


def test_criterion_02_pentagon_golden_identity():
    """The five reference 3x3 factors match the constructed extended matrices
    entrywise at two assignments, and their products reproduce the identity."""
    lhs, rhs = equation_sequences(5)
    for zeta in (consecutive(5), second_assignment(5)):
        built_lhs = factors_view(lhs, zeta)
        built_rhs = factors_view(rhs, zeta)
        gl = pentagon_lhs_factors(zeta)
        gr = pentagon_rhs_factors(zeta)
        perm = PENTAGON_MIDDLE_PERMUTATION
        assert built_lhs[1] == gl[0] and built_lhs[0] == gl[1]
        assert built_rhs[2] == gr[0]
        assert permute_cols(built_rhs[1], perm) == gr[1]
        assert permute_rows(built_rhs[0], perm) == gr[2]
        two_factor = gl[0].mul(gl[1])
        three_factor = gr[0].mul(gr[1]).mul(gr[2])
        assert two_factor == three_factor
        assert two_factor == product_view(lhs, zeta)


def test_criterion_03_hexagon_golden_identity():
    """The six triangulations match the reference list exactly (as ordered
    simplex lists) and the six factors (6x5, 5x4, 4x3 per side) match the
    constructed extended matrices entrywise."""
    lhs, rhs = equation_sequences(6)
    lhs_steps = [t.simplices() for t in lhs.path]
    rhs_steps = [t.simplices() for t in rhs.path]
    reference = [[tuple(s) for s in item] for item in HEXAGON_TRIANGULATIONS]
    assert lhs_steps == [reference[k] for k in HEXAGON_LHS_PATH]
    assert rhs_steps == [reference[k] for k in HEXAGON_RHS_PATH]
    for zeta in (consecutive(6), second_assignment(6)):
        built_lhs = factors_view(lhs, zeta)
        built_rhs = factors_view(rhs, zeta)
        gl = hexagon_lhs_factors(zeta)
        gr = hexagon_rhs_factors(zeta)
        assert [m.shape for m in gl] == [(6, 5), (5, 4), (4, 3)]
        assert [m.shape for m in gr] == [(6, 5), (5, 4), (4, 3)]
        assert built_lhs == [gl[2], gl[1], gl[0]]
        assert built_rhs == [gr[2], gr[1], gr[0]]


def test_criterion_04_heptagon_golden_matrix_and_rank():
    """The 3x3 heptagon move matrix matches its Vandermonde-ratio table and
    the 6x6 vector stack has exact rank 3 at the consecutive assignment."""
    move_matrix = build_p_matrix(
        PachnerMove(7, 7, (2, 4, 6), (1, 3, 5)), consecutive(7)
    )
    assert move_matrix == heptagon_p_matrix(consecutive(7))
    assert move_matrix == DenseMatrix([
        [Fraction(3, 8), Fraction(3, 4), Fraction(-1, 8)],
        [Fraction(-1, 8), Fraction(3, 4), Fraction(3, 8)],
        [Fraction(3, 8), Fraction(-5, 4), Fraction(15, 8)],
    ])
    assert heptagon_m_matrix(consecutive(7)).rank() == 3


def test_criterion_05_row_sums_are_exactly_one():
    """Every move matrix and extended matrix in both sequences, n <= 12."""
    bad = []
    for n in ALL_N:
        zeta = consecutive(n)
        for seq in equation_sequences(n):
            for move, extended in zip(seq.moves, factors_view(seq, zeta)):
                p = build_p_matrix(move, zeta)
                for label, matrix in (("P", p), ("extended", extended)):
                    if any(s != 1 for s in row_sums(matrix)):
                        bad.append((n, seq.side, move.label(), label))
    assert not bad, bad


def test_criterion_06_orthogonality_for_all_pairs():
    """sum_r f_r z_r^m = 0 exactly for m = 0..floor(n/2)-1, all pairs, n = 5..12,
    checked on each vector's Gale row."""
    bad = []
    for n in ALL_N:
        zeta = consecutive(n)
        rows = gale_table(n, zeta)
        for i, j in combinations(range(1, n + 1), 2):
            if not check_orthogonality(rows[Pair(i, j, n)], zeta):
                bad.append((n, i, j))
    assert not bad, bad


def test_criterion_07_move_action_for_all_moves():
    """P x stacked old vectors = stacked new vectors exactly, every move of
    both sequences, n <= 10, checked on the vectors' Gale rows."""
    bad = []
    for n in range(5, 11):
        zeta = consecutive(n)
        table = gale_table(n, zeta)
        for seq in equation_sequences(n):
            for move in seq.moves:
                if not check_move_action(move, int_p_matrix(move, zeta), table, zeta):
                    bad.append((n, seq.side, move.label()))
    assert not bad, bad


def test_criterion_08a_initial_stack_rank_formula():
    """Initial-stack rank equals floor((n-1)/2)(floor((n-1)/2)+1)/2 for
    n = 5..12.

    Note: the orthogonality of criterion 6 confines every vector to a
    subspace of dimension n - floor(n/2), so for n >= 7 the stack rank is
    capped below this formula; the criterion is kept as stated and the
    measured ranks are reported in the failure message.
    """
    mismatches = []
    for n in ALL_N:
        m = move_size(n)
        claimed = m * (m + 1) // 2
        measured = stack_f_matrix(initial_triangulation(n), consecutive(n)).rank()
        if measured != claimed:
            mismatches.append(f"n={n}: rank {measured}, formula {claimed}")
    assert not mismatches, "; ".join(mismatches)


def test_criterion_08b_fixed_vertex_stack_rank():
    """For every omitted vertex q, the stack of all n-1 vectors supported away
    from q has exact rank floor((n-1)/2), n = 5..12."""
    bad = []
    for n in ALL_N:
        vectors = f_vector_table(n, consecutive(n))
        for q in range(1, n + 1):
            stack = DenseMatrix([
                list(vectors[pair_of(n, q, v)].components)
                for v in range(1, n + 1)
                if v != q
            ])
            if stack.rank() != move_size(n):
                bad.append((n, q, stack.rank()))
    assert not bad, bad


EXPECTED_SUBSCRIPTS = {
    5: (
        [(2, (3, 5)), (4, (2, 5))],
        [(5, (2, 4)), (3, (2, 5)), (1, (3, 5))],
    ),
    6: (
        [(3, (4, 6)), (5, (3, 6)), (1, (3, 5))],
        [(6, (3, 5)), (4, (3, 6)), (2, (4, 6))],
    ),
    7: (
        [(2, (3, 5, 7)), (4, (2, 5, 7)), (6, (2, 4, 7))],
        [(7, (2, 4, 6)), (5, (2, 4, 7)), (3, (2, 5, 7)), (1, (3, 5, 7))],
    ),
    8: (
        [(3, (4, 6, 8)), (5, (3, 6, 8)), (7, (3, 5, 8)), (1, (3, 5, 7))],
        [(8, (3, 5, 7)), (6, (3, 5, 8)), (4, (3, 6, 8)), (2, (4, 6, 8))],
    ),
}


def test_criterion_09_sequence_fidelity():
    """Derived move subscripts reproduce the printed ones for n = 5, 6, 7, 8,
    and both sequences map the initial triangulation to the final one."""
    for n, (expected_lhs, expected_rhs) in EXPECTED_SUBSCRIPTS.items():
        lhs, rhs = equation_sequences(n)
        assert [(m.q, m.b_set) for m in lhs.moves] == expected_lhs, n
        assert [(m.q, m.b_set) for m in rhs.moves] == expected_rhs, n
    for n in ALL_N:
        for seq in equation_sequences(n):
            path = seq.path
            assert path[0] == initial_triangulation(n)
            assert path[-1] == final_triangulation(n)


def test_criterion_10_negative_control():
    """Perturbing any single factor entry by +1 before multiplying breaks the
    equality for n = 5 and n = 6 (guards against a vacuous comparison)."""
    for n in (5, 6):
        zeta = consecutive(n)
        lhs, rhs = equation_sequences(n)
        factors = {
            "lhs": factors_view(lhs, zeta),
            "rhs": factors_view(rhs, zeta),
        }
        products = {side: dense_fold(mats) for side, mats in factors.items()}
        assert products["lhs"] == products["rhs"]
        for side, mats in factors.items():
            other = products["rhs" if side == "lhs" else "lhs"]
            for k, matrix in enumerate(mats):
                for i in range(matrix.rows):
                    for j in range(matrix.cols):
                        tampered = list(mats)
                        tampered[k] = with_entry(matrix, i, j, matrix[i, j] + 1)
                        assert dense_fold(tampered) != other, (n, side, k, i, j)
