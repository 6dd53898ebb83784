import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from ngoneq import (
    DenseMatrix,
    InvalidInputError,
    ZetaAssignment,
    rat_from_string,
    rat_to_string,
)
from oracles import vandermonde


def brute_force_det(matrix):
    """Cofactor expansion along the first row; independent of the library."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * brute_force_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def moment_determinant(indices, zeta):
    """Determinant of the matrix with columns (1, z_a, z_a^2, ...) in the given
    column order, computed by brute force."""
    k = len(indices)
    return brute_force_det([[zeta[a] ** p for a in indices] for p in range(k)])


def random_matrix(rng, rows, cols):
    return DenseMatrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


# ---------------------------------------------------------------------------
# rational wire format
# ---------------------------------------------------------------------------

def test_rat_round_trip():
    for text in ["-3/2", "6", "0", "7/3", "-1"]:
        assert rat_to_string(rat_from_string(text)) == text


def test_rat_from_string_rejects_junk():
    for text in [
        "", "1/0", "a/b", "1.5",
        "1_0", "1/2_0", "\u0661", "\uff11/2", "1/ 2", "1 /2", "1/-2", "1/2/3", "+", "0x10",
    ]:
        with pytest.raises(InvalidInputError):
            rat_from_string(text)


def test_rat_from_string_accepts_signs_and_surrounding_space():
    assert rat_from_string(" +3/4\n") == Fraction(3, 4)
    assert rat_from_string("-0012") == -12
    assert rat_from_string("-0/5") == 0


def test_rat_normalized_to_lowest_terms():
    value = rat_from_string("6/4")
    assert (value.numerator, value.denominator) == (3, 2)


# ---------------------------------------------------------------------------
# assignments
# ---------------------------------------------------------------------------

def test_assignment_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        ZetaAssignment(6, tuple(Fraction(v) for v in (1, 1, 3, 4, 5, 6)))


def test_assignment_consecutive_and_indexing():
    zeta = ZetaAssignment.consecutive(7)
    assert zeta[1] == 1 and zeta[7] == 7
    with pytest.raises(InvalidInputError):
        zeta[0]
    with pytest.raises(InvalidInputError):
        zeta[8]


def test_assignment_random_distinct_is_seeded_and_distinct():
    a = ZetaAssignment.random_distinct(12, 42)
    b = ZetaAssignment.random_distinct(12, 42)
    c = ZetaAssignment.random_distinct(12, 43)
    assert a.values == b.values
    assert a.values != c.values
    assert len(set(a.values)) == 12
    assert all(1 <= v <= 10**6 for v in a.values)


# ---------------------------------------------------------------------------
# vandermonde
# ---------------------------------------------------------------------------

def test_vandermonde_singleton_is_one():
    zeta = ZetaAssignment.consecutive(8)
    assert vandermonde([7], zeta) == 1


def test_vandermonde_column_swap_antisymmetry():
    zeta = ZetaAssignment.consecutive(5)
    assert vandermonde([2, 1], zeta) == -vandermonde([1, 2], zeta)


def test_vandermonde_sorted_product_example():
    zeta = ZetaAssignment.consecutive(5)
    assert vandermonde([2, 4, 5], zeta) == Fraction(6)  # (4-2)(5-2)(5-4)


def test_vandermonde_matches_brute_force_determinant():
    """All column orders of all index sets of size <= 5 out of 6 vertices."""
    for zeta in (ZetaAssignment.consecutive(6), ZetaAssignment.random_distinct(6, 5)):
        for size in range(1, 6):
            for subset in combinations(range(1, 7), size):
                for order in permutations(subset):
                    assert vandermonde(list(order), zeta) == moment_determinant(
                        order, zeta
                    )


def test_vandermonde_rejects_bad_indices():
    zeta = ZetaAssignment.consecutive(5)
    with pytest.raises(InvalidInputError):
        vandermonde([1, 1], zeta)
    with pytest.raises(InvalidInputError):
        vandermonde([1, 6], zeta)
    with pytest.raises(InvalidInputError):
        vandermonde([], zeta)


def test_vandermonde_never_zero_on_distinct_indices():
    zeta = ZetaAssignment.random_distinct(6, 9)
    for subset in combinations(range(1, 7), 3):
        assert vandermonde(list(subset), zeta) != 0


# ---------------------------------------------------------------------------
# matrix operations
# ---------------------------------------------------------------------------

def test_mat_mul_identity_both_sides():
    rng = random.Random(1)
    m = random_matrix(rng, 3, 4)
    assert DenseMatrix.identity(3).mul(m) == m
    assert m.mul(DenseMatrix.identity(4)) == m


def test_mat_mul_row_sum_example():
    half = Fraction(1, 2)
    p = DenseMatrix([[half, half], [-half, Fraction(3, 2)]])
    ones = DenseMatrix([[1], [1]])
    assert p.mul(ones) == ones


def test_mat_mul_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        DenseMatrix.zeros(2, 3).mul(DenseMatrix.zeros(2, 3))


def test_mat_mul_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, a.cols, rng.randint(1, 4))
        c = random_matrix(rng, b.cols, rng.randint(1, 4))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_mat_eq_basics():
    rng = random.Random(3)
    m = random_matrix(rng, 3, 3)
    assert m == m
    assert DenseMatrix.zeros(2, 2) != DenseMatrix.zeros(3, 3)
    assert m != m.with_entry(1, 2, m[1, 2] + 1)


def test_mat_rank_trivial_cases():
    assert DenseMatrix.zeros(3, 5).rank() == 0
    assert DenseMatrix.identity(4).rank() == 4


def test_mat_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(12):
        # products of thin factors give rank-deficient cases too
        a = random_matrix(rng, rng.randint(2, 5), rng.randint(1, 3))
        b = random_matrix(rng, a.cols, rng.randint(2, 5))
        m = a.mul(b)
        assert m.rank() == m.transpose().rank()
        assert m.rank() <= a.cols


def largest_nonzero_minor(entries):
    """Size of the largest square submatrix with nonzero brute-force determinant."""
    rows, cols = len(entries), len(entries[0])
    for k in range(min(rows, cols), 0, -1):
        for picked_rows in combinations(range(rows), k):
            for picked_cols in combinations(range(cols), k):
                minor = [[entries[r][c] for c in picked_cols] for r in picked_rows]
                if brute_force_det(minor) != 0:
                    return k
    return 0


def check_rank_against_minors(seed, deficient):
    """20 seeded matrices up to 4x4. With ``deficient`` each one repeats a row
    and has at least as many columns as rows, so it is certainly singular."""
    rng = random.Random(seed)
    for _ in range(20):
        rows = rng.randint(2 if deficient else 1, 4)
        cols = rng.randint(rows if deficient else 1, 4)
        entries = [list(r) for r in random_matrix(rng, rows, cols).entries]
        if deficient:
            src, dst = rng.sample(range(rows), 2)
            entries[dst] = list(entries[src])
        rank = DenseMatrix(entries).rank()
        assert rank == largest_nonzero_minor(entries), entries
        assert rank < rows or not deficient


def test_det_matches_brute_force():
    """rank() equals the largest minor with nonzero brute-force determinant,
    so rank() == rows is an exact nonsingularity test."""
    check_rank_against_minors(13, deficient=False)


def test_det_zero_for_singular():
    """On matrices with a repeated row rank() still equals the largest nonzero
    minor and falls short of the row count."""
    m = DenseMatrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert brute_force_det([list(r) for r in m.entries]) == 0
    assert m.rank() == 1
    check_rank_against_minors(14, deficient=True)


def test_matrix_latex_entries():
    m = DenseMatrix([[Fraction(-3, 2), Fraction(6)]])
    tex = m.to_latex()
    assert "-\\frac{3}{2}" in tex and "6" in tex
    assert tex.startswith("\\left(\\begin{array}{cc}")
