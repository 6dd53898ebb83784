import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngoneq.exactfield as exactfield_module
from ngoneq import (
    DenseMatrix,
    InvalidInputError,
    ZetaAssignment,
    rat_from_string,
    verify_equation,
)
from ngoneq.exactfield import rank, same_rows
from oracles import (
    fraction_rank, identity, int_row, rat_row, transpose, vandermonde, with_entry, zeros,
)


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
        assert str(rat_from_string(text)) == text


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


@pytest.mark.parametrize(
    "bad", [True, False, 2.0, "2", Decimal(2), Decimal("0.5")], ids=repr
)
def test_assignment_accepts_only_int_and_fraction_values(bad):
    """A bool would verify and print as "True"; a float, str or Decimal would pass the
    constructor and fail later in ``deltas`` or ``integral``."""
    values = [Fraction(v) for v in (7, 8, 9, 10, 11)]
    values[1] = bad
    with pytest.raises(InvalidInputError, match="is not an int or a Fraction"):
        ZetaAssignment(5, tuple(values))


def test_assignment_of_int_values_verifies():
    zeta = ZetaAssignment(6, (1, 2, 3, 4, 5, 6))
    report = verify_equation(6, zeta)
    assert report.equal and report == verify_equation(6, ZetaAssignment.consecutive(6))
    assert ZetaAssignment(5, (-3, Fraction(1, 2), 0, 4, 9)).to_strings() == [
        "-3", "1/2", "0", "4", "9"
    ]
    assert verify_equation(5, ZetaAssignment(5, (-3, Fraction(1, 2), 0, 4, 9))).equal


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


def test_assignment_random_distinct_rejects_more_values_than_the_range(monkeypatch):
    for n in (10**6 + 1, 0, -3):
        with pytest.raises(InvalidInputError, match="distinct values from 1..1000000"):
            ZetaAssignment.random_distinct(n, 1)
    monkeypatch.setattr(exactfield_module, "RANDOM_VALUE_RANGE", (1, 5))
    assert sorted(ZetaAssignment.random_distinct(5, 1).values) == [1, 2, 3, 4, 5]
    with pytest.raises(InvalidInputError, match="cannot draw 6 distinct values from 1..5"):
        ZetaAssignment.random_distinct(6, 1)


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

def test_matrix_keeps_fraction_entries_and_converts_the_rest():
    half = Fraction(1, 2)
    m = DenseMatrix([[half, 3]])
    assert m[0, 0] is half
    assert type(m[0, 1]) is Fraction and m[0, 1] == 3


def test_mat_mul_identity_both_sides():
    rng = random.Random(1)
    m = random_matrix(rng, 3, 4)
    assert identity(3).mul(m) == m
    assert m.mul(identity(4)) == m


def test_mat_mul_row_sum_example():
    half = Fraction(1, 2)
    p = DenseMatrix([[half, half], [-half, Fraction(3, 2)]])
    ones = DenseMatrix([[1], [1]])
    assert p.mul(ones) == ones


def test_mat_mul_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        zeros(2, 3).mul(zeros(2, 3))


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
    assert zeros(2, 2) != zeros(3, 3)
    assert m != with_entry(m, 1, 2, m[1, 2] + 1)


def test_mat_rank_trivial_cases():
    assert zeros(3, 5).rank() == 0
    assert identity(4).rank() == 4


def test_mat_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(12):
        # products of thin factors give rank-deficient cases too
        a = random_matrix(rng, rng.randint(2, 5), rng.randint(1, 3))
        b = random_matrix(rng, a.cols, rng.randint(2, 5))
        m = a.mul(b)
        assert m.rank() == transpose(m).rank()
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


def deficient_matrix(rng, rows, cols):
    """A random matrix with rank-deficient structure: some rows are zero, some
    are combinations of earlier rows, and some columns are zero or copies of
    an earlier column, so elimination meets columns with no pivot."""
    entries = [
        [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7])) for _ in range(cols)]
        for _ in range(rows)
    ]
    for i in range(rows):
        kind = rng.random()
        if kind < 0.15:
            entries[i] = [Fraction(0)] * cols
        elif kind < 0.5 and i >= 2:
            a, b = rng.sample(range(i), 2)
            x, y = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
            entries[i] = [x * u + y * v for u, v in zip(entries[a], entries[b])]
    for j in range(cols):
        kind = rng.random()
        if kind < 0.2:
            for row in entries:
                row[j] = Fraction(0)
        elif kind < 0.4 and j >= 1:
            src = rng.randrange(j)
            for row in entries:
                row[j] = 2 * row[src]
    return entries


def test_rank_matches_fraction_elimination_oracle():
    """Bareiss rank equals Gaussian elimination over Fraction on 300 seeded
    matrices up to 9x9: generic, rank-deficient, with zero rows, and with zero
    or repeated columns that are skipped without a pivot."""
    rng = random.Random(2024)
    deficient = 0
    for trial in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if trial % 3 == 0:
            m = random_matrix(rng, rows, cols)
        else:
            m = DenseMatrix(deficient_matrix(rng, rows, cols))
        want = fraction_rank(m)
        assert m.rank() == want, m
        assert rank([int_row(row)[0] for row in m.entries]) == want, m
        deficient += want < min(rows, cols)
    assert deficient >= 100


def test_rank_with_large_entries_and_skipped_leading_columns():
    """A zero first column, a pivot-free column in the middle, and entries
    near 10^6 and 1/10^6, where exact division by the previous pivot matters."""
    big = [
        [0, 999_983, 0, Fraction(1, 999_979), 7],
        [0, 3, 0, 5, Fraction(-2, 3)],
        [0, 999_986, 0, 5 + Fraction(1, 999_979), Fraction(19, 3)],
        [0, 0, 0, 0, 0],
        [0, 1, 0, Fraction(1, 2), 10**6],
    ]
    m = DenseMatrix(big)
    assert m.rank() == fraction_rank(m) == 3
    assert transpose(m).rank() == 3


def test_assignment_integral_flag_is_taken_once_and_leaves_equality_alone():
    z = ZetaAssignment(3, (Fraction(-1, 2), Fraction(2, 3), Fraction(5)))
    same = ZetaAssignment(3, z.values, label="other")
    assert not z.integral and ZetaAssignment(3, (Fraction(-1), 2, Fraction(9, 3))).integral
    assert "integral" in vars(z)  # cached on first read
    assert z.deltas == ((0, -7, -11), (7, 0, -13), (11, 13, 0))
    assert z == same and hash(z) == hash(same)


_INT_ROWS = st.tuples(
    st.lists(st.integers(-10**9, 10**9), min_size=3, max_size=3).map(tuple),
    st.integers(1, 10**9),
)


@settings(max_examples=300, deadline=None, database=None)
@given(_INT_ROWS, _INT_ROWS, st.integers(1, 10**6), st.integers(0, 2), st.integers(-2, 2))
def test_same_rows_is_fraction_equality(a, b, k, j, change):
    """same_rows(a, b) holds exactly when the rows hold the same Fractions: for two drawn
    rows, for a row against itself scaled by a common factor k (in lowest terms or not),
    and for a row against a copy with one entry changed (unchanged when change == 0),
    over the same and over a scaled denominator."""
    (v, d), (w, e) = a, b
    scaled = (tuple([k * x for x in v]), k * d)
    changed = (v[:j] + (v[j] + change,) + v[j + 1:], d)
    changed_scaled = (tuple([k * x for x in changed[0]]), k * d)
    same_denominator = (w, d)
    whole, whole_scaled = (w, 1), (tuple([k * x for x in w]), k)  # e = 1, and d = 1
    whole_changed = (tuple([k * x for x in w[:j] + (w[j] + change,) + w[j + 1:]]), k)
    for x, y in [(a, b), (a, same_denominator), (a, scaled), (scaled, a), (a, changed),
                 (changed, a), (scaled, changed), (a, changed_scaled), (a, whole),
                 (whole, a), (whole_scaled, whole), (whole, whole_scaled),
                 (whole_changed, whole), (whole, whole_changed)]:
        assert same_rows(x, y) == (rat_row(x) == rat_row(y)), (x, y)
    assert same_rows(a, scaled) and same_rows(scaled, changed_scaled) == (change == 0)
    assert same_rows(whole_scaled, whole) and same_rows(whole, whole_scaled)
    assert same_rows(whole_changed, whole) == same_rows(whole, whole_changed) == (change == 0)

