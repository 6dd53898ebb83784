"""Pentagon reference data: the five extended 3x3 factors and their products."""

from fractions import Fraction

import pytest

from ngoneq import (
    DenseMatrix,
    ZetaAssignment,
    equation_sequences,
)
from goldens import (
    PENTAGON_MIDDLE_PERMUTATION,
    pentagon_lhs_factors,
    pentagon_lhs_factors_as_tabulated,
    pentagon_rhs_factors,
    permute_cols,
    permute_rows,
)
from oracles import factors_view, product_view, row_sums, transpose

ASSIGNMENTS = [
    ZetaAssignment.consecutive(5),
    ZetaAssignment(5, tuple(Fraction(v) for v in (2, 3, 5, 7, 11)), label="primes"),
]


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_lhs_factors_match_reference(zeta):
    lhs, _ = equation_sequences(5)
    built = factors_view(lhs, zeta)
    golden = pentagon_lhs_factors(zeta)  # leftmost factor = last applied
    assert built[1] == golden[0]
    assert built[0] == golden[1]


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_tabulated_lhs_factors_are_transposed(zeta):
    """The tabulated left-side factors are the transposes of the constructed
    ones; their rows as printed do not sum to 1, so the transposed orientation
    is the only one consistent with the row-sum normalization."""
    lhs, _ = equation_sequences(5)
    built = factors_view(lhs, zeta)
    tabulated = pentagon_lhs_factors_as_tabulated(zeta)
    assert transpose(built[1]) == tabulated[0]
    assert transpose(built[0]) == tabulated[1]
    assert any(s != 1 for s in row_sums(tabulated[0]))
    assert all(s == 1 for s in row_sums(transpose(tabulated[0])))


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_rhs_factors_match_reference(zeta):
    """Leftmost reference factor belongs to the last-applied move; the trailing
    two factors carry the tabulated (124, 234, 145) ordering of the middle
    triangulation, which is a row/column permutation of canonical order."""
    _, rhs = equation_sequences(5)
    built = factors_view(rhs, zeta)
    golden = pentagon_rhs_factors(zeta)
    perm = PENTAGON_MIDDLE_PERMUTATION
    assert built[2] == golden[0]
    assert permute_cols(built[1], perm) == golden[1]
    assert permute_rows(built[0], perm) == golden[2]


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_two_and_three_factor_products_agree(zeta):
    """Multiplying the reference factors reproduces both side products."""
    lhs, rhs = equation_sequences(5)
    l1, l2 = pentagon_lhs_factors(zeta)
    r1, r2, r3 = pentagon_rhs_factors(zeta)
    lhs_product = l1.mul(l2)
    rhs_product = r1.mul(r2).mul(r3)
    assert lhs_product == rhs_product
    assert lhs_product == product_view(lhs, zeta)
    assert rhs_product == product_view(rhs, zeta)


def test_pentagon_paths_visit_reference_triangulations():
    lhs, rhs = equation_sequences(5)
    lhs_steps = [t.simplices() for t in lhs.path]
    assert lhs_steps == [
        [(1, 2, 3), (1, 3, 4), (1, 4, 5)],
        [(1, 2, 3), (1, 3, 5), (3, 4, 5)],
        [(1, 2, 5), (2, 3, 5), (3, 4, 5)],
    ]
    rhs_steps = [t.simplices() for t in rhs.path]
    assert rhs_steps == [
        [(1, 2, 3), (1, 3, 4), (1, 4, 5)],
        [(1, 2, 4), (1, 4, 5), (2, 3, 4)],
        [(1, 2, 5), (2, 3, 4), (2, 4, 5)],
        [(1, 2, 5), (2, 3, 5), (3, 4, 5)],
    ]


def test_pentagon_product_value_at_consecutive():
    lhs, _ = equation_sequences(5)
    assert product_view(lhs, ZetaAssignment.consecutive(5)) == DenseMatrix([
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
        [Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)],
        [Fraction(0), Fraction(-1), Fraction(2)],
    ])
