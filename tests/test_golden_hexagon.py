"""Hexagon reference data: the six triangulations and six extended factors."""

from fractions import Fraction

import pytest

from ngoneq import (
    ZetaAssignment,
    equation_sequences,
)
from goldens import (
    HEXAGON_LHS_PATH,
    HEXAGON_RHS_PATH,
    HEXAGON_TRIANGULATIONS,
    hexagon_lhs_factors,
    hexagon_rhs_factors,
)
from oracles import factors_view, product_view

ASSIGNMENTS = [
    ZetaAssignment.consecutive(6),
    ZetaAssignment(6, tuple(Fraction(v) for v in (2, 3, 5, 7, 11, 13)), label="primes"),
]


def test_paths_visit_the_six_reference_triangulations_in_order():
    lhs, rhs = equation_sequences(6)
    lhs_steps = [t.simplices() for t in lhs.path]
    rhs_steps = [t.simplices() for t in rhs.path]
    assert lhs_steps == [
        [tuple(s) for s in HEXAGON_TRIANGULATIONS[k]] for k in HEXAGON_LHS_PATH
    ]
    assert rhs_steps == [
        [tuple(s) for s in HEXAGON_TRIANGULATIONS[k]] for k in HEXAGON_RHS_PATH
    ]


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_lhs_factors_match_reference(zeta):
    lhs, _ = equation_sequences(6)
    built = factors_view(lhs, zeta)
    golden = hexagon_lhs_factors(zeta)  # leftmost = last applied
    assert [m.shape for m in golden] == [(6, 5), (5, 4), (4, 3)]
    assert built[2] == golden[0]
    assert built[1] == golden[1]
    assert built[0] == golden[2]


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_rhs_factors_match_reference(zeta):
    _, rhs = equation_sequences(6)
    built = factors_view(rhs, zeta)
    golden = hexagon_rhs_factors(zeta)
    assert [m.shape for m in golden] == [(6, 5), (5, 4), (4, 3)]
    assert built[2] == golden[0]
    assert built[1] == golden[1]
    assert built[0] == golden[2]


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_factor_products_agree(zeta):
    lhs, rhs = equation_sequences(6)
    l1, l2, l3 = hexagon_lhs_factors(zeta)
    r1, r2, r3 = hexagon_rhs_factors(zeta)
    lhs_product = l1.mul(l2).mul(l3)
    rhs_product = r1.mul(r2).mul(r3)
    assert lhs_product.shape == (6, 3)
    assert lhs_product == rhs_product
    assert lhs_product == product_view(lhs, zeta)
    assert rhs_product == product_view(rhs, zeta)
