"""Heptagon reference data: the 3x3 move matrix and the rank-3 vector stack."""

from fractions import Fraction

import pytest

from ngoneq import (
    DenseMatrix,
    PachnerMove,
    Pair,
    ZetaAssignment,
    build_p_matrix,
    f_value,
    f_vector,
)
from goldens import (
    heptagon_closed_form_component,
    heptagon_m_matrix,
    heptagon_p_matrix,
)
from oracles import p_entry_vandermonde

ASSIGNMENTS = [
    ZetaAssignment.consecutive(7),
    ZetaAssignment(
        7, tuple(Fraction(v) for v in (2, 3, 5, 7, 11, 13, 17)), label="primes"
    ),
]

MOVE = PachnerMove(7, 7, (2, 4, 6), (1, 3, 5))


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_p_matrix_matches_vandermonde_ratio_table(zeta):
    built, index_map = build_p_matrix(MOVE, zeta)
    assert built == heptagon_p_matrix(zeta)
    assert built == DenseMatrix(
        [[p_entry_vandermonde(MOVE, zeta, i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    assert [p.simplex() for p in index_map.col_pairs] == [
        (1, 2, 3, 4, 5), (1, 2, 3, 5, 6), (1, 3, 4, 5, 6)
    ]
    assert [p.simplex() for p in index_map.row_pairs] == [
        (1, 2, 3, 4, 6), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6)
    ]


def test_p_matrix_frozen_values_at_consecutive():
    built, _ = build_p_matrix(MOVE, ZetaAssignment.consecutive(7))
    assert built == DenseMatrix([
        [Fraction(3, 8), Fraction(3, 4), Fraction(-1, 8)],
        [Fraction(-1, 8), Fraction(3, 4), Fraction(3, 8)],
        [Fraction(3, 8), Fraction(-5, 4), Fraction(15, 8)],
    ])


def test_p_matrix_invertible_with_unit_row_sums():
    built, _ = build_p_matrix(MOVE, ZetaAssignment.consecutive(7))
    assert built.rank() == built.rows
    assert all(s == 1 for s in built.row_sums())


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_vector_components_match_closed_form(zeta):
    """For seven vertices the component sum collapses to
    (4 z_i - sum of others) / prod of differences."""
    for head in (1, 3, 6):
        rest = [v for v in range(1, 8) if v != head][:4]
        assert f_value(7, head, rest, zeta) == heptagon_closed_form_component(
            zeta, head, *rest
        )


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_m_matrix_is_the_vector_stack_and_has_rank_3(zeta):
    """Row r of the 6x6 table is the invariant vector of the simplex omitting
    vertices r and 7, restricted to coordinates 1..6."""
    table = heptagon_m_matrix(zeta)
    stack = DenseMatrix([
        list(f_vector(7, Pair.of(7, r, 7), zeta).components)[:6] for r in range(1, 7)
    ])
    assert table == stack
    assert table.rank() == 3


@pytest.mark.parametrize("zeta", ASSIGNMENTS, ids=lambda z: z.label)
def test_move_action_on_the_displayed_stacks(zeta):
    """P maps the three stacked old vectors to the three stacked new ones."""
    built, index_map = build_p_matrix(MOVE, zeta)
    old = DenseMatrix(
        [list(f_vector(7, p, zeta).components) for p in index_map.col_pairs]
    )
    new = DenseMatrix(
        [list(f_vector(7, p, zeta).components) for p in index_map.row_pairs]
    )
    assert built.mul(old) == new
