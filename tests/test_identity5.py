"""Identity 5, steps 1, 2 and 4: the symmetric-polynomial family that the move matrices carry.

Let H(x, y) be symmetric of degree below m = floor((n-1)/2) in each variable; the family has
dimension m(m+1)/2 (``oracles.symmetric_family`` evaluates its basis at simplex pairs).
1. *Lagrange.* A move matrix is the Lagrange basis of its m-node b-set evaluated at its
   c-vertices, so it reproduces every polynomial of degree below m: it maps the family at the
   move's removed pairs to the family at its created pairs, and every extended matrix carries
   it from one triangulation to the next.
2. *Counting.* The initial triangulation has exactly m(m+1)/2 pairs, and V_init, the family at
   those pairs, has full rank.
4. *So* M V_init = V_final on each side, and M = V_final V_init^-1 at every tested point.
Step 3, det V_init = +-prod (z_a - z_b)^(e_ab), is not tested here; it is open (README).
"""

from fractions import Fraction
from operator import mul

import pytest

import ngoneq.pmatrix as pmatrix_module
import oracles
from ngoneq import (
    DenseMatrix, ZetaAssignment, equation_sequences, final_triangulation, initial_triangulation,
)
from ngoneq.pmatrix import side_columns, true_product, true_rows
from ngoneq.simplicial import move_size
from oracles import mixed_denominators, negative_fractional, symmetric_family


def _assignments(n):
    return (ZetaAssignment.consecutive(n), ZetaAssignment.random_distinct(n, 500 + n),
            negative_fractional(n), mixed_denominators(n))


def _moves_breaking_the_family(n, zeta):
    """The moves of both sides whose true move matrix (``move_matrices``, read out of the pair
    gauge by ``true_rows``) does not map the family at its removed pairs to the family at its
    created pairs. ``move_matrices`` is looked up in ``pmatrix`` at each call, so that
    ``oracles.tamper_move_matrices`` reaches it."""
    lhs, rhs = equation_sequences(n)
    matrices = pmatrix_module.move_matrices(lhs.moves + rhs.moves, zeta)
    breaking = []
    for move in lhs.moves + rhs.moves:
        removed = symmetric_family(zeta, move.removed_pairs)
        created = symmetric_family(zeta, move.created_pairs)
        for (numerators, e), want in zip(true_rows(move, matrices[move], zeta), created):
            weights = [Fraction(x, e) for x in numerators]
            got = tuple(sum(w * row[k] for w, row in zip(weights, removed))
                        for k in range(len(want)))
            if got != want:
                breaking.append(move)
                break
    return breaking


@pytest.mark.parametrize("n", range(5, 17))
def test_every_move_matrix_carries_the_symmetric_family(n):
    """Step 1, on both sides, at the four ζ kinds."""
    for zeta in _assignments(n):
        assert _moves_breaking_the_family(n, zeta) == [], zeta.label


def _double_a_numerator_of(monkeypatch, move):
    """Double numerator (0, 0) of ``move``'s matrix, in that move's view only
    (``oracles.tamper_move_matrices``); returns the tampered moves seen."""

    def change(m, p):
        if m != move:
            return p
        rows, weights = p
        return ((tuple(2 * x if j == 0 else x for j, x in enumerate(rows[0])),) + rows[1:],
                weights)

    return oracles.tamper_move_matrices(monkeypatch, change)


@pytest.mark.parametrize("n", [5, 8, 11])
def test_a_tampered_move_matrix_breaks_the_family(monkeypatch, n):
    """Negative control for step 1: one numerator of the last rhs move doubled, in that move's
    view only, and that move alone fails."""
    move = equation_sequences(n)[1].moves[-1]
    seen = _double_a_numerator_of(monkeypatch, move)
    zeta = negative_fractional(n)
    assert _moves_breaking_the_family(n, zeta) == [move]
    assert seen == [move]


@pytest.mark.parametrize("n", [*range(5, 17), 20, 30, 40, 60])
def test_the_initial_triangulation_has_as_many_pairs_as_the_family_dimension(n):
    """Step 2, the count: |T_init| = m(m+1)/2, so V_init is square."""
    m, pairs = move_size(n), initial_triangulation(n).pairs
    assert len(pairs) == m * (m + 1) // 2
    assert len(symmetric_family(ZetaAssignment.consecutive(n), pairs[:1])[0]) == len(pairs)


@pytest.mark.parametrize("n", range(5, 17))
def test_the_family_at_the_initial_pairs_has_full_rank(n):
    """Step 2, the rank: V_init is nonsingular at the four ζ kinds."""
    m = move_size(n)
    for zeta in _assignments(n):
        v_init = symmetric_family(zeta, initial_triangulation(n).pairs)
        assert len(v_init[0]) == len(v_init) == m * (m + 1) // 2, zeta.label
        assert DenseMatrix(v_init).rank() == len(v_init), zeta.label


def _inverse(rows):
    """The inverse of a nonsingular square matrix of rationals, by Gauss-Jordan over Fraction."""
    size = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(size)]
            for i, row in enumerate(rows)]
    for c in range(size):
        pivot = next(i for i in range(c, size) if work[i][c])
        work[c], work[pivot] = work[pivot], work[c]
        work[c] = [x / work[c][c] for x in work[c]]
        for i in range(size):
            if i != c and work[i][c]:
                work[i] = [x - work[i][c] * y for x, y in zip(work[i], work[c])]
    return [row[size:] for row in work]


def _sides_equal_the_closed_form(n, zeta):
    """Whether each side's true product (``side_columns`` read through ``true_product``), over
    the matrices ``move_matrices`` builds, looked up in ``pmatrix`` so that
    ``oracles.tamper_move_matrices`` reaches it, is V_final V_init^-1: (lhs, rhs)."""
    lhs, rhs = equation_sequences(n)
    matrices = pmatrix_module.move_matrices(lhs.moves + rhs.moves, zeta)
    inverse = _inverse(symmetric_family(zeta, initial_triangulation(n).pairs))
    want = [[sum(map(mul, row, column)) for column in zip(*inverse)]
            for row in symmetric_family(zeta, final_triangulation(n).pairs)]
    return tuple([[Fraction(*entry) for entry in row] for row in true_product(
        side_columns(seq, matrices), seq.path[-1].pairs, seq.path[0].pairs, zeta)] == want
                 for seq in (lhs, rhs))


@pytest.mark.parametrize("n", range(5, 13))
def test_both_sides_are_the_closed_form(n):
    """Step 4: both true side products are V_final V_init^-1, at the four ζ kinds."""
    for zeta in _assignments(n):
        assert _sides_equal_the_closed_form(n, zeta) == (True, True), zeta.label


@pytest.mark.parametrize("n", [5, 8, 11])
def test_a_tampered_move_matrix_breaks_the_closed_form(monkeypatch, n):
    """Negative control for step 4: one numerator of the last rhs move doubled, in that move's
    view only, and the rhs alone is no longer V_final V_init^-1."""
    move = equation_sequences(n)[1].moves[-1]
    seen = _double_a_numerator_of(monkeypatch, move)
    assert _sides_equal_the_closed_form(n, negative_fractional(n)) == (True, False)
    assert seen == [move]
