"""The independence certificate: agreement with the Bareiss-rank oracles, two
tampered Gale tables it must reject, its rank count, the m x m block that decides
each q-stack rank and the full-rank fallback, and the theorem it rests on; the
initial-stack certificate (the rows through n first, when every row is orthogonal),
which needs no fallback for n = 5..40, and its full-rank fallback on two tampered
tables; and a tampered move matrix that the move action must reject."""

from fractions import Fraction
from math import comb, inf, prod

import pytest

import sys

from ngoneq import (
    Pair,
    ZetaAssignment,
    equation_sequences,
    gale_table,
    initial_triangulation,
)
import ngoneq.fvectors as fvectors_module
import ngoneq.pmatrix as pmatrix_module
import ngoneq.verifier as verifier_module
import oracles
from ngoneq.verifier import (
    SuiteContext,
    _prop_independence,
    _prop_initial_stack_rank,
    _prop_orthogonality,
    verify_with_properties,
)
from ngoneq.exactfield import rank
from ngoneq.simplicial import move_size
from oracles import (
    f_vector_table,
    fraction_det,
    fvector_property_suite,
    gale_vectors,
    max_stack_rank,
    mixed_denominators,
    negative_fractional,
    oracle_assignments,
    pair_of,
    sampled_independence,
    vandermonde,
)


def _context(n, zeta, rows=None):
    """A suite context carrying only what independence reads."""
    return SuiteContext(n, zeta, None, {}, rows or gale_table(n, zeta))


@pytest.mark.parametrize("n", range(5, 11))
def test_certificate_agrees_with_every_choice(n):
    for zeta in (
        ZetaAssignment.consecutive(n),
        ZetaAssignment.random_distinct(n, 7),
        negative_fractional(n),
    ):
        ctx = _context(n, zeta)
        result = _prop_independence(ctx)
        assert result == sampled_independence(ctx, sample=inf), zeta.label
        assert result.passed


@pytest.mark.parametrize("n", range(11, 17))
def test_certificate_agrees_with_the_sampled_oracle(n):
    zetas = [ZetaAssignment.consecutive(n), negative_fractional(n)]
    if n <= 12:
        zetas.append(ZetaAssignment.random_distinct(n, 7))
    for zeta in zetas:
        ctx = _context(n, zeta)
        result = _prop_independence(ctx)
        assert result == sampled_independence(ctx), zeta.label
        assert result.passed


def _combination_table(monkeypatch, n):
    """The Gale table at consecutive values with the row of the third pair of the first
    choice the oracle checks replaced by the first row plus twice the second: three
    pairs (1, v) of the q = 1 stack."""
    zeta = ZetaAssignment.consecutive(n)
    rows = gale_table(n, zeta)
    checked = []
    with monkeypatch.context() as m:  # records the first choice, then stops the oracle
        m.setattr(SuiteContext, "stack_rank", lambda self, pairs: checked.append(list(pairs)))
        sampled_independence(_context(n, zeta, rows))
    first, second, third = checked[0][:3]
    rows[third] = tuple([a + 2 * b for a, b in zip(rows[first], rows[second])])
    return zeta, rows


def _changed_component_table(n):
    """The Gale table at negative fractional values with component 1 of pair (2, 4) plus 1."""
    zeta = negative_fractional(n)
    rows = gale_table(n, zeta)
    pair = Pair(2, 4, n)
    rows[pair] = (rows[pair][0] + 1,) + rows[pair][1:]
    return zeta, rows


@pytest.mark.parametrize("n", range(7, 11))
def test_a_vector_replaced_by_a_combination_fails_both(monkeypatch, n):
    """Replace the Gale row of the third pair of the first choice the oracle checks
    by a combination of the first two: that choice is rank deficient, each row is
    still orthogonal, and the stack's columns are no longer values of one
    polynomial of degree below m."""
    ctx = _context(n, *_combination_table(monkeypatch, n))
    assert not sampled_independence(ctx).passed
    assert _prop_orthogonality(ctx).passed
    assert _prop_independence(ctx).detail == "q=1 rows or columns not orthogonal"


@pytest.mark.parametrize("n", range(5, 11))
def test_one_changed_component_fails_the_certificate_and_orthogonality(n):
    ctx = _context(n, *_changed_component_table(n))
    assert _prop_independence(ctx).detail == "q=2 rows or columns not orthogonal"
    assert not _prop_orthogonality(ctx).passed


def _full_stack_ranks(ctx):
    """The Bareiss rank of every q-stack, its n - 1 rows read from the table."""
    n = ctx.n
    return tuple(
        rank([ctx.rows[pair_of(n, q, v)] for v in range(1, n + 1) if v != q])
        for q in range(1, n + 1)
    )


@pytest.mark.parametrize("n", range(5, 17))
def test_stack_ranks_equal_the_full_ranks(n):
    """The block certificate gives each q-stack's full rank, m, on correct tables."""
    for zeta in [*oracle_assignments(n), mixed_denominators(n)]:
        ctx = _context(n, zeta)
        assert ctx.stack_ranks == _full_stack_ranks(ctx) == (move_size(n),) * n, zeta.label


@pytest.mark.parametrize("n", range(7, 11))
def test_stack_ranks_fall_back_to_the_full_rank_on_tampered_tables(monkeypatch, n):
    """A row that fails orthogonality (pair (2, 4)) skips the block of the q = 2 and
    q = 4 stacks. The combination row keeps every row orthogonal and zero at q = 1, and
    where it lies among the first m rows (n = 7, 8: the oracle's first choice is
    (0, 1, 2)) it makes the block singular. Either way the full rank of the n - 1 rows
    decides, and every stack rank equals the full rank."""
    m, calls = move_size(n), []
    combination, changed = _combination_table(monkeypatch, n), _changed_component_table(n)
    real = verifier_module.rank
    monkeypatch.setattr(verifier_module, "rank", lambda rows: calls.append(len(rows)) or real(rows))
    ctx = _context(n, *combination)
    assert ctx.stack_ranks == _full_stack_ranks(ctx)
    if n <= 8:
        assert calls[:2] == [m, n - 1]
    calls.clear()
    ctx = _context(n, *changed)
    assert ctx.stack_ranks == _full_stack_ranks(ctx)
    assert calls[:4] == [m, n - 1, m, n - 1]


def _suites_on_table(monkeypatch, n, zeta, rows):
    """The suite of verify_with_properties with ``rows`` in place of the Gale table, and
    fvector_property_suite with the Fraction view of ``rows`` in place of its vectors."""
    sequences = equation_sequences(n)
    for module in (verifier_module, fvectors_module):
        monkeypatch.setattr(module, "gale_table", lambda n, zeta: rows)
    vectors = gale_vectors(n, zeta, rows)
    monkeypatch.setattr(oracles, "f_value_vector", lambda n, pair, zeta: vectors[pair])
    suite = verify_with_properties(n, zeta).properties
    return suite, fvector_property_suite(n, zeta, sequences)


def _initial_stack_rank_calls(monkeypatch, n, zeta, rows):
    """The initial-stack property on ``rows`` and the sizes of the ranks it takes."""
    calls, real = [], verifier_module.rank
    monkeypatch.setattr(verifier_module, "rank", lambda rows: calls.append(len(rows)) or real(rows))
    ctx = SuiteContext(n, zeta, equation_sequences(n), {}, rows)
    return _prop_initial_stack_rank(ctx), calls


@pytest.mark.parametrize("n", range(5, 11))
def test_initial_stack_rank_falls_back_on_a_dependent_prefix(monkeypatch, n):
    """The third initial row replaced by the sum of the first two stays orthogonal, so
    the pairs through n, then the first pair avoiding n, are ranked, are rank deficient,
    and the full rank of all rows decides: the suite then reads as the FVector oracle
    on the same table."""
    zeta = negative_fractional(n)
    rows, pairs = gale_table(n, zeta), initial_triangulation(n).pairs
    want = min(len(pairs), max_stack_rank(n))
    rows[pairs[2]] = tuple([a + b for a, b in zip(rows[pairs[0]], rows[pairs[1]])])
    with monkeypatch.context() as m:
        result, calls = _initial_stack_rank_calls(m, n, zeta, rows)
    assert calls == [want, len(pairs)]
    suite, oracle = _suites_on_table(monkeypatch, n, zeta, rows)
    assert suite == oracle
    assert suite[-1] == result
    assert result.passed == (len(pairs) > want)


@pytest.mark.parametrize("n", range(5, 11))
def test_initial_stack_rank_falls_back_on_a_non_orthogonal_row(monkeypatch, n):
    """With one component of the first initial row changed, that row is not orthogonal,
    the prefix bound does not hold, and only the full rank of all rows is taken."""
    zeta = ZetaAssignment.random_distinct(n, 7)
    rows, pairs = gale_table(n, zeta), initial_triangulation(n).pairs
    rows[pairs[0]] = (rows[pairs[0]][0] + 1,) + rows[pairs[0]][1:]
    with monkeypatch.context() as m:
        result, calls = _initial_stack_rank_calls(m, n, zeta, rows)
    assert calls == [len(pairs)]
    suite, oracle = _suites_on_table(monkeypatch, n, zeta, rows)
    assert suite == oracle
    assert suite[-1] == result
    assert not suite[1].passed  # orthogonality


@pytest.mark.parametrize("seeded", [False, True], ids=["consecutive", "seed7"])
@pytest.mark.parametrize("n", range(5, 41))
def test_initial_stack_certificate_needs_no_fallback(monkeypatch, n, seeded):
    """The want rows the certificate ranks, the initial pairs through n and then the first
    pair avoiding n, are independent at every n tried, so the full rank of all initial rows is
    never taken; at consecutive values the first want rows fall short from n = 25 on. The rows
    are Gale rows, orthogonal by Identity 1 and checked so above up to n = 16; that check is
    taken as given here (it alone takes about 1 s at seeded n = 40)."""
    zeta = ZetaAssignment.random_distinct(n, 7) if seeded else ZetaAssignment.consecutive(n)
    table, pairs = gale_table(n, zeta), initial_triangulation(n).pairs
    rows, want = {pair: table[pair] for pair in pairs}, max_stack_rank(n)
    calls, real = [], verifier_module.rank
    monkeypatch.setattr(verifier_module, "rank", lambda rows: calls.append(len(rows)) or real(rows))
    ctx = SuiteContext(n, zeta, equation_sequences(n), {}, rows)
    ctx.orthogonal = dict.fromkeys(pairs, True)
    assert _prop_initial_stack_rank(ctx) == ("initial_stack_rank", True, f"rank {want}")
    assert calls == [want]
    if not seeded:
        assert (real([rows[pair] for pair in pairs[:want]]) == want) == (n < 25)


def _tamper_one_move_matrix(monkeypatch, target):
    """Add the column weight W_0 to numerator (0, 0) of the target move's matrix, so
    entry (0, 0) grows by exactly 1, in that move's view alone, wherever in the package
    move_matrices is looked up from; returns the tampered moves seen."""

    def change(move, p):
        rows, weights = p
        if move != target:
            return p
        return ((rows[0][0] + weights[0],) + rows[0][1:],) + rows[1:], weights

    return oracles.tamper_move_matrices(monkeypatch, change)


@pytest.mark.parametrize("n", [5, 8, 9])
def test_a_tampered_move_matrix_fails_the_move_action(monkeypatch, n):
    """Negative control for the move action on Gale rows: with one entry of one move
    matrix changed, verify_with_properties, where the side products and the suite share
    the matrix, reports that move."""
    zeta = negative_fractional(n)
    _, rhs = equation_sequences(n)
    move = rhs.moves[-1]
    seen = _tamper_one_move_matrix(monkeypatch, move)
    report = verify_with_properties(n, zeta)
    assert not report.equal
    results = {r.name: r for r in report.properties}
    assert results["move_action"].detail == f"rhs {move.label()}"
    assert not results["move_action"].passed
    assert seen == [move]


def test_a_deficient_stack_reports_the_first_choice(monkeypatch):
    """With every row and column orthogonal, a stack rank below m means every
    m-choice is deficient; the detail names the first."""
    monkeypatch.setattr(SuiteContext, "stack_ranks", (4, 4, 3, 4, 4, 4, 4, 4, 4))
    assert _prop_independence(_context(9, ZetaAssignment.consecutive(9))).detail == (
        "q=3 choice [0,1,2,3] rank deficient"
    )


def test_suite_takes_n_plus_one_ranks(monkeypatch):
    """One rank per q-stack, of its m x m block, shared by independence and span rank,
    and one for the initial stack, of its first rows."""
    calls = []
    real = verifier_module.rank

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(verifier_module, "rank", counting)
    for n in (5, 8, 11):
        calls.clear()
        results = verify_with_properties(n, ZetaAssignment.random_distinct(n, 7)).properties
        assert all(r.passed for r in results)
        assert len(calls) == n + 1
        assert calls[:n] == [move_size(n)] * n  # each q-stack decided by its m x m block
        assert calls[n] == max_stack_rank(n)  # the initial stack by its first rows


def det_c(n: int) -> int:
    """det C of Identity 2 in closed form: nonzero binomials only."""
    m, r = (n - 1) // 2, n - 3 - n // 2
    return (
        (-1) ** (m * (m - 1) // 2)
        * comb(n - 2, r)
        * prod([-comb(n - 2 - b, m - 1 - b) for b in range(1, m)])
    )


@pytest.mark.parametrize("n", range(5, 15))
def test_q_stack_factors_through_a_constant_nonsingular_matrix(n):
    """With q = n, T = [n-1] and mu_w = 1 / prod_{y in T, y != w} (z_w - z_y),
    W[v, w] / mu_w = (V_rows C^T V_cols^T)[v, w] for Vandermonde matrices V of
    degree below m: det C, a constant, follows from one m x m block."""
    m = (n - 1) // 2
    others = list(range(1, n))
    rows, cols = others[:m], others[m : 2 * m]
    for zeta in (ZetaAssignment.random_distinct(n, 3), negative_fractional(n)):
        vectors = f_vector_table(n, zeta)
        mu = {w: 1 / prod([zeta[w] - zeta[y] for y in others if y != w]) for w in cols}
        phi = [[vectors[Pair(v, n, n)][w] / mu[w] for w in cols] for v in rows]
        got = fraction_det(phi) / (vandermonde(rows, zeta) * vandermonde(cols, zeta))
        assert got == Fraction(det_c(n)), zeta.label


def test_det_c_starts_as_computed_and_never_vanishes():
    assert [det_c(n) for n in range(5, 12)] == [1, 1, -20, -30, -1575, -3528, 592704]
    assert all(det_c(n) for n in range(5, 201))
