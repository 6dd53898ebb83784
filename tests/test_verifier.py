import json
import random
import sys
import time
from collections import Counter
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

from ngoneq import (
    DenseMatrix,
    InvalidInputError,
    Pair,
    ZetaAssignment,
    equation_sequences,
    gale_table,
    verify_equation,
    verify_with_properties,
)
import ngoneq.exactfield as exactfield_module
import ngoneq.fvectors as fvectors_module
import ngoneq.pmatrix as pmatrix_module
import ngoneq.simplicial as simplicial_module
import ngoneq.verifier as verifier_module
from ngoneq.fvectors import power_weights
import oracles
from oracles import (
    cleared_gale_table,
    cleared_weighted_powers,
    fvector_property_suite,
    int_p_matrix,
    mixed_denominators,
    negative_fractional,
    oracle_assignments,
    p_entry_vandermonde,
)


def test_verify_pentagon_default_assignment():
    report = verify_equation(5, ZetaAssignment.consecutive(5))
    assert report.equal
    assert report.shape == (3, 3)
    assert report.first_difference is None
    assert [m.q for m in report.lhs.moves] == [2, 4]
    assert [m.q for m in report.rhs.moves] == [5, 3, 1]


def test_verify_hexagon_shape():
    report = verify_equation(6, ZetaAssignment.consecutive(6))
    assert report.equal
    assert report.shape == (6, 3)


def test_verify_rejects_duplicate_assignment():
    with pytest.raises(InvalidInputError):
        ZetaAssignment(6, tuple(Fraction(v) for v in (1, 1, 3, 4, 5, 6)))


def test_verify_rejects_mismatched_assignment():
    with pytest.raises(InvalidInputError):
        verify_equation(6, ZetaAssignment.consecutive(5))


def test_verify_rejects_small_n():
    with pytest.raises(InvalidInputError):
        verify_equation(4, ZetaAssignment.consecutive(4))


def test_report_json_is_deterministic():
    a = verify_equation(6, ZetaAssignment.consecutive(6))
    b = verify_equation(6, ZetaAssignment.consecutive(6))
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.timings  # wall-clock is recorded, but outside the canonical form
    assert "timings" not in a.to_json_dict()


def test_report_times_the_block_build_apart_from_the_row_action(monkeypatch):
    """The timings hold one entry per layer, in order: the block build is ``matrices``,
    and each side's entry starts after it, so a slow build shows in ``matrices`` alone."""
    real = verifier_module.move_matrices

    def slow(moves, zeta):
        time.sleep(0.05)
        return real(moves, zeta)

    monkeypatch.setattr(verifier_module, "move_matrices", slow)
    timings = verify_equation(6, ZetaAssignment.random_distinct(6, 3)).timings
    assert list(timings) == ["sequences", "matrices", "lhs_product", "rhs_product", "compare"]
    assert timings["matrices"] >= 0.05
    assert timings["lhs_product"] + timings["rhs_product"] < 0.05


def test_report_json_schema():
    doc = verify_equation(5, ZetaAssignment.consecutive(5)).to_json_dict()
    assert doc["n"] == 5
    assert doc["zeta"] == ["1", "2", "3", "4", "5"]
    assert doc["shape"] == [3, 3]
    assert doc["equal"] is True
    assert doc["properties"] is None
    assert {"q", "b", "c"} == set(doc["lhs_moves"][0])
    assert isinstance(doc["version"], str)


def test_property_suite_passes_n7_full_depth():
    results = verify_with_properties(7, ZetaAssignment.consecutive(7)).properties
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = [r.name for r in results]
    assert names == [
        "row_sums",
        "orthogonality",
        "move_action",
        "independence",
        "span_rank",
        "initial_stack_rank",
    ]


@pytest.mark.parametrize("n", range(5, 17))
def test_property_results_match_the_fvector_oracle(n):
    """Every property's name, outcome and detail on Gale rows equal those of the
    suite run the old way, on FVector rows from f_value, at consecutive, seeded
    and negative-fractional values."""
    sequences = equation_sequences(n)
    for zeta in oracle_assignments(n):
        assert verify_with_properties(n, zeta).properties == fvector_property_suite(n, zeta, sequences)


@pytest.mark.parametrize("n", range(5, 17))
def test_property_results_match_the_fvector_oracle_at_mixed_denominators(n):
    """As above, at values over large, pairwise different denominators."""
    sequences, zeta = equation_sequences(n), mixed_denominators(n)
    assert verify_with_properties(n, zeta).properties == fvector_property_suite(n, zeta, sequences)


@pytest.mark.parametrize("n", [25, 30])
def test_property_results_at_seeded_large_n_come_from_the_cleared_integers(n):
    """At seeded n = 25 and 30 (the FVector oracle takes over 100 s at n = 25) every value
    is an integer, so the Gale rows and weights are the integers over u = s z entry for
    entry, and every property passes with the details the oracle gives at smaller n."""
    zeta = ZetaAssignment.random_distinct(n, 7)
    assert gale_table(n, zeta) == cleared_gale_table(n, zeta)
    assert power_weights(zeta)[0] == cleared_weighted_powers(zeta)
    names = ("row_sums", "orthogonality", "move_action", "independence", "span_rank")
    assert verify_with_properties(n, zeta).properties == (
        *[(name, True, "") for name in names], ("initial_stack_rank", True, f"rank {n - n // 2}"))


def test_property_suite_passes_random_seeds_n8():
    for seed in (1, 2, 3):
        z = ZetaAssignment.random_distinct(8, seed)
        results = verify_with_properties(8, z).properties
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_property_suite_builds_one_gale_table_and_no_f_vector(monkeypatch):
    """One verify_with_properties call builds one table of Gale rows, wherever in the
    package gale_table is looked up from, and no Fraction vector: the package has no
    vector table (``f_vector_table`` is a test oracle)."""
    calls, real = [], fvectors_module.gale_table

    def counting(*args):
        calls.append("gale_table")
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ngoneq":
            assert not hasattr(module, "f_vector_table") and not hasattr(module, "FVector"), name
            if getattr(module, "gale_table", None) is real:
                monkeypatch.setattr(module, "gale_table", counting)
    for n in (5, 8, 9):
        calls.clear()
        results = verify_with_properties(n, ZetaAssignment.random_distinct(n, 5)).properties
        assert all(r.passed for r in results)
        assert calls == ["gale_table"]


def test_property_suite_checks_each_row_orthogonality_once(monkeypatch):
    """Each Gale row's orthogonality is computed once per suite run and shared by
    orthogonality and independence: C(n,2) calls of the kernel ``annihilates`` with the
    weighted power rows (``power_weights``, picked out by value), one per row. The first
    n - floor(n/2) columns of each q-stack go to the same kernel with the folded weights of
    their stack: C(n,2) + n (n - floor(n/2)) kernel calls, wherever it is looked up from."""
    real, calls = fvectors_module.annihilates, []

    def counting(weights, vector):
        calls.append((weights, vector))
        return real(weights, vector)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ngoneq" and getattr(module, "annihilates", None) is real:
            monkeypatch.setattr(module, "annihilates", counting)
    for n in (5, 8, 9):
        calls.clear()
        zeta = negative_fractional(n)
        results = verify_with_properties(n, zeta).properties
        assert all(r.passed for r in results)
        powers = power_weights(zeta)[0]
        rows = [vector for weights, vector in calls if weights == powers]
        assert sorted(rows) == sorted(gale_table(n, zeta).values())
        assert len(calls) == comb(n, 2) + n * (n - n // 2)


def test_verify_with_properties_builds_each_move_matrix_once(monkeypatch):
    """The side products and the suite of one verify_with_properties call share one
    map of move matrices from one move_matrices call over both sides' moves, which takes
    the column weights once per b-set and each numerator row once per (c, B)."""
    calls, weights, rows = [], [], []

    def recording(record, real):
        def wrapper(*args):
            record.append(args)
            return real(*args)
        return wrapper

    real = pmatrix_module.move_matrices
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ngoneq" and getattr(module, "move_matrices", None) is real:
            monkeypatch.setattr(module, "move_matrices", recording(calls, real))
    for attr, record in (("_column_weights", weights), ("_numerator_row", rows)):
        monkeypatch.setattr(pmatrix_module, attr, recording(record, getattr(pmatrix_module, attr)))
    for n in (5, 8, 9, 10):
        lhs, rhs = equation_sequences(n)
        moves = lhs.moves + rhs.moves
        for record in (calls, weights, rows):
            record.clear()
        report = verify_with_properties(n, negative_fractional(n))
        assert report.equal and all(r.passed for r in report.properties)
        assert [list(built) for built, _ in calls] == [list(moves)]
        assert sorted(b_set for _, b_set, _ in weights) == sorted({m.b_set for m in moves})
        assert len(rows) == len({(c, move.b_set) for move in moves for c in move.c_set})
        assert len(weights) == (len(moves) + 1) // 2


def test_property_suite_builds_no_extended_matrix(monkeypatch):
    """Row sums are checked on the move matrices alone: an extended matrix is the side product
    of a one-move sequence, and verify_with_properties calls side_columns exactly twice, on
    the lhs and the rhs, never on one move, wherever in the package it is looked up from."""
    real, calls = pmatrix_module.side_columns, []

    def recording(seq, matrices):
        calls.append(seq)
        return real(seq, matrices)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ngoneq" and getattr(module, "side_columns", None) is real:
            monkeypatch.setattr(module, "side_columns", recording)
    for n in (5, 8, 9):
        calls.clear()
        report = verify_with_properties(n, ZetaAssignment.random_distinct(n, 5))
        assert report.equal and all(r.passed for r in report.properties)
        assert calls == list(equation_sequences(n))
        assert all(len(seq.moves) > 1 for seq in calls)


def test_side_products_construct_no_fraction_and_no_pair(monkeypatch):
    """From the move matrices to the compared columns, the side products of
    verify_equation run over ints: while they run, no Fraction and no Pair is
    constructed anywhere (each move built its pairs once, when it was
    derived), at an integer and at a rational assignment."""

    def forbidden(*args, **kwargs):
        raise AssertionError("constructed in a side product")

    real_side_columns = verifier_module.side_columns
    sides = []

    def guarded(*args):
        sides.append(args[0].side)
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", forbidden)
            m.setattr(Pair, "__new__", forbidden)
            return real_side_columns(*args)

    monkeypatch.setattr(verifier_module, "side_columns", guarded)
    for n in (6, 9):
        for zeta in (ZetaAssignment.random_distinct(n, 4), negative_fractional(n)):
            sides.clear()
            assert verify_equation(n, zeta).equal
            assert sides == ["lhs", "rhs"]


def test_property_suite_builds_no_matrix_to_take_a_rank(monkeypatch):
    """Every rank of the suite runs on the vectors' integer rows."""

    def forbidden(self):
        raise AssertionError("DenseMatrix.rank called by the property suite")

    monkeypatch.setattr(DenseMatrix, "rank", forbidden)
    for n in (5, 8, 9):
        results = verify_with_properties(n, negative_fractional(n)).properties
        assert all(r.passed for r in results), results


def test_one_verification_derives_the_sequences_and_triangulations_once(monkeypatch):
    """verify_with_properties derives the move sequences once for the side
    products and the suite, and the initial and final triangulations once
    each, wherever in the package they are looked up from; every other reader
    takes them from the sequences' paths."""
    calls = []

    def counting(n):
        calls.append(n)
        return equation_sequences(n)

    monkeypatch.setattr(verifier_module, "equation_sequences", counting)
    triangulations = Counter()
    for attr in ("initial_triangulation", "final_triangulation"):
        real = getattr(simplicial_module, attr)

        def counting_triangulation(n, real=real, attr=attr):
            triangulations[attr] += 1
            return real(n)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ngoneq" and getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, counting_triangulation)
    for n in (5, 8):
        triangulations.clear()
        report = verify_with_properties(n, negative_fractional(n))
        assert report.equal and all(r.passed for r in report.properties)
        assert triangulations == {"initial_triangulation": 1, "final_triangulation": 1}
    assert calls == [5, 8]


def test_one_suite_run_clears_the_assignment_once(monkeypatch):
    """The move matrices, the Gale rows, the weights and the column test read the
    assignment through its determinants Delta_ab (``ZetaAssignment.deltas``), which are
    computed once per assignment, as is its integral flag."""
    real = {attr: getattr(exactfield_module.ZetaAssignment, attr).func
            for attr in ("deltas", "integral")}
    for n in (6, 9):
        zeta, calls = negative_fractional(n), []
        for attr, func in real.items():
            def counting(self, func=func, attr=attr):
                calls.append(attr)
                return func(self)

            counted = cached_property(counting)
            counted.__set_name__(exactfield_module.ZetaAssignment, attr)
            monkeypatch.setattr(exactfield_module.ZetaAssignment, attr, counted)
        report = verify_with_properties(n, zeta)
        assert all(r.passed for r in report.properties)
        assert sorted(calls) == ["deltas", "integral"]
        monkeypatch.undo()


def test_lex_combination_lists_combinations_in_order():
    for size in range(1, 9):
        for m in range(size + 1):
            want = list(combinations(range(size), m))
            got = [oracles._lex_combination(size, m, k) for k in range(len(want))]
            assert got == want, (size, m)


@pytest.mark.parametrize("n", [9, 12, 16, 20])
def test_independence_samples_the_choices_of_the_full_list(monkeypatch, n):
    """The sampled independence oracle checks, for every q, the same choices that
    sampling the list of all C(n-1, m) combinations under the same seed picks."""
    m = fvectors_module.move_size(n)
    checked = []

    def recording(self, pairs):
        checked.append(list(pairs))
        return m

    monkeypatch.setattr(fvectors_module.SuiteContext, "stack_rank", recording)
    zeta = ZetaAssignment.consecutive(n)
    ctx = fvectors_module.SuiteContext(n, zeta, None, {}, gale_table(n, zeta))
    assert oracles.sampled_independence(ctx).passed
    all_choices = list(combinations(range(n - 1), m))
    assert len(all_choices) > oracles.INDEPENDENCE_SAMPLE
    want = []
    for q in range(1, n + 1):
        pairs = list(ctx.q_stacks[q - 1])
        sample = random.Random(10_000 * n + q).sample(all_choices, oracles.INDEPENDENCE_SAMPLE)
        want += [[pairs[k] for k in choice] for choice in sample]
    assert checked == want


def _with_numerator(p, i, j, value):
    """An integer move matrix with numerator (i, j) replaced by value; the column
    weights are kept."""
    rows, weights = p
    row = rows[i][:j] + (value,) + rows[i][j + 1:]
    return rows[:i] + (row,) + rows[i + 1:], weights


def test_row_sum_property_detects_injected_sign_flip(monkeypatch):
    """Flipping the sign of one move-matrix entry turns a row sum of 1 into
    1 - 2x, which the suite must report."""
    seen = oracles.tamper_move_matrices(
        monkeypatch,
        lambda move, p: _with_numerator(p, 0, 0, -p[0][0][0]) if move.q == 2 else p,
    )
    lhs, rhs = equation_sequences(5)
    suite = verify_with_properties(5, ZetaAssignment.consecutive(5)).properties
    results = {r.name: r for r in suite}
    assert seen == [lhs.moves[0]]
    assert not results["row_sums"].passed
    assert results["row_sums"].detail == "lhs d^(2)_{35} move matrix row 0 sums to 0"
    # row 0 is N(4, {3, 5}), which the rhs move at q = 1 shares; its view stays as built
    assert rhs.moves[-1].b_set == lhs.moves[0].b_set
    assert max(rhs.moves[-1].c_set) == max(lhs.moves[0].c_set) == 4


def test_verify_with_properties_bundles_results():
    report = verify_with_properties(5, ZetaAssignment.consecutive(5))
    assert report.equal
    assert report.properties is not None
    assert all(r.passed for r in report.properties)
    doc = report.to_json_dict()
    assert doc["properties"]["row_sums"] is True
    assert "properties" in report.timings


def test_unequal_products_report_first_difference():
    """Compare a genuine product against a tampered copy through the report
    plumbing by checking the difference locator directly."""
    from ngoneq.verifier import _first_difference
    from ngoneq import final_triangulation, initial_triangulation

    z = ZetaAssignment.consecutive(5)
    report = verify_equation(5, z)
    matrices = {move: int_p_matrix(move, z) for move in report.lhs.moves}
    lhs = pmatrix_module.side_columns(report.lhs, matrices)
    numerators, d = lhs[2]
    tampered = list(lhs)
    tampered[2] = (numerators[:1] + (numerators[1] + d,) + numerators[2:], d)
    diff = _first_difference(
        lhs, tampered, final_triangulation(5), initial_triangulation(5), z
    )
    assert (diff.row, diff.col) == (1, 2)
    assert diff.row_simplex == (2, 3, 5)
    assert diff.col_simplex == (1, 4, 5)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_first_difference_at_fractional_values_reports_true_entries(n):
    """With one entry of the gauged LHS columns changed at fractional values, the first
    difference names that entry and reports both values out of the pair gauge: the
    Fraction oracle's entries of the true LHS product and of the tampered one."""
    from ngoneq.verifier import _first_difference

    z = negative_fractional(n)
    lhs_seq, _ = equation_sequences(n)
    final, initial = lhs_seq.path[-1], lhs_seq.path[0]
    matrices = {move: int_p_matrix(move, z) for move in lhs_seq.moves}
    lhs = pmatrix_module.side_columns(lhs_seq, matrices)
    i, j = len(final) // 2, len(initial) - 1
    numerators, d = lhs[j]
    tampered = list(lhs)
    tampered[j] = (numerators[:i] + (numerators[i] + d,) + numerators[i + 1:], d)
    diff = _first_difference(lhs, tampered, final, initial, z)
    want = oracles.dense_product(lhs_seq, z)
    changed = oracles.true_column_matrix(tampered, final.pairs, initial.pairs, z)
    first = next((r, c) for r in range(want.rows) for c in range(want.cols)
                 if want[r, c] != changed[r, c])
    assert first == (i, j) == (diff.row, diff.col)
    assert diff.row_simplex == final.pairs[i].simplex()
    assert diff.col_simplex == initial.pairs[j].simplex()
    assert (diff.lhs_value, diff.rhs_value) == (str(want[i, j]), str(changed[i, j]))
    assert changed[i, j] != want[i, j] + 1  # the gauge scales the change: s(B) / s(A) != 1


def _assert_every_move_matrix_tamper_is_detected(monkeypatch, n, zeta):
    """Adding 1 to any one entry of any one move matrix (its column weight W_j to
    its numerator) makes verify_equation report a difference; the tampered
    builder is the one the side products call (wherever in the package it is
    looked up from), once per verification, and changes that move's view alone,
    not the block it shares with the other side."""
    target = {}

    def change(move, p):
        if move != target["move"]:
            return p
        i, j = target["entry"]
        return _with_numerator(p, i, j, p[0][i][j] + p[1][j])

    lhs, rhs = equation_sequences(n)
    entries = [(move, i, j) for move in lhs.moves + rhs.moves
               for i, row in enumerate(int_p_matrix(move, zeta)[0]) for j in range(len(row))]
    with monkeypatch.context() as m:
        tampered_calls = oracles.tamper_move_matrices(m, change)
        for move, i, j in entries:
            target.update(move=move, entry=(i, j))
            tampered_calls.clear()
            report = verify_equation(n, zeta)
            assert tampered_calls == [move]
            assert not report.equal, (n, move, i, j)
            assert report.first_difference is not None, (n, move, i, j)


def test_verify_detects_every_single_move_matrix_tamper(monkeypatch):
    """Negative control through the production path, at consecutive values."""
    for n in (5, 6):
        _assert_every_move_matrix_tamper_is_detected(monkeypatch, n, ZetaAssignment.consecutive(n))


def test_verify_detects_every_single_move_matrix_tamper_at_fractional_values(monkeypatch):
    """The same negative control with non-integer values of both signs, so that
    the integer rows carry denominators other than 1."""
    for n in (5, 6):
        _assert_every_move_matrix_tamper_is_detected(monkeypatch, n, negative_fractional(n))


@pytest.mark.parametrize("n", range(5, 10))
def test_every_tampered_first_difference_equals_the_row_walk_oracle(monkeypatch, n):
    """With one entry of one move matrix changed (its column weight W_j added to N_ij), for
    every move of both sides in turn, the report is unequal and its first difference is
    byte-identical to the one the row walk gives (``oracles.side_rows`` and
    ``row_walk_first_difference`` over the same tampered matrices): row, column, both
    simplices and both values, at consecutive, seeded and negative-fractional values."""
    target = {}

    def change(move, p):
        if move != target["move"]:
            return p
        i, j = target["entry"]
        return _with_numerator(p, i, j, p[0][i][j] + p[1][j])

    lhs, rhs = equation_sequences(n)
    final, initial = lhs.path[-1], lhs.path[0]
    for zeta in (ZetaAssignment.consecutive(n), ZetaAssignment.random_distinct(n, 1000 + n),
                 negative_fractional(n)):
        with monkeypatch.context() as m:
            oracles.tamper_move_matrices(m, change)
            for step, move in enumerate(lhs.moves + rhs.moves):
                entry = (step % len(move.created_pairs), step % len(move.removed_pairs))
                target.update(move=move, entry=entry)
                report = verify_equation(n, zeta)
                matrices = pmatrix_module.move_matrices(lhs.moves + rhs.moves, zeta)
                want = oracles.row_walk_first_difference(
                    oracles.side_rows(lhs, matrices), oracles.side_rows(rhs, matrices),
                    final, initial, zeta)
                assert not report.equal and want is not None, (zeta.label, move, entry)
                assert repr(report.first_difference) == repr(want), (zeta.label, move, entry)


def _vandermonde_times_move_matrix(move, values):
    """V P at the given values: V = prod_{a<b in B} (z_a - z_b) over the move's b-set B,
    P the move matrix from the Vandermonde-ratio oracle."""
    zeta = ZetaAssignment(move.n, tuple(Fraction(x) for x in values))
    v = prod([zeta[a] - zeta[b] for a, b in combinations(move.b_set, 2)])
    rows, cols = len(move.created_pairs), len(move.removed_pairs)
    return [v * p_entry_vandermonde(move, zeta, i, j)
            for i in range(1, rows + 1) for j in range(1, cols + 1)]


@pytest.mark.parametrize("n", range(5, 10))
def test_move_matrix_times_its_vandermonde_is_homogeneous_of_degree_c_m_2(n):
    """The degree lemma behind the error bound in the verifier docstring: for every move,
    V P is homogeneous of degree e = C(m, 2), m = floor((n-1)/2). Along a line z + t r,
    t = 0..e+1, at distinct values throughout, each entry's order-(e+1) difference is 0
    and its order-e difference is e! times the entry at r."""
    e, rng = comb((n - 1) // 2, 2), random.Random(n)
    while True:
        z, r = rng.sample(range(1, 10**6), n), rng.sample(range(1, 10**3), n)
        points = [[a + t * b for a, b in zip(z, r)] for t in range(e + 2)]
        if all(len(set(p)) == n for p in points):
            break
    lhs, rhs = equation_sequences(n)
    for move in lhs.moves + rhs.moves:
        table = [_vandermonde_times_move_matrix(move, p) for p in points]
        for order, want in ((e + 1, None), (e, _vandermonde_times_move_matrix(move, r))):
            got = [sum((-1) ** (order - t) * comb(order, t) * table[t][k] for t in range(order + 1))
                   for k in range(len(table[0]))]
            assert got == ([0] * len(got) if want is None else [factorial(e) * x for x in want])

