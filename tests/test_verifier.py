import json
from fractions import Fraction

import pytest

from ngoneq import (
    DenseMatrix,
    InvalidInputError,
    ZetaAssignment,
    equation_sequences,
    run_property_suite,
    verify_equation,
    verify_with_properties,
)
import ngoneq.pmatrix as pmatrix_module
import ngoneq.verifier as verifier_module


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
    # C(6, 3) = 20 choices per vertex, so independence is checked exhaustively
    assert 20 <= verifier_module.INDEPENDENCE_SAMPLE
    z = ZetaAssignment.consecutive(7)
    results = run_property_suite(7, z)
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


def test_property_suite_passes_random_seeds_n8():
    for seed in (1, 2, 3):
        z = ZetaAssignment.random_distinct(8, seed)
        results = run_property_suite(8, z)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_row_sum_property_detects_injected_sign_flip(monkeypatch):
    """Flipping the sign of one move-matrix entry turns a row sum of 1 into
    1 - 2x, which the suite must report."""
    real_build = verifier_module.build_p_matrix

    def tampered(move, zeta):
        p, index_map = real_build(move, zeta)
        if move.n == 5 and move.q == 2:
            p = p.with_entry(0, 0, -p[0, 0])
        return p, index_map

    monkeypatch.setattr(verifier_module, "build_p_matrix", tampered)
    results = {r.name: r for r in run_property_suite(5, ZetaAssignment.consecutive(5))}
    assert not results["row_sums"].passed
    assert "row 0" in results["row_sums"].detail


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
    lhs = verifier_module.product_for_side(report.lhs, z)
    tampered = lhs.with_entry(1, 2, lhs[1, 2] + 1)
    diff = _first_difference(
        lhs, tampered, final_triangulation(5), initial_triangulation(5)
    )
    assert (diff.row, diff.col) == (1, 2)
    assert diff.row_simplex == (2, 3, 5)
    assert diff.col_simplex == (1, 4, 5)


def test_verify_detects_every_single_move_matrix_tamper(monkeypatch):
    """Negative control through the production path: adding 1 to any one entry
    of any one move matrix makes verify_equation report a difference."""
    real_build = pmatrix_module.build_p_matrix
    target = {}
    tampered_calls = []

    def tampered(move, zeta):
        p, index_map = real_build(move, zeta)
        if move == target["move"]:
            i, j = target["entry"]
            p = p.with_entry(i, j, p[i, j] + 1)
            tampered_calls.append(move)
        return p, index_map

    monkeypatch.setattr(pmatrix_module, "build_p_matrix", tampered)
    for n in (5, 6):
        zeta = ZetaAssignment.consecutive(n)
        lhs, rhs = equation_sequences(n)
        for move in lhs.moves + rhs.moves:
            p, _ = real_build(move, zeta)
            for i in range(p.rows):
                for j in range(p.cols):
                    target.update(move=move, entry=(i, j))
                    tampered_calls.clear()
                    report = verify_equation(n, zeta)
                    assert tampered_calls == [move]
                    assert not report.equal, (n, move, i, j)
                    assert report.first_difference is not None, (n, move, i, j)
