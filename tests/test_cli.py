import json

import pytest

import ngoneq.cli as cli_module
import ngoneq.pmatrix as pmatrix_module
import ngoneq.verifier as verifier_module
from ngoneq import InternalError, PropertyResult, equation_sequences
from ngoneq.cli import EXIT_INTERNAL, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_hexagon(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6")
    assert code == 0
    assert "equal: true, shape 6x3" in out


def test_verify_small_n_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--n", "4")
    assert code == 2
    assert "n >= 5" in err


def test_verify_multiple_seeded_trials(capsys):
    code, out, _ = run(capsys, "verify", "--n", "9", "--trials", "5", "--seed", "42")
    assert code == 0
    assert "5/5 assignments verified" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert doc["reports"][0]["shape"] == [3, 3]


def test_verify_explicit_zeta(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--zeta", "2,3,5,7,11")
    assert code == 0
    assert "equal: true" in out


def test_verify_explicit_zeta_duplicate(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--zeta", "1,1,3,4,5,6")
    assert code == 2
    assert "distinct" in err


def test_verify_explicit_zeta_wrong_length(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--zeta", "1,2,3")
    assert code == 2


@pytest.mark.parametrize("zeta", ["1,2,,3,4,5", "1,2,3,4,5,", " ,1,2,3,4,5"])
def test_verify_explicit_zeta_empty_field(capsys, zeta):
    code, out, err = run(capsys, "verify", "--n", "5", "--zeta", zeta)
    assert code == 2
    assert out == ""
    assert "empty field" in err


def test_verify_zeta_with_trials_conflict(capsys):
    code, _, err = run(capsys, "verify", "--n", "5", "--zeta", "1,2,3,4,5", "--trials", "2")
    assert code == 2


def test_verify_zero_trials_rejected(capsys):
    code, _, err = run(capsys, "verify", "--n", "5", "--trials", "0")
    assert code == 2


def test_verify_fractional_zeta(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--zeta", "1/2,3,9/4,7,11")
    assert code == 0
    assert "equal: true" in out


def test_verify_negative_zeta_with_equals_spelling(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--zeta=-1,2,3,4,5")
    assert code == 0
    assert "equal: true" in out


@pytest.mark.parametrize("error", [InternalError("products disagree in shape"), RuntimeError("boom")])
def test_internal_failure_exits_3_not_mismatch(monkeypatch, capsys, error):
    def broken(n, zeta):
        raise error

    monkeypatch.setattr(cli_module, "verify_equation", broken)
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == EXIT_INTERNAL == 3
    assert out == ""
    assert str(error) in err and type(error).__name__ in err


# ---------------------------------------------------------------------------
# show
# ---------------------------------------------------------------------------

def test_show_pentagon_lhs(capsys):
    code, out, _ = run(capsys, "show", "--n", "5", "--side", "lhs")
    assert code == 0
    assert "step 0: 123 134 145" in out
    assert "step 1: 123 135 345" in out
    assert "step 2: 125 235 345" in out
    assert "d^(2)_{35}" in out and "d^(4)_{25}" in out


def test_show_hexagon_rhs_visits_odd_items(capsys):
    code, out, _ = run(capsys, "show", "--n", "6", "--side", "rhs")
    assert code == 0
    assert "step 1: 1235 1256 1345 2345" in out
    assert "step 2: 1236 1345 1356 2345 2356" in out
    assert "extended matrix 4x3" in out
    assert "extended matrix 6x5" in out


def test_show_heptagon_lhs_moves(capsys):
    code, out, _ = run(capsys, "show", "--n", "7", "--side", "lhs")
    assert code == 0
    for label in ("d^(2)_{357}", "d^(4)_{257}", "d^(6)_{247}"):
        assert label in out


def test_show_requires_side(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["show", "--n", "5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_json_round_trips_exactly(capsys):
    code, out, _ = run(capsys, "export", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    matrices = doc["sides"]["lhs"]["matrices"] + doc["sides"]["rhs"]["matrices"]
    assert len(matrices) == 6
    assert doc["sides"]["lhs"]["shapes"] == [[4, 3], [5, 4], [6, 5]]
    re_emitted = json.dumps(doc, indent=2) + "\n"
    assert re_emitted == out


def test_export_json_entries_are_rational_strings(capsys):
    _, out, _ = run(capsys, "export", "--n", "5", "--format", "json")
    doc = json.loads(out)
    first = doc["sides"]["lhs"]["matrices"][0]
    assert all(isinstance(x, str) for row in first for x in row)
    assert doc["fvectors"]["4,5"] == ["1/2", "-1", "1/2", "0", "0"]


def test_export_latex_contains_arrays(capsys):
    code, out, _ = run(capsys, "export", "--n", "5", "--format", "latex")
    assert code == 0
    assert out.count("\\begin{array}") == 7  # 2 + 3 factors plus one product per side
    assert "\\frac" in out


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_export_builds_each_extended_matrix_once(monkeypatch, capsys, fmt):
    real_extend = pmatrix_module.extend_matrix
    calls = []

    def counting(move, t_old, t_new, zeta):
        calls.append(move)
        return real_extend(move, t_old, t_new, zeta)

    monkeypatch.setattr(pmatrix_module, "extend_matrix", counting)
    code, _, _ = run(capsys, "export", "--n", "6", "--format", fmt)
    assert code == 0
    lhs, rhs = equation_sequences(6)
    assert calls == list(lhs.moves + rhs.moves)


def test_export_single_side(capsys):
    _, out, _ = run(capsys, "export", "--n", "5", "--side", "lhs", "--format", "json")
    doc = json.loads(out)
    assert list(doc["sides"]) == ["lhs"]
    assert len(doc["sides"]["lhs"]["matrices"]) == 2


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    _, expected, _ = run(capsys, "export", "--n", "5")
    code, out, _ = run(capsys, "export", "--n", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["n"] == 5
    assert target.read_bytes() == expected.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_out_failed_rename_keeps_target_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.json"
    target.write_text("old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli_module.os, "replace", failing_replace)
    code, out, err = run(capsys, "export", "--n", "5", "--out", str(target))
    assert code == 2
    assert "rename failed" in err
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_export_unwritable_path(capsys):
    code, _, err = run(capsys, "export", "--n", "5", "--out", "/nonexistent/dir/x.json")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_small_range(capsys):
    code, out, _ = run(capsys, "suite", "--min-n", "5", "--max-n", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(lines) == 3
    assert "all passed: true" in out


def test_suite_single_n(capsys):
    code, out, _ = run(capsys, "suite", "--min-n", "5", "--max-n", "5")
    assert code == 0
    assert "all passed: true" in out


def test_suite_bad_range(capsys):
    code, _, err = run(capsys, "suite", "--min-n", "9", "--max-n", "5")
    assert code == 2


def test_suite_json_format(capsys):
    code, out, _ = run(capsys, "suite", "--min-n", "5", "--max-n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert [row["n"] for row in doc["rows"]] == [5, 6]
    assert all(row["verified"] for row in doc["rows"])
    assert all(row["properties"] == "6/6" for row in doc["rows"])


def test_suite_json_carries_property_details(capsys):
    code, out, _ = run(capsys, "suite", "--min-n", "7", "--max-n", "7", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["properties"] == "6/6"
    assert row["details"]["initial_stack_rank"] == "rank 4"
    assert set(row["details"]) == {
        "row_sums", "orthogonality", "move_action", "independence", "span_rank",
        "initial_stack_rank",
    }


def test_suite_json_shows_the_detail_of_a_failed_property(monkeypatch, capsys):
    def failing(n, zeta):
        return PropertyResult("span_rank", False, f"q=1 rank 0, want {n}")

    monkeypatch.setattr(verifier_module, "_prop_span_rank", failing)
    code, out, _ = run(capsys, "suite", "--min-n", "5", "--max-n", "5", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["rows"][0]["properties"] == "5/6"
    assert doc["rows"][0]["details"]["span_rank"] == "q=1 rank 0, want 5"
