import argparse
import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngoneq.cli as cli_module
import ngoneq.commands as commands_module
import ngoneq.exactfield as exactfield_module
import ngoneq.fvectors as fvectors_module
import ngoneq.pmatrix as pmatrix_module
import ngoneq.simplicial as simplicial_module
from ngoneq import (
    DenseMatrix,
    InternalError,
    MoveSequence,
    PropertyResult,
    ZetaAssignment,
    equation_sequences,
    initial_triangulation,
    verify_equation,
    verify_with_properties,
)
from ngoneq.cli import EXIT_INTERNAL, build_parser, main, parse_command_line
from oracles import (
    f_value_vector,
    f_vector_table,
    int_p_matrix,
    mixed_denominators,
    negative_fractional,
    package_modules,
)

PERFBENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_n_below_five_is_usage_error(capsys, command, n):
    code, out, err = run(capsys, command, "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: construction requires n >= 5, got {n}\n"


@pytest.mark.parametrize("trials", [[], ["--trials", "2"]], ids=["one-trial", "two-trials"])
def test_seeded_n_beyond_the_value_range_is_usage_error(capsys, trials):
    code, out, err = run(capsys, "verify", "--n", "1000001", "--seed", "1", *trials)
    assert code == 2
    assert out == ""
    assert err == "error: cannot draw 1000001 distinct values from 1..1000000\n"


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


@pytest.mark.parametrize("command", ["verify", "export"])
def test_zeta_with_seed_conflict(capsys, command):
    code, out, err = run(capsys, command, "--n", "5", "--zeta", "1,2,3,4,5", "--seed", "3")
    assert code == 2
    assert out == ""
    assert "--seed" in err


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
    assert "Traceback (most recent call last)" in err  # traceback is imported on this path only


@pytest.mark.parametrize(
    "broken_order, message",
    [
        (lambda q: q[:-1], "lhs sequence for n=7 did not reach the final triangulation"),
        (lambda q: q[::-1], "lhs sequence for n=7: vertex 6 lies in 1 pairs, need 3"),
    ],
    ids=["truncated", "reversed"],
)
def test_failed_sequence_derivation_exits_3(monkeypatch, capsys, broken_order, message):
    """At a valid n, a q-order that stops short of the final triangulation or
    meets a vertex it cannot flip is a failed consistency check, not bad input."""
    real = simplicial_module.lhs_q_order
    monkeypatch.setattr(simplicial_module, "lhs_q_order", lambda n: broken_order(real(n)))
    code, out, err = run(capsys, "verify", "--n", "7")
    assert code == EXIT_INTERNAL == 3
    assert out == ""
    assert err.endswith(f"internal error: InternalError: {message}\n")


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


@pytest.mark.parametrize("n", range(5, 13))
def test_export_json_fvectors_are_the_f_value_components(capsys, n):
    """The exported invariant vectors are the strings of the f_value components of
    the initial triangulation's pairs, in its order, at consecutive, seeded and
    negative-fractional values."""
    fractional = negative_fractional(n)
    for zeta_args, zeta in (
        ((), ZetaAssignment.consecutive(n)),
        (("--seed", "7"), ZetaAssignment.random_distinct(n, 7)),
        ((f"--zeta={','.join(fractional.to_strings())}",), fractional),
    ):
        code, out, _ = run(capsys, "export", "--n", str(n), *zeta_args, "--format", "json")
        assert code == 0
        got = json.loads(out)["fvectors"]
        want = {
            f"{p.i},{p.j}": [str(x) for x in f_value_vector(n, p, zeta).components]
            for p in initial_triangulation(n).pairs
        }
        assert list(got.items()) == list(want.items()), zeta.label


@pytest.mark.parametrize("n", range(5, 17))
def test_export_json_fvectors_equal_the_cleared_vector_oracle(capsys, n):
    """The vectors export formats from the homogeneous Gale rows, G'_ij(w) q_w^(k-1) / L_w,
    are the strings of the vectors over u = s z that it printed before (the oracle
    ``f_vector_table``), at consecutive, seeded, negative-fractional and mixed-denominator
    values."""
    for zeta in (ZetaAssignment.consecutive(n), ZetaAssignment.random_distinct(n, 7),
                 negative_fractional(n), mixed_denominators(n)):
        zeta_arg = f"--zeta={','.join(zeta.to_strings())}"
        code, out, _ = run(capsys, "export", "--n", str(n), zeta_arg, "--format", "json")
        assert code == 0
        vectors = f_vector_table(n, zeta)
        want = {f"{p.i},{p.j}": [str(x) for x in vectors[p].components]
                for p in initial_triangulation(n).pairs}
        assert list(json.loads(out)["fvectors"].items()) == list(want.items()), zeta.label


def test_running_the_cli_as_a_script_imports_it_once(tmp_path):
    """``python -m ngoneq.cli`` runs the module as ``__main__``. The module ``export`` and
    ``suite`` import on first use imports nothing from ``cli``, so ``cli`` is not imported a
    second time, as ``ngoneq.cli``, and the script writes what ``main`` writes."""
    src = Path(cli_module.__file__).parents[1]
    for argv in (["export", "--n", "5"], ["suite", "--min-n", "5", "--max-n", "5"]):
        out = tmp_path / "script.txt"
        code = ("import runpy, sys\n"
                f"sys.argv = ['ngoneq', *{argv!r}, '--out', {str(out)!r}]\n"
                "try:\n    runpy.run_module('ngoneq.cli', run_name='__main__')\n"
                "except SystemExit as done:\n    print(done.code, 'ngoneq.cli' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.stdout == "0 False\n", (argv, done.stderr)
        if argv[0] == "export":
            assert main([*argv, "--out", str(tmp_path / "main.txt")]) == 0
            assert out.read_text() == (tmp_path / "main.txt").read_text()


def test_export_latex_contains_arrays(capsys):
    code, out, _ = run(capsys, "export", "--n", "5", "--format", "latex")
    assert code == 0
    assert out.count("\\begin{array}") == 7  # 2 + 3 factors plus one product per side
    assert "\\frac" in out


def test_latex_rows_entries():
    tex = commands_module._latex_rows([((-9, 6), (36, 6))])
    assert "-\\frac{3}{2}" in tex and "& 6 " in tex
    assert tex.startswith("\\left(\\begin{array}{cc}")


def test_json_rows_read_as_fractions_in_lowest_terms():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(1, 60)
        v = tuple(rng.randint(-200, 200) for _ in range(4))
        want = [[str(Fraction(x, d)) for x in v]]
        assert commands_module._json_rows([[(x, d) for x in v]]) == want


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_export_builds_each_extended_matrix_once(monkeypatch, capsys, fmt):
    """Export builds the move matrices of every exported side in one move_matrices call
    over their moves, then, per side, each extended factor once, as the side product
    (side_columns) of its one-move sequence, and the side's product once; all of them
    read the same matrices."""
    matrices = _record_calls(monkeypatch, "move_matrices", pmatrix_module)
    columns = _record_calls(monkeypatch, "side_columns", pmatrix_module)
    for side in ("lhs", "rhs", "both"):
        matrices.clear()
        columns.clear()
        code, _, _ = run(capsys, "export", "--n", "6", "--format", fmt, "--side", side)
        assert code == 0
        sides = [seq for seq in equation_sequences(6) if side in ("both", seq.side)]
        moves = [move for seq in sides for move in seq.moves]
        assert [list(built) for built, _ in matrices] == [moves]
        walks = []
        for seq in sides:
            walks += [MoveSequence(seq.n, seq.side, (move,), (old, new))
                      for move, old, new in zip(seq.moves, seq.path, seq.path[1:])] + [seq]
        assert [seq for seq, _ in columns] == walks
        assert all(list(read) == moves for _, read in columns)
        assert len({id(read) for _, read in columns}) == 1


@pytest.mark.parametrize("seeded", [False, True])
def test_integral_values_take_no_pair_gauge(monkeypatch, capsys, seeded):
    """At integral values every s(pair) is 1: ``int_p_matrix`` returns the difference form
    N_ij = prod_{j' != j} (z_{c_i} - z_{b_j'}), W_j = prod_{j' != j} (z_{b_j} - z_{b_j'}), and
    ``pair_gauge`` is never called by verify_equation, verify_with_properties or export,
    so they run the arithmetic they ran before the gauge. At fractional values the suite
    does call it, so the counter is attached."""
    gauges = _record_calls(monkeypatch, "pair_gauge", pmatrix_module)
    for n in (5, 6, 9, 10):
        zeta = ZetaAssignment.random_distinct(n, 5) if seeded else ZetaAssignment.consecutive(n)
        u = [int(z) for z in zeta.values]
        for seq in equation_sequences(n):
            for move in seq.moves:
                cols = [u[b - 1] for b in reversed(move.b_set)]
                assert int_p_matrix(move, zeta) == (
                    tuple(tuple(prod(u[c - 1] - y for y in cols if y != x) for x in cols)
                          for c in reversed(move.c_set)),
                    tuple(prod(x - y for y in cols if y != x) for x in cols),
                )
        assert verify_equation(n, zeta).equal
        assert all(r.passed for r in verify_with_properties(n, zeta).properties)
        options = ["--seed", "5"] if seeded else []
        for fmt in ("json", "latex"):
            assert run(capsys, "export", "--n", str(n), *options, "--format", fmt)[0] == 0
    assert gauges == []
    verify_with_properties(5, negative_fractional(5))
    assert gauges


COMMANDS_THAT_PRINT = [
    ["verify", "--n", "7", "--trials", "2", "--format", "json"],
    ["verify", "--n", "6", "--zeta=-1/2,4/3,-9/4,16/5,-25/6,36/7"],
    ["show", "--n", "7", "--side", "rhs"],
    ["export", "--n", "7", "--seed", "3"],
    ["export", "--n", "6", "--format", "latex"],
    ["suite", "--min-n", "5", "--max-n", "7", "--trials", "2", "--format", "json"],
]


@pytest.mark.parametrize("argv", COMMANDS_THAT_PRINT, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_commands_construct_no_dense_matrix(monkeypatch, capsys, argv):
    """No command builds a DenseMatrix: every matrix stays in integer rows until export
    formats it."""

    def forbidden(self, *args):
        raise AssertionError("DenseMatrix constructed by a command")

    monkeypatch.setattr(DenseMatrix, "__init__", forbidden)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_only_exactfield_names_the_dense_matrix():
    """exactfield defines DenseMatrix and the package re-exports it; no other module uses it."""
    package = Path(cli_module.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "DenseMatrix" in p.read_text())
    assert naming == ["__init__.py", "exactfield.py"]


def test_the_package_reads_values_in_one_coordinate_system():
    """Every value is read as z = p / q and through Delta (``ZetaAssignment.deltas``): the
    cleared row u = s z, ``ZetaAssignment.row``, and its helper ``int_row`` are gone, and no
    module reads ``zeta.row``."""
    package = Path(cli_module.__file__).parent
    assert not hasattr(ZetaAssignment, "row") and not hasattr(exactfield_module, "int_row")
    assert [p.name for p in package.glob("*.py") if "zeta.row" in p.read_text()] == []


def test_only_pmatrix_knows_the_pair_gauge():
    """Identity 3 lives in one module: ``pmatrix.true_rows`` and ``pmatrix.true_product`` take
    a move matrix and a product out of the pair gauge, so no other module names ``pair_gauge``
    or reads ``.integral``, the flag that says whether the gauge scales anything
    (``exactfield`` defines it with ``def integral``, which this search does not match)."""
    package = Path(cli_module.__file__).parent
    knowing = sorted(p.name for p in package.glob("*.py")
                     if "pair_gauge" in (text := p.read_text()) or ".integral" in text)
    assert knowing == ["pmatrix.py"]
    assert not hasattr(cli_module, "_true_rows") and not hasattr(pmatrix_module, "int_p_matrix")


def test_only_fvectors_turns_gale_rows_into_vectors():
    """Identity 1 lives in one module: ``fvectors.power_weights`` holds Lambda, which the
    suite's row and column tests and ``fvectors.vector_rows`` read, so neither the verifier
    nor the command line reads a value's parts or Delta, or names the old weight tables."""
    package = Path(cli_module.__file__).parent
    for name in ("verifier.py", "cli.py", "commands.py"):
        text = (package / name).read_text()
        for word in (".deltas", ".denominator", ".numerator", "weighted_powers"):
            assert word not in text, (name, word)
    for owner in (ZetaAssignment, fvectors_module.SuiteContext):
        assert not hasattr(owner, "weighted_powers") and not hasattr(owner, "column_weights")


def _record_calls(monkeypatch, attr: str, source=simplicial_module) -> list:
    """Record the arguments of every call of ``source.<attr>`` (``simplicial`` unless
    given), wherever in the package it is looked up from."""
    real = getattr(source, attr)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in package_modules():
        if getattr(module, attr, None) is real:
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--n", "7", "--format", "json"],
        ["export", "--n", "7", "--format", "latex"],
        ["show", "--n", "7", "--side", "lhs"],
        ["show", "--n", "7", "--side", "rhs"],
    ],
)
def test_each_derived_move_is_applied_once(monkeypatch, capsys, argv):
    """The triangulations are walked once, while the sequences are derived: one
    ``equation_sequences`` call per command, one initial triangulation for both sides."""
    derived = _record_calls(monkeypatch, "equation_sequences")
    initial = _record_calls(monkeypatch, "initial_triangulation")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert derived == [(7,)]
    assert initial == [(7,)]


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


def test_out_error_names_the_given_path_not_the_temp_file(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "verify", "--n", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_out_rename_error_names_the_given_path_not_the_temp_file(tmp_path, capsys):
    """--out naming an existing directory fails at the final rename; the error
    names that directory, the exit code is 2 and no temp file is left."""
    target = tmp_path / "existing"
    target.mkdir()
    code, out, err = run(capsys, "verify", "--n", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["existing"]
    assert list(target.iterdir()) == []


def test_export_rejects_several_trials(capsys):
    code, out, err = run(capsys, "export", "--n", "5", "--seed", "3", "--trials", "2")
    assert code == 2
    assert out == ""
    assert "--trials" in err


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


def test_suite_seed_without_extra_trials_rejected(capsys):
    code, out, err = run(capsys, "suite", "--min-n", "5", "--max-n", "5", "--seed", "9")
    assert code == 2
    assert out == ""
    assert "--seed seeds only the extra trials" in err


def test_suite_seed_with_extra_trials(capsys):
    code, out, _ = run(
        capsys, "suite", "--min-n", "5", "--max-n", "5", "--seed", "9", "--trials", "2"
    )
    assert code == 0
    assert "all passed: true" in out


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
    def failing(ctx):
        return PropertyResult("span_rank", False, f"q=1 rank 0, want {ctx.n}")

    monkeypatch.setattr(fvectors_module, "_prop_span_rank", failing)
    code, out, _ = run(capsys, "suite", "--min-n", "5", "--max-n", "5", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["rows"][0]["properties"] == "5/6"
    assert doc["rows"][0]["details"]["span_rank"] == "q=1 rank 0, want 5"

    code, out, _ = run(capsys, "suite", "--min-n", "5", "--max-n", "6")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].split()[:3] == ["5", "true", "5/6"]
    assert lines[2] == "     span_rank: q=1 rank 0, want 5"
    assert lines[3].split()[:3] == ["6", "true", "5/6"]
    assert lines[4] == "     span_rank: q=1 rank 0, want 6"
    assert lines[5] == "all passed: false"


def test_suite_text_lists_no_detail_for_passing_properties(capsys):
    code, out, _ = run(capsys, "suite", "--min-n", "7", "--max-n", "7")
    assert code == 0
    assert "rank 4" not in out
    assert len(out.splitlines()) == 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

PARSE_CASES = {
    "verify": ["verify", "--n", "7", "--seed", "3", "--trials", "2", "--format", "json"],
    "show": ["show", "--n", "6", "--side", "rhs", "--out", "steps.txt"],
    "export": ["export", "--n", "5", "--side", "lhs", "--format", "latex"],
    "suite": ["suite", "--min-n", "5", "--max-n", "6", "--seed", "1", "--trials", "2"],
    "verify-every-option": ["verify", "--n", "5", "--zeta", "1,2,3,4,5", "--seed", "2",
                            "--trials", "1", "--format", "text", "--out", "v.txt"],
    "show-equals": ["show", "--side=lhs", "--n=8", "--out=s.txt"],
    "export-every-option": ["export", "--n", "6", "--zeta=1/2,3,4,5,6,7", "--seed", "4",
                            "--trials", "1", "--side", "both", "--format", "json", "--out", "e"],
    "suite-equals": ["suite", "--min-n=5", "--max-n=7", "--format=json", "--trials=3"],
    "repeated-options": ["verify", "--n", "5", "--format", "json", "--n=6", "--format", "text"],
    "empty-out": ["verify", "--n", "5", "--out", ""],
    "empty-out-equals": ["verify", "--n", "5", "--out="],
    "space-led-int": ["verify", "--n", " 7"],
    "plus-int": ["verify", "--n", "+7"],
    "negative-seed": ["verify", "--n", "5", "--seed", "-3"],
    "bad-int": ["verify", "--n", "five"],
    "bad-int-equals": ["suite", "--min-n=5", "--max-n=x"],
    "bad-int-overridden": ["verify", "--n", "5", "--seed", "x", "--seed", "3"],
    "bad-choice": ["show", "--n", "5", "--side", "both"],
    "missing-value-at-end": ["verify", "--n", "5", "--seed"],
    "double-dash": ["verify", "--", "--n", "5"],
    "trailing-double-dash": ["verify", "--n", "5", "--"],
    "help-after-options": ["verify", "--n", "5", "-h"],
    "verify-help": ["verify", "-h"],
    "version": ["--version"],
    "missing-n": ["verify", "--format", "json"],
    "bad-format": ["export", "--n", "5", "--format", "xml"],
    "unknown-option": ["show", "--n", "5", "--side", "lhs", "--bogus"],
    "stray-token": ["verify", "--n", "5", "stray"],
    "version-after-command": ["verify", "--n", "5", "--version"],
    "zeta-dash-value": ["verify", "--n", "5", "--zeta", "-1,2,3,4,5"],
    "zeta-equals-value": ["verify", "--n", "5", "--zeta=-1,2,3,4,5"],
    "abbreviation": ["verify", "--n", "5", "--se", "3"],
    "unknown-command": ["prove", "--n", "5"],
    "no-arguments": [],
}


def _parse_outcome(parse, argv):
    """The namespace or the exit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parse(list(argv)))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_command_parser_matches_the_full_parser(argv):
    """parse_command_line gives what the full parser gives: the same namespace, or the
    same exit code with byte-identical stdout and stderr."""
    fast = _parse_outcome(parse_command_line, argv)
    assert fast == _parse_outcome(_full_parse, argv)
    assert isinstance(fast[0], dict) or fast[1] + fast[2]


PARSE_TOKENS = sorted(
    {token for argv in PARSE_CASES.values() for token in argv}
    | {o.flag for _, _, options in cli_module.COMMANDS.values() for o in options}
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(list(PARSE_CASES.values())),
    st.lists(
        st.tuples(st.integers(0, 12), st.lists(st.sampled_from(PARSE_TOKENS), max_size=2)),
        max_size=3,
    ),
)
def test_drawn_command_lines_parse_as_the_full_parser(argv, edits):
    """PARSE_CASES lines edited with their own tokens and the option names (each edit puts
    zero to two tokens at a position, where zero deletes the token there): the exact-form
    reader and the fallback together match the full parser."""
    argv = list(argv)
    for at, tokens in edits:
        argv[at:at + (not tokens)] = tokens
    assert _parse_outcome(parse_command_line, argv) == _parse_outcome(_full_parse, argv)


def _count_parsers(monkeypatch) -> list:
    """The prog of every ArgumentParser built from now on, in order."""
    built, real = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_an_accepted_command_line_builds_no_parser(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    assert main(["verify", "--n", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_equal"] is True
    assert built == []


def test_a_rejected_command_line_builds_the_full_parser(monkeypatch, capsys):
    """A line the exact-form reader declines goes to the full tree, and only to it. A
    dash-led --zeta value is one: argparse reads it as an option, and
    perfbench/test_perfbench.py uses that line as its rejected call."""
    built = _count_parsers(monkeypatch)
    for argv, error in (
        (["verify", "--n", "5", "stray"], "ngoneq: error: unrecognized arguments: stray"),
        (["verify", "--n", "5", "--zeta", "-1,2,3,4,5"],
         "ngoneq verify: error: argument --zeta: expected one argument"),
    ):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(error + "\n")
        assert built == ["ngoneq"] + [f"ngoneq {name}" for name in cli_module.COMMANDS]


def test_every_cli_sweep_command_line_is_read_without_a_parser(monkeypatch):
    """Each command line the cli-sweep benchmark workload can run (its set-up line and
    verify and export at every pool assignment, as perfbench/workloads.py's cli_op
    writes them) takes the exact-form reader, with the full parser's namespace."""
    pools = json.loads(PERFBENCH_REFERENCE.read_text())["cli-sweep"]["pools"]
    lines = [["verify", "--n", "5", "--format", "json"]] + [
        [command, "--n", n, *zeta_args, "--format", "json"]
        for n, pool in pools.items()
        for zeta_args in pool["seeded"] + pool["rational"]
        for command in ("verify", "export")
    ]
    built = _count_parsers(monkeypatch)
    parsed = [vars(parse_command_line(argv)) for argv in lines]
    assert built == []
    assert parsed == [vars(_full_parse(argv)) for argv in lines]


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(json_documents)
def test_json_emitter_writes_the_bytes_of_json_dumps_indent_2(doc):
    assert cli_module._json_dumps(doc) == json.dumps(doc, indent=2) + "\n"
