import ast
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import ngoneq
from ngoneq import (
    InvalidInputError,
    PropertyResult,
    ZetaAssignment,
    verify_with_properties,
)
from ngoneq.verifier import FirstDifference
from oracles import f_vector_table

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves_and_the_list_is_sorted_without_duplicates():
    names = ngoneq.__all__
    assert [name for name in names if not hasattr(ngoneq, name)] == []
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_star_import_succeeds():
    namespace = {}
    exec("from ngoneq import *", namespace)
    assert set(ngoneq.__all__) <= set(namespace)


def test_no_module_names_the_row_walk():
    """A side product is one column walk (``pmatrix.side_columns``); the row walk it replaced,
    ``side_rows``, is kept in ``tests/oracles.py`` only, not beside it in the package."""
    naming = sorted(p.name for p in (SRC / "ngoneq").glob("*.py") if "side_rows" in p.read_text())
    assert naming == []


def test_no_module_names_the_forward_factor_walk():
    """An extended matrix is the side product of its one-move sequence (``side_columns`` read
    through ``true_product``): no module names ``side_factors``, the forward walk it replaced,
    and the command line imports neither it nor ``true_rows``."""
    naming = sorted(p.name for p in (SRC / "ngoneq").glob("*.py")
                    if "side_factors" in p.read_text())
    assert naming == []
    imports = ast.parse((SRC / "ngoneq" / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(imports) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"side_factors", "true_rows"})


def test_only_pmatrix_reads_a_move_matrix():
    """A move matrix (N, W) is read out of the gauge only in ``pmatrix``: ``true_rows`` does
    the lcm and scale work of the row-sum property, so ``verifier`` imports neither ``lcm``
    nor ``mul``, and the one call of ``true_rows`` in the package is ``_prop_row_sums``."""
    trees = {p.name: ast.parse(p.read_text()) for p in (SRC / "ngoneq").glob("*.py")}
    imported = {alias.name for node in ast.walk(trees["verifier.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"lcm", "mul"})
    callers = sorted((name, function.name) for name, tree in trees.items()
                     for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                     for node in ast.walk(function) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", getattr(node.func, "attr", None)) == "true_rows")
    assert callers == [("verifier.py", "_prop_row_sums")]


def test_the_version_is_declared_in_one_place():
    """``pyproject.toml`` declares no version of its own: setuptools reads it from
    ``ngoneq.version.__version__``, the value the canonical JSON report prints."""
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = SRC.parent / "pyproject.toml"
    with warnings.catch_warnings():  # setuptools marks [tool.setuptools] as beta
        warnings.simplefilter("ignore")
        declared = read_configuration(pyproject, expand=False)["project"]
        resolved = read_configuration(pyproject)["project"]
    assert "version" not in declared and declared["dynamic"] == ["version"]
    assert resolved["version"] == ngoneq.__version__


def test_importing_the_package_and_cli_loads_no_heavy_stdlib_module():
    """dataclasses (with inspect), typing, traceback and argparse (with gettext) cost
    start-up time on every command; a fresh interpreter without site imports none of them
    for ngoneq, nor while cli.main runs an accepted command line."""
    heavy = ("dataclasses", "inspect", "typing", "traceback", "argparse", "gettext")
    report = f"print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for run in ("", "ngoneq.cli.main(['verify', '--n', '5', '--format', 'json'])"):
        code = f"import sys, ngoneq, ngoneq.cli\n{run}\n{report}"
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]", run


def _records():
    """One instance of every public record type, from a real verification at n = 6."""
    report = verify_with_properties(6, ZetaAssignment.consecutive(6))
    lhs = report.lhs
    return {
        "ZetaAssignment": report.zeta,
        "Triangulation": lhs.path[0],
        "PachnerMove": lhs.moves[0],
        "MoveSequence": lhs,
        "FVector": next(iter(f_vector_table(6, report.zeta).values())),
        "FirstDifference": FirstDifference(0, 1, (1, 2, 3), (1, 2, 4), "1", "2"),
        "PropertyResult": report.properties[0],
        "VerificationReport": report,
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_every_record_field_is_read_only_and_the_record_is_its_fields(name):
    record = _records()[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert tuple(record) == tuple(getattr(record, field) for field in record._fields)
    assert record._replace() == record and hash(record._replace()) == hash(record)


def test_report_equality_and_hash_ignore_timings_only():
    report = verify_with_properties(5, ZetaAssignment.consecutive(5))
    timed = report._replace()
    timed.timings = {"sequences": 1.0}
    assert report.timings and report == timed and not report != timed
    assert hash(report) == hash(timed)
    assert report != report._replace(equal=False)
    assert report.properties is not None
    assert report != report._replace(properties=None)


def test_record_construction_keeps_defaults_and_indexing():
    """The constructors' checks are pinned by test_simplicial.py::test_move_validation
    and test_verifier.py::test_verify_rejects_duplicate_assignment."""
    zeta = ZetaAssignment(5, tuple(Fraction(v) for v in range(1, 6)))
    assert zeta.label == "explicit" and zeta[1] == 1 and zeta[5] == 5
    assert zeta == (5, zeta.values, "explicit")
    with pytest.raises(InvalidInputError):
        zeta[0]
    report = verify_with_properties(5, zeta)
    triangulation = report.lhs.path[0]
    assert len(triangulation) == len(triangulation.pairs) == 3
    assert triangulation._replace(n=5) == triangulation == (5, triangulation.pairs)
    assert PropertyResult("row_sums", True) == ("row_sums", True, "")
    vector = f_vector_table(5, zeta)[triangulation.pairs[0]]
    assert vector[1] == vector.components[0]
