"""Byte-identity goldens: SHA-256 digests of what the commands print.

For n = 5..12 at four assignments (consecutive, ``--seed 3``, and the explicit
values of ``negative_fractional`` and of ``mixed_denominators``, each given as
``--zeta=...``) this digests the output of ``verify --format json``, ``export
--format json`` and ``export --format latex``, each export also with ``--side
lhs`` and ``--side rhs``, and the property-suite report
``verify_with_properties(...).to_json_dict()`` together with every property's
detail (the suite command prints wall times, so its text is not compared). It
also digests ``show --side lhs`` and ``show --side rhs`` for each n.

The recorded digests live in ``output_digests.json`` beside this file. Record
them again only at a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_output_digests.py > tests/output_digests.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ngoneq import ZetaAssignment, verify_with_properties
from ngoneq.cli import main
from oracles import mixed_denominators, negative_fractional

RECORDED = Path(__file__).with_name("output_digests.json")
SIZES = range(5, 13)


def _assignments(n: int) -> dict[str, tuple[list[str], ZetaAssignment]]:
    """Per assignment name, its command-line options and the assignment they give."""
    explicit, mixed = (",".join(values(n).to_strings())
                       for values in (negative_fractional, mixed_denominators))
    return {
        "consecutive": ([], ZetaAssignment.consecutive(n)),
        "seed3": (["--seed", "3"], ZetaAssignment.random_distinct(n, 3)),
        "explicit": ([f"--zeta={explicit}"], ZetaAssignment.from_strings(explicit.split(","))),
        "mixed": ([f"--zeta={mixed}"], ZetaAssignment.from_strings(mixed.split(","))),
    }


def _printed(*argv: str) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue().encode()


def _suite_report(n: int, zeta: ZetaAssignment) -> bytes:
    report = verify_with_properties(n, zeta)
    doc = {"report": report.to_json_dict(), "details": {p.name: p.detail for p in report.properties}}
    return json.dumps(doc, indent=2).encode()


def _outputs(n: int):
    """(name, bytes) of every digested output for one n."""
    for side in ("lhs", "rhs"):
        yield f"n={n} show {side}", _printed("show", "--n", str(n), "--side", side)
    for label, (options, zeta) in _assignments(n).items():
        size = ["--n", str(n), *options]
        yield f"n={n} verify json {label}", _printed("verify", *size, "--format", "json")
        yield f"n={n} export json {label}", _printed("export", *size, "--format", "json")
        yield f"n={n} export latex {label}", _printed("export", *size, "--format", "latex")
        yield f"n={n} suite report {label}", _suite_report(n, zeta)
        for fmt in ("json", "latex"):
            for side in ("lhs", "rhs"):
                yield f"n={n} export {fmt} {label} {side}", _printed(
                    "export", *size, "--format", fmt, "--side", side)


def digests(n: int) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _outputs(n)}


@pytest.mark.parametrize("n", SIZES)
def test_outputs_match_recorded_digests(n):
    recorded = json.loads(RECORDED.read_text())
    assert digests(n) == {k: v for k, v in recorded.items() if k.split()[0] == f"n={n}"}


if __name__ == "__main__":
    sys.stdout.write(json.dumps({k: v for n in SIZES for k, v in digests(n).items()}, indent=2) + "\n")
