"""Workload definitions: which operations one pass runs, how each is executed,
and how its output is checked against the committed reference digests.

An operation is a plain tuple so that it can be passed to a fresh process:

    ("verify", n, zeta)   ngoneq.verify_equation(n, zeta)
    ("suite", n, zeta)    ngoneq.verify_with_properties(n, zeta)
    ("cli", argv)         ngoneq.cli.main(argv), stdout captured in memory

where ``zeta`` is "consecutive" or an integer seed for
``ZetaAssignment.random_distinct``. Inputs are drawn from the pools stored in
``reference.json`` (written by ``make_reference.py``), keyed by n, which also
holds the SHA-256 digest of every pool input's canonical output at the
baseline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import _root

_root.use_source_tree()

import ngoneq  # noqa: E402  (from this checkout's src, see _root)
from ngoneq import cli  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

VERIFY_LARGE_N = (12, 13, 14)
VERIFY_LARGE_RANDOM_PER_N = 2
SUITE_MID_N = (8, 9, 10)
CLI_SWEEP_N = tuple(range(5, 12))
CLI_VERIFY_PER_KIND_PER_N = 7  # seeded-integer and explicit-rational calls per n


def op_key(op: tuple) -> str:
    """Stable text name of an operation; the key of its reference digest."""
    if op[0] == "cli":
        return "cli " + " ".join(op[1])
    return f"{op[0]} n={op[1]} zeta={op[2]}"


def op_kind(op: tuple) -> str:
    """Operation, size and assignment class (consecutive, seeded or rational),
    the grouping for the per-kind medians printed beside the metrics."""
    if op[0] == "cli":
        zeta_class = "rational" if any(a.startswith("--zeta=") for a in op[1]) else "seeded"
        return f"cli {op[1][0]} n={op[1][2]} {zeta_class}"
    zeta_class = "consecutive" if op[2] == "consecutive" else "seeded"
    return f"{op[0]} n={op[1]} {zeta_class}"


def _zeta(n: int, spec) -> ngoneq.ZetaAssignment:
    if spec == "consecutive":
        return ngoneq.ZetaAssignment.consecutive(n)
    return ngoneq.ZetaAssignment.random_distinct(n, spec)


def call(op: tuple):
    """Run one operation through the public API; this is the timed part."""
    if op[0] == "verify":
        return ngoneq.verify_equation(op[1], _zeta(op[1], op[2]))
    if op[0] == "suite":
        return ngoneq.verify_with_properties(op[1], _zeta(op[1], op[2]))
    if op[0] == "cli":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(list(op[1]))
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
        return code, buffer.getvalue()
    raise ValueError(f"unknown operation kind {op[0]!r}")


def canonical_output(op: tuple, result) -> tuple[bytes, str]:
    """The bytes whose digest is checked, and why the result is wrong ("" if it
    looks right before the digest comparison)."""
    if op[0] == "cli":
        code, text = result
        return text.encode("utf-8"), "" if code == 0 else f"exit code {code}"
    doc = result.to_json_dict()
    problem = "" if result.equal else "equal=False"
    if result.properties is not None:
        failing = [p.name for p in result.properties if not p.passed]
        if failing:
            problem = "failing properties: " + ",".join(failing)
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return data, problem


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op: tuple, result, references: dict[str, str]) -> str:
    """Empty string when the output is correct, else the reason it is not."""
    data, problem = canonical_output(op, result)
    if problem:
        return problem
    want = references.get(op_key(op))
    if want is None:
        return "no reference digest"
    if digest(data) != want:
        return "digest differs from reference"
    return ""


def out_bytes(op: tuple, result) -> int:
    """Bytes the CLI wrote for one call (0 for library calls)."""
    return len(result[1].encode("utf-8")) if op[0] == "cli" else 0


@dataclass(frozen=True)
class Workload:
    """A closed loop with one client: each pass is a fixed-length list of
    operations drawn from the pool by the seed and the pass number."""

    name: str
    setup_op: tuple
    make_pass: Callable[[random.Random, dict], list[tuple]]
    pools: dict
    references: dict

    def pass_ops(self, seed: int, pass_index: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        ops = self.make_pass(rng, self.pools)
        rng.shuffle(ops)
        return ops


def _verify_large_pass(rng: random.Random, pools: dict) -> list[tuple]:
    ops = []
    for n, seeds in pools.items():
        ops.append(("verify", int(n), "consecutive"))
        for seed in rng.sample(seeds, VERIFY_LARGE_RANDOM_PER_N):
            ops.append(("verify", int(n), seed))
    return ops


def _suite_mid_pass(rng: random.Random, pools: dict) -> list[tuple]:
    return [("suite", int(n), "consecutive") for n in pools]


def cli_op(command: str, n: int, zeta_args) -> tuple:
    """``verify`` or ``export`` at n with JSON output; ``zeta_args`` is
    ``["--seed", s]`` or ``["--zeta=p/q,..."]``."""
    return ("cli", (command, "--n", str(n), *zeta_args, "--format", "json"))


def _cli_sweep_pass(rng: random.Random, pools: dict) -> list[tuple]:
    ops = []
    for n, pool in pools.items():
        n = int(n)
        for kind in ("seeded", "rational"):
            for zeta_args in rng.sample(pool[kind], CLI_VERIFY_PER_KIND_PER_N):
                ops.append(cli_op("verify", n, zeta_args))
        ops.append(cli_op("export", n, rng.choice(pool["seeded"] + pool["rational"])))
    return ops


SETUP_OPS = {
    "verify-large": ("verify", VERIFY_LARGE_N[0], "consecutive"),
    "suite-mid": ("suite", SUITE_MID_N[0], "consecutive"),
    "cli-sweep": cli_op("verify", CLI_SWEEP_N[0], ()),
}

PASS_BUILDERS = {
    "verify-large": _verify_large_pass,
    "suite-mid": _suite_mid_pass,
    "cli-sweep": _cli_sweep_pass,
}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build(name: str, reference: dict | None = None) -> Workload:
    """The named workload with its pool and reference digests."""
    entry = (reference if reference is not None else load_reference())[name]
    return Workload(
        name=name,
        setup_op=SETUP_OPS[name],
        make_pass=PASS_BUILDERS[name],
        pools=entry["pools"],
        references=entry["digests"],
    )
