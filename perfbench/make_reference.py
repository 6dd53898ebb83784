"""Write reference.json: the input pools the workloads draw from, and the
SHA-256 digest of every pool input's canonical output.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted (the reference freezes the
canonical JSON bytes); a later run that differs from these digests counts the
operation as failed. Takes about two minutes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import workloads

POOL_SIZE = 16  # assignments per n and kind


def _rational_strings(n: int, k: int) -> list[str]:
    """n distinct high-height rationals, such as -123456789/654321."""
    rng = random.Random(f"rational:{n}:{k}")
    values: list[Fraction] = []
    while len(values) < n:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(10**8, 10**9), rng.randint(10**5, 10**6))
        if value not in values:
            values.append(value)
    return [str(v) for v in values]


def pools() -> dict:
    seeds = list(range(1, POOL_SIZE + 1))
    return {
        "verify-large": {str(n): seeds for n in workloads.VERIFY_LARGE_N},
        "suite-mid": {str(n): ["consecutive"] for n in workloads.SUITE_MID_N},
        "cli-sweep": {
            str(n): {
                "seeded": [["--seed", str(s)] for s in seeds],
                "rational": [
                    ["--zeta=" + ",".join(_rational_strings(n, k))] for k in range(POOL_SIZE)
                ],
            }
            for n in workloads.CLI_SWEEP_N
        },
    }


def pool_ops(name: str, pool: dict) -> list[tuple]:
    """Every operation a pass of the workload can draw."""
    if name == "verify-large":
        return [
            ("verify", int(n), zeta) for n, seeds in pool.items() for zeta in ["consecutive", *seeds]
        ]
    if name == "suite-mid":
        return [("suite", int(n), zeta) for n, zetas in pool.items() for zeta in zetas]
    return [
        workloads.cli_op(command, int(n), zeta_args)
        for n, kinds in pool.items()
        for zeta_args in kinds["seeded"] + kinds["rational"]
        for command in ("verify", "export")
    ]


def build_reference() -> dict:
    """Pools and digests of every workload, from the code as it is now."""
    reference = {}
    for name, pool in pools().items():
        digests = {}
        for op in pool_ops(name, pool):
            data, problem = workloads.canonical_output(op, workloads.call(op))
            if problem:
                raise RuntimeError(f"{workloads.op_key(op)}: {problem}")
            digests[workloads.op_key(op)] = workloads.digest(data)
        reference[name] = {"pools": pool, "digests": digests}
    return reference


def main() -> int:
    reference = build_reference()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, entry in reference.items():
        print(f"{name}: {len(entry['digests'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
