"""ngoneq benchmark: run one workload as a closed loop with one client.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

The run repeats passes (a fixed list of operations drawn by the seed) until
``--seconds`` is used up, checks every output against the reference digests,
and prints one line per metric followed, as the last line, by a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every operation twice,
untraced and traced back to back, and reports the per-layer metrics. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import _root
import hostspeed
import tracing
import workloads

SETUP_SAMPLES = 9
CALIBRATE_EVERY_S = 0.25  # seconds of operations between calibration kernel runs
PROBE_TIMEOUT_S = 150
WORKLOAD_NAMES = tuple(workloads.PASS_BUILDERS)

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


# ---- provenance ------------------------------------------------------------

def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories when the checkout is not a repository)."""
    git = _root.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# ---- set-up ------------------------------------------------------------------

def _probe(op: tuple | None) -> float:
    """Scaled seconds (see hostspeed.py) for a fresh process to import ngoneq
    and finish ``op``, scaled by the kernel the same process runs right after."""
    argv = [sys.executable, str(_root.ROOT / "perfbench" / "probe.py")]
    if op is not None:
        argv.append(json.dumps(op))
    done = subprocess.run(
        argv, cwd=_root.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    seconds, kernel = (float(x) for x in done.stdout.split())
    return seconds * hostspeed.REFERENCE_KERNEL_S / kernel


def measure_setup(op: tuple) -> list[float]:
    """Scaled seconds to import ngoneq and finish the first call, each in a
    fresh process. An import-only probe first writes the bytecode caches."""
    _probe(None)
    return [_probe(op) for _ in range(SETUP_SAMPLES)]


# ---- the closed loop ----------------------------------------------------------

class Samples:
    """Operation times of one kind of run (untraced or traced): the raw wall
    seconds of each operation with its pass, kind and host-speed index."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.passes: list[int] = []
        self.kinds: list[str] = []
        self.clock_index: list[int] = []

    def scaled(self, clock: hostspeed.Clock) -> list[float]:
        return [s * clock.scale(i) for s, i in zip(self.seconds, self.clock_index)]

    def pass_walls(self, seconds: list[float]) -> list[float]:
        walls = [0.0] * (max(self.passes) + 1)
        for pass_index, s in zip(self.passes, seconds):
            walls[pass_index] += s
        return walls

    def by_kind(self, seconds: list[float]) -> dict[str, list[float]]:
        groups: defaultdict[str, list[float]] = defaultdict(list)
        for kind, s in zip(self.kinds, seconds):
            groups[kind].append(s)
        return dict(sorted(groups.items()))


class Loop:
    """Runs passes one operation at a time. Untraced, every operation runs
    once; traced, every operation runs twice back to back, once untraced and
    once traced (alternating which goes first), so that the tracing overhead
    is measured on the same inputs under the same machine load. The
    calibration kernel runs between operations, outside their timing."""

    def __init__(self, workload, seed: int, tracer: tracing.Tracer | None = None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.plain = Samples()
        self.traced = Samples() if tracer is not None else None
        self.clock = hostspeed.Clock(CALIBRATE_EVERY_S)
        self.attempted = 0
        self.failures: list[str] = []

    def _run_op(self, op: tuple, pass_index: int, samples: Samples, traced: bool) -> None:
        self.attempted += 1
        error = ""
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            root = self.tracer.begin_op(self.attempted, start) if traced else None
            try:
                result = workloads.call(op)
            except Exception as exc:  # a raising operation is a failed operation
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if traced:
                self.tracer.close(root, end)
        finally:
            if traced:
                self.tracer.uninstall()
        samples.seconds.append(end - start)
        samples.passes.append(pass_index)
        samples.kinds.append(workloads.op_kind(op))
        if not error:
            error = workloads.check(op, result, self.workload.references)
            if traced:
                self.tracer.counts["cli.out_bytes"] += workloads.out_bytes(op, result)
        if error:
            self.failures.append(f"{workloads.op_key(op)}: {error}")
        samples.clock_index.append(self.clock.record(end - start))

    def run_pass(self, pass_index: int) -> None:
        for i, op in enumerate(self.workload.pass_ops(self.seed, pass_index)):
            if self.traced is None:
                self._run_op(op, pass_index, self.plain, False)
                continue
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                samples = self.traced if traced else self.plain
                self._run_op(op, pass_index, samples, traced)

    def run_for(self, seconds: float) -> None:
        """Start passes 0, 1, ... while the next one is predicted to end within
        ``seconds``; always run at least one."""
        began = time.perf_counter()
        elapsed_per_pass = []
        while True:
            t0 = time.perf_counter()
            self.run_pass(len(elapsed_per_pass))
            elapsed_per_pass.append(time.perf_counter() - t0)
            used = time.perf_counter() - began
            if used + statistics.median(elapsed_per_pass) > seconds:
                self.clock.finish()
                return


def end_to_end(loop: Loop, setup: list[float]) -> dict[str, float]:
    """Medians of the scaled times measured in this run: of whole passes for
    ``wall_s`` and of single operations for ``op_s.p50``."""
    seconds = loop.plain.scaled(loop.clock)
    walls = loop.plain.pass_walls(seconds)
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "ops_per_s": len(seconds) / len(walls) / wall,
        "op_s.p50": statistics.median(seconds),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(loop: Loop) -> dict[str, float]:
    """Per-pass layer metrics and tracing overhead, in raw wall seconds (each
    operation's traced and untraced runs are back to back, so they share the
    host's speed)."""
    traced = loop.traced.pass_walls(loop.traced.seconds)
    plain = loop.plain.pass_walls(loop.plain.seconds)
    values = loop.tracer.summary(len(traced))
    values["trace.wall_s"] = statistics.fmean(traced)
    values["trace.untraced_wall_s"] = statistics.fmean(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


# ---- reporting ------------------------------------------------------------------

def _print_details(loop: Loop, prov: dict) -> None:
    """Provenance, failures, host speed, and the timing details of the
    untraced samples that are not gated end-to-end metrics."""
    samples = loop.plain
    seconds = samples.scaled(loop.clock)
    walls = samples.pass_walls(seconds)
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(
        f"# workload {loop.workload.name}: {len(walls)} passes, "
        f"{loop.attempted} operations, closed loop, 1 client"
    )
    kernels = loop.clock.kernels
    print(f"# calibration kernel_s median {statistics.median(kernels):.6g} "
          f"min {min(kernels):.6g} max {max(kernels):.6g} runs {len(kernels)} "
          f"(reference {hostspeed.REFERENCE_KERNEL_S})")
    print(f"# pass wall_s {json.dumps([round(w, 4) for w in walls])}")
    raw_walls = samples.pass_walls(samples.seconds)
    print(f"# raw pass wall_s {json.dumps([round(w, 4) for w in raw_walls])}")
    print(f"fail_share {len(loop.failures) / loop.attempted:.6g} share "
          f"({len(loop.failures)}/{loop.attempted})")
    for failure in loop.failures[:10]:
        print(f"# FAILED {failure}")
    if len(seconds) >= 10:
        p90 = statistics.quantiles(seconds, n=10)[-1]
        above = sum(1 for s in seconds if s > p90)
        if above >= 10:
            print(f"op_s.p90 {p90:.6g} s (samples={len(seconds)}, above={above})")
    medians = {k: round(statistics.median(v), 6) for k, v in samples.by_kind(seconds).items()}
    print(f"# op_s.p50 by kind {json.dumps(medians)}")


def run(name: str, seed: int, seconds: float, trace: bool, reference: dict | None = None) -> dict:
    """Run one workload, print its report and return the result object."""
    workload = workloads.build(name, reference)
    setup = measure_setup(workload.setup_op)
    loop = Loop(workload, seed, tracing.Tracer() if trace else None)
    loop.run_for(seconds)
    if trace:
        metrics = {k: (v, tracing.unit_of(k)) for k, v in per_layer(loop).items()}
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(loop, setup).items()}

    _print_details(loop, provenance(seed))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
