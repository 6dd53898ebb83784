"""Run the benchmark over several seeds and report the run-to-run spread of
every end-to-end metric: the distance between the first and third quartile of
its values as a share of their median.

    python3 perfbench/spread.py --workloads cli-sweep --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

With ``--out`` it also makes one traced run per workload and writes every run
(its result, provenance, host-speed calibration, unscaled pass times and
per-kind medians) and the summary to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("# provenance "):
            record["provenance"] = json.loads(line[len("# provenance "):])
        elif line.startswith("# op_s.p50 by kind "):
            record["op_s_p50_by_kind"] = json.loads(line[len("# op_s.p50 by kind "):])
        elif line.startswith("op_s.p90 "):
            record["op_s_p90"] = line
        elif line.startswith("# calibration "):
            record["calibration"] = line[len("# calibration "):]
        elif line.startswith("# raw pass wall_s "):
            record["raw_pass_wall_s"] = json.loads(line[len("# raw pass wall_s "):])
    return record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, help="write all runs and the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: (m["bound"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    runs, summary = [], {}
    for workload in args.workloads:
        records = [run_once(workload, seed, args.seconds, False) for seed in args.seeds]
        runs.extend(records)
        failed = sum(r["result"]["failed"] for r in records)
        summary[workload] = {"failed": failed, "metrics": {}}
        print(f"{workload}: {len(records)} runs, {failed} failed operations")
        for name, (bound, unit) in bounds.items():
            stats = summarize([r["result"]["metrics"][name]["value"] for r in records])
            summary[workload]["metrics"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {name:14s} median {stats['median']:.6g} {unit}  spread {stats['spread']:.3f}"
                  f"  bound {bound}  {flag}")
        if args.out:
            runs.append(run_once(workload, args.seeds[0], args.seconds, True))
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
