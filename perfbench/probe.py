"""Set-up probe, run in a fresh process: import ngoneq, finish one operation,
and print the seconds that took, then the mean time of the host-speed
calibration kernel (see hostspeed.py) run right after it.

    python3 perfbench/probe.py '["verify", 14, "consecutive"]'

With no argument it only imports the package (used to write bytecode caches
before the timed probes).
"""

import json
import sys
import time

import _root

_root.use_source_tree()

KERNEL_RUNS = 4

start = time.perf_counter()
import workloads  # noqa: E402  (imports ngoneq: part of the measured set-up)

if len(sys.argv) > 1:
    workloads.call(json.loads(sys.argv[1]))
seconds = time.perf_counter() - start

import hostspeed  # noqa: E402

kernel = sum(hostspeed.kernel_seconds() for _ in range(KERNEL_RUNS)) / KERNEL_RUNS
print(seconds, kernel)
