"""Gauges of how fast the host runs right now.

On a shared host the speed of the whole machine drifts, often by a fifth and
sometimes by half, over tens of seconds, so raw times from runs made minutes
apart do not compare. The benchmark reads a gauge next to the work it
measures and scales raw times to a host on which the gauge reads exactly
REFERENCE_S. No gauge uses anything from moessner, so no change to the
library can move it:

- library workloads: a fixed pure-Python kernel doing the kinds of work the
  library does (bytecode and calls, tuple and dict traffic, running sums of
  integers a hundred digits long);
- cli: a bare interpreter start, the same kind of work as a cold CLI call.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

REFERENCE_S = {"walk": 3e-3, "count": 3e-3, "table": 3e-3, "cli": 50e-3}


def gauge_seconds(workload: str, root: Path, env: Dict[str, str]) -> float:
    """One reading of the gauge that suits the workload."""
    if workload == "cli":
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=False)
        return time.perf_counter() - start
    return kernel_seconds()


def _step(history: tuple, k: int) -> int:
    return history[-1] + k


def kernel_seconds() -> float:
    """Time one run of the kernel."""
    start = time.perf_counter()
    acc, big, seen = 0, 10**60, {}
    for i in range(4700):
        pair = (i, i + 1)
        acc += pair[0] * pair[1]
        big += acc
        seen[i & 63] = pair
    total = 10**90
    for i in range(1500):
        history = (0,) * 30 + (i,)
        if isinstance(history, tuple):
            total += _step(history, i)
    running, row = 0, []
    for value in range(10**100, 10**100 + 3000):
        running += value
        row.append(running)
    return time.perf_counter() - start
