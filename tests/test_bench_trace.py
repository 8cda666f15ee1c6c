"""The benchmark's traced worker runs end to end on a short op list.

A traced run wraps every binding in perfbench/tracer.py, and the walk
workload counts its leaves by evaluate_counting on copies of its programs
made by dataclasses.replace, which start without an analysis. The worker is
started as perfbench/run.py starts it, from a temporary root whose src links
to this checkout's, so the spans file it writes stays out of the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_OPS = {
    "walk": [
        {"op": "evaluate", "preset": "moessner", "params": {"x": 2, "n": 3}},
        {"op": "evaluate", "preset": "a137273", "params": {"n": 6}},
        {"op": "evaluate", "preset": "fibonacci", "params": {"n": 12}},
    ],
    "count": [
        {"op": "evaluate_counting", "preset": "catalan", "params": {"n": 5}},
        {"op": "evaluate_counting", "preset": "a137273", "params": {"n": 7}},
        {"op": "evaluate_counting", "preset": "positive_integers", "params": {"n": 20}},
    ],
    "table": [
        {"op": "evaluate_memoized", "preset": "fibonacci", "params": {"n": 300}},
        {"op": "evaluate_memoized", "preset": "catalan", "params": {"n": 20}},
        {"op": "dp_power", "x": 3, "n": 5},
    ],
}


@pytest.mark.parametrize("workload", sorted(_OPS))
def test_traced_worker_checks_every_op(tmp_path, workload):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    job = {"workload": workload, "ops": _OPS[workload], "mode": "trace", "root": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1"),
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["reasons"]
    assert result["attempted"] == 3 * len(_OPS[workload])  # traced, untraced, traced
    assert result["counts_repeat"]
    assert (tmp_path / ".bench_build" / "perfbench" / f"spans-{workload}.jsonl").is_file()
