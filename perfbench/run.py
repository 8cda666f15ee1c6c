"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 it measures one workload in
fresh worker processes and prints the end-to-end metrics; with --trace 1 it
traces all four workloads and prints the per-layer metrics. Either way it
then runs the large-output probe, prints an environment record, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. It exits
1 when any output is wrong or a trace's counts do not repeat, and 2 when the
checkout has no moessner sources. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import REFERENCE_S
from workloads import MIN_PASSES, WORKLOADS, make_ops, tail_percentile

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
# (9+1)^4301 has 4,302 digits, past Python's default int-to-str limit of 4,300
BIG_OUTPUT_ARGV = ["eval", "--preset", "moessner_stolid", "--params", "x=9,n=4301", "--memoized"]
BIG_OUTPUT_VALUE = 10**4301


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, job: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
    """Start a worker, hand it the job, return (start time, its result)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(dict(job, root=str(root))),
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
            timeout=WORKER_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{job['workload']} {job['mode']} worker ran past {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise WorkerError(f"{job['workload']} {job['mode']} worker exited {done.returncode}: {done.stderr[-2000:]}")
    return started, json.loads(done.stdout.splitlines()[-1])


def percentile(sorted_values: List[float], p: float) -> float:
    """Linear interpolation between the closest ranks, as statistics.quantiles(method="inclusive")."""
    position = p / 100.0 * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def measure(root: Path, workload: str, ops: List[Dict[str, Any]], seconds: int, lines: List[str]) -> Tuple[Dict[str, Any], int, int]:
    job = {"workload": workload, "ops": ops, "seconds": seconds, "min_passes": MIN_PASSES}
    reference = REFERENCE_S[workload]
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES):
        started, result = run_worker(root, dict(job, mode="measure" if i == SETUP_SAMPLES - 1 else "setup"))
        raw_setups.append(result["ready"] - started)
        setups.append(raw_setups[-1] * reference / statistics.median(result["setup_gauge"]))

    # Scale each op's time to the reference host speed by the mean of the two
    # gauge readings that bracket it; an op's latency is then its median over
    # the passes.
    m, latencies, gauge = len(ops), result["latencies"], result["gauge"]
    scales = [2 * reference / (gauge[j] + gauge[j + 1]) for j in range(len(latencies))]
    scaled = [t * scale for t, scale in zip(latencies, scales)]
    per_op = sorted(statistics.median(scaled[i::m]) for i in range(m))
    raw_per_op = sorted(statistics.median(latencies[i::m]) for i in range(m))
    tail_p = tail_percentile(m)
    values = {
        "ops_per_s": (m / sum(per_op), "1/s"),
        "op_p50_ms": (percentile(per_op, 50.0) * 1000, "ms"),
        "op_tail_ms": (percentile(per_op, tail_p) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }
    raw = {
        "ops_per_s": f"{m / sum(raw_per_op):.6g}",
        "op_p50_ms": f"{percentile(raw_per_op, 50.0) * 1000:.6g}",
        "op_tail_ms": f"{percentile(raw_per_op, tail_p) * 1000:.6g}",
        "setup_s": f"{statistics.median(raw_setups):.6g}",
    }
    count = len(latencies)
    notes = {
        "ops_per_s": f"{m} ops at their median over {result['passes']} passes",
        "op_p50_ms": f"p50 of {m} per-op medians",
        "op_tail_ms": f"p{tail_p:g} of {m} per-op medians, {m - 1 - math.floor(tail_p / 100 * (m - 1))} beyond it",
        "setup_s": f"median of {SETUP_SAMPLES} workers",
        "peak_rss_mib": "largest child" if workload == "cli" else "worker process",
    }
    for name, (value, unit) in values.items():
        unscaled = f"; unscaled {raw[name]}" if name in raw else ""
        lines.append(f"{workload} {name} {value:.6g} {unit}  ({notes[name]}{unscaled})")
    lines.append(
        f"{workload} host gauge: median {statistics.median(gauge) * 1000:.4g} ms per reading, "
        f"reference {reference * 1000:g} ms; op scales {min(scales):.3f} to {max(scales):.3f}"
    )
    lines.append(f"{workload} error_rate {result['failed'] / count:.6g}  ({result['failed']} of {count} ops failed)")
    lines += [f"  failed: {reason}" for reason in result["reasons"]]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, result["attempted"], result["failed"]


def trace(root: Path, seed: int, lines: List[str]) -> Tuple[Dict[str, Any], int, int, bool]:
    results = {}
    for workload in WORKLOADS:
        ops = make_ops(workload, seed)
        _started, results[workload] = run_worker(root, {"workload": workload, "ops": ops, "mode": "trace"})
        results[workload]["ops"] = ops

    def layer(workload: str, name: str, key: str) -> float:
        return results[workload]["layers"].get(name, {}).get(key, 0)

    m: Dict[str, Tuple[float, str]] = {}
    m["presets.build.calls"] = (sum(layer(w, "presets.build", "calls") for w in WORKLOADS), "count")
    m["presets.build.self_s"] = (sum(layer(w, "presets.build", "self_s") for w in WORKLOADS), "s")
    sources = {
        "cli": ["engine.validate", "engine.is_markov", "oeis.load_fixture", "oeis.check_preset_prefix"],
        "walk": ["expr.compile_expr", "engine.evaluate"],
        "count": ["engine.evaluate_counting", "expr.eval_expr_counted"],
        "table": ["engine.evaluate_memoized", "expr.eval_expr", "process.dp_power", "process.run_process", "inverse.run_inverse"],
    }
    keys = {
        "engine.evaluate": ["calls", "self_s", "leaves"],
        "engine.evaluate_counting": ["calls", "self_s", "leaves", "additions"],
        "expr.eval_expr_counted": ["calls"],
        "process.dp_power": ["self_s", "additions"],
        "process.run_process": ["self_s", "cells"],
        "inverse.run_inverse": ["self_s", "cells"],
        "oeis.check_preset_prefix": ["calls", "self_s", "lines", "mismatches"],
    }
    for workload, names in sources.items():
        for name in names:
            for key in keys.get(name, ["calls", "self_s"]):
                m[f"{name}.{key}"] = (layer(workload, name, key), "s" if key == "self_s" else "count")
    for name, workload in (("engine.evaluate", "walk"), ("engine.evaluate_counting", "count")):
        m[f"{name}.leaves_per_s"] = (layer(workload, name, "leaves") / layer(workload, name, "self_s"), "1/s")

    table = results["table"]
    memo_i = table["ops"].index({"op": "evaluate_memoized", "preset": "moessner", "params": {"x": 200, "n": 40}})
    dp_i = table["ops"].index({"op": "dp_power", "x": 200, "n": 40})
    memo_s, dp_s = table["op_seconds"][memo_i], table["op_seconds"][dp_i]
    m["engine.evaluate_memoized.vs_dp_power"] = (memo_s / dp_s, "ratio")
    m["engine.evaluate_memoized.vs_dp_power.memo_s"] = (memo_s, "s")
    m["engine.evaluate_memoized.vs_dp_power.dp_s"] = (dp_s, "s")

    cli = results["cli"]
    calls = len(cli["ops"])
    main_self = layer("cli", "cli.main", "self_s") / calls
    library = sum(row["self_s"] for name, row in cli["layers"].items() if name != "cli.main") / calls
    interp, imported = cli["cli"]["interp_s"], cli["cli"]["import_s"]
    m["cli.interp_s"] = (interp, "s")
    m["cli.import_s"] = (imported - interp, "s")
    m["cli.main.self_s"] = (main_self, "s")
    m["cli.library_s"] = (library, "s")
    m["cli.residual_s"] = (cli["cli"]["cold_s"] - imported - main_self - library, "s")
    for workload in WORKLOADS:
        m[f"trace.overhead_ratio.{workload}"] = (results[workload]["overhead_ratio"], "ratio")

    for name, (value, unit) in m.items():
        lines.append(f"{name} {value:.6g} {unit}")
    repeat = all(r["counts_repeat"] for r in results.values())
    lines.append("exact counts repeat across the two traced passes: " + ("yes" if repeat else "NO"))
    for workload, result in results.items():
        lines += [f"  {workload} failed: {reason}" for reason in result["reasons"]]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return metrics, attempted, failed, repeat


def big_output_errors(root: Path, lines: List[str]) -> int:
    """Run the CLI on a value past Python's int-to-str digit limit; 1 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "moessner", *BIG_OUTPUT_ARGV]
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=False, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        lines.append(f"cli.big_output.errors 1  ({' '.join(BIG_OUTPUT_ARGV)}: ran past {WORKER_TIMEOUT_S} s)")
        return 1
    elapsed = time.perf_counter() - started
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # this process only, to print the reference
    try:
        ok = done.returncode == 0 and done.stdout.strip() == str(BIG_OUTPUT_VALUE)
    finally:
        sys.set_int_max_str_digits(limit)
    reason = "ok" if ok else f"exit {done.returncode}, {done.stderr.strip().splitlines()[-1:] or ['no stderr']}"
    lines.append(f"cli.big_output.errors {0 if ok else 1}  ({' '.join(BIG_OUTPUT_ARGV)}: {reason}, {elapsed:.2f} s)")
    return 0 if ok else 1


def environment(root: Path, workload: str, seed: int, ops: Any) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_rev": git_rev(root),
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "ops_sha256": hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16],
    }


def git_rev(root: Path) -> str:
    """HEAD's commit read from .git, or 'none' outside a git checkout."""
    git = root / ".git"
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
    return "none"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "moessner" / "__init__.py").is_file():
        print(f"error: no src/moessner under {root}; run from the root of a checkout", file=sys.stderr)
        return 2

    lines: List[str] = []
    if args.trace:
        env_ops: Any = {w: make_ops(w, args.seed) for w in WORKLOADS}
        env = environment(root, "all", args.seed, env_ops)
    else:
        env_ops = make_ops(args.workload, args.seed)
        env = environment(root, args.workload, args.seed, env_ops)
    try:
        if args.trace:
            metrics, attempted, failed, repeat = trace(root, args.seed, lines)
        else:
            metrics, attempted, failed = measure(root, args.workload, env_ops, args.seconds, lines)
            repeat = True
        errors = big_output_errors(root, lines)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics["cli.big_output.errors"] = {"value": errors, "unit": "count"}
    correct = failed == 0 and repeat
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
