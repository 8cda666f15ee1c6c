"""One workload in a fresh interpreter: set up, then measure or trace.

run.py starts this file with PYTHONPATH=src and writes a job to its stdin:
{"workload", "ops", "mode", "root"}, plus "seconds" and "min_passes" when
measuring. The worker prints one JSON object on stdout. Modes:

  setup    set up and stop; reports when the first op could have started
  measure  set up, then run whole passes over the ops until `seconds` have
           passed (at least `min_passes`), reading the host-speed gauge
           before each op and once after the last, then check every output
  trace    a traced pass, an untraced pass and a second traced pass over
           the ops (cli ops run in process through cli.main), then check
           every output and compare the two traces' counts
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import gauge_seconds
from tracer import Tracer

# A tiny fixed op per workload, run once at the end of set-up so that set-up
# time does not depend on the seed.
WARM_UP = {
    "walk": {"op": "evaluate", "preset": "moessner", "params": {"x": 2, "n": 3}},
    "count": {"op": "evaluate_counting", "preset": "moessner", "params": {"x": 2, "n": 3}},
    "table": {"op": "evaluate_memoized", "preset": "moessner", "params": {"x": 2, "n": 3}},
    "cli": {"op": "cli", "argv": ["eval", "--preset", "moessner", "--params", "x=2,n=3"]},
}


SAME = object()  # stands for "equal to this op's output in the first pass"


def cli_command(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "moessner", *argv]


def label(op: Dict[str, Any]) -> str:
    if op["op"] == "cli":
        return "cli " + " ".join(op["argv"])
    if "preset" in op:
        return f"{op['op']} {op['preset']} {op['params']}"
    return op["op"] + " " + " ".join(f"{k}={v}" for k, v in op.items() if k != "op")


class Runner:
    """Turns ops into calls on the library or the CLI; one per process."""

    def __init__(self, job: Dict[str, Any]) -> None:
        self.job = job
        self.workload: str = job["workload"]
        self.root = Path(job["root"])
        self.ops: List[Dict[str, Any]] = job["ops"]
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.calls: List[Callable[[], Any]] = []

    def setup(self) -> None:
        """Import, build every op's inputs, warm up."""
        warm_up = WARM_UP[self.workload]
        if self.workload == "cli":
            self._cli_call(["list-presets"])()  # primes __pycache__ in a fresh checkout
            self._cli_call(warm_up["argv"])()
        else:
            self._library_call(warm_up)()
        self.build_calls(in_process=False)

    def build_calls(self, in_process: bool) -> None:
        if self.workload != "cli":
            self.calls = [self._library_call(op) for op in self.ops]
        elif in_process:
            self.calls = [self._in_process_call(op["argv"]) for op in self.ops]
        else:
            self.calls = [self._cli_call(op["argv"]) for op in self.ops]

    def _cli_call(self, argv: List[str]) -> Callable[[], Tuple[int, str]]:
        command, root, env = cli_command(argv), self.root, self.env

        def call() -> Tuple[int, str]:
            done = subprocess.run(command, cwd=root, env=env, capture_output=True, check=False)
            return done.returncode, done.stdout.decode("utf-8", "replace")

        return call

    @staticmethod
    def _in_process_call(argv: List[str]) -> Callable[[], Tuple[int, str]]:
        from moessner import cli

        def call() -> Tuple[int, str]:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            return code, stdout.getvalue()

        return call

    @staticmethod
    def _library_call(op: Dict[str, Any]) -> Callable[[], Any]:
        from moessner import engine, inverse, presets, process
        from moessner.rules import InitRule
        from reference import preset_params

        kind = op["op"]
        if kind in ("evaluate", "evaluate_counting", "evaluate_memoized"):
            program = presets.build(op["preset"], preset_params(op["params"]))
            return lambda: getattr(engine, kind)(program)
        if kind == "dp_power":
            return lambda: process.dp_power(op["x"], op["n"])
        if kind == "run_process":
            init = InitRule.parse(op["init"])
            return lambda: process.run_process(op["n"], op["m"], init)
        if kind == "run_inverse":
            return lambda: inverse.run_inverse(op["n"], op["length"])
        raise ValueError(f"unknown op {kind!r}")

    def run_pass(
        self,
        latencies: List[float],
        outputs: List[Any],
        tracer: Optional[Tracer] = None,
        first: Optional[List[Any]] = None,
        gauge: Optional[List[float]] = None,
    ) -> None:
        """One pass over the ops. With `first` (an earlier pass's outputs), an
        output equal to its counterpart there is kept as SAME, so memory does
        not grow with the number of passes. With `gauge`, the host-speed gauge
        is read before each op, outside the op's time."""
        clock = time.perf_counter
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.start_op(i)
            if gauge is not None:
                gauge.append(gauge_seconds(self.workload, self.root, self.env))
            start = clock()
            try:
                out = call()
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                out = exc
            latencies.append(clock() - start)
            if isinstance(out, tuple) and self.ops[i]["op"] == "run_process":
                out = (out[0], None)  # the check reads the final row; drop the large trace
            if first is not None and out == first[i]:
                out = SAME
            outputs.append(out)

    def check(self, outputs: List[Any]) -> Tuple[int, List[str]]:
        """Failed op count and the first few reasons; outputs cycle through the ops."""
        from reference import Reference  # imports moessner, which cli set-up must not

        reference = Reference(self.root)
        failed, reasons = 0, []
        verdicts: Dict[int, Optional[str]] = {}
        for i, out in enumerate(outputs):
            op = self.ops[i % len(self.ops)]
            if out is SAME:
                reason = verdicts[i % len(self.ops)]
            else:
                reason = verdicts[i] = reference.check(op, out)
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{label(op)}: {reason}")
        return failed, reasons


def measure(runner: Runner) -> Dict[str, Any]:
    job = runner.job
    latencies: List[float] = []
    gauge: List[float] = []
    outputs: List[Any] = []
    started = time.perf_counter()
    runner.run_pass(latencies, outputs, gauge=gauge)
    first = list(outputs)
    passes = 1
    while passes < job["min_passes"] or time.perf_counter() - started < job["seconds"]:
        runner.run_pass(latencies, outputs, first=first, gauge=gauge)
        passes += 1
    gauge.append(gauge_seconds(runner.workload, runner.root, runner.env))  # closes the last op's bracket
    del first
    elapsed = time.perf_counter() - started
    who = resource.RUSAGE_CHILDREN if runner.workload == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    failed, reasons = runner.check(outputs)
    return {
        "latencies": latencies,
        "gauge": gauge,
        "elapsed": elapsed,
        "passes": passes,
        "peak_rss_kib": peak_kib,
        "attempted": len(outputs),
        "failed": failed,
        "reasons": reasons,
    }


def trace(runner: Runner) -> Dict[str, Any]:
    """Traced, untraced, traced; the two traces' counts must agree exactly."""
    outputs: List[Any] = []
    traced: List[Tuple[Tracer, List[float]]] = []
    untraced: List[float] = []
    for tracer in (Tracer(), None, Tracer()):
        latencies: List[float] = []
        if tracer is not None:
            tracer.install()
            tracer.start_op("setup")  # inputs are built inside the pass, so builds get spans
            traced.append((tracer, latencies))
        try:
            runner.build_calls(in_process=True)
            runner.run_pass(latencies, outputs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            untraced = latencies

    summaries = [tracer.summary() for tracer, _ in traced]
    if runner.workload == "walk":
        for summary in summaries:
            summary["engine.evaluate"]["leaves"] = walk_leaves(runner.ops)
    counts = [{name: {k: v for k, v in row.items() if k != "self_s"} for name, row in s.items()} for s in summaries]
    first, second = summaries
    layers = {name: dict(row, self_s=(row["self_s"] + second[name]["self_s"]) / 2) for name, row in first.items()}
    out_dir = runner.root / ".bench_build" / "perfbench"
    traced[0][0].write(out_dir / f"spans-{runner.workload}.jsonl", [label(op) for op in runner.ops])
    failed, reasons = runner.check(outputs)
    result = {
        "layers": layers,
        "counts_repeat": counts[0] == counts[1],
        "overhead_ratio": (sum(traced[0][1]) + sum(traced[1][1])) / 2 / sum(untraced),
        "op_seconds": untraced,
        "attempted": len(outputs),
        "failed": failed,
        "reasons": reasons,
    }
    if runner.workload == "cli":
        result["cli"] = cold_cli(runner, result)
    return result


def walk_leaves(ops: List[Dict[str, Any]]) -> int:
    """Leaf count of every evaluate op, by evaluate_counting on the same levels.

    The body is replaced by Lit(1): the leaf count does not depend on the
    body, and a constant body keeps the count cheap.
    """
    from moessner import engine, presets
    from moessner.expr import Lit
    from reference import preset_params

    total = 0
    for op in ops:
        program = presets.build(op["preset"], preset_params(op["params"]))
        total += engine.evaluate_counting(dataclasses.replace(program, body=Lit(1))).leaves
    return total


def _median_process_s(runner: Runner, command: List[str], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, cwd=runner.root, env=runner.env, capture_output=True, check=False)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[repeats // 2]


def cold_cli(runner: Runner, result: Dict[str, Any]) -> Dict[str, float]:
    """One untraced pass of cold CLI calls, a bare interpreter and a bare import."""
    runner.build_calls(in_process=False)
    latencies: List[float] = []
    outputs: List[Any] = []
    runner.run_pass(latencies, outputs)
    failed, reasons = runner.check(outputs)
    result["attempted"] += len(outputs)
    result["failed"] += failed
    result["reasons"] += reasons
    return {
        "interp_s": _median_process_s(runner, [sys.executable, "-c", "pass"], 9),
        "import_s": _median_process_s(runner, [sys.executable, "-c", "import moessner.cli"], 9),
        "cold_s": sum(latencies) / len(latencies),
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    runner = Runner(job)
    if job["mode"] == "trace":
        result = trace(runner)
    else:
        runner.setup()
        ready = time.monotonic()
        # the host's speed during set-up, read once it is over
        result = {"ready": ready, "setup_gauge": [gauge_seconds(runner.workload, runner.root, runner.env) for _ in range(3)]}
        if job["mode"] == "measure":
            result.update(measure(runner))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
