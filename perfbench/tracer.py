"""Spans around the library's public functions, recorded from outside.

install() replaces each traced function in every module that binds it
(moessner.engine.validate and moessner.presets.validate, say), so calls the
library makes to itself get spans too; uninstall() puts the originals back.
Nothing under src/ changes.

A span is [name, start_ns, end_ns, parent, op, child_ns], kept in memory
until the benchmark writes it out. The two per-leaf interpreters
(eval_expr, eval_expr_counted) are called hundreds of thousands of times per
op, so they are recorded as a call count and total time per name instead of
one span per call; their time still counts as child time of the open span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Tally = Callable[[Any], Dict[str, int]]


def _counting_tally(report: Any) -> Dict[str, int]:
    return {"leaves": report.leaves, "additions": report.additions}


def _process_tally(result: Any) -> Dict[str, int]:
    _final, trace = result
    return {"cells": sum(len(s.before) + len(s.filtered) + len(s.summed) for s in trace.steps)}


def _prefix_tally(reports: Any) -> Dict[str, int]:
    lines = [line for report in reports for line in report.lines]
    return {"lines": len(lines), "mismatches": sum(1 for line in lines if not line.ok)}


# (span name, bindings, per-leaf?, tally of the returned value)
TARGETS: Sequence[Tuple[str, Sequence[str], bool, Optional[Tally]]] = (
    ("presets.build", ("presets.build",), False, None),
    ("engine.validate", ("engine.validate", "presets.validate"), False, None),
    ("engine.is_markov", ("engine.is_markov", "cli.is_markov", "oeis.is_markov"), False, None),
    ("engine.evaluate", ("engine.evaluate", "cli.evaluate", "oeis.evaluate"), False, None),
    ("engine.evaluate_counting", ("engine.evaluate_counting", "cli.evaluate_counting"), False, _counting_tally),
    (
        "engine.evaluate_memoized",
        ("engine.evaluate_memoized", "cli.evaluate_memoized", "oeis.evaluate_memoized"),
        False,
        None,
    ),
    ("expr.compile_expr", ("engine.compile_expr",), False, None),
    ("expr.eval_expr", ("engine.eval_expr",), True, None),
    ("expr.eval_expr_counted", ("engine.eval_expr_counted",), True, None),
    ("process.run_process", ("process.run_process", "cli.run_process"), False, _process_tally),
    ("process.dp_power", ("process.dp_power", "cli.dp_power"), False, lambda r: {"additions": r.additions}),
    ("inverse.run_inverse", ("inverse.run_inverse", "cli.run_inverse"), False, lambda rows: {"cells": sum(map(len, rows))}),
    ("oeis.load_fixture", ("oeis.load_fixture",), False, None),
    ("oeis.check_preset_prefix", ("oeis.check_preset_prefix",), False, _prefix_tally),
    ("cli.main", ("cli.main",), False, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.hot: Dict[str, List[int]] = {}
        self.tallies: Dict[str, Dict[str, int]] = {}
        self.op: Any = None
        self.op_starts: List[Tuple[Any, Dict[str, int]]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        # import every module first: a module imported mid-patch would bind a wrapper
        modules = {
            binding: importlib.import_module("moessner." + binding.rsplit(".", 1)[0])
            for _name, bindings, _per_leaf, _tally in TARGETS
            for binding in bindings
        }
        wrapped: Dict[int, Any] = {}
        for name, bindings, per_leaf, tally in TARGETS:
            for binding in bindings:
                module, attr = modules[binding], binding.rsplit(".", 1)[1]
                original = getattr(module, attr)
                if id(original) not in wrapped:
                    wrap = self._leaf if per_leaf else self._span
                    wrapped[id(original)] = wrap(name, original, tally)
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def start_op(self, op: Any) -> None:
        """Tag later spans with `op` and note the per-leaf call counts so far."""
        self.op = op
        self.op_starts.append((op, {name: total[0] for name, total in self.hot.items()}))

    def _span(self, name: str, fn: Callable, tally: Optional[Tally]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.tallies.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            record = [name, clock(), 0, parent, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += record[2] - record[1]
            if tally is not None:
                for key, value in tally(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable, _tally: Optional[Tally]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        total = self.hot.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args: Any) -> Any:
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                total[0] += 1
                total[1] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self_s and the tallies of its results."""
        out: Dict[str, Dict[str, float]] = {}
        for name, start, end, _parent, _op, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start - child) / 1e9
        for name, (calls, ns) in self.hot.items():
            if calls:
                out[name] = {"calls": calls, "self_s": ns / 1e9}
        for name, counts in self.tallies.items():
            if name in out:
                out[name].update(counts)
        return out

    def write(self, path: Path, labels: Sequence[str]) -> None:
        """JSON lines: one per span, then per op its per-leaf call counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ends = [counts for _op, counts in self.op_starts[1:]]
        ends.append({name: total[0] for name, total in self.hot.items()})
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op, child in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op, "child_ns": child}
                out.write(json.dumps(record) + "\n")
            for (op, start), end in zip(self.op_starts, ends):
                calls = {name: end[name] - start.get(name, 0) for name in end}
                op_label = labels[op] if isinstance(op, int) else op
                out.write(json.dumps({"op": op, "label": op_label, "leaf_calls": calls}) + "\n")
