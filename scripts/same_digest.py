#!/usr/bin/env python3
"""Two sha256 digests per corpus part and evaluator: what the library answers, and by which route.

The corpus is a small-scope enumeration of summation programs, then the
count ops of the benchmark. The expressions are ten leaves (Lit 0..2,
Param x, Level, Prev, Hist(1), SumHist, ProdHist, Table(Prev)) and Add, Sub
and Mul of two leaves; FloorDiv divides by a positive literal, so it takes a
leaf over the value of Lit 1 or Lit 2: 330 expressions in all. Every
program runs at x = 2 and f = (1, 0, 2). Each level's lower bound is 0 or 1.
The parts, in this order:

  depth0   every expression as the body
  depth1   every bound, both lowers, every body
  depth2   a leaf bound at level 1 and every bound at level 2, each at both
           lowers, with a leaf body
  count    the count ops of perfbench/workloads.py for the seeds 0..5, each
           distinct point once, read without writing bytecode into perfbench/

The evaluators are evaluate, evaluate_counting, the unrouted tables of the
program's kind (engine._counted_tables for a Markov program, else
states.counted_tables) and evaluate_memoized, each on every program. The
outcome digest hashes (program JSON, value and counts, or error class and
text) over the part. The route digest hashes the calls each evaluator made
to engine._nest, engine._counted_tables and states.counted_tables: the name,
the argument count and what came back (None, a result, or the class of what
was raised). A routing change moves only the route digest.

Each tree runs in its own `python` process with its src/ on the path, one
after the other; the corpus comes from this file for both. Given two trees,
it prints both sets of digests and then the first programs that differ.

Run from the repository root:
    python3 scripts/same_digest.py                 # this tree
    python3 scripts/same_digest.py OLD NEW         # two trees, and the first programs that differ
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

SEEDS = range(6)
PARAMS = {"x": 2, "f": (1, 0, 2)}
PARTS = ("depth0", "depth1", "depth2", "count")
EVALUATORS = ("evaluate", "evaluate_counting", "tables", "evaluate_memoized")
BLOCK = 1000  # programs per block digest, the unit in which two trees are compared first
SHOWN = 5  # differing programs printed

Calls = List[Tuple[str, int, str]]  # (entry name, argument count, what came back) per route call


def expressions() -> Tuple[List[Any], List[Any]]:
    """The ten leaves, and every expression of the corpus: the leaves, then Add, Sub, Mul and FloorDiv."""
    from moessner.expr import Add, FloorDiv, Hist, Level, Lit, Mul, Param, Prev, ProdHist, Sub, SumHist, Table

    leaves = [Lit(0), Lit(1), Lit(2), Param("x"), Level(), Prev(), Hist(1), SumHist(), ProdHist(), Table(Prev())]
    pairs = [op(a, b) for op in (Add, Sub, Mul) for a in leaves for b in leaves]
    halves = [FloorDiv(a, d.value) for a in leaves for d in leaves[1:3]]
    return leaves, leaves + pairs + halves


def small_scope(bounds: List[List[Any]], bodies: List[Any]) -> Iterator[Any]:
    """Every program with level k's bound from bounds[k - 1] at lower 0 or 1 and a body from
    bodies; the outermost level varies slowest and the body fastest."""
    from moessner.engine import LevelSpec, SummationProgram

    specs = [[LevelSpec(lower, bound) for bound in level for lower in (0, 1)] for level in bounds]
    for levels in itertools.product(*specs):
        for body in bodies:
            yield SummationProgram(len(levels), levels, body, dict(PARAMS))


def count_programs() -> Iterator[Any]:
    """The distinct points of the count workload over SEEDS, in sorted order."""
    from moessner.presets import build

    sys.dont_write_bytecode = True  # read perfbench/ without writing a __pycache__ into it
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_ops

    ops = [op for seed in SEEDS for op in make_ops("count", seed)]
    points = {json.dumps([op["preset"], op["params"]], sort_keys=True) for op in ops}
    for point in sorted(points):
        name, params = json.loads(point)
        yield build(name, {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()})


def programs(part: str) -> Iterator[Any]:
    leaves, every = expressions()
    scopes = {"depth0": ([], every), "depth1": ([every], every), "depth2": ([leaves, every], leaves)}
    return count_programs() if part == "count" else small_scope(*scopes[part])


# The child: one tree's evaluators over the corpus.

def evaluators(calls: Calls) -> Dict[str, Callable]:
    """The evaluators by name, with the route entries wrapped to append to calls."""
    from moessner import engine, states

    for module, name in ((engine, "_nest"), (engine, "_counted_tables"), (states, "counted_tables")):
        def traced(*args: Any, _real: Callable = getattr(module, name), _name: str = name, **kwargs: Any) -> Any:
            try:
                out = _real(*args, **kwargs)
            except BaseException as exc:
                calls.append((_name, len(args) + len(kwargs), type(exc).__name__))
                raise
            calls.append((_name, len(args) + len(kwargs), "None" if out is None else "result"))
            return out

        setattr(module, name, traced)

    def tables(program: Any) -> Any:  # through the modules, so the wrapped entries run
        return (engine._counted_tables if engine.is_markov(program) else states.counted_tables)(program)

    return {"evaluate": engine.evaluate, "evaluate_counting": engine.evaluate_counting, "tables": tables,
            "evaluate_memoized": engine.evaluate_memoized}


def outcome(evaluator: Callable, program: Any) -> Any:
    try:
        got = evaluator(program)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return got if isinstance(got, int) else (got.value, got.additions, got.leaves)


def answers(named: Dict[str, Callable], calls: Calls, program: Any) -> Dict[str, List[str]]:
    """Per evaluator, the repr of its outcome on program and of the route calls it made."""
    found = {}
    for name in EVALUATORS:
        calls.clear()
        got = repr(outcome(named[name], program))
        found[name] = [got, repr(calls)]
    return found


def digests(part: str, named: Dict[str, Callable], calls: Calls) -> Dict[str, Any]:
    """Per evaluator, the outcome and route digests over the part, and per BLOCK programs one
    short digest of every evaluator's outcomes and routes."""
    from moessner.engine import program_to_json

    outcomes = {name: hashlib.sha256() for name in EVALUATORS}
    routes = {name: hashlib.sha256() for name in EVALUATORS}
    blocks: List[str] = []
    block = hashlib.sha256()
    count = 0
    for count, program in enumerate(programs(part), 1):
        text = program_to_json(program)
        for name, (got, route) in answers(named, calls, program).items():
            outcomes[name].update(repr((text, got)).encode())
            routes[name].update(route.encode())
            block.update(f"{text}{got}{route}".encode())
        if count % BLOCK == 0:
            blocks.append(block.hexdigest()[:16])
            block = hashlib.sha256()
    blocks += [block.hexdigest()[:16]] * bool(count % BLOCK)
    found = {name: [outcomes[name].hexdigest(), routes[name].hexdigest()] for name in EVALUATORS}
    return {"part": part, "programs": count, "digests": found, "blocks": blocks}


def details(part: str, blocks: List[int], named: Dict[str, Callable], calls: Calls) -> Dict[str, Any]:
    """Each program of the given blocks: its index, its JSON and its answers."""
    from moessner.engine import program_to_json

    shown = []
    for b in blocks:
        for index, program in enumerate(itertools.islice(programs(part), b * BLOCK, (b + 1) * BLOCK), b * BLOCK):
            shown.append([index, program_to_json(program), answers(named, calls, program)])
    return {"part": part, "details": shown}


def child(args: argparse.Namespace) -> int:
    import moessner

    print(json.dumps({"moessner": moessner.__file__}), flush=True)
    calls: Calls = []
    named = evaluators(calls)
    for part in args.parts:
        if args.blocks is None:
            print(json.dumps(digests(part, named, calls)), flush=True)
        else:
            wanted = [int(b) for p, b in (item.split(":") for item in args.blocks) if p == part]
            print(json.dumps(details(part, wanted, named, calls)), flush=True)
    return 0


# The parent: one child per tree, one after the other.

def run_tree(tree: Path, parts: List[str], blocks: Optional[List[str]] = None) -> Dict[str, Dict[str, Any]]:
    """The child's answer per part on tree: digests, or with blocks each program of them."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--parts", *parts]
    argv += [] if blocks is None else ["--blocks", *blocks]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{tree}: the run exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    if Path(lines[0]["moessner"]).resolve().parent.parent != (tree / "src").resolve():
        sys.exit(f"{tree}: imported moessner from {lines[0]['moessner']}, not from the tree's src/")
    return {line["part"]: line for line in lines[1:]}


def first_differences(trees: List[Path], runs: List[Dict[str, Dict[str, Any]]]) -> List[str]:
    """The first SHOWN programs whose outcome or route differs, found by running the first
    differing blocks again on both trees, with each tree's answers where they differ."""
    blocks = []
    for part in runs[0]:
        old, new = runs[0][part]["blocks"], runs[1][part]["blocks"]
        blocks += [f"{part}:{b}" for b in range(max(len(old), len(new))) if old[b:b + 1] != new[b:b + 1]]
    blocks = blocks[:SHOWN]
    parts = sorted({item.split(":")[0] for item in blocks}, key=PARTS.index)
    shown = [run_tree(tree, parts, blocks) for tree in trees] if blocks else []
    lines: List[str] = []
    for part in parts:
        for (index, text, a), (_, _, b) in zip(shown[0][part]["details"], shown[1][part]["details"]):
            if a != b and len(lines) < SHOWN:
                differ = [f"  {name}\n    old {a[name]}\n    new {b[name]}" for name in EVALUATORS
                          if a[name] != b[name]]
                lines.append("\n".join([f"{part} #{index} {text}", *differ]))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="trees to run (default: this one); two are compared")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)  # the child's arguments
    parser.add_argument("--parts", nargs="+", choices=PARTS, default=list(PARTS), help=argparse.SUPPRESS)
    parser.add_argument("--blocks", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args)
    trees = [tree.resolve() for tree in args.trees] or [ROOT]
    if len(trees) > 2:
        parser.error("give at most two trees")
    runs = [run_tree(tree, list(PARTS)) for tree in trees]
    for tree, found in zip(trees, runs):
        print(tree)
        for part, result in found.items():
            for name, (out, route) in result["digests"].items():
                print(f"  {part:6} {result['programs']:9} {name:17}  outcome {out}  route {route}")
    if len(runs) == 2:
        same = {True: "equal", False: "DIFFERS"}
        for part in runs[0]:
            for name in EVALUATORS:
                (a, b), (c, d) = runs[0][part]["digests"][name], runs[1][part]["digests"][name]
                print(f"{part:6} {name:17}  outcome {same[a == c]}  route {same[b == d]}")
        differ = first_differences(trees, runs)
        print("\n".join(differ) or "no program differs")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
