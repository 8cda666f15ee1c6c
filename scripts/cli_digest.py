#!/usr/bin/env python3
"""One sha256 over the cold CLI calls of the benchmark's cli workload.

Each distinct argv of perfbench.workloads.make_ops("cli", seed), for the
seeds 0..5, runs as a cold `python -m moessner` call against a tree's
src/, and the digest hashes (argv, exit code, stdout, stderr) for every
argv in sorted order. Two trees with one digest answer every call of the
workload byte for byte alike. Given two trees, it prints both digests and
then each argv whose results differ.

Run from the repository root:
    python3 scripts/cli_digest.py                 # this tree
    python3 scripts/cli_digest.py OLD NEW         # two trees, and the argvs that differ
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

SEEDS = range(6)

Result = Tuple[int, bytes, bytes]


def cli_argvs() -> List[Tuple[str, ...]]:
    """The distinct argvs of the cli workload over SEEDS, sorted."""
    sys.dont_write_bytecode = True  # read perfbench/ without writing a __pycache__ into it
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_ops

    return sorted({tuple(op["argv"]) for seed in SEEDS for op in make_ops("cli", seed)})


def run_all(tree: Path, argvs: List[Tuple[str, ...]]) -> Dict[Tuple[str, ...], Result]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "moessner", *argv], cwd=tree, env=env, capture_output=True,
                              check=False)
        results[argv] = done.returncode, done.stdout, done.stderr
    return results


def digest(results: Dict[Tuple[str, ...], Result]) -> str:
    h = hashlib.sha256()
    for argv, (code, out, err) in results.items():
        h.update(repr((argv, code, out, err)).encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="trees to run (default: this one); two are compared")
    args = parser.parse_args()
    trees = [tree.resolve() for tree in args.trees] or [ROOT]
    if len(trees) > 2:
        parser.error("give at most two trees")
    argvs = cli_argvs()
    runs = [run_all(tree, argvs) for tree in trees]
    for tree, results in zip(trees, runs):
        print(f"{digest(results)}  {len(results)} argvs  {tree}")
    if len(runs) == 2:
        differ = [argv for argv in argvs if runs[0][argv] != runs[1][argv]]
        for argv in differ:
            print("differs:", " ".join(argv))
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
