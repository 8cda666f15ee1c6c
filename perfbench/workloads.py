"""Seeded op lists for the four workloads.

An op is a JSON-able dict; the worker turns it into calls on the library.
The seed fixes the order of the ops and every parameter that does not
change how much work an op does (multipliers such as long1's a, table
permutations whose cost-setting tail is pinned, output formats, small CLI
sizes). The grid points themselves are fixed, so one pass over the list is
the same amount of work for every seed and runs on different seeds compare.
Every list has at least 40 ops, so the tail percentile over per-op
latencies is p75 or higher.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("walk", "count", "table", "cli")

# Every run makes at least this many passes over its op list; an op's latency
# in a run is its median over the passes.
MIN_PASSES = 3

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

Op = Dict[str, Any]


def tail_percentile(op_count: int) -> float:
    """Highest ladder percentile with at least ten of op_count samples beyond it."""
    return max(p for p in TAIL_LADDER if op_count * (100.0 - p) / 100.0 >= 10)


def _permutation_with_tail(rng: random.Random, values: List[int], pinned: int) -> List[int]:
    """Shuffle all but the last `pinned` entries; the tail sets the tree's width."""
    head = values[: len(values) - pinned]
    rng.shuffle(head)
    return head + values[len(values) - pinned :]


def _grid(rng: random.Random, small: bool) -> List[Op]:
    """Preset grid shared by walk and count; `small` shrinks closure-body points."""
    a = lambda: rng.randint(1, 9)  # noqa: E731  (cost-neutral multipliers)
    points = [
        # constant-body leaf sums
        ("moessner", {"x": 9, "n": 6}),
        ("moessner", {"x": 6, "n": 7}),
        ("moessner", {"x": 5, "n": 7}),
        ("moessner", {"x": 3, "n": 9}),
        ("moessner", {"x": 9, "n": 5}),
        ("moessner", {"x": 4, "n": 8}),
        ("moessner_stolid", {"x": 9, "n": 6}),
        ("moessner_stolid", {"x": 5, "n": 7}),
        ("moessner_stolid", {"x": 7, "n": 5}),
        ("moessner_stolid", {"x": 4, "n": 7}),
        ("another_round", {"x": 4, "n": 6} if small else {"x": 5, "n": 6}),
        ("another_round", {"x": 5, "n": 5} if small else {"x": 4, "n": 6}),
        ("another_round", {"x": 3, "n": 7} if small else {"x": 6, "n": 5}),
        ("long1", {"x": 5, "n": 6, "a": a()} if small else {"x": 7, "n": 6, "a": a()}),
        ("long1", {"x": 4, "n": 6, "a": a()} if small else {"x": 5, "n": 6, "a": a()}),
        ("long1", {"x": 3, "n": 7, "a": a()} if small else {"x": 4, "n": 7, "a": a()}),
        # closure bodies and table bounds
        ("long2", {"x": 4, "n": 5, "a": a(), "d": a()} if small else {"x": 6, "n": 5, "a": a(), "d": a()}),
        ("long2", {"x": 3, "n": 5, "a": a(), "d": a()} if small else {"x": 4, "n": 5, "a": a(), "d": a()}),
        ("long2", {"x": 5, "n": 4, "a": a(), "d": a()} if small else {"x": 5, "n": 5, "a": a(), "d": a()}),
        ("long2", {"x": 3, "n": 6, "a": a(), "d": a()}),
        ("product_of_table", {"n": 5, "f": _permutation_with_tail(rng, [3, 4, 5, 6, 7, 8], 2)}),
        ("product_of_table", {"n": 6, "f": _permutation_with_tail(rng, [4, 5, 6, 7, 8, 9, 10], 2)}),
        ("factorial_rising", {"n": 8}),
        ("factorial_rising", {"n": 7}),
        ("factorial_falling", {"n": 8}),
        ("factorial_permuted", {"n": 8, "f": _permutation_with_tail(rng, list(range(8)), 2)}),
        ("factorial_permuted", {"n": 9, "f": _permutation_with_tail(rng, list(range(9)), 2)}),
        ("factorial_multiple", {"x": 3, "n": 8}),
        ("catalan", {"n": 12}),
        ("catalan", {"n": 11}),
        ("catalan_from_one", {"n": 12}),
        ("catalan_convolved", {"x": 3, "n": 10}),
        # cut-dominated
        ("euler_zigzag", {"n": 8}),
        ("euler_zigzag", {"n": 9}),
        ("euler_zigzag", {"n": 10}),
        # non-Markov history bounds
        ("a137273", {"n": 9}),
        ("a137273", {"n": 10}),
        ("a137273", {"n": 11}),
        ("a137273", {"n": 12}),
        ("a125860", {"x": 1, "n": 6}),
        ("a125860", {"x": 1, "n": 7}),
        ("a125860", {"x": 1, "n": 8}),
        ("positive_integers", {"n": 200}),
        ("positive_integers", {"n": 100}),
    ]
    op = "evaluate_counting" if small else "evaluate"
    return [{"op": op, "preset": name, "params": params} for name, params in points]


def _table(rng: random.Random) -> List[Op]:
    a = lambda: rng.randint(1, 9)  # noqa: E731
    memo = [
        # the large points
        ("moessner", {"x": 200, "n": 40}),
        ("long2", {"x": 100, "n": 30, "a": a(), "d": a()}),
        ("catalan", {"n": 200}),
        ("euler_zigzag", {"n": 200}),
        ("xfold_factorial", {"x": 3, "n": 150}),
        ("factorial_rising", {"n": 200}),
        ("fibonacci", {"n": rng.randint(7990, 8010)}),
        # the same programs and their relatives at medium size
        ("moessner", {"x": 100, "n": 30}),
        ("moessner", {"x": 150, "n": 20}),
        ("moessner", {"x": 60, "n": 40}),
        ("moessner_stolid", {"x": 200, "n": 40}),
        ("long1", {"x": 100, "n": 30, "a": a()}),
        ("long2", {"x": 60, "n": 25, "a": a(), "d": a()}),
        ("long2", {"x": 80, "n": 20, "a": a(), "d": a()}),
        ("another_round", {"x": 100, "n": 25}),
        ("catalan", {"n": 120}),
        ("catalan", {"n": 160}),
        ("catalan_from_one", {"n": 150}),
        ("catalan_convolved", {"x": 5, "n": 150}),
        ("a002293", {"n": 60}),
        ("euler_zigzag", {"n": 120}),
        ("euler_zigzag", {"n": 160}),
        ("xfold_factorial", {"x": 3, "n": 100}),
        ("xfold_factorial", {"x": 5, "n": 120}),
        ("factorial_rising", {"n": 120}),
        ("factorial_rising", {"n": 160}),
        ("factorial_falling", {"n": 150}),
        ("factorial_multiple", {"x": 50, "n": 150}),
        ("binomial", {"x": 150, "n": 30}),
        ("binomial", {"x": 300, "n": 20}),
        ("multiset", {"x": 100, "n": 40}),
        ("fibonacci", {"n": 3000}),
        ("fibonacci", {"n": 5000}),
    ]
    ops: List[Op] = [{"op": "evaluate_memoized", "preset": name, "params": params} for name, params in memo]
    ops += [{"op": "dp_power", "x": x, "n": n} for x, n in ((200, 40), (100, 30), (300, 30), (150, 50))]
    ops += [
        {"op": "run_process", "n": 12, "m": 3000, "init": "ones"},
        {"op": "run_process", "n": 12, "m": 2000, "init": f"indicator:{a()}:{a()}"},
        {"op": "run_process", "n": 10, "m": 2000, "init": "successor"},
        {"op": "run_process", "n": 20, "m": 500, "init": f"const:{a()}"},
    ]
    ops += [{"op": "run_inverse", "n": n, "length": length} for n, length in ((60, 600), (40, 400), (30, 1000))]
    return ops


def _cli_argvs(rng: random.Random) -> List[List[str]]:
    fmt = lambda: rng.choice(("plain", "csv", "json"))  # noqa: E731
    x_small, n_small = rng.randint(2, 5), rng.randint(2, 4)
    a, d = rng.randint(1, 9), rng.randint(1, 9)
    catalan_n = rng.randint(50, 70)
    fact_n = rng.randint(5, 8)
    binom_x = rng.randint(2, 6)
    prefix_to = rng.randint(20, 30)
    prefix_fmt, a137273_fmt = fmt(), fmt()
    cmp_x, dp_x, stolid_x = rng.randint(2, 4), rng.randint(5, 20), rng.randint(1, 3)
    proc_n, proc_fmt = rng.randint(3, 5), rng.choice(("plain", "json"))
    inv_n, inv_fmt = rng.randint(3, 6), rng.choice(("plain", "json"))
    poly_k = rng.randint(3, 8)
    oeis_count = rng.randint(12, 20)
    return [
        ["eval", "--preset", "moessner", "--params", f"x={x_small},n={n_small}"],
        ["eval", "--preset", "long2", "--params", f"x=3,n=3,a={a},d={d}", "--count-adds"],
        ["eval", "--preset", "catalan", "--params", f"n={catalan_n}", "--memoized"],
        ["eval", "--preset", "factorial_rising", "--params", f"n={fact_n}", "--format", "json"],
        ["eval", "--preset", "binomial", "--params", f"x={binom_x}", "--count", "6", "--format", "csv"],
        ["eval", "--preset", "moessner_stolid", "--params", "x=3,n=4", "--count-adds", "--memoized", "--format", "json"],
        ["prefix", "--preset", "catalan", "--vary", "n", "--from", "0", "--to", str(prefix_to), "--format", prefix_fmt],
        ["prefix", "--preset", "a137273", "--vary", "n", "--from", "0", "--to", "10", "--format", a137273_fmt],
        ["compare", "--preset", "moessner", "--params", f"x={cmp_x}", "--count", "6", "--against", "oracle"],
        ["compare", "--preset", "euler_zigzag", "--count", "7", "--against", "memoized"],
        ["compare", "--preset", "moessner", "--params", f"x={dp_x}", "--count", "8", "--against", "dp"],
        ["compare", "--preset", "moessner", "--params", f"x={stolid_x}", "--count", "5", "--against", "stolid"],
        ["process", "--exponent", str(proc_n), "--prefix", "8", "--format", proc_fmt],
        ["process", "--exponent", "4", "--prefix", "6", "--init", f"indicator:{a}:{d}", "--format", "json"],
        ["inverse", "--exponent", str(inv_n), "--prefix", "8", "--format", inv_fmt],
        ["polygonal", "--k", str(poly_k), "--count", "10"],
        ["oeis-check", "--preset", "catalan", "--count", str(oeis_count)],
        ["oeis-check", "--preset", "a137273", "--count", "11"],
        ["oeis-check", "--preset", "moessner", "--count", "10"],
        ["list-presets"],
        ["list-presets", "--json"],
    ]


def _cli(rng: random.Random) -> List[Op]:
    """Two independent draws of the 21 argv templates."""
    return [{"op": "cli", "argv": argv} for argv in _cli_argvs(rng) + _cli_argvs(rng)]


def make_ops(workload: str, seed: int) -> List[Op]:
    """The workload's op list for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "walk":
        ops = _grid(rng, small=False)
    elif workload == "count":
        ops = _grid(rng, small=True)
    elif workload == "table":
        ops = _table(rng)
    elif workload == "cli":
        ops = _cli(rng)
    else:
        raise ValueError(f"unknown workload {workload!r} (use one of {WORKLOADS})")
    rng.shuffle(ops)
    return ops
