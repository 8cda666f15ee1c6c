"""Independent references for every op the benchmark runs.

Values come from the library's expected-value sources (presets.expected,
which reads the oracles and the bundled b-files) and from closed forms
written out here. Nothing here calls an evaluator, the row process or the
inverse. check(op, output) returns None when the output is right and a
short reason when it is not.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from moessner import oracles, presets

# Presets whose body is Lit(1) and whose bounds never fall below their lower
# bound: the tree has `value` leaves and no empty sums, so it costs value - 1.
_UNIT_BODY_NO_CUTS = {
    "moessner",
    "moessner_stolid",
    "product_of_table",
    "factorial_rising",
    "factorial_falling",
    "factorial_permuted",
    "factorial_multiple",
    "xfold_factorial",
    "binomial",
    "catalan",
    "catalan_from_one",
    "catalan_convolved",
    "a137273",
    "a125860",
    "positive_integers",
}


def preset_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """JSON op params as the presets take them (tables are tuples)."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}


class Reference:
    """Caches expected values per op, so repeated passes are checked cheaply."""

    def __init__(self, root: Path) -> None:
        self.fixtures = root / "src" / "moessner" / "fixtures"
        self._values: Dict[str, Any] = {}

    def value(self, preset: str, params: Dict[str, Any]) -> int:
        key = json.dumps([preset, params], sort_keys=True)
        if key not in self._values:
            self._values[key] = presets.expected(preset, preset_params(params))
        return self._values[key]

    def additions(self, preset: str, params: Dict[str, Any]) -> Optional[int]:
        """Closed-form addition count of evaluate_counting, where one exists."""
        if preset in _UNIT_BODY_NO_CUTS:
            return self.value(preset, params) - 1
        x, n = params.get("x"), params.get("n")
        if preset == "long1":  # body Param(a): no additions inside the body
            return (x + 1) ** n - 1
        if preset == "long2":  # IfZero body: no additions, one extra level
            return (x + 1) ** (n + 1) - 1
        if preset == "another_round":  # Add body: one addition per leaf
            return 2 * (x + 1) ** n - 1
        if preset == "euler_zigzag":
            return zigzag_additions(n)
        return None

    # ops -------------------------------------------------------------

    def check(self, op: Dict[str, Any], output: Any) -> Optional[str]:
        if isinstance(output, BaseException):
            return f"raised {output!r}"
        kind = op["op"]
        if kind in ("evaluate", "evaluate_memoized"):
            return _same("value", output, self.value(op["preset"], op["params"]))
        if kind == "evaluate_counting":
            return _same("value", output.value, self.value(op["preset"], op["params"])) or _same(
                "additions", output.additions, self.additions(op["preset"], op["params"])
            )
        if kind == "dp_power":
            x, n = op["x"], op["n"]
            return _same("value", output.value, (x + 1) ** n) or _same(
                "additions", output.additions, x * n * (n + 1) // 2
            )
        if kind == "run_process":
            final, _trace = output
            return _same("final row", final, process_final(op["n"], op["m"], op["init"]))
        if kind == "run_inverse":
            return _same("rows", output, stage_rows(op["n"], op["length"]))
        if kind == "cli":
            code, stdout = output
            if code != 0:
                return f"exit code {code}"
            return self.check_cli(op["argv"], stdout)
        return f"unknown op {kind!r}"

    # CLI stdout --------------------------------------------------------

    def check_cli(self, argv: List[str], stdout: str) -> Optional[str]:
        command, opts = argv[0], _options(argv[1:])
        lines = stdout.splitlines()
        fmt = opts.get("--format", "plain")
        if command == "eval":
            return self._check_eval(opts, fmt, stdout, lines)
        if command == "prefix":
            return self._check_prefix(opts, fmt, stdout, lines)
        if command == "compare":
            return self._check_compare(opts, lines)
        if command == "process":
            n, m = int(opts["--exponent"]), int(opts["--prefix"])
            want = [str(v) for v in process_final(n, m, opts.get("--init", "ones"))]
            got = json.loads(stdout)["final"] if fmt == "json" else lines[-1].split()[1:]
            return _same("final row", got, want)
        if command == "inverse":
            n, m = int(opts["--exponent"]), int(opts["--prefix"])
            want = [[str(v) for v in row] for row in stage_rows(n, m)]
            if fmt == "json":
                got = json.loads(stdout)["rows"]
            else:
                got = [line.split(":", 1)[1].split() for line in lines]
            return _same("rows", got, want)
        if command == "polygonal":
            k, count = int(opts["--k"]), int(opts["--count"])
            want = [f"n={n} sum {v} closed {v} match" for n, v in ((n, oracles.polygonal_closed(k, n)) for n in range(count))]
            return _same("lines", lines, want + [f"{count}/{count} match"])
        if command == "oeis-check":
            preset, count = opts["--preset"], int(opts.get("--count", 8))
            want = [f"{preset} vs {a}: {count}/{count} match" for a in self._manifest_sequences(preset)]
            return _same("lines", lines, want)
        if command == "list-presets":
            if "--json" in opts:
                return _same("catalog", json.loads(stdout), presets.catalog())
            return _same("names", [line.split()[0] for line in lines], presets.preset_names())
        return f"unknown subcommand {command!r}"

    def _check_eval(self, opts: Dict[str, Any], fmt: str, stdout: str, lines: List[str]) -> Optional[str]:
        preset, base = opts["--preset"], _cli_params(opts.get("--params", ""))
        count = opts.get("--count")
        assignments = [base] if count is None else [dict(base, n=n) for n in range(int(count))]
        with_adds = "--count-adds" in opts
        rows = [
            (p, self.value(preset, p), self.additions(preset, p) if with_adds else None) for p in assignments
        ]
        if fmt == "json":
            want: Any = []
            for p, value, adds in rows:
                entry = {"preset": preset, "params": p, "value": str(value)}
                if adds is not None:
                    entry["additions"] = str(adds)
                want.append(entry)
            return _same("json", json.loads(stdout), want[0] if count is None else want)
        if fmt == "csv":
            header = "preset,params,value" + (",additions" if with_adds else "")
            want = [header] + [
                ",".join([preset, _params_repr(p).replace(",", ";"), str(v)] + ([str(a)] if a is not None else []))
                for p, v, a in rows
            ]
            return _same("csv", lines, want)
        want = [f"{v} {a}" if a is not None else str(v) for _p, v, a in rows]
        return _same("lines", lines, want)

    def _check_prefix(self, opts: Dict[str, Any], fmt: str, stdout: str, lines: List[str]) -> Optional[str]:
        preset, base, vary = opts["--preset"], _cli_params(opts.get("--params", "")), opts["--vary"]
        start, stop = int(opts["--from"]), int(opts["--to"])
        points = range(start, stop + 1)
        values = [self.value(preset, dict(base, **{vary: t})) for t in points]
        if fmt == "json":
            want = {"preset": preset, "params": base, "vary": vary, "from": start, "to": stop, "values": [str(v) for v in values]}
            return _same("json", json.loads(stdout), want)
        if fmt == "csv":
            return _same("csv", lines, [f"{vary},value"] + [f"{t},{v}" for t, v in zip(points, values)])
        return _same("line", lines, [", ".join(str(v) for v in values)])

    def _check_compare(self, opts: Dict[str, Any], lines: List[str]) -> Optional[str]:
        preset, base, against = opts["--preset"], _cli_params(opts.get("--params", "")), opts["--against"]
        count = int(opts["--count"])
        if lines[-1:] != [f"{count}/{count} match"]:
            return f"summary {lines[-1:]!r}"
        for n, line in enumerate(lines[:-1]):
            p = dict(base, n=n)
            value = self.value(preset, p)
            match = re.search(r"value (\d+) vs (\d+)", line)
            if not match or (int(match.group(1)), int(match.group(2))) != (value, value):
                return f"row {n}: {line!r}, want value {value}"
            want_adds = {"oracle": self.additions(preset, p), "stolid": value - 1}.get(against)
            if against == "dp":
                want_adds = p.get("x", 0) * n * (n + 1) // 2
            adds = re.search(r"additions (\d+) vs", line)
            if want_adds is not None and (not adds or int(adds.group(1)) != want_adds):
                return f"row {n}: {line!r}, want additions {want_adds}"
        return None

    def _manifest_sequences(self, preset: str) -> List[str]:
        text = (self.fixtures / "manifest.txt").read_text(encoding="ascii")
        rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
        return [fields[1] for fields in rows if fields[0] == preset]


def _same(what: str, got: Any, want: Any) -> Optional[str]:
    if want is None or got == want:
        return None
    return f"{what}: got {_short(got)}, want {_short(want)}"


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:57] + "..." + text[-60:]


def _options(args: Sequence[str]) -> Dict[str, Any]:
    """'--key value' pairs; bare flags map to True."""
    opts: Dict[str, Any] = {}
    i = 0
    while i < len(args):
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            opts[args[i]] = args[i + 1]
            i += 2
        else:
            opts[args[i]] = True
            i += 1
    return opts


def _cli_params(text: str) -> Dict[str, int]:
    return {k: int(v) for k, v in (chunk.split("=", 1) for chunk in text.split(",") if chunk)}


def _params_repr(params: Dict[str, int]) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def zigzag_additions(n: int) -> int:
    """Additions evaluate_counting performs on euler_zigzag(n), by recursion.

    Level k >= 2 sums i_k over 0..n-k-i_{k-1}; a negative bound is an empty
    sum that costs nothing, and a sum of m terms costs m - 1.
    """
    if n == 0:
        return 0
    memo: Dict[Tuple[int, int], int] = {}

    def below(k: int, prev: int) -> int:
        hi = n - k - prev
        if hi < 0:
            return 0
        if (k, prev) not in memo:
            inner = 0 if k == n else sum(below(k + 1, i) for i in range(hi + 1))
            memo[(k, prev)] = hi + inner
        return memo[(k, prev)]

    return n - 1 + (0 if n == 1 else sum(below(2, i) for i in range(n)))


def process_final(n: int, m: int, init: str) -> List[int]:
    """Closed form of the process's first m values for the CLI init specs."""
    parts = init.split(":")
    if parts[0] == "ones":
        return [(x + 1) ** n for x in range(m)]
    if parts[0] == "const":
        return [int(parts[1]) * (x + 1) ** n for x in range(m)]
    if parts[0] == "successor":
        return [(x + 1) ** (n + 1) for x in range(m)]
    a, d = int(parts[1]), int(parts[2])
    return [oracles.long2_closed(x, n, a, d) for x in range(m)]


def stage_rows(n: int, length: int) -> List[List[int]]:
    """Stages 0..n of the forward chain for exponent n, first `length` values each.

    Stage n is all ones; stage j is the prefix sum of stage j+1 read at the
    survivors of period j+2, whose x-th position is (j+2)*x // (j+1).
    """
    lengths = [length]
    for j in range(n):
        lengths.append((j + 2) * (lengths[-1] - 1) // (j + 1) + 1)
    stage = [1] * lengths[n]
    rows = [stage[:length]]
    for j in range(n - 1, -1, -1):
        acc, nxt = 0, []
        for x in range(lengths[j]):
            acc += stage[(j + 2) * x // (j + 1)]
            nxt.append(acc)
        stage = nxt
        rows.append(stage[:length])
    return rows[::-1]
