"""Command-line front end.

Exit codes: 0 on success (and on every check that matches), 1 when a
requested comparison finds a genuine mismatch, 2 on usage or parameter
errors. A reader that closes stdout early (`moessner ... | head`) also
gets exit 1, with nothing on stderr. Every computed number is printed as a
decimal string, so arbitrarily large values survive every output format.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Any, Dict, List, Optional

# presets and engine run in five of the eight subcommands; every other module
# is imported by the handler that runs it, so a cold call loads only its own
from . import presets
from .engine import _counted_tables, evaluate, evaluate_counting, evaluate_memoized, is_natural
from .errors import MoessnerError, ParameterError, integer

# names perfbench/tracer.py wraps here, though the handlers import them when they run
_TRACED = {"is_markov": "engine", "run_process": "process", "dp_power": "process", "run_inverse": "inverse"}


def __getattr__(name: str) -> Any:
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_TRACED[name]}", __package__), name)


def _print_json(payload: Any) -> None:
    import json  # only the json formats load it

    print(json.dumps(payload, sort_keys=True))


def _params_repr(params: Dict[str, Any]) -> str:
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, tuple):
            parts.append(f"{key}=" + ":".join(str(v) for v in value))
        else:
            parts.append(f"{key}={value}")
    return ",".join(parts)


def _json_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}


def _assignments(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """The --params point, or the points n=0..M-1 under --count M, which
    refuses an n in --params. Under --count 0 the point n=0 is still built,
    so M = 0 refuses what M = 1 does."""
    base = presets.parse_params(args.params.split(","))
    if args.count is None:
        return [base]
    points = presets.sweep_points(base, "n", range(args.count))
    if args.count == 0:
        presets.build(args.preset, {**base, "n": 0})
    return points


def _cmd_eval(args: argparse.Namespace) -> int:
    # --memoized: the Markov tables alone, which refuse a non-Markov program; else one report per
    # point from evaluate_counting, which takes the tables or the walk per program, with the walk's errors
    keys = ["value", "additions"][: 1 + args.count_adds]
    rows = []  # (params, the printed fields of keys)
    for params in _assignments(args):
        program = presets.build(args.preset, params)
        if args.memoized and not args.count_adds:
            fields = [evaluate_memoized(program)]
        else:
            report = (_counted_tables if args.memoized else evaluate_counting)(program)
            fields = [report.value, report.additions][: len(keys)]
        rows.append((params, [str(v) for v in fields]))

    if args.format == "json":
        payload = [{"preset": args.preset, "params": _json_params(params), **dict(zip(keys, fields))} for params, fields in rows]
        _print_json(payload[0] if args.count is None else payload)
    elif args.format == "csv":
        print(",".join(["preset", "params", *keys]))
        for params, fields in rows:
            print(",".join([args.preset, _params_repr(params).replace(",", ";"), *fields]))
    else:
        for _, fields in rows:
            print(" ".join(fields))
    return 0


def _cmd_prefix(args: argparse.Namespace) -> int:
    if args.stop < args.start:
        raise ParameterError(f"--to {args.stop} below --from {args.start}")
    base = presets.parse_params(args.params.split(","))
    values = presets.sweep(args.preset, base, args.vary, range(args.start, args.stop + 1))

    if args.format == "json":
        _print_json(
            {
                "preset": args.preset,
                "params": _json_params(base),
                "vary": args.vary,
                "from": args.start,
                "to": args.stop,
                "values": [str(v) for v in values],
            }
        )
    elif args.format == "csv":
        print(f"{args.vary},value")
        for point, value in zip(range(args.start, args.stop + 1), values):
            print(f"{point},{value}")
    else:
        print(", ".join(str(v) for v in values))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.against in ("stolid", "dp") and args.preset != "moessner":
        raise ParameterError(f"--against {args.against} only compares the moessner preset")
    lines, matches = [], 0  # printed after the last point, so an error prints none
    for params in _assignments(args):  # additions: None, or (the value's, the reference's or "n/a")
        if args.against == "oracle":
            report = evaluate_counting(presets.build(args.preset, params))
            value, reference, additions = report.value, presets.expected(args.preset, params), (report.additions, "n/a")
        elif args.against == "memoized":
            program = presets.build(args.preset, params)
            value, reference, additions = evaluate(program), evaluate_memoized(program), None
        elif args.against == "stolid":
            lively = evaluate_counting(presets.build("moessner", params))
            stolid = evaluate_counting(presets.build("moessner_stolid", params))
            value, reference, additions = lively.value, stolid.value, (lively.additions, stolid.additions)
        else:  # dp; argparse choices allow nothing else
            from .process import dp_power

            reference = presets.expected("moessner", params)
            report = dp_power(params["x"], params["n"])
            value, additions = report.value, (report.additions, "n/a")
        ok = value == reference and (additions is None or additions[1] in ("n/a", additions[0]))
        counts = [] if additions is None else [f"additions {additions[0]} vs {additions[1]}"]
        lines.append(" | ".join([_params_repr(params) or "-", f"value {value} vs {reference}", *counts, "match" if ok else "MISMATCH"]))
        matches += ok
    for line in lines:
        print(line)
    print(f"{matches}/{len(lines)} match")
    return 0 if matches == len(lines) else 1


def _format_row(values, width: int) -> str:
    return " ".join(str(v).rjust(width) for v in values)


def _cmd_process(args: argparse.Namespace) -> int:
    from .process import run_process
    from .rules import InitRule

    final, trace = run_process(args.exponent, args.prefix, InitRule.parse(args.init))

    if args.format == "json":
        _print_json({**trace.to_dict(), "final": [str(v) for v in final]})
        return 0

    width = max(
        (len(str(v)) for step in trace.steps for v in step.before),
        default=1,
    )
    width = max(width, max((len(str(v)) for v in final), default=1))
    print(f"exponent {trace.exponent}, init {trace.init.spec_string()}, prefix {args.prefix}")
    for step in trace.steps:
        print(f"period {step.period}")
        print("  before   " + _format_row(step.before, width))
        print("  filtered " + _format_row(step.filtered, width))
        print("  summed   " + _format_row(step.summed, width))
    print("final " + _format_row(final, width))
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    from .inverse import run_inverse

    chain = run_inverse(args.exponent, args.prefix)
    if args.format == "json":
        rows = [[str(v) for v in row] for row in chain]
        _print_json({"exponent": args.exponent, "prefix": args.prefix, "rows": rows})
        return 0
    width = max((len(str(v)) for row in chain for v in row), default=1)
    for step, row in enumerate(chain):
        print(f"step {step}: " + _format_row(row, width))
    return 0


def _cmd_polygonal(args: argparse.Namespace) -> int:
    from .oracles import polygonal_closed
    from .polygonal import check_terms, quotient_sum

    check_terms(args.k, args.k * args.count * (args.count + 1) // 2 + args.count)  # row n adds k(n+1) + 1 terms
    mismatches = 0
    for n in range(args.count):
        summed = quotient_sum(args.k, n)
        closed = polygonal_closed(args.k, n)
        ok = summed == closed
        mismatches += 0 if ok else 1
        print(f"n={n} sum {summed} closed {closed} {'match' if ok else 'MISMATCH'}")
    print(f"{args.count - mismatches}/{args.count} match")
    return 0 if mismatches == 0 else 1


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    from . import oeis

    entries_by_sequence = None
    if args.online:
        entries_by_sequence = {}
        for row in oeis.load_manifest(args.fixtures):
            if row.preset == args.preset and row.a_number not in entries_by_sequence:
                entries_by_sequence[row.a_number] = oeis.fetch(row.a_number)
    reports = oeis.check_preset_prefix(
        args.preset, args.count, directory=args.fixtures, entries_by_sequence=entries_by_sequence
    )
    all_ok = True
    for report in reports:
        print(report.summary)
        for line in report.lines:
            if not line.ok:
                all_ok = False
                shown = "missing" if line.fixture_value is None else line.fixture_value
                print(f"  {report.vary}={line.vary_value}: engine {line.engine_value} fixture {shown}")
    return 0 if all_ok else 1


def _cmd_list_presets(args: argparse.Namespace) -> int:
    entries = presets.catalog()
    if args.json:
        _print_json(entries)
        return 0
    name_width = max(len(e["name"]) for e in entries)
    for entry in entries:
        schema = ",".join(entry["params"])
        if entry["optional"]:
            schema += " [" + ",".join(entry["optional"]) + "]"
        oeis_id = entry["oeis"] or "-"
        print(f"{entry['name'].ljust(name_width)}  {oeis_id:<8} {schema:<24} {entry['computes']}")
    return 0


def _int(text: str) -> int:
    """argparse type of every other integer option: errors.integer, with argparse's text for int."""
    try:
        return integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """argparse type of every --count: a natural number."""
    try:
        value = integer(text)
    except ValueError:
        value = None
    if not is_natural(value):
        raise argparse.ArgumentTypeError(f"must be a natural number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moessner",
        description="Evaluate nested-summation sequence programs and the row process behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("plain", "csv", "json")) -> None:
        p.add_argument("--format", choices=choices, default="plain")

    p_eval = sub.add_parser("eval", help="evaluate a preset at one parameter point")
    p_eval.add_argument("--preset", required=True)
    p_eval.add_argument("--params", default="", help="comma list like x=3,n=4; tables as f=1:3:2")
    p_eval.add_argument("--count", type=_count, default=None, metavar="M", help="evaluate n=0..M-1 instead")
    p_eval.add_argument(
        "--memoized", action="store_true", help="use the table-folding evaluator; with --count-adds, count by the tables"
    )
    p_eval.add_argument("--count-adds", action="store_true", help="also report additions performed")
    add_format(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_prefix = sub.add_parser("prefix", help="evaluate a preset along one varying parameter")
    p_prefix.add_argument("--preset", required=True)
    p_prefix.add_argument("--params", default="")
    p_prefix.add_argument("--vary", required=True, help="parameter to sweep (usually x or n)")
    p_prefix.add_argument("--from", dest="start", type=_int, required=True)
    p_prefix.add_argument("--to", dest="stop", type=_int, required=True)
    add_format(p_prefix)
    p_prefix.set_defaults(handler=_cmd_prefix)

    p_cmp = sub.add_parser("compare", help="check a preset against an independent path")
    p_cmp.add_argument("--preset", required=True)
    p_cmp.add_argument("--params", default="")
    p_cmp.add_argument("--count", type=_count, default=None, metavar="M", help="compare n=0..M-1 instead")
    p_cmp.add_argument("--against", choices=("oracle", "memoized", "stolid", "dp"), required=True)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_proc = sub.add_parser("process", help="run the drop/sum row process and print the trace")
    p_proc.add_argument("--exponent", type=_int, required=True)
    p_proc.add_argument("--prefix", type=_int, required=True, help="how many final values to produce")
    p_proc.add_argument("--init", default="ones", help="ones | successor | const:C | indicator:A:D")
    add_format(p_proc, ("plain", "json"))
    p_proc.set_defaults(handler=_cmd_process)

    p_inv = sub.add_parser("inverse", help="run the inverse process from a power row down to ones")
    p_inv.add_argument("--exponent", type=_int, required=True)
    p_inv.add_argument("--prefix", type=_int, required=True, help="entries to show per row")
    add_format(p_inv, ("plain", "json"))
    p_inv.set_defaults(handler=_cmd_inverse)

    p_poly = sub.add_parser("polygonal", help="check the floored-quotient sum against its closed form")
    p_poly.add_argument("--k", type=_int, required=True)
    p_poly.add_argument("--count", type=_count, required=True, metavar="M", help="check n=0..M-1")
    p_poly.set_defaults(handler=_cmd_polygonal)

    p_oeis = sub.add_parser("oeis-check", help="compare a preset prefix against bundled b-files")
    p_oeis.add_argument("--preset", required=True)
    p_oeis.add_argument("--count", type=_count, default=8, metavar="M")
    p_oeis.add_argument("--fixtures", default=None, help="override the bundled fixtures directory")
    p_oeis.add_argument("--online", action="store_true", help="fetch the b-file instead of the bundled copy")
    p_oeis.set_defaults(handler=_cmd_oeis_check)

    p_list = sub.add_parser("list-presets", help="list available presets")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(handler=_cmd_list_presets)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # values of any size print in full
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows up here, not in the exit flush
        return code
    except MoessnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the interpreter's
        # exit flush stays quiet, as in Python's documented SIGPIPE recipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
