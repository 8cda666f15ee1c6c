"""CLI surface: output formats, exit codes, error reporting."""

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moessner import cli, engine, oeis
from moessner.cli import main
from moessner.oeis import BFileEntry, fixtures_dir, load_fixture, serialize_bfile
from moessner.presets import expected, preset_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_plain(capsys):
    code, out, err = run_cli(capsys, "eval", "--preset", "moessner", "--params", "x=3,n=3")
    assert (code, err) == (0, "")
    assert out == "64\n"


def test_eval_count_adds(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--preset", "moessner", "--params", "x=3,n=3", "--count-adds"
    )
    assert code == 0
    assert out == "64 63\n"


def test_eval_memoized(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--preset", "euler_zigzag", "--params", "n=10", "--memoized"
    )
    assert code == 0
    assert out == "50521\n"


def test_eval_json_single(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--preset", "catalan", "--params", "n=5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"preset": "catalan", "params": {"n": 5}, "value": "42"}


def test_eval_json_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--preset", "catalan", "--count", "4", "--format", "json", "--count-adds",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["value"] for row in payload] == ["1", "1", "2", "5"]
    assert all(row["params"]["n"] == i for i, row in enumerate(payload))
    assert all("additions" in row for row in payload)


def test_eval_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--preset", "moessner", "--params", "x=2,n=2", "--format", "csv", "--count-adds",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "preset,params,value,additions"
    assert lines[1] == "moessner,n=2;x=2,9,8"


def test_eval_table_param(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--preset", "product_of_table", "--params", "n=2,f=3:1:4"
    )
    assert code == 0
    assert out == "12\n"


def test_eval_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "eval", "--preset", "mystery")
    assert code == 2
    assert err.startswith("error: ")
    code, _, err = run_cli(capsys, "eval", "--preset", "moessner", "--params", "x=3")
    assert code == 2
    assert "missing" in err
    code, _, err = run_cli(capsys, "eval", "--preset", "moessner", "--params", "x 3")
    assert code == 2
    assert "key=value" in err
    # memoized evaluator refuses non-Markov presets
    code, _, err = run_cli(
        capsys, "eval", "--preset", "a125860", "--params", "x=1,n=3", "--memoized"
    )
    assert code == 2
    assert "Markov" in err


def test_eval_count_adds_memoized_refuses_before_walking(capsys, monkeypatch):
    # a137273 is not Markov; its counted walk at n=30 would run for hours
    def walk(program):
        raise AssertionError("evaluate_counting ran before the memo refused")

    monkeypatch.setattr(cli, "evaluate_counting", walk)
    code, out, err = run_cli(
        capsys, "eval", "--preset", "a137273", "--params", "n=30", "--count-adds", "--memoized"
    )
    assert (code, out) == (2, "")
    assert "Markov" in err


def test_eval_count_adds_memoized_refuses_a_non_markov_preset_with_the_memos_text(capsys, monkeypatch):
    # the state tables count a137273 through evaluate_counting, but --memoized runs the Markov tables alone
    from moessner import states

    def tables(program, routed=False):
        raise AssertionError("the state tables ran")

    monkeypatch.setattr(states, "counted_tables", tables)
    code, out, err = run_cli(capsys, "eval", "--preset", "a137273", "--params", "n=12", "--memoized", "--count-adds")
    assert (code, out) == (2, "")
    assert err == (
        "error: memoized evaluation requires a Markov program "
        "(bounds read at most the previous index; body at most the innermost)\n"
    )


def test_eval_count_adds_memoized_runs_the_counted_tables_alone(capsys, monkeypatch):
    def other(program):
        raise AssertionError("a second evaluator ran")

    monkeypatch.setattr(cli, "evaluate_memoized", other)
    monkeypatch.setattr(cli, "evaluate_counting", other)
    code, out, err = run_cli(
        capsys, "eval", "--preset", "moessner", "--params", "x=3,n=3", "--memoized", "--count-adds"
    )
    assert (code, out, err) == (0, "64 63\n", "")


@pytest.mark.parametrize("memoized", [(), ("--memoized",)], ids=["counted", "memoized"])
def test_eval_count_adds_answers_past_the_walk(capsys, memoized):
    # 16! leaves: the counted tables answer, through evaluate_counting or, with --memoized, alone
    argv = ("eval", "--preset", "factorial_rising", "--params", "n=16", "--count-adds", *memoized)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, "355687428096000 355687428095999\n", "")


def test_eval_rejects_repeated_parameter(capsys):
    code, out, err = run_cli(capsys, "eval", "--preset", "moessner", "--params", "x=3,x=5,n=2")
    assert (code, out) == (2, "")
    assert "'x' given more than once" in err


def test_eval_rejects_non_integer_table(capsys):
    code, out, err = run_cli(capsys, "eval", "--preset", "product_of_table", "--params", "n=1,f=a:1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-integer" in err


def test_eval_prints_values_past_the_int_str_digit_limit(capsys):
    # 10**4301 has 4302 digits, past CPython's default int-to-str limit of 4300
    argv = ("eval", "--preset", "moessner_stolid", "--params", "x=9,n=4301", "--memoized")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "1" + "0" * 4301 + "\n"
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == "1" + "0" * 4301


def test_argparse_failures_exit_two(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "eval")[0] == 2
    assert run_cli(capsys, "compare", "--preset", "moessner", "--against", "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_prefix_plain(capsys):
    code, out, _ = run_cli(
        capsys,
        "prefix", "--preset", "fibonacci", "--vary", "n", "--from", "0", "--to", "7",
    )
    assert code == 0
    assert out == "1, 1, 2, 3, 5, 8, 13, 21\n"


def test_prefix_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "prefix", "--preset", "moessner", "--params", "x=2", "--vary", "n",
        "--from", "0", "--to", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,3", "2,9", "3,27"]

    code, out, _ = run_cli(
        capsys,
        "prefix", "--preset", "binomial", "--params", "n=2", "--vary", "x",
        "--from", "0", "--to", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["1", "3", "6", "10", "15"]
    assert payload["vary"] == "x"
    assert payload["from"] == 0 and payload["to"] == 4


def test_prefix_bad_range(capsys):
    code, _, err = run_cli(
        capsys,
        "prefix", "--preset", "fibonacci", "--vary", "n", "--from", "5", "--to", "2",
    )
    assert code == 2
    assert "below" in err


def test_compare_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "catalan", "--count", "6", "--against", "oracle"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "6/6 match"
    assert all("| match" in line for line in lines[:-1])
    assert lines[2].startswith("n=2 | value 2 vs 2 | additions")


def test_compare_stolid(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "moessner", "--params", "x=4,n=4", "--against", "stolid"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=4,x=4 | value 625 vs 625 | additions 624 vs 624 | match"
    assert lines[1] == "1/1 match"


def test_compare_stolid_rejects_other_presets(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--preset", "catalan", "--params", "n=3", "--against", "stolid"
    )
    assert code == 2
    assert "stolid" in err


def test_compare_dp(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "moessner", "--params", "x=7,n=5", "--against", "dp"
    )
    assert code == 0
    lines = out.splitlines()
    assert "value 32768 vs 32768" in lines[0]
    assert "additions 105 vs n/a" in lines[0]
    assert lines[-1] == "1/1 match"


def test_compare_dp_checks_the_preset_parameters(capsys):
    for params, error in (
        ("q=5", "error: moessner got unexpected parameter(s): ['q']"),
        ("n=3", "error: moessner is missing parameter(s): ['x']"),
    ):
        code, out, err = run_cli(
            capsys, "compare", "--preset", "moessner", "--params", params, "--against", "dp"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [error]
    code, out, err = run_cli(
        capsys, "compare", "--preset", "moessner", "--params", "x=7,n=5", "--against", "dp"
    )
    assert (code, err) == (0, "")
    assert out == "n=5,x=7 | value 32768 vs 32768 | additions 105 vs n/a | match\n1/1 match\n"


def test_compare_memoized(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "fibonacci", "--count", "8", "--against", "memoized"
    )
    assert code == 0
    assert out.splitlines()[-1] == "8/8 match"


def test_process_plain_tokens(capsys):
    code, out, _ = run_cli(capsys, "process", "--exponent", "4", "--prefix", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "exponent 4, init const:1, prefix 4"
    assert lines[-1].split() == ["final", "1", "16", "81", "256"]
    periods = [line.split()[1] for line in lines if line.startswith("period")]
    assert periods == ["5", "4", "3", "2"]
    summed = [line.split()[1:] for line in lines if line.strip().startswith("summed")]
    assert summed[2][:7] == ["1", "4", "15", "32", "65", "108", "175"]


def test_process_indicator_init(capsys):
    code, out, _ = run_cli(
        capsys, "process", "--exponent", "1", "--prefix", "4", "--init", "indicator:2:3"
    )
    assert code == 0
    assert out.splitlines()[-1].split() == ["final", "2", "10", "24", "44"]


def test_process_json(capsys):
    code, out, _ = run_cli(
        capsys, "process", "--exponent", "2", "--prefix", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent"] == 2
    assert payload["init"] == "const:1"
    assert payload["final"] == ["1", "4", "9", "16", "25"]
    assert [step["period"] for step in payload["steps"]] == [3, 2]
    assert payload["steps"][1]["filtered"][:3] == ["1", "3", "5"]


def test_process_bad_init(capsys):
    code, _, err = run_cli(
        capsys, "process", "--exponent", "2", "--prefix", "4", "--init", "ramp:3"
    )
    assert code == 2
    assert "init spec" in err


def test_process_negative_exponent_exits_two(capsys):
    code, out, err = run_cli(capsys, "process", "--exponent", "-1", "--prefix", "2")
    assert (code, out) == (2, "")
    assert err == "error: exponent must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--preset", "catalan", "--count", "-1", "--format", "json"],
        ["compare", "--preset", "catalan", "--against", "oracle", "--count", "-2"],
        ["polygonal", "--k", "3", "--count", "-1"],
        ["oeis-check", "--preset", "catalan", "--count", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_count_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    count = argv[argv.index("--count") + 1]
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"moessner {argv[0]}: error: argument --count: must be a natural number, got {count!r}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--preset", "catalan", "--against", "dp"],
        ["compare", "--preset", "catalan", "--against", "stolid"],
        ["compare", "--preset", "nosuch", "--against", "oracle"],
        ["eval", "--preset", "nosuch"],
        ["eval", "--preset", "nosuch", "--format", "json"],
        ["eval", "--preset", "moessner", "--params", "y=3"],
        ["eval", "--preset", "moessner", "--params", "x=1,x=2"],
        # a002449_irwin refuses n=0 and takes n=1: a run of n=1 under --count 0 would print a value
        ["eval", "--preset", "a002449_irwin"],
        ["compare", "--preset", "a002449_irwin", "--against", "oracle"],
    ],
    ids=" ".join,
)
def test_count_zero_refuses_what_count_one_refuses(capsys, argv):
    # no point runs under --count 0, but the input is checked as under --count 1
    refusals = [run_cli(capsys, *argv, "--count", count) for count in ("1", "0")]
    assert refusals[0] == refusals[1]
    code, out, err = refusals[1]
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["eval", "--preset", "moessner", "--params", "x=2"], ""),
        (["eval", "--preset", "moessner", "--params", "x=2", "--format", "json"], "[]\n"),
        (["eval", "--preset", "catalan", "--format", "csv"], "preset,params,value\n"),
        (["compare", "--preset", "moessner", "--params", "x=2", "--against", "dp"], "0/0 match\n"),
        (["compare", "--preset", "catalan", "--against", "oracle"], "0/0 match\n"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_count_zero_on_valid_input_prints_no_point(capsys, argv, expected):
    assert run_cli(capsys, *argv, "--count", "0") == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--preset", "moessner", "--params", "x=3,n=3", "--count", "2"],
        ["eval", "--preset", "moessner", "--params", "x=3,n=3", "--count", "0", "--format", "json"],
        ["compare", "--preset", "moessner", "--params", "x=3,n=3", "--count", "2", "--against", "dp"],
        ["prefix", "--preset", "moessner", "--params", "x=2,n=9", "--vary", "n", "--from", "0", "--to", "3"],
        ["prefix", "--preset", "moessner", "--params", "x=2,n=9", "--vary", "n", "--from", "0", "--to", "3",
         "--format", "json"],
        ["prefix", "--preset", "moessner", "--params", "x=2,n=3", "--vary", "x", "--from", "0", "--to", "3"],
    ],
    ids=" ".join,
)
def test_a_parameter_both_fixed_and_swept_is_refused(capsys, argv):
    swept = argv[argv.index("--vary") + 1] if "--vary" in argv else "n"
    assert run_cli(capsys, *argv) == (2, "", f"error: parameter {swept!r} is both fixed and swept\n")


def test_inverse_plain(capsys):
    code, out, _ = run_cli(capsys, "inverse", "--exponent", "3", "--prefix", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["step", "0:", "1", "8", "27", "64", "125"]
    assert lines[1].split() == ["step", "1:", "1", "3", "7", "12", "19"]
    assert lines[2].split() == ["step", "2:", "1", "2", "3", "4", "5"]
    assert lines[3].split() == ["step", "3:", "1", "1", "1", "1", "1"]


def test_inverse_json(capsys):
    code, out, _ = run_cli(
        capsys, "inverse", "--exponent", "2", "--prefix", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        ["1", "4", "9", "16"],
        ["1", "2", "3", "4"],
        ["1", "1", "1", "1"],
    ]


# one small call per subcommand that takes --format; every format it offers must do what it says
_FORMAT_ARGVS = {
    "eval": ["eval", "--preset", "moessner", "--params", "x=2", "--count", "3"],
    "prefix": ["prefix", "--preset", "moessner", "--params", "x=2", "--vary", "n", "--from", "0", "--to", "3"],
    "process": ["process", "--exponent", "2", "--prefix", "3"],
    "inverse": ["inverse", "--exponent", "2", "--prefix", "3"],
}


def _offered_formats():
    (subcommands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subcommands.choices.items():
        for action in parser._actions:
            if "--format" in action.option_strings:
                yield name, action.choices


def test_every_subcommand_with_a_format_is_guarded():
    assert {name for name, _ in _offered_formats()} == set(_FORMAT_ARGVS)


@pytest.mark.parametrize(
    "command,fmt",
    [(name, fmt) for name, choices in _offered_formats() for fmt in choices if fmt != "plain"],
)
def test_offered_formats_are_honoured(capsys, command, fmt):
    argv = _FORMAT_ARGVS[command]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        json.loads(out)
    else:
        assert fmt == "csv"
        assert re.fullmatch(r"\w+(,\w+)+", out.splitlines()[0])
        assert out != plain


def test_polygonal(capsys):
    code, out, _ = run_cli(capsys, "polygonal", "--k", "3", "--count", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "5/5 match"
    assert lines[0] == "n=0 sum 1 closed 1 match"


def test_polygonal_reports_a_mismatch(capsys, monkeypatch):
    from moessner import polygonal

    summed = polygonal.quotient_sum
    monkeypatch.setattr(polygonal, "quotient_sum", lambda k, n: summed(k, n) + (n == 2))
    code, out, _ = run_cli(capsys, "polygonal", "--k", "3", "--count", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == "n=2 sum 13 closed 12 MISMATCH"
    assert lines[-1] == "4/5 match"


def test_oeis_check_bundled(capsys):
    code, out, _ = run_cli(capsys, "oeis-check", "--preset", "catalan", "--count", "10")
    assert code == 0
    lines = out.splitlines()
    assert "catalan vs A000108: 10/10 match" in lines


def test_oeis_check_doctored_dir(tmp_path, capsys):
    doctored = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), doctored)
    entries = load_fixture("A000045")
    broken = [BFileEntry(e.index, e.value + (e.index == 4)) for e in entries]
    (doctored / "b000045.txt").write_text(serialize_bfile(broken), encoding="ascii")
    code, out, _ = run_cli(
        capsys,
        "oeis-check", "--preset", "fibonacci", "--count", "8", "--fixtures", str(doctored),
    )
    assert code == 1
    lines = out.splitlines()
    assert "fibonacci vs A000045: 7/8 match" in lines
    assert "  n=3: engine 3 fixture 4" in lines


def test_oeis_check_errors(capsys):
    code, _, err = run_cli(capsys, "oeis-check", "--preset", "multiset")
    assert code == 2
    assert "multiset" in err
    code, _, err = run_cli(
        capsys, "oeis-check", "--preset", "catalan", "--fixtures", "/nonexistent"
    )
    assert code == 2
    assert "manifest" in err


def test_oeis_check_malformed_fixture_files_exit_two(tmp_path, capsys):
    (tmp_path / "manifest.txt").write_text("catalan A108 from=x\n", encoding="ascii")
    code, out, err = run_cli(capsys, "oeis-check", "--preset", "catalan", "--fixtures", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: manifest line 1: ") and err.count("\n") == 1
    (tmp_path / "manifest.txt").write_text("catalan A108\n", encoding="ascii")
    (tmp_path / "b000108.txt").write_bytes("0 1\n1 ①\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "oeis-check", "--preset", "catalan", "--fixtures", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: b000108.txt: ") and err.count("\n") == 1


def test_list_presets_plain(capsys):
    code, out, _ = run_cli(capsys, "list-presets")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 29
    zigzag = next(line for line in lines if line.startswith("euler_zigzag"))
    assert "A000111" in zigzag


def test_list_presets_json(capsys):
    code, out, _ = run_cli(capsys, "list-presets", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 29
    assert payload[0]["name"] == "a002293"


def test_module_entry_point():
    # one end-to-end spawn; everything else drives main() in-process
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "eval", "--preset", "moessner", "--params", "x=3,n=3"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "64\n"


def test_oeis_check_names_the_manifest_line_of_a_bad_sequence_id(tmp_path):
    (tmp_path / "manifest.txt").write_text("catalan Axy\n", encoding="ascii")
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "oeis-check", "--preset", "catalan", "--fixtures", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: manifest line 1: bad sequence id 'Axy'\n"


def test_compare_against_the_binomial_oracle_past_pascal_rows():
    # C(20002, 2) in two multiplications and exact divisions, not 20002 Pascal rows
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "compare", "--preset", "binomial", "--params", "x=20000,n=2",
         "--against", "oracle"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - started < 5
    assert (result.returncode, result.stdout.splitlines()[-1], result.stderr) == (0, "1/1 match", "")


@pytest.mark.parametrize("preset,n", [("moessner_stolid", 1), ("moessner", 2)])
def test_eval_memoized_refuses_a_table_too_wide(preset, n):
    # x = 10^21: the level-1 table alone would have 10^21 + 1 cells
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "eval", "--preset", preset,
         "--params", f"x=1000000000000000000000,n={n}", "--memoized"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: level 1 has width 1000000000000000000001, past the 100000000 cells a table may hold\n"
    )


@pytest.mark.parametrize("flags", [(), ("--count-adds",)], ids=["walk", "counted walk"])
def test_eval_walk_refuses_a_level_1_too_wide(flags):
    # x = 10^21 without --memoized: the walk would visit 10^21 + 1 indices of level 1
    argv = ["eval", "--preset", "moessner", "--params", "x=1000000000000000000000,n=2", *flags]
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "moessner", *argv], capture_output=True, text=True, timeout=60
    )
    assert time.perf_counter() - started < 5  # one interpreter start; the walk never begins
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: level 1 has width 1000000000000000000001, past the 100000000 indices the walk may visit\n"
    )


@pytest.mark.parametrize(
    "argv,stdout",
    [
        (["eval", "--preset", "moessner", "--params", "x=100000000,n=1"], "100000001\n"),
        (["eval", "--preset", "moessner_stolid", "--params", "x=1000000000000000000000,n=1", "--count-adds"],
         "1000000000000000000001 1000000000000000000000\n"),
        (["compare", "--preset", "moessner", "--params", "x=100000000,n=1", "--against", "stolid"],
         "n=1,x=100000000 | value 100000001 vs 100000001 | additions 100000000 vs 100000000 | match\n"
         "1/1 match\n"),
    ],
)
def test_eval_walk_sums_a_wide_depth_1_lit_body(argv, stdout):
    # a depth-1 Lit body is one multiplication, not a walk: no width is refused
    result = subprocess.run(
        [sys.executable, "-m", "moessner", *argv], capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


@pytest.mark.parametrize(
    "argv,length",
    [
        (["compare", "--preset", "moessner", "--params", "x=1000000000000000000000", "--count", "2", "--against", "dp"],
         "1000000000000000000001"),
        (["inverse", "--exponent", "2", "--prefix", "1000000000000000000000"], "1000000000000000000000"),
        (["process", "--exponent", "3", "--prefix", "1000000000000000000000"], "3999999999999999999997"),
    ],
    ids=["compare", "inverse", "process"],
)
def test_huge_rows_exit_2_before_they_are_built(capsys, argv, length):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: a row of length {length} is past the 100000000 cells a row may hold\n"


def test_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    def out_of_memory(program):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate_counting", out_of_memory)
    code, out, err = run_cli(capsys, "eval", "--preset", "moessner", "--params", "x=3,n=3")
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize(
    "preset, points",
    [("catalan", range(7)), ("a137273", range(3)), ("a137273", range(3, 10))],
    ids=["markov", "a137273 shallow", "a137273"],  # a137273 is Markov for n <= 2 only
)
def test_eval_and_the_sweeps_take_no_value_from_the_walk_entry(capsys, monkeypatch, preset, points):
    def walk(program):
        raise AssertionError("engine.evaluate ran")

    for module in (engine, cli, oeis):
        monkeypatch.setattr(module, "evaluate", walk)
    values = [str(expected(preset, {"n": n})) for n in range(max(points.stop, 4))]
    for n in points:
        assert run_cli(capsys, "eval", "--preset", preset, "--params", f"n={n}") == (0, values[n] + "\n", "")
        code, out, _ = run_cli(capsys, "eval", "--preset", preset, "--params", f"n={n}", "--format", "json")
        assert (code, json.loads(out)["value"]) == (0, values[n])
        code, out, _ = run_cli(capsys, "eval", "--preset", preset, "--params", f"n={n}", "--format", "csv")
        assert (code, out.splitlines()[1].split(",")[2]) == (0, values[n])
    assert run_cli(capsys, "eval", "--preset", preset, "--count", "4") == (0, "".join(v + "\n" for v in values[:4]), "")
    first, last = str(points.start), str(points.stop - 1)
    code, out, _ = run_cli(capsys, "prefix", "--preset", preset, "--vary", "n", "--from", first, "--to", last)
    assert (code, out) == (0, ", ".join(values[points.start : points.stop]) + "\n")
    code, out, _ = run_cli(capsys, "oeis-check", "--preset", preset, "--count", str(points.stop))
    assert code == 0 and out.endswith(f": {points.stop}/{points.stop} match\n")


@pytest.mark.parametrize(
    "preset, value",
    [("a137273", 57_753_201_767_477), ("factorial_rising", 355_687_428_096_000)],  # a137273(16), 17!
)
def test_eval_answers_points_the_walk_takes_hours_over(preset, value):
    # the walk visits 17! leaves for factorial_rising n=16; the counted route answers by the tables
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "eval", "--preset", preset, "--params", "n=16"],
        capture_output=True, text=True, timeout=30,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, f"{value}\n", "")
    assert time.monotonic() - started < 30


def test_closed_pipe_exits_quietly():
    # about 1.1 MB of rows: far more than a pipe holds, so the reader's close lands mid-output
    proc = subprocess.Popen(
        [sys.executable, "-m", "moessner", "inverse", "--exponent", "3", "--prefix", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(80)) == 80
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_rosen_triple_eval_and_compare(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--preset", "rosen_triple", "--params", "n1=2,n2=3,n3=4"
    )
    assert code == 0
    assert out == "24\n"
    code, out, _ = run_cli(
        capsys,
        "compare", "--preset", "rosen_triple", "--params", "n1=2,n2=3,n3=4",
        "--against", "oracle",
    )
    assert code == 0
    assert out.splitlines()[-1] == "1/1 match"


# argv fuzz: subcommands x presets (and an unknown one) x --params strings drawn
# from the grammar's keys, values and junk; numbers stay in -1..3 so every call is quick
_small = st.integers(-1, 3).map(str)
_value = st.one_of(
    _small,
    st.lists(st.integers(-1, 3), max_size=4).map(lambda entries: ":".join(map(str, entries))),
    st.sampled_from(
        ("ones", "successor", "const:2", "indicator:1:2", "prev_plus:1", "mult_x", "zzz", "", "=", "1.5")
    ),
)
_key = st.sampled_from(("x", "n", "a", "d", "b", "f", "n1", "n2", "n3", "init", "rule", "k", "vary", ""))
_assignment = st.one_of(st.builds("{}={}".format, _key, _value), st.sampled_from(("", " ", "x", "==")))
_preset = st.sampled_from(preset_names() + ["mystery"]).map(lambda name: ["--preset", name])
_params = st.lists(_assignment, max_size=5).map(lambda parts: ["--params", ",".join(parts)])
_count = st.one_of(st.just([]), _small.map(lambda m: ["--count", m]))
_format = st.sampled_from(([], ["--format", "csv"], ["--format", "json"]))


def _option(flag, values):
    return values.map(lambda value: [flag, value])


def _switch(flag):
    return st.sampled_from(([], [flag]))


_argvs = st.one_of(
    st.tuples(
        st.just(["eval"]), _preset, _params, _count,
        _switch("--memoized"), _switch("--count-adds"), _format,
    ),
    st.tuples(
        st.just(["prefix"]), _preset, _params, _option("--vary", _key),
        _option("--from", _small), _option("--to", _small), _format,
    ),
    st.tuples(
        st.just(["compare"]), _preset, _params, _count,
        _option("--against", st.sampled_from(("oracle", "memoized", "stolid", "dp"))),
    ),
    st.tuples(
        st.just(["process"]), _option("--exponent", _small), _option("--prefix", _small),
        _option("--init", _value), _format,
    ),
    st.tuples(st.just(["inverse"]), _option("--exponent", _small), _option("--prefix", _small), _format),
    st.tuples(st.just(["polygonal"]), _option("--k", _small), _option("--count", _small)),
    st.tuples(st.just(["oeis-check"]), _preset, _option("--count", _small)),
    st.tuples(st.just(["list-presets"]), _switch("--json")),
).map(lambda parts: [token for part in parts for token in part])


@given(_argvs)
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_ends_in_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
