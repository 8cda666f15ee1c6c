"""The package front loads names on first use, and a cold CLI call loads only the modules it runs."""

import importlib
import json
import subprocess
import sys

import pytest

import moessner
from moessner.presets import catalog

# a cold call under `python -m moessner`, then the moessner modules, json and the dataclass
# machinery (dataclasses, inspect) it loaded, on stderr
_PROBE = """
import sys
from moessner.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
shown = {"json", "dataclasses", "inspect"}
print(code, *sorted(m for m in sys.modules if m in shown or m.startswith("moessner.")), file=sys.stderr)
"""

_NOT_FOR_EVAL = {"process", "inverse", "polygonal", "counting", "elision", "oeis", "states"}


def _cold(*argv):
    result = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, timeout=60)
    code, *loaded = result.stderr.split()
    return int(code), result.stdout, {name.removeprefix("moessner.") for name in loaded}


def test_every_exported_name_imports():
    for name in moessner.__all__:
        value = getattr(moessner, name)
        assert value is getattr(importlib.import_module(f"moessner.{moessner._ORIGIN[name]}"), name), name
        namespace = {}
        exec(f"from moessner import {name}", namespace)
        assert namespace[name] is value


def test_star_import_binds_every_name():
    namespace = {}
    exec("from moessner import *", namespace)
    assert set(moessner.__all__) <= set(namespace)


def test_dir_lists_the_exports_and_submodules():
    listed = dir(moessner)
    assert set(moessner.__all__) <= set(listed)
    assert {"engine", "process", "oeis", "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_submodules_are_attributes():
    import moessner as package

    assert package.process is importlib.import_module("moessner.process")
    assert package.oeis.load_fixture is moessner.load_fixture


def test_unknown_names_raise_attribute_error():
    assert not hasattr(moessner, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        moessner.no_such_name
    with pytest.raises(ImportError):
        exec("from moessner import no_such_name", {})


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--preset", "moessner", "--params", "x=3,n=3"],
        ["eval", "--preset", "moessner", "--params", "x=3,n=3", "--count-adds"],
        ["eval", "--preset", "factorial_rising", "--params", "n=8"],
        ["prefix", "--preset", "catalan", "--vary", "n", "--from", "0", "--to", "10"],
        ["list-presets"],
    ],
    ids=["eval", "eval count-adds", "eval factorial_rising", "prefix catalan", "list-presets"],
)
def test_plain_calls_load_neither_the_other_subcommands_nor_json(argv):
    code, out, loaded = _cold(*argv)
    assert code == 0 and out
    assert {"cli", "presets", "engine"} <= loaded
    assert not loaded & (_NOT_FOR_EVAL | {"json"})


def test_process_loads_neither_oeis_nor_polygonal():
    code, out, loaded = _cold("process", "--exponent", "3", "--prefix", "4")
    assert (code, out.splitlines()[-1]) == (0, "final  1  8 27 64")
    assert "process" in loaded and not loaded & {"oeis", "polygonal"}


def test_json_formats_load_json_and_print_the_same_bytes():
    code, out, loaded = _cold("eval", "--preset", "moessner", "--params", "x=3,n=3", "--format", "json")
    assert code == 0 and "json" in loaded
    assert out == '{"params": {"n": 3, "x": 3}, "preset": "moessner", "value": "64"}\n'
    code, out, loaded = _cold("list-presets", "--json")
    assert code == 0 and "json" in loaded
    assert out == json.dumps(catalog(), sort_keys=True) + "\n"


def test_the_expression_module_loads_no_dataclass_machinery():
    probe = "import sys, moessner.expr; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [["eval", "--preset", "moessner", "--params", "x=3,n=3"], ["list-presets"]],
    ids=["eval", "list-presets"],
)
def test_plain_calls_do_not_load_the_oracles(argv):
    code, out, loaded = _cold(*argv)
    assert code == 0 and out
    assert "oracles" not in loaded


def test_compare_against_the_oracle_loads_it_and_agrees():
    code, out, loaded = _cold("compare", "--preset", "long2", "--params", "x=2,n=3,a=1,d=2", "--against", "oracle")
    assert "oracles" in loaded
    assert (code, out) == (0, "a=1,d=2,n=3,x=2 | value 135 vs 135 | additions 80 vs n/a | match\n1/1 match\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--preset", "moessner", "--params", "x=3,n=3", "--count-adds"],
        ["eval", "--preset", "catalan", "--count", "4", "--memoized", "--format", "json"],
        ["prefix", "--preset", "a137273", "--vary", "n", "--from", "0", "--to", "4", "--format", "csv"],
        ["compare", "--preset", "long2", "--params", "x=2,n=3,a=1,d=2", "--against", "oracle"],
        ["compare", "--preset", "moessner", "--params", "x=2", "--count", "3", "--against", "dp"],
        ["process", "--exponent", "3", "--prefix", "4", "--format", "json"],
        ["inverse", "--exponent", "3", "--prefix", "4"],
        ["polygonal", "--k", "3", "--count", "4"],
        ["oeis-check", "--preset", "catalan", "--count", "4"],
        ["list-presets"],
    ],
    ids=["eval", "eval json", "prefix", "compare oracle", "compare dp", "process json", "inverse", "polygonal",
         "oeis-check", "list-presets"],
)
def test_no_cold_subcommand_loads_the_dataclass_machinery(argv):
    code, out, loaded = _cold(*argv)
    assert code == 0 and out
    assert not loaded & {"dataclasses", "inspect"}
