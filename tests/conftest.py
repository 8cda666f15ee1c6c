"""Child interpreters that tests start (python -m moessner) import from src/ too."""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on integer strings, 4300 digits, for one test.

    An in-process cli.main call lifts the limit for the rest of the session;
    this fixture sets it explicitly and puts back whatever was there.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)
