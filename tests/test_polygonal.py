"""Polygonal numbers as quotient sums, against closed forms and fixtures."""

import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moessner import engine, polygonal
from moessner.cli import main
from moessner.counting import sigma
from moessner.errors import PreconditionError
from moessner.oeis import load_fixture
from moessner.oracles import polygonal_closed
from moessner.polygonal import quotient_sum, quotient_sum_shifted


def test_quotient_sum_equals_closed_form():
    for k in range(1, 9):
        for n in range(60):
            assert quotient_sum(k, n) == polygonal_closed(k, n)


def test_shifted_prefixes_frozen():
    assert [quotient_sum_shifted(1, n) for n in range(6)] == [0, 1, 3, 6, 10, 15]
    assert [quotient_sum_shifted(2, n) for n in range(6)] == [0, 1, 4, 9, 16, 25]
    assert [quotient_sum_shifted(3, n) for n in range(6)] == [0, 1, 5, 12, 22, 35]
    assert [quotient_sum_shifted(4, n) for n in range(6)] == [0, 1, 6, 15, 28, 45]


def test_shifted_closed_forms():
    for n in range(200):
        assert quotient_sum_shifted(1, n) == n * (n + 1) // 2
        assert quotient_sum_shifted(2, n) == n * n
        assert quotient_sum_shifted(3, n) == n * (3 * n - 1) // 2
        assert quotient_sum_shifted(4, n) == n * (2 * n - 1)


def test_conventions_are_one_index_apart():
    for k in range(1, 8):
        for n in range(50):
            assert quotient_sum(k, n) == quotient_sum_shifted(k, n + 1)


def test_against_bundled_fixtures():
    for k, a_number in ((1, "A000217"), (3, "A000326"), (4, "A000384")):
        table = {e.index: e.value for e in load_fixture(a_number)}
        for n, want in table.items():
            assert quotient_sum_shifted(k, n) == want, (k, n)


def test_shifted_sum_adds_one_term_per_block(monkeypatch):
    # k = 10**6, n = 3: the sum folds one term per block of k quotients, and the last term apart
    terms = []
    sigma = polygonal.sigma
    monkeypatch.setattr(polygonal, "sigma", lambda lo, hi, f: sigma(lo, hi, lambda i: terms.append(i) or f(i)))
    assert quotient_sum_shifted(10**6, 3) == 3 * 10**6 + 3
    assert terms == [0, 1, 2]


def _block_split(x, y, f):
    # sum_{i=0}^{(x+1)(y+1)} f(i) == sum_{i=0}^{x(y+1)+y} f(i) + f((x+1)(y+1))
    return sigma(0, (x + 1) * (y + 1), f) == sigma(0, x * (y + 1) + y, f) + f((x + 1) * (y + 1))


def _double_reindex(x, y, f):
    # sum_{i=0}^{x(y+1)+y} f(i) == sum_{i=0}^{x} sum_{j=0}^{y} f(i(y+1)+j)
    nested = sigma(0, x, lambda i: sigma(0, y, lambda j: f(i * (y + 1) + j)))
    return sigma(0, x * (y + 1) + y, f) == nested


def test_block_rewrites():
    f = lambda i: i // 3  # noqa: E731
    for x in range(6):
        for y in range(6):
            assert _block_split(x, y, f)
            assert _double_reindex(x, y, f)
    assert _block_split(2, 3, lambda i: i * i)
    assert _double_reindex(2, 3, lambda i: i * i)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 9), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_block_rewrites_random(x, y, div, power):
    f = lambda i: (i ** power) // div  # noqa: E731
    assert _block_split(x, y, f)
    assert _double_reindex(x, y, f)


def test_quotient_block_identity():
    # each full block of j+1 consecutive quotients sums to (j+1)*i + the ramp
    for k in range(1, 7):
        for i in range(30):
            block = sum((i * k + j) // k for j in range(k))
            assert block == k * i + sum(j // k for j in range(k))


def test_rejects_k_below_one():
    for fn in (quotient_sum, quotient_sum_shifted):
        with pytest.raises(PreconditionError):
            fn(0, 3)


def test_a_sum_past_the_width_cap_is_refused(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_WIDTH", 10)
    assert quotient_sum_shifted(3, 3) == 12  # 3*3 + 1 = 10 terms
    with pytest.raises(PreconditionError, match="^13 quotient terms are past the 10 terms polygonal sums may add$"):
        quotient_sum_shifted(3, 4)
    with pytest.raises(PreconditionError, match="k must be >= 1, got 0"):
        quotient_sum_shifted(0, 10**30)


def test_cli_refuses_a_run_past_the_cap_before_any_row(monkeypatch, capsys):
    monkeypatch.setattr(engine, "_MAX_WIDTH", 11)
    assert main(["polygonal", "--k", "3", "--count", "2"]) == 0  # rows of 4 and 7 terms: 11 in all
    assert capsys.readouterr().out.splitlines()[-1] == "2/2 match"
    monkeypatch.setattr(engine, "_MAX_WIDTH", 10)
    assert main(["polygonal", "--k", "3", "--count", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 11 quotient terms are past the 10 terms polygonal sums may add\n"
    assert main(["polygonal", "--k", "0", "--count", "10"]) == 2  # k is checked before the total
    assert "k must be >= 1, got 0" in capsys.readouterr().err


def test_cli_refuses_a_huge_k_at_once():
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "polygonal", "--k", str(10**20), "--count", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [
        "error: 600000000000000000003 quotient terms are past the 100000000 terms polygonal sums may add"
    ]


def test_cli_sums_a_run_near_the_cap_by_blocks():
    # 98,071,400 quotient terms, just under the cap: each row adds its blocks of k quotients, not its terms
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "moessner", "polygonal", "--k", "100", "--count", "1400"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    lines = result.stdout.splitlines()
    assert (result.returncode, result.stderr, len(lines)) == (0, "", 1401)
    assert lines[0] == "n=0 sum 1 closed 1 match"
    assert lines[-2:] == ["n=1399 sum 97931400 closed 97931400 match", "1400/1400 match"]
    assert elapsed < 5.0
