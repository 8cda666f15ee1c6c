"""Inverse chain: peeling filter+sum passes off the power function."""

import pytest

from moessner import process
from moessner.engine import level_tables
from moessner.errors import PreconditionError
from moessner.inverse import check_roundtrip, inverse_step, run_inverse, seed
from moessner.oracles import binomial, pow_fast
from moessner.process import forward_intermediate, run_process


def test_seed():
    assert seed(2, 5) == [1, 4, 9, 16, 25]
    assert seed(0, 3) == [1, 1, 1]
    with pytest.raises(PreconditionError):
        seed(-1, 3)


def test_inverse_step_range_check():
    f = seed(2, 4)
    with pytest.raises(PreconditionError):
        inverse_step(f, 2, 2)
    with pytest.raises(PreconditionError):
        inverse_step(f, 5, 2)
    for t in (-1, -2):
        with pytest.raises(PreconditionError, match=r"out of range 0\.\.1"):
            inverse_step(f, t, 2)


def test_run_inverse_chains():
    assert run_inverse(2, 4) == [
        [1, 4, 9, 16],
        [1, 2, 3, 4],
        [1, 1, 1, 1],
    ]
    assert run_inverse(3, 4) == [
        [1, 8, 27, 64],
        [1, 3, 7, 12],
        [1, 2, 3, 4],
        [1, 1, 1, 1],
    ]
    assert run_inverse(4, 4) == [
        [1, 16, 81, 256],
        [1, 4, 15, 32],
        [1, 3, 6, 11],
        [1, 2, 3, 4],
        [1, 1, 1, 1],
    ]
    assert run_inverse(3, 5)[1] == [1, 3, 7, 12, 19]
    assert run_inverse(0, 4) == [[1, 1, 1, 1]]
    with pytest.raises(PreconditionError):
        run_inverse(3, 0)


def test_inverse_stages_match_forward_stages():
    for n in range(5):
        stages = run_inverse(n, 12)
        assert len(stages) == n + 1
        for t, prefix in enumerate(stages):
            assert prefix == [forward_intermediate(n, t, x) for x in range(12)]


def test_check_roundtrip():
    for n in range(5):
        assert check_roundtrip(n, 16)


def test_check_roundtrip_reads_one_table_pass(monkeypatch):
    calls = []

    def counted(program):
        calls.append(program)
        return level_tables(program)

    monkeypatch.setattr(process, "level_tables", counted)
    assert check_roundtrip(6, 32)
    assert len(calls) == 1
    assert (calls[0].depth, calls[0].params["x"]) == (6, 31)


def test_inverse_step_undoes_each_process_pass():
    # the row passes of both directions, checked against each other on every trace step
    for n in range(1, 9):
        for m in (1, 2, 5, 13):
            _, trace = run_process(n, m)
            assert [step.period for step in trace.steps] == list(range(n + 1, 1, -1))
            for step in trace.steps:
                undone = inverse_step(list(step.summed), step.period - 2, n)
                assert undone == list(step.before[: len(step.summed)])


@pytest.mark.parametrize("n,length", [(60, 600), (30, 1000), (1000, 8)])
def test_check_roundtrip_at_bench_scale(n, length):
    assert check_roundtrip(n, length)


def test_closed_form_matches_the_oracles():
    length = 40
    for n in range(13):
        row = seed(n, length)
        assert row == [pow_fast(x + 1, n) for x in range(length)]
        for t in range(n):
            p, e = t + 2, n - 1 - t
            row = inverse_step(row, t, n)
            assert row[p - 1 :: p] == [binomial(n, e) * pow_fast(q, e) for q in range(1, length // p + 1)]


def test_huge_rows_are_refused_before_they_are_built():
    with pytest.raises(PreconditionError, match=r"^a row of length 10{21} is past the 100000000 cells a row may hold$"):
        run_inverse(2, 10**21)
