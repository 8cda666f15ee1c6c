"""Inverse chain: peeling filter+sum passes off the power function."""

import pytest

from moessner import inverse, process
from moessner.errors import PreconditionError
from moessner.inverse import check_roundtrip, inverse_step, run_inverse, seed
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


def test_check_roundtrip_builds_one_forward_chain(monkeypatch):
    built = []

    def counted(n):
        built.append(process.forward_stages(n))
        return built[-1]

    monkeypatch.setattr(inverse, "forward_stages", counted)
    assert check_roundtrip(6, 32)
    assert len(built) == 1
    # every (stage, index) point is computed once: as often as one pass over a fresh chain does
    fresh = process.forward_stages(6)
    for t in range(7):
        for x in range(32):
            fresh(t, x)
    assert built[0].cache_info().misses == fresh.cache_info().misses


def test_inverse_step_undoes_each_process_pass():
    # the row passes of both directions, checked against each other on every trace step
    for n in range(1, 9):
        for m in (1, 2, 5, 13):
            _, trace = run_process(n, m)
            assert [step.period for step in trace.steps] == list(range(n + 1, 1, -1))
            for step in trace.steps:
                undone = inverse_step(list(step.summed), step.period - 2, n)
                assert undone == list(step.before[: len(step.summed)])
