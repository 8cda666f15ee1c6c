"""Row process: filtering, length scheduling, traces, power strategies."""

import gc
import tracemalloc

import pytest

from moessner import engine, process
from moessner.elision import is_dropped, keep_index
from moessner.engine import evaluate, level_tables
from moessner.errors import PreconditionError
from moessner.oracles import binomial, pow_fast
from moessner.presets import build
from moessner.process import (
    ProcessTrace,
    dp_power,
    drop_every,
    forward_intermediate,
    iteration_count,
    naive_power,
    prefix_sums,
    required_length,
    run_process,
)
from moessner.rules import InitRule


def test_drop_every():
    row = list(range(10))
    assert drop_every(row, 2) == [0, 2, 4, 6, 8]
    assert drop_every(row, 3) == [0, 1, 3, 4, 6, 7, 9]
    assert drop_every(row, 4) == [0, 1, 2, 4, 5, 6, 8, 9]
    assert drop_every([], 3) == []
    with pytest.raises(PreconditionError):
        drop_every(row, 1)


def test_drop_every_strikes_the_elision_positions():
    for p in range(2, 10):
        for length in range(41):
            assert drop_every(list(range(length)), p) == [
                x for x in range(length) if not is_dropped(p - 1, x)
            ]


def test_prefix_sums():
    assert prefix_sums([1, 1, 1, 1]) == [1, 2, 3, 4]
    assert prefix_sums([1, 3, 5, 7]) == [1, 4, 9, 16]
    assert prefix_sums([]) == []


def test_iteration_count():
    assert iteration_count(3, InitRule.const(1)) == 3
    assert iteration_count(3, InitRule.successor()) == 3
    assert iteration_count(3, InitRule.indicator(2, 3)) == 4


def test_required_length_frozen():
    assert required_length(3, 4) == 13
    assert required_length(4, 6) == 26
    assert required_length(0, 5) == 5
    assert required_length(1, 3) == 5
    with pytest.raises(PreconditionError):
        required_length(3, 0)


def test_required_length_is_the_backward_keep_index_schedule():
    # a pass with period p keeps index keep_index(p-1, L-1) last, so walk the periods backward
    for n in range(12):
        for m in range(1, 60):
            length = m
            for p in range(2, n + 2):
                length = keep_index(p - 1, length - 1) + 1
            assert required_length(n, m) == length
    with pytest.raises(PreconditionError):
        required_length(-1, 5)


def test_required_length_is_tight():
    # one fewer seed element must under-deliver at some pass
    for n in range(5):
        for m in range(1, 12):
            length = required_length(n, m)
            row = [1] * length
            short = [1] * (length - 1)
            for t in range(n - 1, -1, -1):
                row = prefix_sums(drop_every(row, t + 2))
                short = prefix_sums(drop_every(short, t + 2))
            assert len(row) >= m
            assert len(short) < m


def test_run_process_enumerates_powers():
    for n in range(6):
        row, trace = run_process(n, 12)
        assert row == [pow_fast(x + 1, n) for x in range(12)]
        assert trace.exponent == n
        assert len(trace.steps) == n


# hand-pinned intermediate rows for small exponents (ones start)
def test_trace_rows_exponent_two():
    _, trace = run_process(2, 6)
    assert trace.steps[0].period == 3
    assert trace.steps[0].summed[:4] == (1, 2, 3, 4)
    assert trace.steps[1].period == 2
    assert trace.steps[1].filtered[:4] == (1, 3, 5, 7)
    assert trace.steps[1].summed[:4] == (1, 4, 9, 16)


def test_trace_rows_exponent_three():
    _, trace = run_process(3, 6)
    assert [s.period for s in trace.steps] == [4, 3, 2]
    assert trace.steps[0].summed[:4] == (1, 2, 3, 4)
    assert trace.steps[1].filtered[:7] == (1, 2, 4, 5, 7, 8, 10)
    assert trace.steps[1].summed[:7] == (1, 3, 7, 12, 19, 27, 37)
    assert trace.steps[2].filtered[:6] == (1, 7, 19, 37, 61, 91)
    assert trace.steps[2].summed[:6] == (1, 8, 27, 64, 125, 216)


def test_trace_rows_exponent_four():
    _, trace = run_process(4, 6)
    assert [s.period for s in trace.steps] == [5, 4, 3, 2]
    assert trace.steps[0].summed[:4] == (1, 2, 3, 4)
    assert trace.steps[1].filtered[:7] == (1, 2, 3, 5, 6, 7, 9)
    assert trace.steps[1].summed[:7] == (1, 3, 6, 11, 17, 24, 33)
    assert trace.steps[2].filtered[:6] == (1, 3, 11, 17, 33, 43)
    assert trace.steps[2].summed[:8] == (1, 4, 15, 32, 65, 108, 175, 256)
    assert trace.steps[2].summed[8:10] == tuple(
        forward_intermediate(4, 1, x) for x in (8, 9)
    )
    assert trace.steps[3].filtered[:5] == (1, 15, 65, 175, 369)
    assert trace.steps[3].summed[:4] == (1, 16, 81, 256)


def test_trace_is_internally_consistent():
    for n in range(5):
        for init in (InitRule.const(1), InitRule.successor(), InitRule.indicator(2, 3)):
            _, trace = run_process(n, 5, init)
            assert trace.init == init
            rounds = iteration_count(n, init)
            assert len(trace.steps) == rounds
            if not trace.steps:
                continue
            assert list(trace.steps[0].before) == init.row(len(trace.steps[0].before))
            for step in trace.steps:
                assert list(step.filtered) == drop_every(list(step.before), step.period)
                assert list(step.summed) == prefix_sums(list(step.filtered))
            for a, b in zip(trace.steps, trace.steps[1:]):
                assert a.summed == b.before
            periods = [s.period for s in trace.steps]
            assert periods == list(range(rounds + 1, 1, -1))


def test_trace_to_dict():
    _, trace = run_process(2, 3)
    d = trace.to_dict()
    assert d["exponent"] == 2
    assert d["init"] == "const:1"
    assert len(d["steps"]) == 2
    assert d["steps"][1]["period"] == 2
    # values serialize as strings so arbitrarily large ints survive JSON readers
    assert d["steps"][1]["summed"][:3] == ["1", "4", "9"]


def test_dropped_positions_hold_monomial_blocks():
    # at a struck position the pre-filter row is C(n, n-1-t) * (x//p + 1)^(n-1-t)
    for n in (3, 4, 5):
        _, trace = run_process(n, 5)
        for step in trace.steps:
            p = step.period
            t = p - 2
            for x, v in enumerate(step.before):
                if x % p == p - 1:
                    q = x // p
                    assert v == binomial(n, n - 1 - t) * pow_fast(q + 1, n - 1 - t), (
                        n, p, x,
                    )


def test_forward_intermediate():
    for n in range(5):
        for x in range(8):
            assert forward_intermediate(n, n, x) == 1
            assert forward_intermediate(n, 0, x) == pow_fast(x + 1, n)
    assert forward_intermediate(3, 1, 3) == 12
    assert forward_intermediate(4, 1, 2) == 15
    assert [forward_intermediate(4, 1, x) for x in range(8)] == [
        1, 4, 15, 32, 65, 108, 175, 256,
    ]
    assert [forward_intermediate(3, 1, x) for x in range(7)] == [1, 3, 7, 12, 19, 27, 37]
    with pytest.raises(PreconditionError):
        forward_intermediate(2, 3, 0)
    with pytest.raises(PreconditionError):
        forward_intermediate(2, 1, -1)
    with pytest.raises(PreconditionError, match=r"stage j=-1 out of range 0\.\.3"):
        forward_intermediate(3, -1, 2)


def test_forward_intermediate_keeps_no_memo():
    forward_intermediate(2, 0, 3)  # first call outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert forward_intermediate(4, 0, 60) == pow_fast(61, 4)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 10_000  # a memo kept from this call would hold hundreds of entries


def test_forward_intermediate_runs_past_the_recursion_limit():
    # one stage per level of a table pass, not one Python frame per stage
    assert forward_intermediate(1100, 0, 1) == 2**1100


TABLE_CASES = (
    [("moessner", {"x": x, "n": n}) for n in range(7) for x in (0, 3, 10)]
    + [("moessner_init", {"x": x, "n": n, "init": init})
       for init in ("const:3", "successor") for n in range(5) for x in (0, 3, 10)]
    + [("moessner_init_plus", {"x": x, "n": n, "init": "indicator:2:5"}) for n in range(5) for x in (0, 3, 10)]
)


@pytest.mark.parametrize("name,params", TABLE_CASES, ids=lambda v: str(v))
def test_level_tables_are_the_filtered_rows(name, params):
    # the memo's tables, innermost first, are the process's filtered rows, and
    # their running sums its summed rows; the root's one entry is the value
    program = build(name, params)
    *tables, root = level_tables(program)
    x = params["x"]
    final, trace = run_process(params["n"], x + 1, InitRule.parse(params.get("init", "ones")))
    assert len(tables) == len(trace.steps) == program.depth
    for table, step in zip(tables, trace.steps):
        width = min(len(table), len(step.filtered))
        assert width >= x + 1
        assert table[:width] == list(step.filtered[:width])
        assert prefix_sums(table)[:width] == list(step.summed[:width])
    assert root == [final[x]] == [evaluate(program)]


def test_process_matches_streamless_chain():
    for n in range(5):
        row, _ = run_process(n, 20)
        assert row == [forward_intermediate(n, 0, x) for x in range(20)]


def test_dp_power():
    got = dp_power(7, 5)
    assert got.value == pow_fast(8, 5)
    assert got.additions == 105
    for x in range(31):
        for n in range(9):
            r = dp_power(x, n)
            assert r.value == pow_fast(x + 1, n)
            assert r.additions == x * n * (n + 1) // 2
            assert r.leaves == required_length(n, x + 1)
    with pytest.raises(PreconditionError):
        dp_power(-1, 3)


def test_dp_power_matches_run_process():
    for x in range(13):
        for n in range(1, 7):
            final, trace = run_process(n, x + 1)
            r = dp_power(x, n)
            assert r.value == final[x]
            assert r.additions == sum(max(len(s.filtered) - 1, 0) for s in trace.steps)
            assert r.leaves == len(trace.steps[0].before)


def test_trace_shares_each_row_between_steps():
    for init in (InitRule.const(1), InitRule.indicator(2, 3)):
        _, trace = run_process(4, 6, init)
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert a.summed is b.before


def test_naive_power():
    for x in range(20):
        for n in range(8):
            value = pow_fast(x + 1, n)
            if value > 10**6:
                continue
            r = naive_power(x, n)
            assert r.value == value
            assert r.additions == value - 1
            assert r.leaves == value
    with pytest.raises(PreconditionError):
        naive_power(2, -1)


def test_power_strategies_agree():
    for x in range(12):
        for n in range(6):
            assert dp_power(x, n).value == naive_power(x, n).value


def test_run_process_rejects_negative_exponent():
    with pytest.raises(PreconditionError, match="exponent must be >= 0, got -1"):
        run_process(-1, 2)


def test_huge_rows_are_refused_before_they_are_built():
    # about 10^21 cells: the seed row alone could never be allocated
    with pytest.raises(PreconditionError, match=r"^a row of length 3999999999999999999997 is past the 100000000 cells a row may hold$"):
        run_process(3, 10**21)
    with pytest.raises(PreconditionError, match=r"^a row of length 20{20}1 is past"):
        run_process(0, 10**21 + 1, InitRule.indicator(1, 0))
    with pytest.raises(PreconditionError, match=r"^a row of length 10{20}1 is past"):
        dp_power(10**21, 0)


def test_width_check_admits_the_cap_itself():
    # pure arithmetic: nothing near the cap is allocated
    assert process._within_width(engine._MAX_WIDTH) == engine._MAX_WIDTH
    with pytest.raises(PreconditionError, match="past the"):
        process._within_width(engine._MAX_WIDTH + 1)
