"""Top-level acceptance checks, one test per numbered claim. Exact equality throughout."""

import random
import time

from moessner.counting import log_add_power_prefix, log_add_power_prefix_counted
from moessner.elision import drop_index, is_dropped, keep_index
from moessner.engine import evaluate, evaluate_counting, evaluate_memoized
from moessner.inverse import check_roundtrip, run_inverse
from moessner.oeis import load_fixture
from moessner.oracles import (
    a002449_rec,
    binomial,
    catalan,
    euler_zigzag,
    factorial,
    fibonacci,
    long2_closed,
    multiset,
    polygonal_closed,
    pow_fast,
    product_table,
)
from moessner.polygonal import quotient_sum, quotient_sum_shifted
from moessner.presets import build, expected
from moessner.process import dp_power, forward_intermediate, run_process


def test_c01_moessner_power_identity():
    started = time.monotonic()
    for x in range(11):
        for n in range(6):
            assert evaluate(build("moessner", {"x": x, "n": n})) == pow_fast(x + 1, n)
    for x in range(51):
        for n in range(9):
            assert evaluate_memoized(build("moessner", {"x": x, "n": n})) == pow_fast(
                x + 1, n
            )
    assert time.monotonic() - started < 10.0


def test_c02_addition_count_is_value_minus_one():
    pairs = [
        (x, n)
        for x in range(51)
        for n in range(9)
        if pow_fast(x + 1, n) <= 10**6
    ]
    assert len(pairs) > 200
    for x, n in pairs:
        target = pow_fast(x + 1, n)
        for name in ("moessner", "moessner_stolid"):
            report = evaluate_counting(build(name, {"x": x, "n": n}))
            assert report.value == target, (name, x, n)
            assert report.additions == target - 1, (name, x, n)


def test_c03_dp_addition_count_closed_form():
    assert dp_power(7, 5).additions == 105
    for n in (0, 1, 4, 5, 6, 7, 8):
        for x in range(51):
            report = dp_power(x, n)
            assert report.value == pow_fast(x + 1, n)
            assert report.additions == x * n * (n + 1) // 2


def test_c04_preset_oracle_grid():
    started = time.monotonic()
    for n in range(11):
        assert evaluate(build("factorial_rising", {"n": n})) == factorial(n + 1)
        assert evaluate(build("factorial_falling", {"n": n})) == factorial(n)
    rng = random.Random(20260816)
    for n in range(1, 11):
        perm = list(range(n))
        rng.shuffle(perm)
        assert evaluate(build("factorial_permuted", {"n": n, "f": tuple(perm)})) == factorial(n)
    for x in range(7):
        for n in range(9):
            assert evaluate(build("factorial_multiple", {"x": x, "n": n})) == factorial(n) * (x + 1)
    for x in range(13):
        for n in range(7):
            assert evaluate(build("binomial", {"x": x, "n": n})) == binomial(x + n, n)
            assert evaluate(build("multiset", {"x": x, "n": n})) == multiset(x, n)
    catalan_values = [evaluate(build("catalan", {"n": n})) for n in range(13)]
    assert catalan_values == [catalan(n) for n in range(13)]
    assert catalan_values[12] == 208012
    for x in range(5):
        for n in range(11):
            got = evaluate(build("catalan_convolved", {"x": x, "n": n}))
            assert got == (x + 1) * binomial(2 * n + x, n) // (n + x + 1)
    for n in range(19):
        assert evaluate(build("fibonacci", {"n": n})) == fibonacci(n + 1)
    for n in range(13):
        assert evaluate(build("positive_integers", {"n": n})) == n + 1
    for x in range(7):
        for n in range(6):
            for a in range(6):
                assert evaluate(build("long1", {"x": x, "n": n, "a": a})) == a * pow_fast(x + 1, n)
                for d in range(6):
                    got = evaluate(build("long2", {"x": x, "n": n, "a": a, "d": d}))
                    assert got == long2_closed(x, n, a, d)
            assert evaluate(build("another_round", {"x": x, "n": n})) == pow_fast(x + 1, n + 1)
    for n in range(7):
        for _ in range(4):
            table = tuple(rng.randint(0, 6) for _ in range(n + 1))
            assert evaluate(build("product_of_table", {"n": n, "f": table})) == product_table(table, n)
        assert evaluate(build("product_of_table", {"n": n, "f": (3,) * n + (0,)})) == 0
    assert time.monotonic() - started < 30.0


def test_c05_euler_zigzag_boustrophedon_and_fixture():
    fixture = {e.index: e.value for e in load_fixture("A000111")}
    values = [evaluate(build("euler_zigzag", {"n": n})) for n in range(13)]
    assert values == [euler_zigzag(n) for n in range(13)]
    assert values == [fixture[n] for n in range(13)]
    assert values[12] == 2702765


def test_c06_complete_tree_and_fibonacci_identities():
    fixture = {e.index: e.value for e in load_fixture("A002449")}
    assert [fixture[i] for i in range(6)] == [1, 1, 2, 6, 26, 166]
    for n in range(9):
        got = evaluate_memoized(build("a002449", {"n": n}))
        assert got == a002449_rec(n + 2)
        assert got == fixture[n + 2]
        if n <= 6:
            assert evaluate(build("a002449", {"n": n})) == got
    for n in range(1, 9):
        assert evaluate_memoized(build("a002449_irwin", {"n": n})) == evaluate_memoized(
            build("a002449", {"n": n})
        )
    for n in range(2, 16):
        assert evaluate_memoized(build("fibonacci_lahlou", {"n": n})) == fibonacci(n + 1)


def test_c07_elision_partition_and_quotient_steps():
    limit = 10000
    for j in range(1, 9):
        kept = set()
        x = 0
        while True:
            k = keep_index(j, x)
            if k > limit:
                break
            kept.add(k)
            x += 1
        struck = set()
        x = 0
        while True:
            d = drop_index(j, x)
            if d > limit:
                break
            struck.add(d)
            x += 1
        assert kept & struck == set()
        assert kept | struck == set(range(limit + 1))
        for x in range(limit + 1):
            assert is_dropped(j, x) == (x in struck)
            # quotient step behavior at and away from struck positions
            if x % (j + 1) < j:
                assert (x + 1) // (j + 1) == x // (j + 1)
            else:
                assert (x + 1) // (j + 1) == x // (j + 1) + 1


def test_c08_inverse_roundtrip_and_tables():
    for n in range(6):
        assert check_roundtrip(n, 32)
    assert run_inverse(2, 4) == [[1, 4, 9, 16], [1, 2, 3, 4], [1, 1, 1, 1]]
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


def test_c09_process_streamless_agreement_and_reference_rows():
    for n in range(6):
        final, trace = run_process(n, 20)
        assert final == [forward_intermediate(n, 0, x) for x in range(20)]
        if trace.steps:
            ones = trace.steps[0].before
            assert list(ones) == [forward_intermediate(n, n, x) for x in range(len(ones))]
        for step in trace.steps:
            stage = step.period - 2
            want = [forward_intermediate(n, stage, x) for x in range(20)]
            assert list(step.summed[:20]) == want[: len(step.summed)]

    final0, trace0 = run_process(0, 8)
    assert final0 == [1] * 8 and trace0.steps == ()
    final1, _ = run_process(1, 8)
    assert final1 == list(range(1, 9))
    _, trace2 = run_process(2, 8)
    assert trace2.steps[0].summed[:4] == (1, 2, 3, 4)
    assert trace2.steps[1].filtered[:4] == (1, 3, 5, 7)
    assert trace2.steps[1].summed[:4] == (1, 4, 9, 16)
    _, trace3 = run_process(3, 8)
    assert trace3.steps[1].summed[:7] == (1, 3, 7, 12, 19, 27, 37)
    assert trace3.steps[2].filtered[:6] == (1, 7, 19, 37, 61, 91)
    assert trace3.steps[2].summed[:4] == (1, 8, 27, 64)
    _, trace4 = run_process(4, 8)
    assert trace4.steps[1].summed[:7] == (1, 3, 6, 11, 17, 24, 33)
    assert trace4.steps[2].summed[:8] == (1, 4, 15, 32, 65, 108, 175, 256)
    assert trace4.steps[3].summed[:4] == (1, 16, 81, 256)


def test_c10_polygonal_closed_forms_and_named_streams():
    for k in range(1, 9):
        for n in range(201):
            assert quotient_sum(k, n) == polygonal_closed(k, n)
    assert [quotient_sum_shifted(1, n) for n in range(6)] == [0, 1, 3, 6, 10, 15]
    assert [quotient_sum_shifted(2, n) for n in range(6)] == [0, 1, 4, 9, 16, 25]
    assert [quotient_sum_shifted(3, n) for n in range(6)] == [0, 1, 5, 12, 22, 35]
    assert [quotient_sum_shifted(4, n) for n in range(6)] == [0, 1, 6, 15, 28, 45]


def test_c11_shift_identity_and_hockey_stick():
    for x in range(13):
        for n in range(7):
            assert evaluate(build("binomial", {"x": x, "n": n})) == evaluate(
                build("multiset", {"x": x + 1, "n": n})
            )
    for x in range(21):
        for n in range(21):
            assert sum(binomial(i + n, n) for i in range(x + 1)) == binomial(
                x + n + 1, n + 1
            )


def test_c12_power_prefixes_without_multiplication():
    for n in range(6):
        for m in range(65):
            assert log_add_power_prefix(n, m) == [pow_fast(x + 1, n) for x in range(m)]
        rows = log_add_power_prefix_counted(n, 64)
        for row in rows:
            for x, entry in enumerate(row):
                assert entry.multiplications == 0
                assert entry.additions <= 2 * (x + 1).bit_length()


def test_c13_counted_tables_past_the_walk():
    # (x+1)^n leaves, each sum of m terms folding m - 1 of them: the walk would visit 201^40 leaves
    x, n = 200, 40
    for name in ("moessner", "moessner_stolid"):
        report = evaluate_counting(build(name, {"x": x, "n": n}))
        assert report.value == report.leaves == pow_fast(x + 1, n), name
        assert report.additions == pow_fast(x + 1, n) - 1, name


def test_c14_state_tables_past_the_walk():
    # not Markov: the walk would visit 5.8e13 and 1.0e16 leaves; the tables keyed on live state answer
    for name, params in (("a137273", {"n": 16}), ("a125860", {"x": 1, "n": 12})):
        started = time.monotonic()
        report = evaluate_counting(build(name, params))
        assert time.monotonic() - started < 1.0, name
        value = expected(name, params)
        assert report.value == report.leaves == value, name
        assert report.additions == value - 1, name
    assert value == 10_047_909_839_840_456
    assert expected("a137273", {"n": 16}) == 57_753_201_767_477
