"""Operation accounting: counted naturals, doubling multiplication, the power table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moessner.counting import (
    CountingNat,
    log_add_power_prefix,
    log_add_power_prefix_counted,
    sigma,
    times_halving,
)
from moessner.errors import PreconditionError


def test_counting_nat_add_mul():
    a = CountingNat(3, additions=1)
    b = CountingNat(4, multiplications=2)
    s = a.add(b)
    assert (s.value, s.additions, s.multiplications) == (7, 2, 2)
    p = a.mul(b)
    assert (p.value, p.additions, p.multiplications) == (12, 1, 3)


def test_counting_nat_rejects_negatives():
    with pytest.raises(PreconditionError):
        CountingNat(-1)
    with pytest.raises(PreconditionError):
        CountingNat(1, additions=-1)


def test_sigma():
    assert sigma(0, 4, lambda i: i) == 10
    assert sigma(3, 2, lambda i: 1) == 0  # empty by convention
    assert sigma(5, 5, lambda i: i * i) == 25


def test_sigma_counted_m_minus_one_rule():
    # folding m counted terms with add costs m-1 combining additions on top of
    # the terms' own costs; zero terms cost nothing
    def sum_counted(terms):
        terms = list(terms)
        if not terms:
            return CountingNat(0)
        total = terms[0]
        for term in terms[1:]:
            total = total.add(term)
        return total

    three = sum_counted(CountingNat(i + 1) for i in range(3))
    assert (three.value, three.additions) == (6, 2)
    one = sum_counted([CountingNat(5)])
    assert (one.value, one.additions) == (5, 0)
    empty = sum_counted([])
    assert (empty.value, empty.additions) == (0, 0)
    nested = sum_counted(CountingNat(i, additions=10) for i in range(2))
    assert (nested.value, nested.additions) == (1, 21)


def test_times_halving_frozen_counts():
    zero = times_halving(0, 7)
    assert (zero.value, zero.additions) == (0, 0)
    # unrolling the clauses for 6 = 2*(2*1+1): times(1,c) costs 2, times(3,c)
    # costs 4, and the final even doubling adds 1 more
    six = times_halving(6, 7)
    assert (six.value, six.additions) == (42, 5)
    one = times_halving(1, 9)
    assert (one.value, one.additions) == (9, 2)


def test_times_halving_clause_structure():
    for x in (3, 5, 7, 11):
        # odd step: double the recursive half (1 addition), then add c (1 more)
        half = times_halving(x // 2, 4)
        odd = times_halving(x, 4)
        assert odd.additions == half.additions + 2
        assert odd.value == 2 * half.value + 4
    for x in (2, 4, 6, 10):
        half = times_halving(x // 2, 4)
        even = times_halving(x, 4)
        assert even.additions == half.additions + 1
        assert even.value == 2 * half.value


@given(st.integers(0, 300), st.integers(0, 50))
@settings(max_examples=200)
def test_times_halving_value_and_bound(x, c):
    r = times_halving(x, c)
    assert r.value == x * c
    assert r.multiplications == 0
    assert r.additions <= 2 * x.bit_length()


def test_times_halving_rejects_negatives():
    with pytest.raises(PreconditionError):
        times_halving(-1, 3)
    with pytest.raises(PreconditionError):
        times_halving(3, -1)


def test_log_add_power_prefix_values():
    for n in range(6):
        for m in (0, 1, 5, 20):
            assert log_add_power_prefix(n, m) == [(x + 1) ** n for x in range(m)]


def test_log_add_power_table_rows():
    rows = log_add_power_prefix_counted(4, 10)
    assert len(rows) == 5
    for k, row in enumerate(rows):
        assert [e.value for e in row] == [(x + 1) ** k for x in range(10)]
        for x, entry in enumerate(row):
            assert entry.multiplications == 0
            assert entry.additions <= 2 * (x + 1).bit_length()


def test_log_add_power_rejects_negatives():
    with pytest.raises(PreconditionError):
        log_add_power_prefix_counted(-1, 4)
    with pytest.raises(PreconditionError):
        log_add_power_prefix_counted(2, -1)
