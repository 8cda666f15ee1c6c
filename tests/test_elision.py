"""Keep/drop index maps: partition of the naturals, survivor ranks, frozen tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moessner.elision import drop_index, is_dropped, keep_index
from moessner.errors import PreconditionError


def test_frozen_tables_j2():
    # period 3: every third position (2, 5, 8, ...) is struck
    assert [keep_index(2, x) for x in range(8)] == [0, 1, 3, 4, 6, 7, 9, 10]
    assert [drop_index(2, x) for x in range(5)] == [2, 5, 8, 11, 14]
    assert [is_dropped(2, x) for x in range(7)] == [
        False, False, True, False, False, True, False,
    ]


def test_frozen_tables_j1():
    # period 2: odd positions struck
    assert [keep_index(1, x) for x in range(5)] == [0, 2, 4, 6, 8]
    assert [drop_index(1, x) for x in range(5)] == [1, 3, 5, 7, 9]


def test_partition_exhaustive():
    for j in range(1, 9):
        n = 3000
        kept = {keep_index(j, x) for x in range(n)}
        struck = {drop_index(j, x) for x in range(n)}
        assert not kept & struck
        # together they tile an initial segment with no gaps
        universe = kept | struck
        limit = min(max(kept), max(struck))
        assert set(range(limit + 1)) <= universe
        for x in range(limit + 1):
            assert is_dropped(j, x) == (x in struck)


def test_keep_index_strictly_increasing_and_never_struck():
    for j in range(1, 9):
        prev = -1
        for x in range(2000):
            k = keep_index(j, x)
            assert k > prev
            assert not is_dropped(j, k)
            prev = k


def test_splice_inverts_keep():
    # the survivor at keep_index(j, y) closes up to rank y once the holes go
    for j in range(1, 9):
        for y in range(2000):
            x = keep_index(j, y)
            assert x - x // (j + 1) == y


@given(st.integers(1, 50), st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_partition_membership_random(j, x):
    if is_dropped(j, x):
        assert drop_index(j, (x - j) // (j + 1)) == x
    else:
        assert keep_index(j, x - x // (j + 1)) == x  # x's rank among the survivors


@pytest.mark.parametrize("fn", [keep_index, drop_index, is_dropped])
def test_rejects_j_below_one(fn):
    with pytest.raises(PreconditionError):
        fn(0, 3)
    with pytest.raises(PreconditionError):
        fn(-2, 3)
