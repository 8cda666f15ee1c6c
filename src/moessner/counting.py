"""Exact operation counting for additive computations.

The central convention: folding a sum of m >= 1 terms costs m - 1 additions
(there is no addition to a zero accumulator), and an empty sum costs nothing.
Everything in this module tracks additions under that rule; multiplications
are tracked separately so that addition-only schemes can prove they use none.
"""

from __future__ import annotations

from typing import Callable, List

from .engine import is_natural
from .errors import PreconditionError
from .record import Record


class CountingNat(Record):
    """A natural number together with the operations spent computing it."""

    value: int
    additions: int = 0
    multiplications: int = 0

    def _check(self) -> None:
        if not is_natural(self.value):
            raise PreconditionError(f"CountingNat value must be >= 0, got {self.value!r}")
        if not (is_natural(self.additions) and is_natural(self.multiplications)):
            raise PreconditionError("operation tallies must be >= 0")

    def add(self, other: "CountingNat") -> "CountingNat":
        return CountingNat(
            self.value + other.value,
            self.additions + other.additions + 1,
            self.multiplications + other.multiplications,
        )

    def mul(self, other: "CountingNat") -> "CountingNat":
        return CountingNat(
            self.value * other.value,
            self.additions + other.additions,
            self.multiplications + other.multiplications + 1,
        )


def sigma(lo: int, hi: int, f: Callable[[int], int]) -> int:
    """Sum f(lo) + ... + f(hi); empty (hi < lo) gives 0."""
    return sum(f(i) for i in range(lo, hi + 1))


def sigma_counted(lo: int, hi: int, f: Callable[[int], CountingNat]) -> CountingNat:
    """Sum of counted terms under the m - 1 rule.

    m terms cost the terms' own operations plus m - 1 combining additions;
    zero terms cost nothing and the sum is 0.
    """
    total = CountingNat(0)
    first = True
    for i in range(lo, hi + 1):
        term = f(i)
        if first:
            total = term
            first = False
        else:
            total = total.add(term)
    return total


def backward_difference(f: Callable[[int], int], i: int) -> int:
    """f(0) at i = 0, otherwise f(i) - f(i-1). May be negative in general."""
    if i < 0:
        raise PreconditionError("backward_difference index must be >= 0")
    if i == 0:
        return f(0)
    return f(i) - f(i - 1)


def prefix_sum(f: Callable[[int], int]) -> Callable[[int], int]:
    """x |-> f(0) + ... + f(x). Right inverse of backward_difference."""

    def summed(x: int) -> int:
        return sigma(0, x, f)

    return summed


def times_halving(x: int, c: int) -> CountingNat:
    """x * c by doubling, using additions only.

    Three clauses:
      times(0, c)          = 0
      times(2k, c), k > 0  = r + r          where r = times(k, c)
      times(2k + 1, c)     = (r + r) + c    where r = times(k, c)
    The recursive result r is shared, so its additions count once.
    Total additions are at most 2 * bitlength(x).
    """
    if x < 0 or c < 0:
        raise PreconditionError("times_halving needs naturals")
    if x == 0:
        return CountingNat(0)
    r = times_halving(x // 2, c)
    # r is shared between the two addends: one addition on top of r's own cost
    doubled = CountingNat(r.value + r.value, r.additions + 1, r.multiplications)
    if x % 2 == 0:
        return doubled
    return doubled.add(CountingNat(c))


def log_add_power_prefix_counted(n: int, m: int) -> List[List[CountingNat]]:
    """Rows 0..n of the power table, first m entries each, additions only.

    Row 0 is m ones; row k+1 entry x is times_halving(x + 1, row_k[x]),
    so row k entry x holds (x + 1)^k. No multiplication is ever performed:
    every entry reports multiplications == 0.
    """
    if n < 0 or m < 0:
        raise PreconditionError("log_add_power_prefix_counted needs naturals")
    rows = [[CountingNat(1) for _ in range(m)]]
    for _k in range(n):
        prev = rows[-1]
        rows.append([times_halving(x + 1, prev[x].value) for x in range(m)])
    return rows


def log_add_power_prefix(n: int, m: int) -> List[int]:
    """First m values of (x + 1)^n, computed by repeated doubling additions."""
    return [entry.value for entry in log_add_power_prefix_counted(n, m)[-1]]
