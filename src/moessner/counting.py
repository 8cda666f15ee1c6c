"""Exact operation counting for additive computations: the addition-only power prefix.

The central convention: folding a sum of m >= 1 terms costs m - 1 additions
(there is no addition to a zero accumulator), and an empty sum costs nothing.
The evaluators count under that rule on engine.EvalReport; this module keeps
what reaches no evaluator but stands for a claim or a product path:

- CountingNat (add and mul) and times_halving carry log_add_power_prefix and
  log_add_power_prefix_counted, the power table built by doubling additions
  with no multiplication. The acceptance claim c12 computes through them, and
  process names them beside dp_power and naive_power.
- sigma, the plain sum f(lo) + ... + f(hi), is what polygonal sums with.
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
