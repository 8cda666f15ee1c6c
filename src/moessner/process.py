"""Row-based sequence generation: filter every p-th element, then prefix sums.

run_process is the triangle formulation over finite rows; the prefix length
bookkeeping (required_length) replaces conceptually infinite streams.
forward_intermediate is the same chain expressed streamlessly, memoized per
call on (stage, index). dp_power / naive_power / log_add_power_prefix are
the three power strategies whose exact addition counts the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .counting import log_add_power_prefix, log_add_power_prefix_counted  # noqa: F401  (re-exported)
from .elision import is_dropped, keep_index
from .engine import EvalReport
from .errors import PreconditionError
from .rules import InitRule


@dataclass(frozen=True)
class ProcessStep:
    period: int
    before: Tuple[int, ...]
    filtered: Tuple[int, ...]
    summed: Tuple[int, ...]


@dataclass(frozen=True)
class ProcessTrace:
    exponent: int
    init: InitRule
    steps: Tuple[ProcessStep, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "exponent": self.exponent,
            "init": self.init.spec_string(),
            "steps": [
                {
                    "period": s.period,
                    "before": [str(v) for v in s.before],
                    "filtered": [str(v) for v in s.filtered],
                    "summed": [str(v) for v in s.summed],
                }
                for s in self.steps
            ],
        }


def drop_every(row: Sequence[int], p: int) -> List[int]:
    """Keep the elements whose index survives period p (drops x with x % p == p-1)."""
    if p < 2:
        raise PreconditionError(f"drop period must be >= 2, got {p}")
    return [v for x, v in enumerate(row) if not is_dropped(p - 1, x)]


def prefix_sums(row: Sequence[int]) -> List[int]:
    out = []
    acc = 0
    for v in row:
        acc += v
        out.append(acc)
    return out


def iteration_count(n: int, init: InitRule) -> int:
    """Indicator starts add one extra round; everything else runs n."""
    return n + 1 if init.kind == "indicator" else n


def required_length(n: int, m: int, iterations: Optional[int] = None) -> int:
    """Initial row length so that m elements survive all filtering passes.

    Walk the length schedule backward: a pass with period p keeps index
    keep_index(p-1, L-1) as its last survivor, so the pre-pass row needs
    keep_index(p-1, L-1) + 1 elements.
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    if iterations is None:
        iterations = n
    length = m
    for p in range(2, iterations + 2):
        length = keep_index(p - 1, length - 1) + 1
    return length


def run_process(n: int, m: int, init: InitRule = InitRule.const(1)) -> Tuple[List[int], ProcessTrace]:
    """First m values of the process for exponent n, plus the full trace."""
    if n < 0:
        raise PreconditionError(f"exponent must be >= 0, got {n}")
    rounds = iteration_count(n, init)
    length = required_length(n, m, iterations=rounds)
    row = init.row(length)
    steps = []
    for t in range(rounds - 1, -1, -1):
        p = t + 2
        before = tuple(row)
        filtered = drop_every(row, p)
        row = prefix_sums(filtered)
        steps.append(ProcessStep(period=p, before=before, filtered=tuple(filtered), summed=tuple(row)))
    assert len(row) >= m, f"length schedule bug: {len(row)} < {m}"
    return row[:m], ProcessTrace(exponent=n, init=init, steps=tuple(steps))


def forward_intermediate(n: int, j: int, x: int) -> int:
    """Stage-j function of the streamless chain for exponent n.

    Stage n is constant 1; stage j sums stage j+1 over surviving positions:
    f_j(x) = sum_{i=0}^{x} f_{j+1}(keep_index(j+1, i)). Stage 0 enumerates
    (x+1)^n. Memoized on (stage, index) within one call; nothing outlives it.
    """
    if j > n:
        raise PreconditionError(f"stage j={j} exceeds exponent n={n}")
    if x < 0:
        raise PreconditionError(f"negative index {x}")

    @lru_cache(maxsize=None)
    def stage(j: int, x: int) -> int:
        if j == n:
            return 1
        return sum(stage(j + 1, keep_index(j + 1, i)) for i in range(x + 1))

    return stage(j, x)


def dp_power(x: int, n: int) -> EvalReport:
    """(x+1)^n by the shared-row scheme, with its exact addition count.

    Seeds a ones row of the exact backward-scheduled length, then runs the
    filter+sum passes; a prefix-sum pass over a row of length L costs L-1
    additions. leaves is the seed row length.
    """
    if x < 0 or n < 0:
        raise PreconditionError("dp_power needs naturals")
    m = x + 1
    length = required_length(n, m)
    row = [1] * length
    additions = 0
    for t in range(n - 1, -1, -1):
        row = drop_every(row, t + 2)
        if row:
            additions += len(row) - 1
        row = prefix_sums(row)
    return EvalReport(value=row[m - 1], additions=additions, leaves=length)


def naive_power(x: int, n: int) -> EvalReport:
    """(x+1)^n as x+1 fully recomputed copies of (x+1)^(n-1), summed.

    Nothing is shared: the addition tally satisfies A(n) = x + (x+1)*A(n-1)
    with A(0) = 0, which closes to (x+1)^n - 1. The copies are identical, so
    the tallies are computed arithmetically instead of by re-walking, but
    they are exactly the recursion's counts.
    """
    if x < 0 or n < 0:
        raise PreconditionError("naive_power needs naturals")
    value, additions, leaves = 1, 0, 1
    for _ in range(n):
        additions = x + (x + 1) * additions
        value = (x + 1) * value
        leaves = (x + 1) * leaves
    return EvalReport(value=value, additions=additions, leaves=leaves)
