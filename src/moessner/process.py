"""Row-based sequence generation: filter every p-th element, then prefix sums.

run_process is the triangle formulation over finite rows; the prefix length
bookkeeping (required_length) replaces conceptually infinite streams. It and
dp_power share one pass loop (_passes): strike by slice, sum by accumulate.
forward_stages is the same chain read off the `moessner` program's level
tables (engine.level_tables): those tables are run_process's filtered rows,
and their running sums its summed rows. dp_power and naive_power here and
log_add_power_prefix in counting are the three power strategies whose exact
addition counts the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from .engine import _MAX_WIDTH, EvalReport, level_tables
from .errors import PreconditionError
from .presets import build
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
    kept = list(row)
    del kept[p - 1 :: p]
    return kept


def prefix_sums(row: Sequence[int]) -> List[int]:
    return list(accumulate(row))


def _passes(row: Sequence[int], rounds: int) -> Iterator[Tuple[int, List[int], List[int]]]:
    """(period, filtered, summed) for each pass, periods rounds+1 down to 2."""
    for p in range(rounds + 1, 1, -1):
        filtered = drop_every(row, p)
        row = prefix_sums(filtered)
        yield p, filtered, row


def iteration_count(n: int, init: InitRule) -> int:
    """Indicator starts add one extra round; everything else runs n."""
    return n + 1 if init.kind == "indicator" else n


def required_length(n: int, m: int) -> int:
    """Initial row length so that m elements survive n filtering passes: (n+1)(m-1) + 1.

    A pass with period p keeps index keep_index(p-1, L-1) = p(L-1)/(p-1) as its
    last survivor, so walking the periods 2..n+1 backward from L = m multiplies
    L-1 by p/(p-1) at each pass, and the product telescopes to n+1.
    """
    if n < 0 or m < 1:
        raise PreconditionError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    return (n + 1) * (m - 1) + 1


def _within_width(length: int) -> int:
    """length, once it is known to fit one row (at most engine._MAX_WIDTH cells)."""
    if length > _MAX_WIDTH:
        raise PreconditionError(f"a row of length {length} is past the {_MAX_WIDTH} cells a row may hold")
    return length


def run_process(n: int, m: int, init: InitRule = InitRule.const(1)) -> Tuple[List[int], ProcessTrace]:
    """First m values of the process for exponent n, plus the full trace."""
    if n < 0:
        raise PreconditionError(f"exponent must be >= 0, got {n}")
    rounds = iteration_count(n, init)
    before = tuple(init.row(_within_width(required_length(rounds, m))))
    steps = []
    for p, filtered, summed in _passes(before, rounds):
        steps.append(ProcessStep(period=p, before=before, filtered=tuple(filtered), summed=tuple(summed)))
        before = steps[-1].summed  # one tuple per row, shared with the next step
    assert len(before) >= m, f"length schedule bug: {len(before)} < {m}"
    return list(before[:m]), ProcessTrace(exponent=n, init=init, steps=tuple(steps))


def forward_stages(n: int, length: int) -> List[List[int]]:
    """Stage rows f_0..f_n of the exponent-n chain, `length` entries each: f_n is 1
    and f_j(x) = sum_{i=0}^{x} f_{j+1}(keep_index(j+1, i)), so f_0(x) = (x+1)^n.
    Row j < n is the running sum of the `moessner` program's table at level j+2,
    at x = length - 1, cut to length as it is yielded."""
    tables = islice(level_tables(build("moessner", {"x": length - 1, "n": n})), n)  # all but the root's
    return [list(islice(accumulate(table), length)) for table in tables][::-1] + [[1] * length]


def forward_intermediate(n: int, j: int, x: int) -> int:
    """f_j(x) of the exponent-n chain: forward_stages(n, x + 1)[j][x]."""
    if not 0 <= j <= n:
        raise PreconditionError(f"stage j={j} out of range 0..{n} for exponent n={n}")
    if x < 0:
        raise PreconditionError(f"negative index {x}")
    return forward_stages(n, x + 1)[j][x]


def dp_power(x: int, n: int) -> EvalReport:
    """(x+1)^n by the shared-row scheme, with its exact addition count.

    Seeds a ones row of the exact backward-scheduled length, then runs the
    filter+sum passes; a prefix-sum pass over a row of length L costs L-1
    additions. leaves is the seed row length.
    """
    if x < 0 or n < 0:
        raise PreconditionError("dp_power needs naturals")
    m = x + 1
    length = _within_width(required_length(n, m))
    row = [1] * length
    additions = 0
    for _, filtered, row in _passes(row, n):
        additions += max(len(filtered) - 1, 0)
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
