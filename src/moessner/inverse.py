"""Left inverse of the row process: backward differences plus splicing.

Starting from the power row itself, each step peels one filter+sum pass off,
mirroring process._passes: the backward difference undoes the prefix sums,
and splicing the known monomial block C(n, n-1-t) * (q+1)^(n-1-t) back in at
the struck positions undoes the strike. Every row keeps the seed's length.
After n steps the all-ones row remains. The chain is seeded from the closed
form, never from the forward process, so agreement with
process.forward_stages, whose rows come from the memo's level tables, is a
real cross-check.
"""

from __future__ import annotations

from operator import sub
from typing import List, Sequence

from .errors import PreconditionError
from .oracles import binomial, pow_fast
from .process import forward_stages


def seed(n: int, length: int) -> List[int]:
    """[(x+1)^n for x < length], from the closed form."""
    if n < 0:
        raise PreconditionError(f"exponent must be >= 0, got {n}")
    return [pow_fast(x + 1, n) for x in range(length)]


def inverse_step(row: Sequence[int], t: int, n: int) -> List[int]:
    """Undo pass t (period p = t+2) of the exponent-n process on a row.

    Struck positions x = pq + p-1 get C(n, n-1-t) * (q+1)^(n-1-t); the
    survivor of rank (p-1)q + r in the backward difference goes back to
    position pq + r. The result has the input's length.
    """
    if not 0 <= t < n:
        raise PreconditionError(f"step t={t} out of range 0..{n - 1} for exponent n={n}")
    p = t + 2
    coeff = binomial(n, n - 1 - t)
    diffs = list(map(sub, row, [0, *row]))
    out = [0] * len(diffs)
    out[p - 1 :: p] = [coeff * pow_fast(q, n - 1 - t) for q in range(1, len(out) // p + 1)]
    for r in range(p - 1):
        out[r::p] = diffs[r :: p - 1][: len(out[r::p])]
    return out


def run_inverse(n: int, length: int) -> List[List[int]]:
    """The n+1 chain rows (length each), seed first, ones last."""
    if length < 1:
        raise PreconditionError(f"need length >= 1, got {length}")
    rows = [seed(n, length)]
    for t in range(n):
        rows.append(inverse_step(rows[-1], t, n))
    return rows


def check_roundtrip(n: int, length: int) -> bool:
    """Does every inverse stage equal the forward stage row pointwise?"""
    return run_inverse(n, length) == forward_stages(n, length)
