"""Left inverse of the row process: backward differences plus splicing.

Starting from the power function itself, each step peels one filter+sum pass
off: away from the struck positions the backward difference is read through
the splice-free index, and at struck positions the known monomial block
C(n, n-1-t) * (q+1)^(n-1-t) is spliced back in. After n steps the constant
all-ones function remains. The chain is seeded from the closed form, never
from the forward process, so agreement with process.forward_stages is a
real cross-check.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .errors import PreconditionError
from .oracles import binomial, pow_fast
from .process import forward_stages


class EnumeratedFn:
    """Memoized index -> Nat with a provenance tag.

    An instance is confined to one thread at a time; the memo only grows.
    """

    def __init__(self, fn: Callable[[int], int], tag: str) -> None:
        self._fn = fn
        self._memo: Dict[int, int] = {}
        self.tag = tag

    def __call__(self, i: int) -> int:
        if i < 0:
            raise PreconditionError(f"negative index {i}")
        if i not in self._memo:
            self._memo[i] = self._fn(i)
        return self._memo[i]

    def prefix(self, length: int) -> List[int]:
        return [self(i) for i in range(length)]

    def __repr__(self) -> str:
        return f"EnumeratedFn({self.tag})"


def seed(n: int) -> EnumeratedFn:
    """x -> (x+1)^n, from the closed form."""
    if n < 0:
        raise PreconditionError(f"exponent must be >= 0, got {n}")
    return EnumeratedFn(lambda x: pow_fast(x + 1, n), tag=f"seed n={n}")


def inverse_step(f: EnumeratedFn, t: int, n: int) -> EnumeratedFn:
    """Undo pass t (period t+2) of the exponent-n process.

    f'(x) = C(n, n-1-t) * (x//p + 1)^(n-1-t)      when x % p == p-1
          = (backward difference of f) at (p-1)*(x//p) + x % p   otherwise
    """
    if not 0 <= t < n:
        raise PreconditionError(f"step t={t} out of range 0..{n - 1} for exponent n={n}")
    p = t + 2
    coeff = binomial(n, n - 1 - t)
    power = n - 1 - t

    def step(x: int) -> int:
        q, r = divmod(x, p)
        if r == p - 1:
            return coeff * pow_fast(q + 1, power)
        i = (p - 1) * q + r
        return f(0) if i == 0 else f(i) - f(i - 1)

    return EnumeratedFn(step, tag=f"{f.tag} -> step t={t}")


def run_inverse(n: int, length: int) -> List[List[int]]:
    """Prefixes (length each) of the n+1 chain stages, seed first, ones last."""
    if length < 1:
        raise PreconditionError(f"need length >= 1, got {length}")
    fns = [seed(n)]
    for t in range(n):
        fns.append(inverse_step(fns[-1], t, n))
    return [fn.prefix(length) for fn in fns]


def check_roundtrip(n: int, length: int) -> bool:
    """Does every inverse stage equal the forward streamless stage pointwise?"""
    prefixes = run_inverse(n, length)
    forward = forward_stages(n)  # one chain shared by every comparison
    return all(prefixes[t][x] == forward(t, x) for t in range(n + 1) for x in range(length))
