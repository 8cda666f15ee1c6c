"""Polygonal numbers as bounded sums of increasing integer quotients.

Two index conventions coexist and both are exposed: quotient_sum uses the
upper bound k*(n+1) and equals the closed form oracles.polygonal_closed;
quotient_sum_shifted uses k*n and enumerates the familiar named streams
(squares, pentagonal, hexagonal numbers, and for k=1 the triangular numbers).
The CLI's polygonal subcommand runs check_terms and quotient_sum, and the
acceptance claim c10 reads both conventions.
"""

from __future__ import annotations

from .counting import sigma
from .errors import PreconditionError


def check_terms(k: int, terms: int) -> None:
    """Refuse k < 1, then sums of more terms in all than engine._MAX_WIDTH, the cap rows and the walk share."""
    from .engine import _MAX_WIDTH

    if k < 1:
        raise PreconditionError(f"polygonal order parameter k must be >= 1, got {k}")
    if terms > _MAX_WIDTH:
        raise PreconditionError(f"{terms} quotient terms are past the {_MAX_WIDTH} terms polygonal sums may add")


def quotient_sum(k: int, n: int) -> int:
    """sum_{i=0}^{k*(n+1)} i // k; equals oracles.polygonal_closed(k, n)."""
    return quotient_sum_shifted(k, n + 1)


def quotient_sum_shifted(k: int, n: int) -> int:
    """sum_{i=0}^{k*n} i // k; 0, 1, then the named polygonal streams.

    The terms fall into n blocks of k, the q-th of them k quotients equal to q,
    and the last term k*n // k: each block sums in closed form to k*q, so the
    sum adds n + 1 terms, not k*n + 1."""
    check_terms(k, k * n + 1)
    return sigma(0, n - 1, lambda q: k * q) + k * n // k
