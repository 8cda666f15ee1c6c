"""Index maps for striking every (j+1)-st element out of a stream.

keep_index(j, .) enumerates the surviving positions, drop_index(j, .) the
struck ones, and together they partition the naturals. process strikes by
slice and calls none of them: they state the schedule that its slices and
required_length follow. The acceptance claim c07 checks the partition through
all three, and tests/test_process.py reads drop_every against is_dropped and
required_length against keep_index. Where inverse_step puts a survivor back is
inverse's own splice: the survivor of rank (p-1)q + r returns to pq + r.
"""

from __future__ import annotations

from .errors import PreconditionError


def _check_j(j: int) -> None:
    if j < 1:
        raise PreconditionError(f"period parameter j must be >= 1, got {j}")


def keep_index(j: int, x: int) -> int:
    """Position of the x-th survivor: (j+1)*x // j, equivalently x + x // j."""
    _check_j(j)
    return (j + 1) * x // j


def drop_index(j: int, x: int) -> int:
    """Position of the x-th struck element: (j+1)*x + j."""
    _check_j(j)
    return (j + 1) * x + j


def is_dropped(j: int, x: int) -> bool:
    """True iff position x is struck under period j+1."""
    _check_j(j)
    return x % (j + 1) == j
