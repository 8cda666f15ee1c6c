"""Independent reference values for everything the summation engine claims.

These deliberately use multiplication and exact division: the engine under
test reaches the same numbers additively, and these formulas are the
independent yardstick. Every quotient is checked to divide exactly; a
nonzero remainder raises ConsistencyError because it can only mean a bug.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConsistencyError, PreconditionError


def _require_nat(**kwargs: int) -> None:
    for name, v in kwargs.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise PreconditionError(f"{name} must be a natural number, got {v!r}")


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ConsistencyError(f"{what}: {num} is not divisible by {den}")
    return q


def pow_fast(b: int, n: int) -> int:
    """b^n by square-and-multiply."""
    _require_nat(b=b, n=n)
    acc = 1
    base = b
    e = n
    while e > 0:
        if e & 1:
            acc *= base
        base *= base
        e >>= 1
    return acc


def factorial(n: int) -> int:
    _require_nat(n=n)
    acc = 1
    for i in range(2, n + 1):
        acc *= i
    return acc


def multifactorial(step: int, n: int) -> int:
    """Product of the k-step factors: (step*0 + 1) * (step*1 + 1) * ... * (step*n + 1)."""
    _require_nat(step=step, n=n)
    acc = 1
    for i in range(n + 1):
        acc *= step * i + 1
    return acc


def binomial(n: int, k: int) -> int:
    """C(n, k) over min(k, n - k) steps, C(m, i) = C(m - 1, i - 1) * m / i; k > n gives 0."""
    _require_nat(n=n, k=k)
    if k > n:
        return 0
    k, c = min(k, n - k), 1
    for i in range(1, k + 1):
        c = _exact_div(c * (n - k + i), i, "binomial step")
    return c


def catalan(n: int) -> int:
    """Catalan number by the recurrence C_{m+1} = 2*(2m+1)*C_m / (m+2)."""
    _require_nat(n=n)
    c = 1
    for m in range(n):
        c = _exact_div(2 * (2 * m + 1) * c, m + 2, "catalan recurrence")
    return c


def catalan_closed(n: int) -> int:
    """Catalan number by the closed form C(2n, n) / (n+1)."""
    _require_nat(n=n)
    return _exact_div(binomial(2 * n, n), n + 1, "catalan closed form")


def fuss_catalan(p: int, n: int) -> int:
    """C(p*n, n) / ((p-1)*n + 1); p = 2 gives the Catalan numbers."""
    _require_nat(p=p, n=n)
    if p < 2:
        raise PreconditionError(f"fuss_catalan needs p >= 2, got {p}")
    return _exact_div(binomial(p * n, n), (p - 1) * n + 1, "fuss-catalan closed form")


def catalan_convolved(x: int, n: int) -> int:
    """(x+1) * C(2n+x, n) / (n+x+1). Reduces to catalan(n) at x = 0."""
    _require_nat(x=x, n=n)
    return _exact_div((x + 1) * binomial(2 * n + x, n), n + x + 1, "convolved catalan")


def fibonacci(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = 1, by iterating pairs."""
    _require_nat(n=n)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def euler_zigzag(n: int) -> int:
    """Zigzag number E(n) by the boustrophedon (Entringer) triangle.

    Row 0 is [1]; row m starts with 0 and accumulates the previous row
    read backwards. E(n) is the last entry of row n.
    """
    _require_nat(n=n)
    row = [1]
    for _ in range(n):
        prev = row[::-1]
        row = [0]
        for v in prev:
            row.append(row[-1] + v)
    return row[-1]


def multiset(x: int, n: int) -> int:
    """Number of multisets of size n from x kinds: C(x+n-1, n). multiset(0, 0) = 1."""
    _require_nat(x=x, n=n)
    if x == 0 and n == 0:
        return 1
    return binomial(x + n - 1, n)


def long2_closed(x: int, n: int, a: int, d: int) -> int:
    """(a + d*x) * (x+1)^n: the arithmetic-progression run of the process."""
    _require_nat(x=x, n=n, a=a, d=d)
    return (a + d * x) * pow_fast(x + 1, n)


def product_table(f: Sequence[int], n: int) -> int:
    """f(0) * f(1) * ... * f(n) for a tabulated f."""
    _require_nat(n=n)
    if len(f) < n + 1:
        raise PreconditionError(f"table has {len(f)} entries, need {n + 1}")
    acc = 1
    for i in range(n + 1):
        acc *= f[i]
    return acc


def polygonal_closed(k: int, n: int) -> int:
    """The n-th (k+2)-gonal count in this indexing: k*n*(n+1)/2 + n + 1."""
    _require_nat(k=k, n=n)
    return k * (n * (n + 1) // 2) + n + 1


def a002449_rec(n: int) -> int:
    """Doubling-tree counts by the recurrence T(k, j) = sum_{i=0}^{2j+1} T(k-1, i).

    T(0, j) = 1 for all j. The answer sequence is 1 followed by T(k-1, 0)
    for k >= 1, which starts 1, 1, 2, 6, 26, 166.
    """
    _require_nat(n=n)
    if n == 0:
        return 1
    # T(k-1, 0) needs rows up to k-1; row k needs columns up to 2*(cols of k+1)+1
    depth = n - 1
    width = 1
    widths = [1]
    for _ in range(depth):
        width = 2 * (width - 1) + 2  # need i up to 2j+1 where j < previous width
        widths.append(width)
    rows = [[1] * widths[depth]]
    for k in range(1, depth + 1):
        prev = rows[-1]
        need = widths[depth - k]
        row = []
        prefix = 0
        sums = []
        for v in prev:
            prefix += v
            sums.append(prefix)
        for j in range(need):
            row.append(sums[2 * j + 1])
        rows.append(row)
    return rows[-1][0]
