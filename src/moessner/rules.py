"""Shared rule vocabulary: initial-segment rules and fold bound rules.

InitRule is the closed set {const c, indicator(a, d), successor}. The same
rule drives both the row-based process (as the initial row) and the
summation presets (as the body wrapped around the surviving index), so the
two formulations of each identity stay comparable.

Fold bound rules name the level-k bound of the generic fold: the bound at
level k >= 2 is rule(j, i_{k-1}) with j = k - 1; level 1 is always x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from .errors import ParameterError, digit_limit
from .expr import Add, Expr, FloorDiv, IfZero, Lit, Mul, Param, Prev

INIT_KINDS = ("const", "indicator", "successor")


@dataclass(frozen=True)
class InitRule:
    """Initial segment: const c -> c,c,c,...; indicator -> a,d,d,...; successor -> 1,2,3,..."""

    kind: str
    a: int = 1
    d: int = 0

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ParameterError(f"unknown init kind {self.kind!r} (use one of {INIT_KINDS})")
        if self.a < 0 or self.d < 0:
            raise ParameterError("init values must be naturals")

    @staticmethod
    def const(c: int) -> "InitRule":
        return InitRule("const", a=c)

    @staticmethod
    def indicator(a: int, d: int) -> "InitRule":
        return InitRule("indicator", a=a, d=d)

    @staticmethod
    def successor() -> "InitRule":
        return InitRule("successor")

    @staticmethod
    def parse(spec: str) -> "InitRule":
        """Parse CLI syntax: ones | successor | const:C | indicator:A:D."""
        parts = spec.split(":")
        try:
            if parts[0] == "ones" and len(parts) == 1:
                return InitRule.const(1)
            if parts[0] == "successor" and len(parts) == 1:
                return InitRule.successor()
            if parts[0] == "const" and len(parts) == 2:
                return InitRule.const(int(parts[1]))
            if parts[0] == "indicator" and len(parts) == 3:
                return InitRule.indicator(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ParameterError(digit_limit(exc) or f"non-integer field in init spec {spec!r}") from None
        raise ParameterError(
            f"bad init spec {spec!r} (use ones | successor | const:C | indicator:A:D)"
        )

    def spec_string(self) -> str:
        if self.kind == "const":
            return f"const:{self.a}"
        if self.kind == "indicator":
            return f"indicator:{self.a}:{self.d}"
        return "successor"

    def value_at(self, y: int) -> int:
        if self.kind == "const":
            return self.a
        if self.kind == "indicator":
            return self.a if y == 0 else self.d
        return y + 1

    def row(self, m: int) -> List[int]:
        """[value_at(y) for y in range(m)], built by repetition rather than per element."""
        if self.kind == "const":
            return [self.a] * m
        if self.kind == "indicator":
            return [self.a] + [self.d] * (m - 1) if m > 0 else []
        return list(range(1, m + 1))

    def body_expr(self, arg: Expr) -> Tuple[Expr, Dict[str, int]]:
        """Body expression init(arg) plus the engine params it needs."""
        if self.kind == "const":
            return Param("a"), {"a": self.a}
        if self.kind == "indicator":
            return IfZero(arg, Param("a"), Param("d")), {"a": self.a, "d": self.d}
        return Add(arg, Lit(1)), {}


def keep_bound(k: int) -> Expr:
    """Survivor-position bound at level k: floor(k * i_{k-1} / (k-1))."""
    if k < 2:
        raise ParameterError("keep rule applies from level 2 onward")
    if k == 2:
        return Mul(Lit(2), Prev())  # dividing by 1 is a no-op, skip the node
    return FloorDiv(Mul(Lit(k), Prev()), k - 1)


FOLD_RULES = ("keep", "level", "prev", "prev_plus", "mult_x", "const_x")


def fold_bound(rule: str, k: int, offset: int = 0) -> Expr:
    """Bound expression for level k >= 2 of the generic fold.

    rule names: keep -> floor(k*Prev/(k-1)); level -> k-1; prev -> Prev;
    prev_plus -> Prev + offset; mult_x -> k*x; const_x -> x.
    """
    if k < 2:
        raise ParameterError("fold rules apply from level 2 onward; level 1 is always x")
    if rule == "keep":
        return keep_bound(k)
    if rule == "level":
        return Lit(k - 1)
    if rule == "prev":
        return Prev()
    if rule == "prev_plus":
        return Add(Prev(), Lit(offset))
    if rule == "mult_x":
        return Mul(Lit(k), Param("x"))
    if rule == "const_x":
        return Param("x")
    raise ParameterError(f"unknown fold rule {rule!r} (use one of {FOLD_RULES})")


def fold_rule(name: Any, offset: Any) -> Tuple[str, int]:
    """(name, offset), checked: a rule of FOLD_RULES; prev_plus takes an int offset, the others 0."""
    if name not in FOLD_RULES:
        raise ParameterError(f"unknown fold rule {name!r} (use one of {FOLD_RULES})")
    wanted = "an int offset" if name == "prev_plus" else "offset 0"
    if not isinstance(offset, int) or isinstance(offset, bool) or (offset != 0 and name != "prev_plus"):
        raise ParameterError(f"fold rule {name} takes {wanted}, got {offset!r}")
    return name, offset


def parse_fold_rule(spec: str) -> Tuple[str, int]:
    """CLI syntax: a rule name, or prev_plus:C."""
    parts = spec.split(":")
    if len(parts) != 1 + (parts[0] == "prev_plus"):
        raise ParameterError(f"bad fold rule {spec!r} (use one of {FOLD_RULES}, prev_plus as prev_plus:C)")
    try:
        offset = int(parts[1]) if len(parts) == 2 else 0
    except ValueError as exc:
        raise ParameterError(digit_limit(exc) or f"non-integer offset in fold rule {spec!r}") from None
    return fold_rule(parts[0], offset)
