"""Closed expression AST for summation bounds and bodies.

Expressions are evaluated against (params, level, history) where history is
the tuple of enclosing index values (i_1, ..., i_{level-1}). Bounds for level
k see history of length k-1; the body of a depth-d program is evaluated at
level d+1 so Prev means the innermost index.

The AST is closed and serializable (node dicts tagged by constructor name)
so programs can be printed, stored, and handed to the CLI. Custom is the one
escape hatch for arbitrary Python functions and is excluded from
serialization on purpose.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from types import CodeType
from typing import Any, Callable, Dict, Mapping, NamedTuple, Tuple, Union, get_args

from .errors import ParameterError, ValidationError

PARAM_NAMES = ("x", "n", "a", "d", "k")

Params = Mapping[str, Any]  # values: int, or tuple of ints under "f"


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Param:
    name: str

    def __post_init__(self) -> None:
        if self.name not in PARAM_NAMES:
            raise ValidationError(
                f"unknown parameter {self.name!r}; use one of {PARAM_NAMES} or Table for f"
            )


@dataclass(frozen=True)
class Level:
    """The current level number (1 for the outermost sum)."""


@dataclass(frozen=True)
class Prev:
    """The immediately enclosing index i_{level-1}."""


@dataclass(frozen=True)
class Hist:
    """An explicit enclosing index i_j (1-based, j < level)."""

    index: int


@dataclass(frozen=True)
class SumHist:
    """i_1 + ... + i_{level-1}; 0 at level 1."""


@dataclass(frozen=True)
class ProdHist:
    """i_1 * ... * i_{level-1}; 1 at level 1."""


@dataclass(frozen=True)
class Table:
    """Lookup into the table parameter f at a computed index."""

    index: "Expr"


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class FloorDiv:
    """Floor division by a strictly positive integer constant."""

    num: "Expr"
    div: int

    def __post_init__(self) -> None:
        if not isinstance(self.div, int) or isinstance(self.div, bool) or self.div <= 0:
            raise ValidationError(f"floor-division divisor must be a positive literal, got {self.div!r}")


@dataclass(frozen=True)
class IfZero:
    """then-branch if cond evaluates to 0, else-branch otherwise."""

    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class Custom:
    """Escape hatch: an arbitrary function of (params, level, history).

    Not serializable and not displayable beyond its label.
    """

    fn: Callable[[Params, int, Tuple[int, ...]], int]
    label: str = "custom"


Expr = Union[Lit, Param, Level, Prev, Hist, SumHist, ProdHist, Table, Add, Sub, Mul, FloorDiv, IfZero, Custom]


def eval_expr(expr: Expr, params: Params, level: int, history: Tuple[int, ...]) -> int:
    """Evaluate in signed arithmetic (bounds may go negative): the value of eval_expr_counted."""
    return eval_expr_counted(expr, params, level, history)[0]


# Subtrees nested deeper than this are compiled as functions of their own, so
# the generated text stays far below CPython's limit of 200 nested brackets
# (a node adds at most two).
_MAX_NESTING = 40


@functools.lru_cache(maxsize=64)
def _shape_code(text: str, mode: str) -> CodeType:
    return compile(text, "<moessner>", mode)


def _missing_param(name: str) -> int:
    raise ParameterError(f"missing parameter {name!r}")


def _missing_table(index: int) -> int:
    raise ParameterError("missing table parameter 'f'")


def _table_miss(index: int, length: int) -> int:
    raise ParameterError(f"table index {index} outside f of length {length}")


_HELPERS = {
    "_missing_param": _missing_param,
    "_missing_table": _missing_table,
    "_table_miss": _table_miss,
    "_prod": math.prod,
}
_BINOPS = {Add: "+", Sub: "-", Mul: "*"}
_APPLY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}  # the same operators, applied


class Reads(NamedTuple):
    """Where generated text stands: its level, and how it reads the enclosing indices."""

    level: int
    prev: str  # i_{level-1}
    hist: Callable[[int], str]  # i_j, for 1-based j
    sum: str  # i_1 + ... + i_{level-1}
    prod: str  # i_1 * ... * i_{level-1}
    seq: str  # the history as a tuple, for Custom and for subtrees compiled apart


class Source:
    """Generated text in the making, and the globals it reads.

    The text holds no user value: every literal, parameter value, divisor,
    level, the table and each Custom callable is bound by name in `env`, and
    only validated structure (index positions, lower bounds) is spelled out.
    The text thus depends only on shapes; `run` compiles each text once.
    """

    def __init__(self, params: Params) -> None:
        self.params = params
        self.env: Dict[str, Any] = dict(_HELPERS)
        self._slots = itertools.count()

    def bind(self, value: Any) -> str:
        name = f"_v{next(self._slots)}"
        self.env[name] = value
        return name

    def run(self, text: str, mode: str = "eval") -> Any:
        """Evaluate (or, in "exec" mode, run) text in env, compiling each distinct text once."""
        return eval(_shape_code(text, mode), self.env)

    def emit(self, e: Expr, at: Reads, nesting: int = 0) -> str:
        """One Python expression equal to eval_expr(e, params, at.level, history)."""
        kind, params, bind = type(e), self.params, self.bind
        if nesting >= _MAX_NESTING and _CHILDREN.get(kind):
            return f"{bind(compile_expr(e, params, at.level))}({at.seq})"
        nesting += 1
        if kind is Lit:
            return bind(e.value)
        if kind is Param:
            if e.name in params:
                return bind(params[e.name])
            return f"_missing_param({bind(e.name)})"
        if kind is Level:
            return bind(at.level)
        if kind is Prev:
            return at.prev
        if kind is Hist:
            return at.hist(e.index)
        if kind is SumHist:
            return at.sum
        if kind is ProdHist:
            return at.prod
        if kind is Table:
            index = self.emit(e.index, at, nesting)
            table = params.get("f")
            if table is None:
                return f"_missing_table({index})"
            f, n = bind(table), bind(len(table))
            i = f"_i{next(self._slots)}"  # a local of the generated function: the index, read twice
            return f"({f}[{i}] if 0 <= ({i} := {index}) < {n} else _table_miss({i}, {n}))"
        if kind in _BINOPS:
            return f"({self.emit(e.lhs, at, nesting)} {_BINOPS[kind]} {self.emit(e.rhs, at, nesting)})"
        if kind is FloorDiv:
            return f"({self.emit(e.num, at, nesting)} // {bind(e.div)})"
        if kind is IfZero:
            cond, then, orelse = (self.emit(c, at, nesting) for c in (e.cond, e.then, e.orelse))
            return f"({then} if {cond} == 0 else {orelse})"
        if kind is Custom:
            return f"{bind(e.fn)}({bind(params)}, {bind(at.level)}, {at.seq})"
        raise ValidationError(f"not an expression node: {e!r}")


def compile_expr(expr: Expr, params: Params, level: int) -> Callable[[Any], int]:
    """Generate one function of a history sequence, baking in params and level.

    Behaves exactly like eval_expr(expr, params, level, history) but pays the
    node dispatch once instead of per call: the whole expression becomes one
    Python expression, `lambda h: ...`, over any sequence of enclosing index
    values. Missing-parameter and table errors stay lazy: they fire when the
    node is reached, like the interpreter's. Custom callables get a tuple.
    """
    src = Source(params)
    at = Reads(level, "h[-1]", lambda j: f"h[{src.bind(j - 1)}]", "sum(h)", "_prod(h)", "tuple(h)")
    return src.run("lambda h: " + src.emit(expr, at))


def eval_expr_counted(expr: Expr, params: Params, level: int, history: Tuple[int, ...]) -> Tuple[int, int]:
    """(value, additions performed): the reference interpreter, one walk for both.

    Only Add nodes cost; FloorDiv costs its numerator and IfZero its condition
    plus the branch it takes. A Table's index is addressing, not data: it is
    evaluated but not counted. Leaves and Custom cost nothing.
    """
    kind = type(expr)
    if kind in _APPLY:
        lhs, lhs_adds = eval_expr_counted(expr.lhs, params, level, history)
        rhs, rhs_adds = eval_expr_counted(expr.rhs, params, level, history)
        return _APPLY[kind](lhs, rhs), lhs_adds + rhs_adds + (kind is Add)
    if kind is FloorDiv:
        num, adds = eval_expr_counted(expr.num, params, level, history)
        return num // expr.div, adds
    if kind is IfZero:
        cond, cond_adds = eval_expr_counted(expr.cond, params, level, history)
        value, adds = eval_expr_counted(expr.then if cond == 0 else expr.orelse, params, level, history)
        return value, cond_adds + adds
    if kind is Table:
        index, _ = eval_expr_counted(expr.index, params, level, history)
        table = params.get("f")
        if table is None:
            return _missing_table(index), 0
        if not 0 <= index < len(table):
            return _table_miss(index, len(table)), 0
        return table[index], 0
    if kind is Lit:
        return expr.value, 0
    if kind is Param:
        return (params[expr.name] if expr.name in params else _missing_param(expr.name)), 0
    if kind is Level:
        return level, 0
    if kind is Prev:
        return history[-1], 0
    if kind is Hist:
        return history[expr.index - 1], 0
    if kind is SumHist:
        return sum(history), 0
    if kind is ProdHist:
        return math.prod(history), 0
    if kind is Custom:
        return expr.fn(params, level, history), 0
    raise ValidationError(f"not an expression node: {expr!r}")


def additions_expr(expr: Expr) -> Expr:
    """An expression whose value is the additions eval_expr_counted tallies for expr.

    Add costs 1 and IfZero its condition plus the taken branch; Table index
    arithmetic and Custom cost nothing. Constant parts are folded, so a body
    of fixed cost comes back as a Lit.
    """
    if isinstance(expr, Add):
        return _plus(_plus(additions_expr(expr.lhs), additions_expr(expr.rhs)), Lit(1))
    if isinstance(expr, (Sub, Mul)):
        return _plus(additions_expr(expr.lhs), additions_expr(expr.rhs))
    if isinstance(expr, FloorDiv):
        return additions_expr(expr.num)
    if isinstance(expr, IfZero):
        then, orelse = additions_expr(expr.then), additions_expr(expr.orelse)
        if isinstance(expr.cond, Lit):
            taken = then if expr.cond.value == 0 else orelse
        else:
            taken = then if then == orelse else IfZero(expr.cond, then, orelse)
        return _plus(additions_expr(expr.cond), taken)
    return Lit(0)


def _plus(lhs: Expr, rhs: Expr) -> Expr:
    if isinstance(lhs, Lit) and isinstance(rhs, Lit):
        return Lit(lhs.value + rhs.value)
    if lhs == Lit(0):
        return rhs
    if rhs == Lit(0):
        return lhs
    return Add(lhs, rhs)


# sub-expression fields of the node kinds that have any; the structural
# walkers below (validation, serialization) read this instead of one branch
# per kind. Every other dataclass field is a scalar stored as is.
_CHILDREN: Dict[type, Tuple[str, ...]] = {
    Table: ("index",),
    Add: ("lhs", "rhs"),
    Sub: ("lhs", "rhs"),
    Mul: ("lhs", "rhs"),
    FloorDiv: ("num",),
    IfZero: ("cond", "then", "orelse"),
}
_FIELDS = {kind: tuple(f.name for f in fields(kind)) for kind in get_args(Expr)}
_SERIALIZABLE = {kind.__name__: kind for kind in _FIELDS if kind is not Custom}
_DICT_KEY = {"orelse": "else"}  # Python keyword on one side, dict key on the other
_FLAGS = {Level: "level", Prev: "prev", SumHist: "sum_hist", ProdHist: "prod_hist", Table: "table", Custom: "custom"}


def validate_expr(expr: Expr, level: int, *, role: str) -> Dict[str, Any]:
    """Structural checks for an expression used at the given level; returns what it reads.

    History references must stay strictly below the level. Raises
    ValidationError. The result is {"params": set of names,
    "hist": set of Hist indices, "table", "prev", "sum_hist", "prod_hist",
    "level", "custom": bools}.
    """
    out: Dict[str, Any] = {"params": set(), "hist": set(), **dict.fromkeys(_FLAGS.values(), False)}

    def walk(e: Expr) -> None:
        kind = type(e)
        if kind not in _FIELDS:
            raise ValidationError(f"{role}: not an expression node: {e!r}")
        if kind is Lit and (not isinstance(e.value, int) or isinstance(e.value, bool)):
            raise ValidationError(f"literal must be an int, got {e.value!r}")
        if kind is Prev and level < 2:
            raise ValidationError(f"{role}: Prev is undefined at level 1 (no enclosing index)")
        if kind is Hist and (not isinstance(e.index, int) or isinstance(e.index, bool)):
            raise ValidationError(f"{role}: history index must be an int, got {e.index!r}")
        if kind is Hist and not 1 <= e.index <= level - 1:
            raise ValidationError(
                f"{role}: Hist({e.index}) out of range at level {level} (valid: 1..{level - 1})"
            )
        if kind is Param:
            out["params"].add(e.name)
        elif kind is Hist:
            out["hist"].add(e.index)
        elif kind in _FLAGS:
            out[_FLAGS[kind]] = True
        for name in _CHILDREN.get(kind, ()):
            walk(getattr(e, name))

    walk(expr)
    return out


def expr_to_dict(expr: Expr) -> Dict[str, Any]:
    kind = type(expr)
    if kind is Custom:
        raise ValidationError("Custom expressions are not serializable")
    if kind not in _FIELDS:
        raise ValidationError(f"not an expression node: {expr!r}")
    out: Dict[str, Any] = {"node": kind.__name__}
    for name in _FIELDS[kind]:
        value = getattr(expr, name)
        out[_DICT_KEY.get(name, name)] = expr_to_dict(value) if name in _CHILDREN.get(kind, ()) else value
    return out


def expr_from_dict(data: Dict[str, Any]) -> Expr:
    if not isinstance(data, dict) or "node" not in data:
        raise ValidationError(f"expression dict needs a 'node' tag: {data!r}")
    tag = data["node"]
    kind = _SERIALIZABLE.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise ValidationError(f"unknown expression node tag {tag!r}")
    values = []
    try:
        for name in _FIELDS[kind]:
            value = data[_DICT_KEY.get(name, name)]
            values.append(expr_from_dict(value) if name in _CHILDREN.get(kind, ()) else value)
    except KeyError as exc:
        raise ValidationError(f"{tag} node is missing field {exc}") from None
    return kind(*values)


# precedence levels for rendering: 1 add/sub, 2 mul/div, 3 atoms
def render_expr(expr: Expr, level: int) -> str:
    """Deterministic text form with the level's index names (i1, i2, ...)."""

    def go(e: Expr) -> Tuple[str, int]:
        kind = type(e)
        if kind in _BINOPS:
            op, prec = _BINOPS[kind], 1 + (kind is Mul)
            ls, lp = go(e.lhs)
            rs, rp = go(e.rhs)
            if lp < prec:
                ls = f"({ls})"
            # right operand needs parens at equal precedence too: a-(b+c), a*(b*c) stay explicit
            if rp <= prec and not (kind is Add and rp == 1):
                rs = f"({rs})"
            return f"{ls}{op}{rs}", prec
        if kind is Lit:
            return str(e.value), 3
        if kind is Param:
            return e.name, 3
        if kind is Level:
            return "level", 3
        if kind is Prev:
            return f"i{level - 1}", 3
        if kind is Hist:
            return f"i{e.index}", 3
        if kind is SumHist:
            return ("+".join(f"i{j}" for j in range(1, level)), 1) if level > 1 else ("0", 3)
        if kind is ProdHist:
            return ("*".join(f"i{j}" for j in range(1, level)), 2) if level > 1 else ("1", 3)
        if kind is Table:
            inner, _ = go(e.index)
            return f"f[{inner}]", 3
        if kind is FloorDiv:
            num, p = go(e.num)
            if p < 2:
                num = f"({num})"
            return f"{num}/{e.div}", 2
        if kind is IfZero:
            c, _ = go(e.cond)
            t, _ = go(e.then)
            o, _ = go(e.orelse)
            return f"if0({c},{t},{o})", 3
        if kind is Custom:
            return f"<{e.label}>", 3
        raise ValidationError(f"not an expression node: {e!r}")

    text, _ = go(expr)
    return text
