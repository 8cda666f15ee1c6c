"""Nested bounded summations with history-dependent bounds.

A SummationProgram is a chain of levels, outermost first. Level k sums its
index i_k from a lower bound (0 or 1) to a bound expression that may read
the enclosing indices i_1..i_{k-1}; the body is evaluated on the full index
history. Empty sums (bound below the lower bound) are 0 by convention, which
several presets rely on to terminate chains whose bounds go negative.

Three evaluators:
  evaluate          plain value: the whole sum generated as one Python `for`
                    nest over local indices (_nest), bounds and body inlined
  evaluate_counting value plus exact addition/leaf tallies, added inline by
                    the same generated nest
  evaluate_memoized value via dense per-level tables, for Markov programs: the
                    root's entry of level_tables, one generated comprehension
                    per distinct level row, gathered back out of running
                    prefix sums with map

validate and is_markov read one analysis per program, SummationProgram._summary;
presets.sweep is the one caller that chooses an evaluator. Depth 0 is the
zero-level case of all three; expr.eval_expr and eval_expr_counted are references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .errors import DomainError, ParameterError, PreconditionError, ValidationError
from .expr import (
    PARAM_NAMES,
    Expr,
    Lit,
    Reads,
    Source,
    additions_expr,
    compile_expr, eval_expr, eval_expr_counted,  # noqa: F401  (unused here, but perfbench/tracer.py wraps them by name)
    expr_from_dict,
    expr_to_dict,
    render_expr,
    validate_expr,
)

ALLOWED_PARAM_KEYS = {*PARAM_NAMES, "f"}


@dataclass(frozen=True)
class LevelSpec:
    lower: int
    bound: Expr

    def __post_init__(self) -> None:
        if type(self.lower) is not int or self.lower not in (0, 1):  # bool and float are not int
            raise ValidationError(f"level lower bound must be 0 or 1, got {self.lower!r}")


@dataclass(frozen=True)
class EvalReport:
    value: int
    additions: int
    leaves: int


class _Summary(NamedTuple):
    params: FrozenSet[str]  # parameter names the expressions read
    reads_table: bool
    reads_level: bool
    markov: bool
    running: Tuple[int, int]  # the deepest level (body: depth+1) reading SumHist, ProdHist; 0 if none


@dataclass(frozen=True)
class SummationProgram:
    depth: int
    levels: Tuple[LevelSpec, ...]
    body: Expr
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if type(self.depth) is not int:  # bool and float are not int
            raise ValidationError(f"depth must be an int, got {self.depth!r}")
        if self.depth != len(self.levels):
            raise ValidationError(
                f"depth {self.depth} does not match {len(self.levels)} level specs"
            )

    @cached_property
    def _summary(self) -> _Summary:
        """One validate_expr walk per expression; a structural error raises and caches nothing."""
        params: set = set()
        reads_table, reads_level, markov, sum_to, prod_to = False, False, True, 0, 0
        for level, role, expr in _exprs(self):
            refs = validate_expr(expr, level, role=role)
            params |= refs["params"]
            reads_table = reads_table or refs["table"]
            reads_level = reads_level or refs["level"]
            whole_history = refs["custom"] or refs["sum_hist"] or refs["prod_hist"]
            markov = markov and not whole_history and refs["hist"] <= {level - 1}
            sum_to, prod_to = (level if refs["sum_hist"] else sum_to), (level if refs["prod_hist"] else prod_to)
        return _Summary(frozenset(params), reads_table, reads_level, markov, (sum_to, prod_to))


def _exprs(program: SummationProgram) -> Iterator[Tuple[int, str, Expr]]:
    """(level, role, expression) for each bound, outermost first, then the body."""
    for k, spec in enumerate(program.levels, start=1):
        yield k, f"level {k} bound", spec.bound
    yield program.depth + 1, "body", program.body


def is_natural(value: Any) -> bool:
    """True for an int >= 0; bool, float and str are not naturals."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def normalize_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Check names and types; returns a plain dict with f as a tuple."""
    out: Dict[str, Any] = {}
    for key, value in params.items():
        if key not in ALLOWED_PARAM_KEYS:
            raise ParameterError(f"unknown parameter {key!r} (allowed: {sorted(ALLOWED_PARAM_KEYS)})")
        if key == "f":
            if not isinstance(value, (list, tuple)):
                raise ParameterError(f"table f must be a list of naturals, got {value!r}")
            for entry in value:
                if not is_natural(entry):
                    raise ParameterError(f"table entries must be naturals, got {entry!r}")
            out["f"] = tuple(value)
        else:
            if not is_natural(value):
                raise ParameterError(f"parameter {key}={value!r} must be a natural number")
            out[key] = value
    return out


def validate(program: SummationProgram) -> None:
    """Raises ValidationError/ParameterError. The structural checks are cached per
    program; the caller's params may change, so they are checked on every call."""
    summary = program._summary
    params = normalize_params(program.params)
    missing = summary.params - set(params)
    if missing:
        raise ParameterError(f"missing parameters: {sorted(missing)}")
    if summary.reads_table and "f" not in params:
        raise ParameterError("program reads the table parameter 'f' but none was given")


def evaluate(program: SummationProgram) -> int:
    """The value of the nested sum, depth-first, empty-sum convention."""
    validate(program)
    return _nest(program)(0)


def evaluate_counting(program: SummationProgram) -> EvalReport:
    """Same walk as evaluate, with exact operation accounting.

    Each materialized sum of m >= 1 terms costs m - 1 additions (empty sums
    cost nothing); additions inside body evaluations are counted per leaf;
    bound arithmetic is never counted. leaves is the number of body
    evaluations: at depth 0, with no sum, one leaf and the body's additions.
    """
    validate(program)
    return EvalReport(*_nest(program, additions_expr(program.body))(0, 0, 0))


def _lit_body(program: SummationProgram) -> Optional[int]:
    """The body's value if it is a Lit, refused before any sum opens when negative; else None."""
    if isinstance(program.body, Lit) and program.body.value < 0:
        raise DomainError(f"body evaluated to {program.body.value} at history ()")
    return program.body.value if isinstance(program.body, Lit) else None


def _negative(value: int, history: Tuple[int, ...]) -> None:
    raise DomainError(f"body evaluated to {value} at history {history}")


_BLOCK = 16  # levels per generated function: CPython allows 20 nested blocks per function
_MAX_DEPTH = 500 * _BLOCK  # the functions call each other, one Python frame per block


def _nest(program: SummationProgram, per_leaf: Optional[Expr] = None) -> Callable:
    """The whole sum as generated Python: per level k, `b{k} = <bound>` and then
    `for i{k} in range(lower, b{k} + 1):` over local indices, bounds and body
    inlined by expr.Source.emit, with running locals s{k} / p{k} where SumHist
    / ProdHist are read. A Lit body is summed by one multiplication per
    innermost sum; depth 0 has none, so its one block emits the one leaf, its
    count and its cost at the root. Every _BLOCK levels, the nest calls the next
    generated function with the indices so far as one tuple h. The entry takes
    and returns `total`, or (total, adds, leaves) counted inline given per_leaf,
    the body's additions_expr. Bounds and body run in the reference's order."""
    if program.depth > _MAX_DEPTH:
        raise PreconditionError(f"depth {program.depth} is past the {_MAX_DEPTH} levels the walk can nest")
    depth, body = program.depth, program.body
    const = _lit_body(program) if depth else None  # added per innermost sum, and depth 0 has none
    sum_to, prod_to = program._summary.running
    src = Source(program.params)
    src.env["_negative"] = _negative
    acc = "total" if per_leaf is None else "total, adds, leaves"

    def reads(first: int, k: int) -> Reads:  # at level k, in the block that starts at level first
        def hist(j: int) -> str:  # indices of earlier blocks arrive in the tuple h
            return f"i{j}" if j >= first else f"h[{j - 1}]"

        seq = f"({'*h, ' * (first > 1)}{''.join(f'i{j}, ' for j in range(first, k))})"
        return Reads(k, hist(k - 1), hist, f"s{k}" if k > 1 else "0", f"p{k}" if k > 1 else "1", seq)

    def carried(k: int, history: str) -> str:  # the arguments of the block that starts at level k
        running = [f"s{k}"] * (1 < k <= sum_to) + [f"p{k}"] * (1 < k <= prod_to)
        return ", ".join([history] * (k > 1) + running + [acc])

    lines = []
    for first in range(1, max(depth, 1) + 1, _BLOCK):
        last, pad = min(first + _BLOCK - 1, depth), "    "
        lines.append(f"def _b{first}({carried(first, 'h')}):")
        for k in range(first, last + 1):
            lo, b, at = program.levels[k - 1].lower, f"b{k}", reads(first, k)
            terms, folds = (f"({b} + 1)", b) if lo == 0 else (b, f"{b} - 1")  # m terms, m - 1 additions
            lines.append(f"{pad}{b} = {src.emit(program.levels[k - 1].bound, at)}")
            opened = [f"adds += {folds}"] * (per_leaf is not None)
            if k == depth:  # a fixed cost per leaf is added per sum here, a varying one at each leaf below
                opened += [f"leaves += {terms}"] * (per_leaf is not None)
                if isinstance(per_leaf, Lit) and per_leaf.value:
                    opened.append(f"adds += {terms} * {src.bind(per_leaf.value)}")
                if const is not None:
                    opened.append(f"total += {terms} * {src.bind(const)}")
            lines += [f"{pad}if {b} >= {lo}:"] * bool(opened) + [f"{pad}    {line}" for line in opened]
            if k == depth and const is not None:
                break
            lines.append(f"{pad}for i{k} in range({lo}, {b} + 1):")
            pad += "    "
            lines += [f"{pad}s{k + 1} = {at.sum} + i{k}"] * (k < sum_to)
            lines += [f"{pad}p{k + 1} = {at.prod} * i{k}"] * (k < prod_to)
        if last < depth:
            lines.append(f"{pad}{acc} = _b{last + 1}({carried(last + 1, reads(first, last + 1).seq)})")
        elif const is None:
            at = reads(first, depth + 1)
            if per_leaf is not None and not (depth and isinstance(per_leaf, Lit)):  # else added per innermost sum
                lines += [f"{pad}leaves += 1"] * (not depth) + [f"{pad}adds += {src.emit(per_leaf, at)}"]
            lines += [f"{pad}v = {src.emit(body, at)}", f"{pad}if v < 0:"]
            lines += [f"{pad}    _negative(v, {at.seq})", f"{pad}total += v"]
        lines.append(f"    return {acc}")
    src.run("\n".join(lines), "exec")
    return src.env["_b1"]


def is_markov(program: SummationProgram) -> bool:
    """True iff memoization on (level, previous index) is sound.

    Bounds may read at most the immediately enclosing index (Prev, or the
    equivalent explicit Hist(level-1)), the level number, and parameters.
    The body may read at most the innermost index and parameters. Custom
    nodes are opaque, hence never Markov. Raises ValidationError on a
    malformed program.
    """
    return program._summary.markov


def level_tables(program: SummationProgram) -> Iterator[List[int]]:
    """Each level's table of sub-sum values, innermost first, for a Markov program.

    The sub-sum below level k depends only on i_{k-1}, and the reachable
    values of each index form one contiguous range, so every distinct sub-sum
    is computed once from running prefix sums. Above level 1 stands a root
    with the one index 0. Each level is one generated row (_row): its bound
    per reachable index of the level above, as a prefix position, 0 for an
    empty sum; the largest is the level's width. The body row comes first
    (empty below a level empty everywhere); each next table gathers its
    level's positions from the prefix sums of the one before, and the root's
    one entry is the whole sum. Every bound runs before any body, so a bound
    error wins over a negative body that the walk may meet first. Rows are
    reused within a call by (expression, lower or body, and the level number
    where the program reads Level).
    """
    validate(program)
    if not is_markov(program):
        raise PreconditionError(
            "memoized evaluation requires a Markov program "
            "(bounds read at most the previous index; body at most the innermost)"
        )
    const = _lit_body(program)
    reads_level = program._summary.reads_level
    rows: Dict[Tuple[Expr, Optional[int], Optional[int]], Callable[[int, int], List[int]]] = {}

    def row(expr: Expr, k: int, lower: Optional[int]) -> Callable[[int, int], List[int]]:  # lower None: the body
        key = (expr, lower, k if reads_level else None)
        try:
            fn = rows.get(key)
        except RecursionError:  # an expression too deep to hash gets a row of its own
            return _row(program.params, expr, k, lower)
        if fn is None:
            fn = rows[key] = _row(program.params, expr, k, lower)
        return fn

    # forward pass: contiguous reachable range per level, lo..hi, from the root's 0..0
    lo = hi = 0
    positions: List[List[int]] = []  # positions[k-1]: level k's prefix position per index of level k-1
    for k, spec in enumerate(program.levels, 1):
        positions.append(row(spec.bound, k, spec.lower)(lo, hi))
        top = max(positions[-1])
        lo, hi = spec.lower, spec.lower + top - 1
        if top == 0:
            break  # level k is empty under every reachable parent, and so is lo..hi

    # backward pass: table of sub-sum values per possible previous index
    table = [const] * (hi - lo + 1) if const is not None else row(program.body, program.depth + 1, None)(lo, hi)
    yield table
    for level_positions in reversed(positions):
        prefix = [0, *accumulate(table)]
        table = list(map(prefix.__getitem__, level_positions))
        yield table


def evaluate_memoized(program: SummationProgram) -> int:
    """evaluate(program) as the root's one entry in level_tables(program)."""
    for table in level_tables(program):
        pass
    return table[0]


def _row(params: Mapping[str, Any], expr: Expr, k: int, lower: Optional[int]) -> Callable[[int, int], List[int]]:
    """`lambda lo, hi: [...]` over i_{k-1} = v in lo..hi: the bound of a level with
    the given lower as a prefix position, max(bound - lower + 1, 0), or (lower
    None) the body's value, refused when negative. A Markov expression reads the
    history only through v; a subtree past expr._MAX_NESTING gets it as a tuple
    of zeros ending in v, which is built only then. At level 1, v is the root's 0."""
    src = Source(params)
    # SumHist and ProdHist are not Markov, so their fields are never read
    value = src.emit(expr, Reads(k, "v", lambda j: "v", "", "", "(*_zeros, v)"))
    if "_zeros" in value:
        src.env["_zeros"] = (0,) * (k - 2)
    if lower is None:
        src.env["_negative_at"] = _negative_at
        cell = f"w if (w := {value}) >= 0 else _negative_at(w, {src.bind(k - 1)}, v)"
    else:
        cell = f"w if (w := {value}{' + 1' * (lower == 0)}) > 0 else 0"
    return src.run(f"lambda lo, hi: [{cell} for v in range(lo, hi + 1)]")


def _negative_at(value: int, level: int, index: int) -> None:
    where = f"i{level}={index}" if level else "history ()"  # the table knows only i_level; level 0 is the root
    raise DomainError(f"body evaluated to {value} at {where}")


def unfold_display(program: SummationProgram) -> str:
    """Human-readable rendering: one sum(...) per level, then the body."""
    parts = []
    for k, spec in enumerate(program.levels, start=1):
        parts.append(f"sum(i{k}={spec.lower}..{render_expr(spec.bound, k)})")
    parts.append(render_expr(program.body, program.depth + 1))
    return " ".join(parts)


def program_to_dict(program: SummationProgram) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for key, value in normalize_params(program.params).items():
        params[key] = list(value) if key == "f" else value
    return {
        "depth": program.depth,
        "levels": [
            {"lower": spec.lower, "bound": expr_to_dict(spec.bound)} for spec in program.levels
        ],
        "body": expr_to_dict(program.body),
        "params": params,
    }


def program_from_dict(data: Mapping[str, Any]) -> SummationProgram:
    if not isinstance(data, Mapping):
        raise ValidationError(f"a program must be an object, got {type(data).__name__}")
    try:
        depth = data["depth"]
        entries = data["levels"]
        if not isinstance(entries, (list, tuple)) or not all(
            isinstance(entry, Mapping) for entry in entries
        ):
            raise ValidationError(f"program levels must be a list of objects, got {entries!r}")
        levels = tuple(
            LevelSpec(lower=entry["lower"], bound=expr_from_dict(entry["bound"]))
            for entry in entries
        )
        body = expr_from_dict(data["body"])
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ValidationError(f"program params must be an object, got {params!r}")
        params = normalize_params(params)
        program = SummationProgram(depth=depth, levels=levels, body=body, params=params)
        validate(program)
    except KeyError as exc:
        raise ValidationError(f"program dict is missing field {exc}") from None
    except RecursionError:
        raise ValidationError("program expressions are nested too deeply") from None
    return program


def program_to_json(program: SummationProgram) -> str:
    return json.dumps(program_to_dict(program), sort_keys=True)


def program_from_json(text: str) -> SummationProgram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"program is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("program JSON is nested too deeply") from None
    return program_from_dict(data)
