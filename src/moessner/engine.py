"""Nested bounded summations with history-dependent bounds.

A SummationProgram is a chain of levels, outermost first. Level k sums its
index i_k from a lower bound (0 or 1) to a bound expression that may read
the enclosing indices i_1..i_{k-1}; the body is evaluated on the full index
history. Empty sums (bound below the lower bound) are 0 by convention, which
several presets rely on to terminate chains whose bounds go negative.

Three evaluators:
  evaluate          plain value, one walk with bounds and body compiled to
                    one generated function each (expr.compile_expr); an
                    explicit stack holds levels 1..d-1, and a plain loop
                    runs i_{d-1} and sums level d in place
  evaluate_counting value plus exact addition/leaf tallies: the same walk,
                    handed closures that tally as they run (each bound adds
                    the additions its sum folds, the innermost one also the
                    leaves; the body adds the count additions_expr gives)
  evaluate_memoized value via dense per-level tables; requires is_markov
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .errors import DomainError, ParameterError, PreconditionError, ValidationError
from .expr import (
    Expr,
    Lit,
    additions_expr,
    compile_expr,
    eval_expr,
    eval_expr_counted,
    expr_from_dict,
    expr_references,
    expr_to_dict,
    render_expr,
    validate_expr,
)

ALLOWED_PARAM_KEYS = {"x", "n", "a", "d", "k", "f"}


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
    """Structural and parameter checks; raises ValidationError/ParameterError."""
    referenced: set = set()
    needs_table = False
    for k, spec in enumerate(program.levels, start=1):
        validate_expr(spec.bound, k, role=f"level {k} bound")
        refs = expr_references(spec.bound)
        referenced |= refs["params"]
        needs_table = needs_table or refs["table"]
    validate_expr(program.body, program.depth + 1, role="body")
    refs = expr_references(program.body)
    referenced |= refs["params"]
    needs_table = needs_table or refs["table"]

    params = normalize_params(program.params)
    missing = referenced - set(params)
    if missing:
        raise ParameterError(f"missing parameters: {sorted(missing)}")
    if needs_table and "f" not in params:
        raise ParameterError("program reads the table parameter 'f' but none was given")


def _body_guarded(program: SummationProgram, history: Tuple[int, ...]) -> int:
    value = eval_expr(program.body, program.params, program.depth + 1, history)
    if value < 0:
        raise DomainError(f"body evaluated to {value} at history {history}")
    return value


def evaluate(program: SummationProgram) -> int:
    """The value of the nested sum, depth-first, empty-sum convention."""
    validate(program)
    if program.depth == 0:
        return _body_guarded(program, ())
    params = program.params
    # compiled once per call; the functions read idx in place, no tuple copies
    bound_fns = [compile_expr(spec.bound, params, k) for k, spec in enumerate(program.levels, 1)]
    body = program.body
    body_fn = None if isinstance(body, Lit) else compile_expr(body, params, program.depth + 1)
    return _walk(program, bound_fns, body_fn)


def _walk(program: SummationProgram, bound_fns: List[Callable], body_fn: Optional[Callable]) -> int:
    """The level-stack walk behind evaluate and evaluate_counting.

    bound_fns[k] gives the upper bound of level k+1 from the open indices;
    body_fn gives the body's value at a full history, and is None when the
    body is a Lit, whose leaves are then summed by multiplication. The stack
    holds levels 1..d-1 only: once they are open, a plain loop runs i_{d-1}
    to its end and sums level d at each step, so no level is pushed or popped
    per innermost sum. Bounds and body are called in depth-first order.
    """
    depth = program.depth
    body = program.body
    body_const = body.value if body_fn is None else None
    if body_const is not None and body_const < 0:
        raise DomainError(f"body evaluated to {body_const} at history ()")
    lowers = [spec.lower for spec in program.levels]
    inner_bound, inner_lo = bound_fns[-1], lowers[-1]

    total = 0
    idx: List[int] = []
    hi_stack: List[int] = []
    # the plain loop steps i_{d-1} in place up to its bound; a depth-1 walk has
    # no i_{d-1} and makes its one step on a spare slot
    step, last = (idx, hi_stack) if depth > 1 else ([0], [0])
    while True:
        # open levels downward to d-1, or until an empty sum cuts off
        opened = len(idx)
        while opened < depth - 1:
            lo = lowers[opened]
            hi = bound_fns[opened](idx)
            if hi < lo:
                break
            idx.append(lo)
            hi_stack.append(hi)
            opened += 1
        else:  # no cut: levels 1..d-1 are open
            for step[-1] in range(step[-1], last[-1] + 1):
                hi = inner_bound(idx)
                if hi < inner_lo:
                    continue
                if body_const is not None:
                    total += (hi - inner_lo + 1) * body_const
                    continue
                idx.append(inner_lo)
                for idx[-1] in range(inner_lo, hi + 1):
                    value = body_fn(idx)
                    if value < 0:
                        raise DomainError(f"body evaluated to {value} at history {tuple(idx)}")
                    total += value
                idx.pop()
        # advance the deepest open level; pop the exhausted ones (i_{d-1} always is)
        while idx and idx[-1] >= hi_stack[-1]:
            idx.pop()
            hi_stack.pop()
        if not idx:
            return total
        idx[-1] += 1


def evaluate_counting(program: SummationProgram) -> EvalReport:
    """Same walk as evaluate, with exact operation accounting.

    Each materialized sum of m >= 1 terms costs m - 1 additions (empty sums
    cost nothing); additions inside body evaluations are counted per leaf;
    bound arithmetic is never counted. leaves is the number of body
    evaluations.
    """
    validate(program)
    depth = program.depth
    params = program.params
    if depth == 0:
        value, adds = eval_expr_counted(program.body, params, 1, ())
        if value < 0:
            raise DomainError(f"body evaluated to {value} at history ()")
        return EvalReport(value=value, additions=adds, leaves=1)

    additions = leaves = 0

    def tallied(bound_fn: Callable, lo: int, innermost: bool) -> Callable:
        def bound(h: Any) -> int:
            nonlocal additions, leaves
            hi = bound_fn(h)
            if hi >= lo:
                additions += hi - lo  # this sum folds hi-lo+1 terms
                if innermost:
                    leaves += hi - lo + 1
            return hi

        return bound

    bound_fns = [
        tallied(compile_expr(spec.bound, params, k), spec.lower, k == depth)
        for k, spec in enumerate(program.levels, 1)
    ]
    body = program.body
    value_fn = None if isinstance(body, Lit) else compile_expr(body, params, depth + 1)
    per_leaf = additions_expr(body)
    if isinstance(per_leaf, Lit):
        body_fn = value_fn  # fixed cost: leaves * per_leaf, added at the end
    else:
        adds_fn = compile_expr(per_leaf, params, depth + 1)
        per_leaf = Lit(0)

        def body_fn(h: Any) -> int:
            nonlocal additions
            additions += adds_fn(h)
            return value_fn(h)

    value = _walk(program, bound_fns, body_fn)
    return EvalReport(value=value, additions=additions + leaves * per_leaf.value, leaves=leaves)


def is_markov(program: SummationProgram) -> bool:
    """True iff memoization on (level, previous index) is sound.

    Bounds may read at most the immediately enclosing index (Prev, or the
    equivalent explicit Hist(level-1)), the level number, and parameters.
    The body may read at most the innermost index and parameters. Custom
    nodes are opaque, hence never Markov.
    """
    for k, spec in enumerate(program.levels, start=1):
        refs = expr_references(spec.bound)
        if refs["custom"] or refs["sum_hist"] or refs["prod_hist"]:
            return False
        if refs["hist"] - {k - 1}:
            return False
        if refs["prev"] and k == 1:
            return False
    refs = expr_references(program.body)
    if refs["custom"] or refs["sum_hist"] or refs["prod_hist"]:
        return False
    if refs["hist"] - {program.depth}:
        return False
    if refs["prev"] and program.depth == 0:
        return False
    return True


def evaluate_memoized(program: SummationProgram) -> int:
    """evaluate(program) via dense per-level value tables.

    For a Markov program the sub-sum below level k depends only on i_{k-1},
    and the reachable values of each index form one contiguous range, so
    every distinct sub-sum is computed once from running prefix sums.
    """
    validate(program)
    if not is_markov(program):
        raise PreconditionError(
            "memoized evaluation requires a Markov program "
            "(bounds read at most the previous index; body at most the innermost)"
        )
    depth = program.depth
    params = program.params
    if depth == 0:
        return _body_guarded(program, ())

    # Markov: a bound at level k reads only the last of its k-1 history slots
    bound_fns = [compile_expr(spec.bound, params, k) for k, spec in enumerate(program.levels, 1)]
    body_fn = compile_expr(program.body, params, depth + 1)

    # forward pass: contiguous reachable range per level
    lo1 = program.levels[0].lower
    b1 = bound_fns[0](())
    if b1 < lo1:
        return 0
    ranges: List[Tuple[int, int]] = [(lo1, b1)]
    bounds: List[List[int]] = []  # bounds[k-2]: level k's bound per index of level k-1, reused below
    history: List[int] = []  # one slot more per level; bounds read only the last
    for k in range(2, depth + 1):
        plo, phi = ranges[-1]
        lo = program.levels[k - 1].lower
        bound_fn = bound_fns[k - 1]
        history.append(0)
        level_bounds = []
        for history[-1] in range(plo, phi + 1):
            level_bounds.append(bound_fn(history))
        hi = max(level_bounds)
        if hi < lo:
            return 0  # level k is empty under every reachable parent
        ranges.append((lo, hi))
        bounds.append(level_bounds)

    # backward pass: table of sub-sum values per possible previous index
    lo_d, hi_d = ranges[depth - 1]
    history = [0] * depth
    table = []
    for v in range(lo_d, hi_d + 1):
        history[-1] = v
        value = body_fn(history)
        if value < 0:
            raise DomainError(f"body evaluated to {value} at history {tuple(history)}")
        table.append(value)
    for k in range(depth, 1, -1):
        lo_k = ranges[k - 1][0]
        prefix = [0, *accumulate(table)]
        table = [prefix[b - lo_k + 1] if b >= lo_k else 0 for b in bounds[k - 2]]
    return sum(table)


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
