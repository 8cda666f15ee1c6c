"""Nested bounded summations with history-dependent bounds.

A SummationProgram is a chain of levels, outermost first. Level k sums its
index i_k from a lower bound (0 or 1) to a bound expression that may read
the enclosing indices i_1..i_{k-1}; the body is evaluated on the full index
history. Empty sums (bound below the lower bound) are 0 by convention, which
several presets rely on to terminate chains whose bounds go negative.

Three evaluators:
  evaluate          plain value: the whole sum generated as one Python `for`
                    nest over local indices (_nest), bounds and body inlined
  evaluate_counting value plus exact addition/leaf tallies read off one forward
                    pass of tables over the memo's windows (_counted_tables)
                    or, not Markov, the live state (the states module); the
                    walk answers instead where _walks routes it, or where the
                    tables raise: added inline by the same generated nest,
                    whose errors are the reference's first
  evaluate_memoized value via dense per-level tables, for Markov programs: the
                    root's entry of level_tables; a wide level with an affine
                    bound is gathered out of running prefix sums by strided
                    slices, any other by a list of positions and map, and a
                    repeated level reuses the step of the one above; the plain
                    and counted tables share one forward entry (_forward)

validate and is_markov read one analysis per program, SummationProgram._summary,
kept in the program's one slot that is not a field: one step per run of levels
that share one bound object, one validate_expr walk per expression object.
presets.sweep is the one caller that chooses an evaluator. Depth 0 is the
zero-level case of all three; expr.eval_expr and eval_expr_counted are references.
"""

from __future__ import annotations

from itertools import accumulate, compress, groupby, repeat
from operator import attrgetter, mul
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, MoessnerError, ParameterError, PreconditionError, ValidationError, digit_limit
from .expr import (
    PARAM_NAMES,
    Add,
    Expr,
    FloorDiv,
    Hist,
    Level,
    Lit,
    Mul,
    Param,
    Prev,
    Reads,
    Source,
    Sub,
    additions_expr,
    compile_expr, eval_expr, eval_expr_counted,  # noqa: F401  (unused here, but perfbench/tracer.py wraps them by name)
    expr_from_dict,
    expr_to_dict,
    render_expr,
    validate_expr,
)
from .record import Record

ALLOWED_PARAM_KEYS = (*PARAM_NAMES, "f")  # in order: presets build program params in it


class LevelSpec(Record):
    lower: int
    bound: Expr

    def _check(self) -> None:
        if type(self.lower) is not int or self.lower not in (0, 1):  # bool and float are not int
            raise ValidationError(f"level lower bound must be 0 or 1, got {self.lower!r}")


class EvalReport(Record):
    value: int
    additions: int
    leaves: int


class _Summary(NamedTuple):
    params: FrozenSet[str]  # parameter names the expressions read
    reads_table: bool
    reads_level: bool
    markov: bool
    running: Tuple[int, int]  # the deepest level (body: depth+1) reading SumHist, ProdHist; 0 if none
    last_read: Optional[Dict[int, int]]  # not Markov: index j -> the deepest level reading i_j, by Hist(j) or Prev


class SummationProgram(Record):
    depth: int
    levels: Tuple[LevelSpec, ...]
    body: Expr
    params: Optional[Mapping[str, Any]] = None  # None: _check sets a fresh {} for this program
    __slots__ = ("_analysis",)  # _summary's cache, not a field

    def _check(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.params is None:  # a Record default is one object, shared by every program
            object.__setattr__(self, "params", {})
        if type(self.depth) is not int:  # bool and float are not int
            raise ValidationError(f"depth must be an int, got {self.depth!r}")
        if self.depth != len(self.levels):
            raise ValidationError(
                f"depth {self.depth} does not match {len(self.levels)} level specs"
            )

    @property
    def _summary(self) -> _Summary:
        """The one analysis, kept in the slot _analysis; a structural error raises and keeps
        nothing. Copies start without it. Each run of levels that share one bound object folds
        in one step (_runs), and validate_expr walks each expression object once, at its
        shallowest level: one valid at level f is valid, with the same reads, at every deeper level
        (Prev needs a level past 1, Hist(j) one past j), so the first error and its role text are
        those of a walk per level."""
        try:
            return self._analysis
        except AttributeError:
            pass
        params: set = set()
        reads_table, reads_level, markov, sum_to, prod_to = False, False, True, 0, 0
        last_read: Dict[int, int] = {}
        walked: Dict[int, Dict[str, Any]] = {}  # an expression's id -> its reads
        for f, l, expr in _runs(self):
            refs = walked.get(id(expr))
            if refs is None:
                refs = walked[id(expr)] = validate_expr(expr, f, role=f"level {f} bound" if f <= self.depth else "body")
            hist = refs["hist"]
            params |= refs["params"]
            reads_table = reads_table or refs["table"]
            reads_level = reads_level or refs["level"]
            whole_history = refs["sum_hist"] or refs["prod_hist"]
            markov = markov and not whole_history and (not hist or f == l and hist <= {f - 1})
            sum_to, prod_to = (l if refs["sum_hist"] else sum_to), (l if refs["prod_hist"] else prod_to)
            for j in hist:  # runs come outermost first: the last write is the deepest reader
                last_read[j] = l
            if refs["prev"]:  # level k reads i_{k-1}, but i_{f-1} is read at l where Hist(f-1) is
                k = f + (f - 1 in hist)
                last_read.update(zip(range(k - 1, l), range(k, l + 1)))
        # only the state tables read last_read, and only for a program that is not Markov
        summary = _Summary(frozenset(params), reads_table, reads_level, markov, (sum_to, prod_to), None if markov else last_read)
        object.__setattr__(self, "_analysis", summary)
        return summary


def _runs(program: SummationProgram) -> Iterator[Tuple[int, int, Expr]]:
    """(first level, last level, bound) per run of consecutive levels that share one bound
    object, outermost first, then (depth + 1, depth + 1, body)."""
    last = 0
    for _, run in groupby(map(id, map(attrgetter("bound"), program.levels))):
        first, last = last + 1, last + len(list(run))
        yield first, last, program.levels[first - 1].bound
    yield program.depth + 1, program.depth + 1, program.body


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
    """The value with exact operation accounting.

    Each materialized sum of m >= 1 terms costs m - 1 additions (empty sums
    cost nothing); additions inside body evaluations are counted per leaf;
    bound arithmetic is never counted. leaves is the number of body
    evaluations: at depth 0, with no sum, one leaf and the body's additions.

    A program whose walk would nest two loops or more (depth, less one for a
    Lit body, which the walk sums unwalked) is counted by tables: a Markov
    program by the tables over its windows (_counted_tables), any other by
    the tables keyed on its live state (states.counted_tables, the module
    loaded only then). Both read the report off one forward pass that
    counts the histories through each cell, and both leave a program to the
    walk where _walks routes it. Every other program runs evaluate's nest
    with the counts added inline, in constant memory; one loop or none never
    runs more times than the rows hold cells. The tables run every bound
    before any body and name a negative body by less than its history, so on
    any MoessnerError from them, a width past their cap included, or a
    MemoryError, the nest runs instead, validated again (a parameter error
    raises anew): the errors are the walk's, which are the reference's first.
    """
    if program.depth - isinstance(program.body, Lit) >= 2:
        try:
            if program._summary.markov:
                found = _counted_tables(program, routed=True)
            else:
                from . import states

                found = states.counted_tables(program, routed=True)
            if found is not None:
                return found
        except (MoessnerError, MemoryError):
            validate(program)
    else:
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
_MAX_WIDTH = 10**8  # cells in one level's table, and indices the walk visits at level 1
# The widest affine level gathered from a list of positions; a wider one is gathered by slices.
# Building and mapping the positions costs less than one _gather call up to about 8 cells where
# q = 1 and about 12-16 where q > 1 (CPython 3.11); a step reused by a repeated level maps cheaper still.
_NARROW = 8
# The one walk-or-tables rule for both counted engines (_walks). A state table's forward pass costs
# several of the walk's loops per cell, so past _PLANNED cells a plan whose walk loops at most
# _LOOPS_PER_CELL times per cell is left to the walk, in constant memory, at most that much later;
# the state pass stops there early. A smaller plan answers, as does a completed state pass: what is
# left is at most two rows over the innermost states, never more than the walk's leaves. The budget
# was set for the state tables; a Markov plan just under it can be slower and larger by the tables
# than by the walk, and calibrating it per engine is open (ROADMAP item 22).
_LOOPS_PER_CELL = 2
_PLANNED = 1024


def _walks(cells: int, loops: int) -> bool:
    """Whether the walk keeps a plan: past _PLANNED cells, at most _LOOPS_PER_CELL loops per cell."""
    return cells > _PLANNED and loops <= _LOOPS_PER_CELL * cells


def _too_wide(width: int) -> None:
    raise PreconditionError(f"level 1 has width {width}, past the {_MAX_WIDTH} indices the walk may visit")


def _nest(program: SummationProgram, per_leaf: Optional[Expr] = None) -> Callable:
    """The whole sum as generated Python: per level k, `b{k} = <bound>` and then
    `for i{k} in range(lower, b{k} + 1):` over local indices, bounds and body
    inlined by expr.Source.emit, with running locals s{k} / p{k} where SumHist
    / ProdHist are read. A Lit body is summed by one multiplication per
    innermost sum; depth 0 has none, so its one block emits the one leaf, its
    count and its cost at the root. Every _BLOCK levels, the nest calls the next
    generated function with the indices so far as one tuple h. The entry takes
    and returns `total`, or (total, adds, leaves) counted inline given per_leaf,
    the body's additions_expr. Bounds and body run in the reference's order, and
    a leaf's additions after its body, so the first error is the reference's. A
    level 1 that opens a loop wider than _MAX_WIDTH, the memo's cap, is refused
    before it is walked; a depth-1 Lit body opens none, one multiplication at
    any width; the levels below run only as often as the walk reaches them."""
    if program.depth > _MAX_DEPTH:
        raise PreconditionError(f"depth {program.depth} is past the {_MAX_DEPTH} levels the walk can nest")
    depth, body = program.depth, program.body
    const = _lit_body(program) if depth else None  # added per innermost sum, and depth 0 has none
    sum_to, prod_to = program._summary.running
    src = Source(program.params)
    src.env.update(_negative=_negative, _too_wide=_too_wide)
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
            walked = not (k == depth and const is not None)  # a Lit body sums the innermost level unwalked
            lines += [f"{pad}if {terms} > {_MAX_WIDTH}: _too_wide({terms})"] * (k == 1 and walked)
            opened = [f"adds += {folds}"] * (per_leaf is not None)
            if k == depth:  # a fixed cost per leaf is added per sum here, a varying one at each leaf below
                opened += [f"leaves += {terms}"] * (per_leaf is not None)
                if isinstance(per_leaf, Lit) and per_leaf.value:
                    opened.append(f"adds += {terms} * {src.bind(per_leaf.value)}")
                if const is not None:
                    opened.append(f"total += {terms} * {src.bind(const)}")
            lines += [f"{pad}if {b} >= {lo}:"] * bool(opened) + [f"{pad}    {line}" for line in opened]
            if not walked:
                break
            lines.append(f"{pad}for i{k} in range({lo}, {b} + 1):")
            pad += "    "
            lines += [f"{pad}s{k + 1} = {at.sum} + i{k}"] * (k < sum_to)
            lines += [f"{pad}p{k + 1} = {at.prod} * i{k}"] * (k < prod_to)
        if last < depth:
            lines.append(f"{pad}{acc} = _b{last + 1}({carried(last + 1, reads(first, last + 1).seq)})")
        elif const is None:
            at = reads(first, depth + 1)
            lines += [f"{pad}v = {src.emit(body, at)}", f"{pad}if v < 0:"]
            lines += [f"{pad}    _negative(v, {at.seq})", f"{pad}total += v"]
            if per_leaf is not None and not (depth and isinstance(per_leaf, Lit)):  # else added per innermost sum
                lines += [f"{pad}leaves += 1"] * (not depth) + [f"{pad}adds += {src.emit(per_leaf, at)}"]
        lines.append(f"    return {acc}")
    src.run("\n".join(lines), "exec")
    return src.env["_b1"]


def is_markov(program: SummationProgram) -> bool:
    """True iff memoization on (level, previous index) is sound.

    Bounds may read at most the immediately enclosing index (Prev, or the
    equivalent explicit Hist(level-1)), the level number, and parameters.
    The body may read at most the innermost index and parameters. Raises
    ValidationError on a malformed program.
    """
    return program._summary.markov


def level_tables(program: SummationProgram) -> Iterator[List[int]]:
    """Each level's table of sub-sum values, innermost first, for a Markov program.

    The sub-sum below level k depends only on i_{k-1}, and the reachable
    values of each index form one contiguous range, so every distinct sub-sum
    is computed once from running prefix sums. Above level 1 stands a root
    with the one index 0. The forward entry (_forward) gives each level's
    step over the window above; the body row comes first (empty below a
    level empty everywhere), then each table above it, gathered by its step
    from the prefix sums of the one below (_take); the root's one entry is
    the whole sum. Every bound runs before any body, so a bound error wins
    over a negative body that the walk may meet first.
    """
    const, steps, lo, hi = _forward(program)
    table = [const] * (hi - lo + 1) if const is not None else _row(program.params, program.body, program.depth + 1, None)(lo, hi)
    yield table
    for step in reversed(steps):
        table = _take([0, *accumulate(table)], step)
        yield table


def _forward(program: SummationProgram) -> Tuple[Optional[int], List[Any], int, int]:
    """The tables' forward entry: validate, refuse a program that is not Markov and a negative
    Lit body, then _steps. The Lit body's value (else None), the steps and the window lo..hi."""
    validate(program)
    if not is_markov(program):
        raise PreconditionError(
            "memoized evaluation requires a Markov program "
            "(bounds read at most the previous index; body at most the innermost)"
        )
    const = _lit_body(program)
    return (const, *_steps(program))


def _steps(program: SummationProgram) -> Tuple[List[Any], int, int]:
    """The tables' forward pass: each level's step, outermost first, and the window lo..hi of
    the innermost index, for a validated Markov program.

    A level's bound, per reachable index of the level above, is a prefix
    position, 0 for an empty sum; the largest is the level's width. A
    level's form (_level_form) is its affine (a, c, q), read by _affine,
    where the bound is (a * i_{k-1} + c) // q, or else one generated row of
    positions (_row); forms are reused within a call by (expression, lower,
    and the level number where the program reads Level). Its step over the
    window above is a list of positions, gathered with map, for a row or a
    level no wider than _NARROW; a wider affine level is gathered by one
    slice per residue of the index mod q (_gather). Its width is its largest
    position: at the window's top where a >= 0, at its bottom where a < 0. A
    level whose form and window are the previous level's appends the previous
    step; where its bound is the previous bound object at the same lower, the
    form is not looked up either. A level wider than _MAX_WIDTH is refused
    before the next step is built. The steps stop at a level empty under
    every reachable parent, and the window below it is empty.
    """
    params, reads_level = program.params, program._summary.reads_level
    forms: Dict[Tuple[Expr, int, Optional[int]], Any] = {}

    def form(spec: LevelSpec, k: int) -> Any:  # one lookup per level: its affine (a, c, q), or its row
        key = (spec.bound, spec.lower, k if reads_level else None)
        try:
            found = forms.get(key)
            if found is None:
                found = forms[key] = _level_form(params, spec.bound, k, spec.lower)
        except RecursionError:  # an expression too deep to hash or to analyse gets a row of its own
            return _row(params, spec.bound, k, spec.lower)
        return found

    # contiguous reachable range per level, lo..hi, from the root's 0..0
    lo = hi = 0
    steps: List[Any] = []  # per level: its positions over lo..hi above, or (lo, width, a, c, q)
    bound = lower = found = made = window = None
    for k, spec in enumerate(program.levels, 1):
        if spec.bound is not bound or spec.lower != lower or reads_level:
            bound, lower = spec.bound, spec.lower
            found = form(spec, k)
        # one form object has one lower (its cache key holds it): the same form over the same
        # window above is the previous level's step, and the next window is the same too
        if found is not made or (lo, hi) != window:
            made, window = found, (lo, hi)
            if type(found) is tuple:  # a narrow level's positions, or the slices of a wide one
                a, c, q = found
                top = max((a * (hi if a >= 0 else lo) + c) // q, 0)  # falling positions peak at lo
                if hi - lo < _NARROW:
                    step = [p if (p := (a * v + c) // q) > 0 else 0 for v in range(lo, hi + 1)]
                else:
                    step = (lo, hi - lo + 1, a, c, q)
            else:
                step = found(lo, hi)
                top = max(step)
            if top > _MAX_WIDTH:
                raise PreconditionError(f"level {k} has width {top}, past the {_MAX_WIDTH} cells a table may hold")
            lo, hi = lower, lower + top - 1
        steps.append(step)
        if top == 0:
            break  # level k is empty under every reachable parent, and so is lo..hi
    return steps, lo, hi


def _take(prefix: Sequence[int], step: Any) -> List[int]:
    """A level's step applied to the prefix sums of the row below: its positions through map,
    or the slices of _gather. prefix may be a range, the prefix sums of a row of ones."""
    return _gather(prefix, *step) if type(step) is tuple else list(map(prefix.__getitem__, step))


def _spread(read: Tuple[str, Any, Any], counts: List[int], width: int) -> List[int]:
    """The histories through a level's width cells: each parent's count spread by the read over
    a range ("range"), onto one child times its multiplicity ("one"), or onto its kids ("kids")."""
    how, a, b = read
    totals = [0] * (width + 1)  # a range stops one past its last cell; an empty sum adds its 0 at cell 0
    if how == "range":
        for s, e, n in zip(a, b, counts):
            totals[s] += n
            totals[e] -= n
        totals = list(accumulate(totals))
    elif how == "one":
        for j, m, n in zip(a, b, counts):
            totals[j] += m * n
    else:
        for mine, n in zip(a, counts):
            for j, m in mine:
                totals[j] += m * n
    totals.pop()
    return totals


def _through(counts: List[int], step: Any, top: int) -> Tuple[int, List[int]]:
    """The parents' total and the histories through each of a level's top cells: cell j gets the
    count of every parent whose position passes j, with no Python loop per cell. A list of positions
    is _spread's range read from 0; a run's transpose, (parents by falling position, how many pass
    each cell), reads prefix sums of the reordered counts. An affine step is its own gather
    transposed: v passes j iff v >= ceil((q * (j + 1) - c) / a) (a > 0), so _gather with a and q
    swapped reads the parents' suffix sums; a < 0 reads the window from its top."""
    if type(step) is list:
        return sum(counts), _spread(("range", repeat(0), step), counts, top)
    if len(step) == 2:
        order, passing = step
        prefix = [0, *accumulate(map(counts.__getitem__, order))]
        return prefix[-1], list(map(prefix.__getitem__, passing))
    lo, width, a, c, q = step
    if a == 0:
        return (total := sum(counts)), [total] * top
    if a < 0:
        counts, lo, a, c = counts[::-1], 0, -a, c + a * (lo + width - 1)
    suffix = list(accumulate(reversed(counts)))[::-1]
    return suffix[0], _gather(suffix, 0, top, q, q - c + a - 1 - a * lo, a)


def _counted_tables(program: SummationProgram, routed: bool = False) -> Optional[EvalReport]:
    """evaluate_counting(program) by the tables, with level_tables' refusals and errors, read off
    one forward pass: the histories through each cell of each window (1 at the root), read from the
    parents' by the level's step (_through), a run of one list step transposed at its second level.

    The leaves are the innermost counts summed, and the value and the body's
    additions those counts dotted with a row of the body and of its
    additions_expr (a Lit body c: c per leaf). A sum of p >= 1 terms costs
    p - 1 additions: the sums cost every level's histories less those through
    its first cell. A Lit body's innermost window is not built, nor, routed
    past _PLANNED cells, the last walked one until _walks has weighed the plan
    (None, for the walk); their histories are the parents' counts dotted with
    the positions. The plan's cells are the windows its steps cover, and the
    innermost one for a closure body.
    """
    const, steps, lo, hi = _forward(program)
    sizes = [step[1] if type(step) is tuple else len(step) for step in steps]  # each step's window above
    tops = [*sizes[1:], hi - lo + 1]  # each level's own window
    cells = sum(sizes) + (tops[-1] if const is None else 0)
    weigh = min(program.depth - (const is not None), len(steps)) if routed and cells > _PLANNED else 0
    unbuilt = program.depth if const is not None else 0  # a Lit body's innermost level is not walked
    counts, histories, firsts = [1], 0, 0  # of the root and the levels above the parents
    last = read = None  # the previous level's step, and how it is read
    for k, (step, top) in enumerate(zip(steps, tops), 1):
        if k == weigh or k == unbuilt:
            positions = _take(range(top + 1), step)
            through = sum(map(mul, counts, positions))
            if k == weigh and _walks(cells, histories + sum(counts) - 1 + through):  # the root's history is no loop
                return None
            if k == unbuilt:
                histories += sum(counts) + through
                firsts += counts[0] + sum(compress(counts, positions))
                break
        if step is not last:
            last = read = step
        elif read is step and type(step) is list:
            read = sorted(range(len(step)), key=step.__getitem__, reverse=True), _through([1] * len(step), step, top)[1]
        firsts += counts[0]
        total, counts = _through(counts, read, top)
        histories += total
    else:
        through = sum(counts)
        histories, firsts = histories + through, firsts + sum(counts[:1])  # an empty window has no first cell
    if const is not None:
        return EvalReport(const * through, histories - firsts, through)
    params, k = program.params, program.depth + 1
    value, cost = (sum(map(mul, counts, _row(params, expr, k, None)(lo, hi)))
                   for expr in (program.body, additions_expr(program.body)))
    return EvalReport(value, histories - firsts + cost, through)


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


def _level_form(params: Mapping[str, Any], expr: Expr, k: int, lower: int) -> Any:
    """A level's bound as (a, c, q), its prefix position max((a * v + c) // q, 0)
    at i_{k-1} = v, where the bound is affine (_affine, a of either sign); else its _row."""
    found = _affine(expr, params, k)
    if found is None:
        return _row(params, expr, k, lower)
    a, c, q = found
    return a, c + q * (1 - lower), q


def _affine(expr: Expr, params: Mapping[str, Any], k: int) -> Optional[Tuple[int, int, int]]:
    """expr at level k as (a, c, q), its value (a * v + c) // q at i_{k-1} = v, q >= 1
    and q = 1 where a = 0; None for other shapes (IfZero, Table, a product of two
    index terms, a floor on both sides of a sum). Literals, parameters and the
    level fold into c. Nested floors multiply q, as n // q // d = n // (q * d),
    and a whole term m joins a floor's numerator, as n // q + m = (n + m * q) // q."""
    kind = type(expr)
    if kind is Lit:
        return 0, expr.value, 1
    if kind is Param:
        return 0, params[expr.name], 1  # validate has checked that it is given
    if kind is Level:
        return 0, k, 1
    if kind is Prev or kind is Hist:  # a Markov bound reads only i_{k-1}
        return 1, 0, 1
    if kind is FloorDiv:
        num = _affine(expr.num, params, k)
        if num is None:
            return None
        a, c, q = num
        return (a, c, q * expr.div) if a else (0, c // expr.div, 1)
    if kind not in (Add, Sub, Mul):
        return None
    lhs, rhs = _affine(expr.lhs, params, k), _affine(expr.rhs, params, k)
    if lhs is None or rhs is None:
        return None
    if kind is Mul:  # a constant side m scales a whole other side
        if lhs[0]:
            lhs, rhs = rhs, lhs
        (index, m, _), (a, c, q) = lhs, rhs
        return (m * a, m * c, 1) if index == 0 and q == 1 else None
    if kind is Sub:
        a, c, q = rhs
        if q != 1:
            return None
        rhs = -a, -c, 1
    if lhs[2] != 1:
        lhs, rhs = rhs, lhs
    (a1, c1, whole), (a, c, q) = lhs, rhs
    if whole != 1:
        return None
    a, c = a + a1 * q, c + c1 * q  # the whole side joins the other's numerator
    return (a, c, q) if a else (0, c // q, 1)


def _gather(prefix: Sequence[int], lo: int, width: int, a: int, c: int, q: int) -> List[int]:
    """[prefix[max((a * v + c) // q, 0)] for v in lo..lo+width-1] by slices.

    Each q steps of v move the position by a, so each residue of v mod q reads
    one strided slice of prefix. The empty sums (position 0) are one leading
    run where a > 0, and one trailing run where a < 0, whose slices step down
    through prefix; they read prefix[0]. A constant position (a = 0) is one
    repeated entry."""
    if a == 0:
        return [prefix[max(c // q, 0)]] * width
    if a > 0:  # the offsets first.. have nonempty sums
        first, end = min(max((q - 1 - c) // a + 1 - lo, 0), width), width
    else:  # the offsets ..end - 1 have nonempty sums
        first, end = 0, min(max((c - q) // -a + 1 - lo, 0), width)
    out = [prefix[0]] * width
    for j in range(first, min(first + q, end)):
        p = (a * (lo + j) + c) // q
        stop = p + a * len(range(j, end, q))  # below 0 (a < 0) it would count from the end of prefix
        out[j:end:q] = prefix[p:stop if stop >= 0 else None:a]
    return out


def _negative_at(value: int, level: int, index: int) -> None:
    where = f"i{level}={index}" if level else "history ()"  # the table knows only i_level; level 0 is the root
    raise DomainError(f"body evaluated to {value} at {where}")


def unfold_display(program: SummationProgram) -> str:
    """Human-readable rendering: one sum(...) per level, then the body."""
    parts = []
    try:
        for k, spec in enumerate(program.levels, start=1):
            parts.append(f"sum(i{k}={spec.lower}..{render_expr(spec.bound, k)})")
        parts.append(render_expr(program.body, program.depth + 1))
    except ValueError as exc:  # a literal or divisor past the digit limit
        raise ValidationError(f"program display: {digit_limit(exc) or exc}") from None
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
            type(entry) is dict or isinstance(entry, Mapping) for entry in entries  # a dict skips the slow ABC check
        ):
            raise ValidationError(f"program levels must be a list of objects, got {entries!r}")
        shared: Dict[tuple, Any] = {}  # equal subtrees, and equal level records, as one object
        levels = []
        for entry in entries:
            spec = LevelSpec(entry["lower"], expr_from_dict(entry["bound"], shared))  # lower: an int, 0 or 1
            levels.append(shared.setdefault((LevelSpec, spec.lower, id(spec.bound)), spec))
        body = expr_from_dict(data["body"], shared)
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
    import json  # loaded only where a program is written or read as JSON

    try:
        return json.dumps(program_to_dict(program), sort_keys=True)
    except ValueError as exc:  # an integer past the digit limit
        raise ValidationError(f"program JSON: {digit_limit(exc) or exc}") from None


def program_from_json(text: str) -> SummationProgram:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"program is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("program JSON is nested too deeply") from None
    except ValueError as exc:  # not a JSONDecodeError: an integer past the digit limit
        raise ValidationError(f"program JSON: {digit_limit(exc) or exc}") from None
    return program_from_dict(data)
