"""Counted tables for programs that are not Markov: the memo keyed on live state.

engine.evaluate_counting loads this module for a program that the Markov
tables refuse. The state after level k is what the levels below still read
of the history, found from the program's one analysis
(SummationProgram._summary):
  - each index i_j, j <= k, that a deeper bound or the body reads, through
    Hist(j) or Prev one level down;
  - the running sum i_1 + ... + i_k, where SumHist is read below;
  - the running product, where ProdHist is read below.
Histories with one state have equal sums below them, so each reachable state
is summed once (live-variable dataflow: Aho, Lam, Sethi and Ullman,
Compilers, 2nd ed., 9.2.5). Markov programs are the case of one live index.

A level's states are grouped by their older key, every slot but the one that
moves with i_k. Where that slot moves by +1 per index (i_k itself, or the
running sum) a group is a dense window over it, and a parent's sum is a range
of the window: two writes to a row of differences, which one running sum
turns into counts (Blelloch, Prefix Sums and Their Applications,
CMU-CS-90-190). Where no slot moves with i_k, a parent has one child state,
taken as many times as it has indices; elsewhere (a running product, or two
slots that move) it finds its child states one by one, each with its
multiplicity. Each read then spreads the parents' counts
(_spread); a level that runs the code of the level above over the same
parents, reached at the same cells, reuses that step and only spreads.

forward runs every bound over the reachable states, outermost first, and
counts the histories through each state, so the walk's loops are known
before any body runs. The report is read off those counts, summed forward
(the inside and outside sums of a dynamic program over a DAG give one total:
Goodman, Semiring Parsing, Computational Linguistics 25(4), 1999). The body
reads only the innermost state, so the value is the sum over those states of
count times body, and likewise the body's additions; a sum of m >= 1 terms
costs m - 1 additions, so level k's sums cost the histories through level k
less those above it whose sum there opens, which forward tallies per level.
counted_tables is the one entry. Routed, as evaluate_counting calls it, it
leaves the program to the walk where forward stops early (engine._walks). The
rows are generated through expr.Source over the state's slots, once per
shape of a level read back from it (_back). A Markov program has no last_read
in its analysis; engine._counted_tables counts it forward the same way.
"""

from __future__ import annotations

from itertools import compress
from operator import add, gt, mul
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import engine
from .engine import EvalReport, SummationProgram, _lit_body, _spread
from .errors import DomainError, PreconditionError
from .expr import Expr, Hist, Lit, Prev, Reads, Source, additions_expr
from .record import Record

Label = Union[int, str]  # a state slot: an index j (i_j), "s" (the running sum) or "p" (the running product)
Group = Tuple[tuple, int, int, int]  # (older key, base, width, offset): cells base..base+width-1 of a window
Read = Tuple[str, Any, Any]  # how a level's parents read its row (_spread)
Found = Tuple[List[Group], Read, int, int]  # a level's groups, its read, its cells and its work


class Plan(NamedTuple):
    """forward's output: the innermost level's states, their counts of histories and, per level,
    the additions its sums cost."""

    program: SummationProgram
    labels: Tuple[Label, ...]  # the innermost state's slots; the last one is the window's where dense
    dense: bool
    groups: List[Group]  # the innermost level's cells, in row order
    counts: List[int]  # histories through each innermost cell; 0 where none reaches it
    sums: List[int]  # per level, outermost first: the histories through it less the sums opened there
    loops: int  # the walk's loops: the histories through every level it walks
    cells: int  # cells of every level, and child states found one by one


_ABSENT = (None, 0, 0)  # a dense parent that no history reaches or whose sum is empty: no key, an empty range


def _too_wide(k: int, width: int, what: str = "has {} states") -> None:
    if width > engine._MAX_WIDTH:
        raise PreconditionError(f"level {k} {what.format(width)}, past the {engine._MAX_WIDTH} cells a table may hold")


def _negative(value: int) -> None:
    raise DomainError(f"body evaluated to {value}")


class _Gen:
    """Generated code over the states after one level: a row of their cells, or a child state's key."""

    def __init__(self, params: Any, labels: Sequence[Label], dense: bool, level: int) -> None:
        names = {label: f"o{p}" for p, label in enumerate(labels)}
        if dense:
            names[labels[-1]] = "v"
        older = len(labels) - dense
        self.names, self.src = names, Source(params)
        self.src.env.update(_negative=_negative, _absent=_ABSENT)
        self.head = f"    {''.join(f'o{p}, ' for p in range(older))}= o\n" if older else ""
        # a subtree compiled apart reads a history sequence, which a state does not hold
        self.at = Reads(level, names.get(level - 1, ""), names.__getitem__, names.get("s", ""), names.get("p", ""), "_seq")

    def emit(self, expr: Expr) -> str:
        text = self.src.emit(expr, self.at)
        if "_seq" in text:
            raise PreconditionError("an expression nests too deeply for the state tables")
        return text

    def keep(self, labels: Sequence[Label]) -> str:
        """The slots of labels, as the items of a tuple display."""
        return "".join(f"{self.names[label]}, " for label in labels)

    def row(self, cell: str, absent: str) -> Callable[[tuple, int, List[int]], list]:
        """`_row(o, base, cnt)`: cell for each state of the group, absent where no history reaches it."""
        self.src.run(
            f"def _row(o, base, cnt):\n{self.head}"
            f"    return [({cell}) if n else {absent} for v, n in zip(range(base, base + len(cnt)), cnt)]\n",
            "exec",
        )
        return self.src.env["_row"]

    def key(self, key: str) -> Callable[[tuple, int, int], tuple]:
        """`_key(o, v, i)`: the child state of index i."""
        self.src.run(f"def _key(o, v, i):\n{self.head}    return {key}\n", "exec")
        return self.src.env["_key"]


def forward(program: SummationProgram, routed: bool = False) -> Optional[Plan]:
    """Validate, refuse a negative Lit body, then find each level's reachable states.

    Per level k, from the states after level k - 1 and their counts of
    histories: the slots of the state after level k (the live indices, then
    the slots that move with i_k), each parent's bound and child states, and
    the counts of the child states, the parents' counts spread over their
    children (_spread), and the level's additions, its histories less the
    parents' counts where a sum opens, read off the read before it spreads and
    not kept. Cells that no history reaches run no expression, so a
    level whose code object is the previous level's, over equal parents with
    the same cells at count 0, reuses the previous level's groups, read and
    work, whose widths have passed their checks. A level's code
    is generated once per shape: its bound and slots read back from the level
    (_back), its lower bound, and the level number where the program reads
    Level. A level of more cells than engine._MAX_WIDTH is refused before its
    counts are built, and a level whose child states are found one by one
    past that many. Routed, the plan is None, for the walk, as soon as
    engine._walks leaves the levels so far to it.
    """
    engine.validate(program)  # through the module, as the engine's own callers see it
    const = _lit_body(program)
    params, summary = program.params, program._summary
    sum_to, prod_to = summary.running
    last = summary.last_read
    # the root: S_0 = 0 and P_0 = 1 where they are read
    labels: Tuple[Label, ...] = ("s",) * (sum_to > 0) + ("p",) * (prod_to > 0)
    dense, groups, counts = False, [((0,) * (sum_to > 0) + (1,) * (prod_to > 0), 0, 1, 0)], [1]
    live: List[int] = []
    made: Dict[tuple, Tuple[str, Callable, Optional[Callable]]] = {}  # by bound object and slots
    shaped: Dict[tuple, Tuple[str, Callable, Optional[Callable]]] = {}  # by level-relative shape
    sums: List[int] = []
    loops = cells = 0
    step: tuple = ()  # the previous level's code, parents and their counts, and what it found
    for k, spec in enumerate(program.levels, 1):
        live = [j for j in live if last.get(j, 0) > k] + [k] * (last.get(k, 0) > k)
        older = tuple(j for j in live if j < k)
        moves = (k in live, k < sum_to, k < prod_to)  # the slots that move with i_k: i_k, the running sum, product
        level = summary.reads_level and k  # bound into the code where it reads Level
        by_object = (id(spec.bound), spec.lower, labels, dense, older, moves, level)
        code = made.get(by_object)
        if code is None:  # a new bound object or new slots: look up the shape, read back from k
            shape = (_back(spec.bound, k), spec.lower, _back(labels, k), dense, _back(older, k), moves, level)
            code = shaped.get(shape)
            if code is None:
                code = shaped[shape] = _code(params, labels, dense, k, spec, older, moves)
            made[by_object] = code
        how, row, key = code
        # the previous level's step, where this level runs its code over the same reached parents
        if step and code is step[0] and groups == step[1] and list(map(bool, counts)) == list(map(bool, step[2])):
            found = step[3]
        elif how == "one":
            found = _single(groups, counts, row)
        elif how == "range":
            found = _windows(k, groups, counts, row)
        else:
            found = _each(k, groups, counts, row, spec.lower, key)
        step = (code, groups, counts, found)
        groups, read, width, work = found
        _, a, b = read  # the parents whose sum opens: a range past its start, a child taken, or kids
        opened = sum(compress(counts, map(gt, b, a) if how == "range" else b if how == "one" else a))
        counts = _spread(read, counts, width)
        through = sum(counts)
        sums.append(through - opened)
        labels = (*older, *[label for label, moved in zip((k, "s", "p"), moves) if moved])
        dense = how == "range"
        cells += work
        if k < program.depth or const is None:  # a Lit body's innermost sum is not walked
            loops += through
        if routed and engine._walks(cells, loops):
            return None
    return Plan(program, labels, dense, groups, counts, sums, loops, cells)


def _back(at: Any, k: int) -> Any:
    """What level k's generated code reads of an expression or a tuple of slots: each index as
    the number of levels back it is (de Bruijn indices), so Prev is Hist(k - 1) and a137273's
    Hist(k - 2) + Hist(k - 1) is one shape at every level; every other node as its kind and fields."""
    kind = type(at)
    if kind is Hist or kind is Prev:
        return k - at.index if kind is Hist else 1
    if kind is tuple:
        return tuple(k - label if type(label) is int else label for label in at)
    shape = [kind]
    for name in kind._fields:  # a loop, not a comprehension: one frame per node, as validation takes
        value = getattr(at, name)
        shape.append(_back(value, k) if isinstance(value, Record) else value)
    return tuple(shape)


def _code(params: Any, labels: Tuple[Label, ...], dense: bool, k: int, spec: Any, older: Tuple[int, ...],
          moves: Tuple[bool, bool, bool]) -> Tuple[str, Callable, Optional[Callable]]:
    """Level k's code over the states after level k - 1: how its parents read it, the row of
    their cells and, where each index's child state is found apart, its key function."""
    gen = _Gen(params, labels, dense, k)
    bound, lower, keep = gen.emit(spec.bound), spec.lower, gen.keep(older)
    names = gen.names
    if not any(moves):  # one child state, taken once per index
        return "one", gen.row(f"(({keep}), max({bound} - {lower} + 1, 0))", "(None, 0)"), None
    if moves in ((True, False, False), (False, True, False)):  # a dense window over i_k, or over the running sum
        c = "0" if moves[0] else names["s"]  # the window's coordinate less i_k
        return "range", gen.row(f"(({keep}), {c} + {lower}, {c} + b + 1) if (b := {bound}) >= {lower} else _absent", "_absent"), None
    moved = [text for text, moved in zip(("i", f"({names.get('s')} + i)", f"({names.get('p')} * i)"), moves) if moved]
    return "kids", gen.row(bound, "None"), gen.key(f"({keep}{''.join(f'{text}, ' for text in moved)})")


def _windows(k: int, groups: List[Group], counts: List[int], row: Callable) -> Found:
    """A dense level: one window per older key, the hull of its parents' ranges, and each
    parent's range as (start, stop) into the prefix sums of the level's row, the windows laid
    end to end."""
    ranges: List[Tuple[Optional[tuple], int, int]] = []
    for o, base, width, off in groups:
        ranges += row(o, base, counts[off:off + width])
    hull: Dict[tuple, List[int]] = {}
    for key, s, e in ranges:
        if key is not None:
            h = hull.get(key)
            if h is None:
                hull[key] = [s, e]
            else:
                if s < h[0]:
                    h[0] = s
                if e > h[1]:
                    h[1] = e
    out: List[Group] = []
    at: Dict[Optional[tuple], int] = {None: 0}  # a flat position is at[key] + the window coordinate
    width = 0
    for key, (s, e) in hull.items():
        at[key] = width - s
        out.append((key, s, e - s, width))
        width += e - s
    _too_wide(k, width)
    keys, starts, stops = zip(*ranges) if ranges else ((), (), ())
    offsets = list(map(at.__getitem__, keys))
    return out, ("range", list(map(add, offsets, starts)), list(map(add, offsets, stops))), width, width


def _single(groups: List[Group], counts: List[int], row: Callable) -> Found:
    """A level where no slot moves with its index: each parent's one child state and its
    multiplicity, the number of its indices."""
    found: List[Tuple[Optional[tuple], int]] = []
    for o, base, width, off in groups:
        found += row(o, base, counts[off:off + width])
    index: Dict[tuple, int] = {}
    cells = [index.setdefault(child, len(index)) if m else 0 for child, m in found]
    times = [m for _, m in found]
    return [(child, 0, 1, j) for child, j in index.items()], ("one", cells, times), len(index), len(index)


def _each(k: int, groups: List[Group], counts: List[int], row: Callable, lower: int,
          key: Callable) -> Found:
    """A level whose state moves with its index in another way (a running product, or two slots):
    each parent's child states key(o, v, i) for i in lower..bound, as (cell, multiplicity) pairs."""
    index: Dict[tuple, int] = {}
    kids: List[List[Tuple[int, int]]] = []
    edges = 0
    for o, base, width, off in groups:
        for v, b in zip(range(base, base + width), row(o, base, counts[off:off + width])):
            if b is None or b < lower:
                kids.append([])
                continue
            edges += b - lower + 1
            _too_wide(k, edges, "finds {} child states one by one")
            tally: Dict[tuple, int] = {}
            for i in range(lower, b + 1):
                child = key(o, v, i)
                tally[child] = tally.get(child, 0) + 1
            kids.append([(index.setdefault(child, len(index)), m) for child, m in tally.items()])
    return [(child, 0, 1, j) for child, j in index.items()], ("kids", kids, None), len(index), len(index) + edges


def counts(plan: Plan) -> EvalReport:
    """The tallies (value, additions, leaves) read off the innermost states' counts of histories.

    The body reads only the innermost state, so the leaves are the sum of
    the counts, and the value and the body's additions the counts dotted with
    a row of the body and of its additions_expr, each a product with the
    leaves where it is a Lit (a negative Lit body is refused by forward). The
    sums' additions are forward's, per level.
    """
    program, groups, weights = plan.program, plan.groups, plan.counts
    leaves = sum(weights)

    def tally(expr: Expr, negative: bool) -> int:
        if type(expr) is Lit:
            return expr.value * leaves
        gen = _Gen(program.params, plan.labels, plan.dense, program.depth + 1)
        text = gen.emit(expr)
        row = gen.row(f"(w if (w := {text}) >= 0 else _negative(w))" if negative else text, "0")
        total = 0
        for o, base, width, off in groups:
            cnt = weights[off:off + width]
            total += sum(map(mul, row(o, base, cnt), cnt))
        return total

    value = tally(program.body, True)
    return EvalReport(value, sum(plan.sums) + tally(additions_expr(program.body), False), leaves)


def counted_tables(program: SummationProgram, routed: bool = False) -> Optional[EvalReport]:
    """evaluate_counting(program) by the state tables, with their errors; routed, None, for the
    walk, where the forward pass stops early."""
    plan = forward(program, routed)
    return None if plan is None else counts(plan)
