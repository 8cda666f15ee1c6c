"""Engine cross-checks against a naive recursive reference, plus validation and Markov paths."""

import copy
import importlib.util
import json
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from moessner import cli, engine, states
from moessner import expr as expr_module
from moessner.engine import (
    EvalReport,
    LevelSpec,
    SummationProgram,
    evaluate,
    evaluate_counting,
    evaluate_memoized,
    is_markov,
    level_tables,
    normalize_params,
    program_from_dict,
    program_from_json,
    program_to_dict,
    program_to_json,
    unfold_display,
    validate,
)
from moessner.errors import (
    DomainError,
    MoessnerError,
    ParameterError,
    PreconditionError,
    ValidationError,
)
from moessner.expr import (
    Add,
    FloorDiv,
    Hist,
    IfZero,
    Level,
    Lit,
    Mul,
    Param,
    Prev,
    ProdHist,
    Sub,
    SumHist,
    Table,
    eval_expr,
    eval_expr_counted,
    validate_expr,
)
from moessner.presets import build, expected


def reference_evaluate(program):
    """Direct recursion over the levels; deliberately slow and obvious."""
    depth = program.depth
    params = program.params

    def go(level, history):
        if level > depth:
            v = eval_expr(program.body, params, depth + 1, history)
            if v < 0:
                raise DomainError(f"body evaluated to {v} at history {history}")
            return v
        spec = program.levels[level - 1]
        hi = eval_expr(spec.bound, params, level, history)
        return sum(go(level + 1, history + (i,)) for i in range(spec.lower, hi + 1))

    return go(1, ())


def reference_counting(program):
    """(value, additions, leaves): each sum of m >= 1 terms costs m - 1."""
    depth = program.depth
    params = program.params

    def go(level, history):
        if level > depth:
            v, adds = eval_expr_counted(program.body, params, depth + 1, history)
            return v, adds, 1
        spec = program.levels[level - 1]
        hi = eval_expr(spec.bound, params, level, history)
        terms = [go(level + 1, history + (i,)) for i in range(spec.lower, hi + 1)]
        if not terms:
            return 0, 0, 0
        value = sum(t[0] for t in terms)
        adds = sum(t[1] for t in terms) + len(terms) - 1
        leaves = sum(t[2] for t in terms)
        return value, adds, leaves

    v, a, l = go(1, ())
    return EvalReport(value=v, additions=a, leaves=l)


PRESET_SAMPLES = [
    ("moessner", {"x": 4, "n": 3}),
    ("moessner", {"x": 2, "n": 5}),
    ("moessner_stolid", {"x": 3, "n": 3}),
    ("binomial", {"x": 6, "n": 3}),
    ("multiset", {"x": 4, "n": 3}),
    ("catalan", {"n": 6}),
    ("catalan_from_one", {"n": 5}),
    ("catalan_convolved", {"x": 2, "n": 5}),
    ("a002293", {"n": 4}),
    ("fibonacci", {"n": 9}),
    ("euler_zigzag", {"n": 6}),
    ("factorial_rising", {"n": 5}),
    ("factorial_falling", {"n": 5}),
    ("factorial_permuted", {"n": 4, "f": (2, 0, 3, 1)}),
    ("factorial_multiple", {"x": 3, "n": 3}),
    ("product_of_table", {"n": 2, "f": (3, 1, 4)}),
    ("rosen_triple", {"n1": 2, "n2": 3, "n3": 4}),
    ("positive_integers", {"n": 5}),
    ("a125860", {"x": 1, "n": 4}),
    ("a137273", {"n": 7}),
    ("a002449", {"n": 3, "b": 2}),
    ("a002449_irwin", {"n": 4}),
    ("fibonacci_lahlou", {"n": 7}),
    ("long1", {"x": 3, "n": 3, "a": 2}),
    ("long2", {"x": 3, "n": 2, "a": 1, "d": 3}),
    ("xfold_factorial", {"x": 2, "n": 4}),
]


@pytest.mark.parametrize("name,params", PRESET_SAMPLES, ids=lambda v: str(v))
def test_evaluate_matches_reference_on_presets(name, params):
    prog = build(name, params)
    assert evaluate(prog) == reference_evaluate(prog)


@pytest.mark.parametrize("name,params", PRESET_SAMPLES, ids=lambda v: str(v))
def test_counting_matches_reference_on_presets(name, params):
    prog = build(name, params)
    got = evaluate_counting(prog)
    assert got == reference_counting(prog)
    assert got.value == evaluate(prog)


# random well-founded programs: bounds keep indices small, bodies stay nonnegative
_bound_head = st.one_of(st.integers(0, 3).map(Lit), st.just(Param("x")))
# a level 1 this wide makes level 2's table wider than engine._NARROW: its affine levels take slices
_wide_head = st.integers(10, 14).map(Lit)


def _later_bound(k):
    opts = [
        Lit(0),
        Lit(2),
        Param("x"),
        Prev(),
        Hist(k - 1),
        Add(Prev(), Lit(1)),
        Sub(Prev(), Lit(1)),
        Sub(Lit(1), Prev()),
        Mul(Lit(2), Prev()),
        FloorDiv(Mul(Lit(3), Prev()), 2),
        SumHist(),
        IfZero(Prev(), Lit(2), Sub(Prev(), Lit(1))),
        # the running product, kept small
        Sub(Lit(3), ProdHist()),
        FloorDiv(ProdHist(), 16),
    ]
    if k >= 3:  # indices further back than the previous one
        opts += [Add(Hist(k - 2), Hist(k - 1)), Hist(1), Add(Hist(1), Lit(1))]
    return st.one_of(st.sampled_from(opts), _affine_bound(k))


def _affine_bound(k):
    """(a*i_{k-1} + c) // q, with i_{k-1} spelled Prev or Hist(k-1) and c a literal, maybe plus Level or x.

    A falling bound (a < 0) is spelled c - |a|*i_{k-1}, with c up to 16 so that
    the first indices have nonempty sums and the last ones may not."""

    def bound(a, prev, c, extra, q):
        index = Mul(Lit(abs(a)), prev)
        num = Add(index, Lit(c)) if a >= 0 else Sub(Lit(c), index)
        num = num if extra is None else Add(num, extra)
        return FloorDiv(num, q) if q > 1 else num

    prevs, extras, qs = st.sampled_from((Prev(), Hist(k - 1))), st.sampled_from((None, Level(), Param("x"))), st.integers(1, 5)
    rising = st.builds(bound, st.integers(0, 4), prevs, st.integers(-3, 3), extras, qs)
    falling = st.builds(bound, st.integers(-4, -1), prevs, st.integers(0, 16), extras, qs)
    return st.one_of(rising, falling)


_bodies = st.sampled_from(
    [Lit(1), Lit(3), Lit(0), Param("x"), Prev(), Add(Prev(), Lit(1)), SumHist(),
     Mul(Prev(), Prev()), Add(Mul(Lit(2), Prev()), Level()),
     # branch-dependent counts: the condition costs 1, then 1, else 2
     IfZero(Sub(Add(Prev(), Lit(1)), Lit(2)), Add(Prev(), Lit(1)), Add(Add(Prev(), Prev()), Lit(1))),
     # table index arithmetic is not counted; indices stay below _TABLE's length
     Add(Table(Add(Prev(), Lit(1))), Lit(1)),
     FloorDiv(Add(Prev(), Level()), 2),
     Sub(Add(Prev(), Lit(2)), Lit(1)),
     # the history past the innermost index
     Hist(1), ProdHist(), Add(SumHist(), Prev()), Mul(Hist(1), Prev())]
)
# depth 0: the body stands at level 1, with no enclosing index to read
_root_bodies = st.sampled_from(
    [Lit(1), Lit(0), Param("x"), Level(), SumHist(), Add(Param("x"), Level()),
     Add(Table(Param("x")), Lit(1)),
     IfZero(Param("x"), Add(Param("x"), Lit(1)), Add(Add(Param("x"), Param("x")), Lit(1)))]
)
# The largest index each level can reach, over every bound the generator draws (x <= 3): a rising
# affine bound at level k reads at most 4 * i_{k-1} + 3 + max(k, 3), a falling one at most
# 16 + max(k, 3), SumHist the indices' sum, Hist(k-2) + Hist(k-1) two of them, Hist(1) + 1 and
# 3 - ProdHist little, and ProdHist // 16 the indices' product over 16; a reused bound is one of
# these at the next level. Level 1 reads at most 3, so the levels reach at most 3, 19 (falling),
# 4 * 19 + 6 = 82 and 4 * 82 + 7 = 335 (past 3 + 19 + 82 = 104 and 3 * 19 * 82 // 16 = 291). A wide
# level 1 (at most 14) comes only at depth <= 3, which reaches at most 14, 62 and 4 * 62 + 6 = 254.
# Table(Prev() + 1) reads at most f[336].
_TABLE = tuple(i * 7 % 5 for i in range(337))


@st.composite
def _programs(draw):
    depth = draw(st.integers(0, 4))
    levels = []
    for k in range(1, depth + 1):
        lower = draw(st.sampled_from((0, 1)))
        if k == 1:
            bound = draw(_bound_head if depth == 4 else st.one_of(_bound_head, _wide_head))
        elif draw(st.integers(0, 3)) == 0:  # the previous level's bound object, at either lower
            bound = levels[-1].bound
        else:
            bound = draw(_later_bound(k))
        levels.append(LevelSpec(lower, bound))
    body = draw(_bodies if depth else _root_bodies)
    x = draw(st.integers(0, 3))
    return SummationProgram(depth, tuple(levels), body, {"x": x, "f": _TABLE})


@given(_programs())
@settings(max_examples=250, deadline=None)
def test_evaluate_matches_reference_on_random_programs(prog):
    assert evaluate(prog) == reference_evaluate(prog)
    assert evaluate_counting(prog) == reference_counting(prog)
    if is_markov(prog):
        assert evaluate_memoized(prog) == evaluate(prog)


def _through_rows(program):
    """The same program with each bound behind an IfZero that always takes it:
    the same values, but no bound is affine, so every level is a generated row."""
    levels = tuple(LevelSpec(spec.lower, IfZero(Lit(1), Lit(0), spec.bound)) for spec in program.levels)
    return SummationProgram(program.depth, levels, program.body, program.params)


@given(_programs().filter(is_markov))
@settings(max_examples=200, deadline=None)
def test_memoized_tables_match_the_row_path_on_random_programs(prog):
    assert list(level_tables(prog)) == list(level_tables(_through_rows(prog)))


def test_constant_bounds_commute():
    # with constant bounds and a constant body the level order is irrelevant
    bounds = (2, 0, 3)
    progs = [
        SummationProgram(3, tuple(LevelSpec(0, Lit(b)) for b in order), Lit(5))
        for order in ((2, 0, 3), (3, 2, 0), (0, 3, 2))
    ]
    values = {evaluate(p) for p in progs}
    assert values == {3 * 1 * 4 * 5}
    del bounds


def test_depth_zero():
    prog = SummationProgram(0, (), Add(Param("x"), Lit(2)), {"x": 7})
    assert evaluate(prog) == 9
    assert evaluate_counting(prog) == EvalReport(value=9, additions=1, leaves=1)
    assert evaluate_memoized(prog) == 9


_F0 = (4, 0, 6)
_BRANCH = IfZero(Param("x"), Add(Param("x"), Lit(1)), Param("x"))  # costs 1 when x = 0, else 0


@pytest.mark.parametrize(
    "body,x",
    [
        (Lit(0), 1),
        (Lit(5), 1),
        (Add(Param("x"), Lit(2)), 1),  # a constant cost per leaf: additions_expr is Lit(1)
        (_BRANCH, 0),
        (_BRANCH, 2),
        (Table(Param("x")), 2),
    ],
    ids=["lit0", "lit5", "const_cost", "branch_taken", "branch_not_taken", "table_hit"],
)
def test_depth_zero_matches_the_references(body, x):
    prog = SummationProgram(0, (), body, {"x": x, "f": _F0})
    value = eval_expr(body, prog.params, 1, ())
    adds = eval_expr_counted(body, prog.params, 1, ())[1]
    assert evaluate(prog) == value
    assert evaluate_counting(prog) == EvalReport(value=value, additions=adds, leaves=1)
    assert evaluate_memoized(prog) == value


@pytest.mark.parametrize(
    "body,error,text",
    [
        (Lit(-3), DomainError, "body evaluated to -3 at history ()"),
        (Sub(Param("x"), Lit(4)), DomainError, "body evaluated to -3 at history ()"),
        (Table(Add(Param("x"), Lit(2))), ParameterError, "table index 3 outside f of length 3"),
    ],
    ids=["negative_lit", "negative_expr", "table_miss"],
)
def test_depth_zero_errors_match_the_references(body, error, text):
    prog = SummationProgram(0, (), body, {"x": 1, "f": _F0})
    if error is ParameterError:
        with pytest.raises(ParameterError) as ref:
            eval_expr(body, prog.params, 1, ())
        assert str(ref.value) == text
    else:
        assert eval_expr(body, prog.params, 1, ()) == -3
    for evaluator in (evaluate, evaluate_counting, evaluate_memoized):
        with pytest.raises(error) as got:
            evaluator(prog)
        assert str(got.value) == text, evaluator.__name__


def test_empty_outermost_sum():
    prog = SummationProgram(1, (LevelSpec(1, Lit(0)),), Lit(7))
    assert evaluate(prog) == 0
    assert evaluate_counting(prog) == EvalReport(value=0, additions=0, leaves=0)
    assert evaluate_memoized(prog) == 0


def test_empty_inner_sums_cost_nothing():
    # i1 in 0..2; i2 in 0..i1-1 is empty at i1=0, then 1 and 2 terms
    prog = SummationProgram(
        2,
        (LevelSpec(0, Lit(2)), LevelSpec(0, Sub(Prev(), Lit(1)))),
        Lit(5),
    )
    assert evaluate(prog) == 15
    # outer folds 3 terms (2 adds); inner sums fold 0, 1 and 2 terms (0+0+1)
    assert evaluate_counting(prog) == EvalReport(value=15, additions=3, leaves=3)
    assert evaluate_memoized(prog) == 15


def test_negative_body_raises_with_history():
    prog = SummationProgram(1, (LevelSpec(0, Lit(3)),), Sub(Lit(1), Prev()))
    with pytest.raises(DomainError, match=r"body evaluated to -1 at history \(2,\)"):
        evaluate(prog)
    with pytest.raises(DomainError):
        evaluate_counting(prog)
    prog0 = SummationProgram(0, (), Sub(Lit(0), Lit(3)))
    for evaluator in (evaluate, evaluate_memoized):
        with pytest.raises(DomainError, match=r"body evaluated to -3 at history \(\)$"):
            evaluator(prog0)
    lit_neg = SummationProgram(1, (LevelSpec(0, Lit(2)),), Lit(-4))
    with pytest.raises(DomainError):
        evaluate(lit_neg)


def test_memoized_negative_body_names_the_innermost_index():
    # i2 <= i1, so no history (0, 2) exists; the table only knows i2
    prog = SummationProgram(2, (LevelSpec(0, Lit(3)), LevelSpec(0, Prev())), Sub(Lit(1), Prev()))
    with pytest.raises(DomainError, match=r"at history \(2, 2\)"):
        evaluate(prog)
    with pytest.raises(DomainError, match=r"body evaluated to -1 at i2=2$"):
        evaluate_memoized(prog)


def test_validate_structure_errors():
    with pytest.raises(ValidationError, match="depth"):
        SummationProgram(2, (LevelSpec(0, Lit(1)),), Lit(1))
    with pytest.raises(ValidationError, match="lower bound"):
        LevelSpec(2, Lit(1))
    # level-1 bound cannot read an enclosing index: there is none
    bad = SummationProgram(1, (LevelSpec(0, Prev()),), Lit(1))
    with pytest.raises(ValidationError):
        validate(bad)
    # a bound may only see strictly earlier levels
    bad2 = SummationProgram(
        2, (LevelSpec(0, Lit(1)), LevelSpec(0, Hist(2))), Lit(1)
    )
    with pytest.raises(ValidationError):
        validate(bad2)


def test_validate_parameter_errors():
    with pytest.raises(ParameterError, match="unknown parameter"):
        validate(SummationProgram(0, (), Lit(1), {"q": 1}))
    with pytest.raises(ParameterError, match="missing parameters"):
        validate(SummationProgram(1, (LevelSpec(0, Param("x")),), Lit(1)))
    with pytest.raises(ParameterError, match="natural"):
        validate(SummationProgram(0, (), Lit(1), {"x": -1}))
    with pytest.raises(ParameterError, match="natural"):
        validate(SummationProgram(0, (), Lit(1), {"x": True}))
    with pytest.raises(ParameterError, match="table"):
        validate(SummationProgram(1, (LevelSpec(0, Table(Lit(0))),), Lit(1)))
    with pytest.raises(ParameterError, match="entries"):
        normalize_params({"f": (1, -2)})
    with pytest.raises(ParameterError, match="entries"):
        normalize_params({"f": (1, True)})
    assert normalize_params({"f": [1, 2]}) == {"f": (1, 2)}


def test_is_markov_classification():
    markov = [
        ("moessner", {"x": 3, "n": 3}),
        ("moessner_stolid", {"x": 2, "n": 3}),
        ("binomial", {"x": 4, "n": 2}),
        ("catalan", {"n": 5}),
        ("fibonacci", {"n": 6}),
        ("euler_zigzag", {"n": 5}),
        ("factorial_permuted", {"n": 3, "f": (2, 0, 1)}),
        ("product_of_table", {"n": 2, "f": (2, 3, 4)}),
        ("a002449", {"n": 3, "b": 2}),
        ("a002449_irwin", {"n": 3}),
    ]
    for name, params in markov:
        assert is_markov(build(name, params)), name
    not_markov = [
        ("a125860", {"x": 1, "n": 3}),       # SumHist in a bound
        ("a137273", {"n": 5}),               # reaches two levels back
        ("positive_integers", {"n": 4}),     # ProdHist in a bound
    ]
    for name, params in not_markov:
        assert not is_markov(build(name, params)), name

    body_sumhist = SummationProgram(1, (LevelSpec(0, Lit(2)),), SumHist())
    assert not is_markov(body_sumhist)
    body_prev_ok = SummationProgram(1, (LevelSpec(0, Lit(2)),), Prev())
    assert is_markov(body_prev_ok)
    hist_equiv = SummationProgram(
        2, (LevelSpec(0, Lit(2)), LevelSpec(0, Hist(1))), Lit(1)
    )
    assert is_markov(hist_equiv)
    hist_too_far = SummationProgram(
        3, (LevelSpec(0, Lit(2)), LevelSpec(0, Prev()), LevelSpec(0, Hist(1))), Lit(1)
    )
    assert not is_markov(hist_too_far)


def test_each_expression_is_walked_once(monkeypatch):
    walks = []

    def counted(expr, level, *, role):
        walks.append(role)
        return validate_expr(expr, level, role=role)

    monkeypatch.setattr(engine, "validate_expr", counted)
    prog = build("fibonacci", {"n": 50})
    # one walk per distinct expression object: levels 2..50 share one bound
    assert len({id(spec.bound) for spec in prog.levels} | {id(prog.body)}) == 3
    assert walks == ["level 1 bound", "level 2 bound", "body"]
    validate(prog)
    assert is_markov(prog)
    assert evaluate_memoized(prog) == 20365011074
    assert len(walks) == 3


def _reference_summary(program):
    """The analysis one level at a time: every expression walked at its own level, by role."""
    params, reads_table, reads_level, markov, sum_to, prod_to, last_read = set(), False, False, True, 0, 0, {}
    roles = [(k, f"level {k} bound", spec.bound) for k, spec in enumerate(program.levels, start=1)]
    for level, role, expr in roles + [(program.depth + 1, "body", program.body)]:
        refs = validate_expr(expr, level, role=role)
        params |= refs["params"]
        reads_table, reads_level = reads_table or refs["table"], reads_level or refs["level"]
        markov = markov and not refs["sum_hist"] and not refs["prod_hist"] and refs["hist"] <= {level - 1}
        sum_to, prod_to = (level if refs["sum_hist"] else sum_to), (level if refs["prod_hist"] else prod_to)
        for j in refs["hist"]:
            last_read[j] = level
        if refs["prev"]:
            last_read[level - 1] = level
    return engine._Summary(frozenset(params), reads_table, reads_level, markov, (sum_to, prod_to),
                           None if markov else last_read)


# Module-level objects, so a draw can share one bound over a run of levels, in several runs,
# and with the body. Prev is invalid at level 1, Hist(j) at levels up to j, Lit(True) anywhere.
_SHARED = [Prev(), Hist(1), Hist(2), Hist(3), SumHist(), ProdHist(), Lit(2), Lit(True), Param("x"), Level(),
           Add(Prev(), Hist(1)), Sub(Lit(3), Hist(2)), Table(Prev()), Mul(SumHist(), Hist(1)), Add(Prev(), ProdHist())]


@st.composite
def _shared_runs(draw):
    """Levels as runs that share one bound object ([LevelSpec(lower, bound)] * length), or
    equal bounds as one object per level; the body one of the same objects or a Lit."""
    levels = []
    for _ in range(draw(st.integers(0, 5))):
        bound, length, lower = draw(st.sampled_from(_SHARED)), draw(st.integers(1, 4)), draw(st.sampled_from((0, 1)))
        if draw(st.booleans()):
            levels += [LevelSpec(lower, bound)] * length
        else:
            levels += [LevelSpec(lower, copy.deepcopy(bound)) for _ in range(length)]
    body = draw(st.sampled_from([*_SHARED, Lit(1)]))
    return SummationProgram(len(levels), tuple(levels), body, {"x": 1})


@given(_shared_runs())
@settings(max_examples=400, deadline=None)
def test_run_folded_analysis_matches_the_per_level_one(prog):
    want = _outcome(_reference_summary, prog)
    got = _outcome(lambda program: program._summary, prog)
    assert got == want
    if isinstance(want, engine._Summary) and want.last_read is not None:
        assert list(got.last_read.items()) == list(want.last_read.items())  # in the same order too


def test_validate_rechecks_params_every_call():
    params = {"x": 2}
    prog = SummationProgram(1, (LevelSpec(0, Param("x")),), Lit(1), params)
    validate(prog)
    del params["x"]
    with pytest.raises(ParameterError, match="missing parameters"):
        validate(prog)
    params["x"] = -1
    with pytest.raises(ParameterError, match="natural"):
        evaluate(prog)


def test_malformed_program_raises_on_every_call():
    bad = SummationProgram(1, (LevelSpec(0, Prev()),), Lit(1))
    for _ in range(2):
        for check in (validate, is_markov, evaluate, evaluate_counting, evaluate_memoized):
            with pytest.raises(ValidationError, match="Prev is undefined"):
                check(bad)


def test_memoized_runs_every_bound_before_any_body():
    # i1 in 0..1, i2 in 0..f[i1]: the walk meets the body -1 at (0, 1) before
    # reading f[1]; the tables evaluate level 2's bound at i1 = 0 and 1 first
    prog = SummationProgram(
        2, (LevelSpec(0, Lit(1)), LevelSpec(0, Table(Prev()))), Sub(Lit(0), Prev()), {"f": (1,)}
    )
    for walk in (evaluate, evaluate_counting):
        with pytest.raises(DomainError, match=r"body evaluated to -1 at history \(0, 1\)$"):
            walk(prog)
    with pytest.raises(ParameterError, match=r"^table index 1 outside f of length 1$"):
        evaluate_memoized(prog)


MEMOIZED_GRID = [
    ("moessner", [{"x": x, "n": n} for x in range(5) for n in range(5)]),
    ("binomial", [{"x": x, "n": n} for x in range(6) for n in range(4)]),
    ("catalan", [{"n": n} for n in range(8)]),
    ("fibonacci", [{"n": n} for n in range(11)]),
    ("euler_zigzag", [{"n": n} for n in range(8)]),
    ("a002449_irwin", [{"n": n} for n in range(1, 6)]),
    ("fibonacci_lahlou", [{"n": n} for n in range(2, 9)]),
]


@pytest.mark.parametrize("name,grid", MEMOIZED_GRID, ids=lambda v: str(v)[:24])
def test_memoized_agrees_with_plain(name, grid):
    for params in grid:
        prog = build(name, params)
        assert evaluate_memoized(prog) == evaluate(prog), (name, params)


@pytest.mark.parametrize("name,grid", MEMOIZED_GRID, ids=lambda v: str(v)[:24])
def test_memoized_slices_gather_the_tables_rows_do(name, grid):
    for params in grid:
        prog = build(name, params)
        assert list(level_tables(prog)) == list(level_tables(_through_rows(prog))), (name, params)


def test_memoized_slices_cut_the_leading_empty_sums():
    # i1 in 0..top, i2 up to (a*i1 + c) // q: a negative c empties the sums of the first i1, residue by residue;
    # level 1 is as wide as a positions list may be, or wider
    for top in (engine._NARROW - 1, engine._NARROW + 4):
        for a in range(1, 5):
            for q in range(1, 6):
                for c in range(-12, 3):
                    for lower in (0, 1):
                        bound = FloorDiv(Add(Mul(Lit(a), Prev()), Lit(c)), q)
                        prog = SummationProgram(2, (LevelSpec(0, Lit(top)), LevelSpec(lower, bound)), Add(Prev(), Lit(1)))
                        tables = list(level_tables(prog))
                        assert tables == list(level_tables(_through_rows(prog))), (top, a, q, c, lower)
                        assert tables[-1] == [reference_evaluate(prog)], (top, a, q, c, lower)


def test_memoized_slices_cut_the_trailing_empty_sums():
    # i1 in 0..top, then two levels that share one falling bound (c - a*i) // q: a larger c fills more of
    # the sums, from all empty to all full; level 1 is as wide as a positions list may be, or wider
    for top in (engine._NARROW - 1, engine._NARROW + 4):
        for a in range(1, 5):
            for q in range(1, 6):
                for c in range(-1, a * top + q + 1):
                    for lower in (0, 1):
                        falling = LevelSpec(lower, FloorDiv(Sub(Lit(c), Mul(Lit(a), Prev())), q))
                        prog = SummationProgram(3, (LevelSpec(0, Lit(top)), falling, falling), Add(Prev(), Lit(1)))
                        tables = list(level_tables(prog))
                        assert tables == list(level_tables(_through_rows(prog))), (top, a, q, c, lower)
                        assert tables[-1] == [reference_evaluate(prog)], (top, a, q, c, lower)


def test_memoized_repeated_levels_reuse_their_step(monkeypatch):
    forms, hashes, rows = [], [], []
    level_form, row, sub_hash = engine._level_form, engine._row, Sub.__hash__
    monkeypatch.setattr(engine, "_level_form", lambda *args: forms.append(args) or level_form(*args))
    monkeypatch.setattr(Sub, "__hash__", lambda self: hashes.append(self) or sub_hash(self))
    prog = build("fibonacci", {"n": 2000})  # one bound object for levels 2..2000
    tables = list(level_tables(prog))
    assert tables[-1] == [expected("fibonacci", {"n": 2000})]
    # one form per bound, and the shared bound is hashed only by its first lookup (get, then set)
    assert len(forms) == 2 and len(hashes) == 2
    forms.clear()
    loaded = program_from_json(program_to_json(prog))  # equal bounds, but one object per level
    assert list(level_tables(loaded)) == tables
    assert len(forms) == 2

    def counted(*args):  # counts the calls of each generated row, which builds a step
        made = row(*args)
        return lambda lo, hi: rows.append((lo, hi)) or made(lo, hi)

    monkeypatch.setattr(engine, "_row", counted)
    assert list(level_tables(_through_rows(prog))) == tables
    # level 1, level 2 over the root's 0..0, and one step for the 1,998 levels below, each over 0..1
    assert rows == [(0, 0), (0, 0), (0, 1)]


def test_affine_bounds_generate_no_rows(monkeypatch):
    made = []
    row = engine._row

    def counted(params, expr, k, lower):
        made.append(lower)
        return row(params, expr, k, lower)

    monkeypatch.setattr(engine, "_row", counted)
    # fibonacci and euler_zigzag subtract the index (a < 0): their bounds are gathered as well
    for name, params in (
        ("moessner", {"x": 4, "n": 6}),
        ("catalan", {"n": 7}),
        ("binomial", {"x": 5, "n": 4}),
        ("xfold_factorial", {"x": 3, "n": 5}),
        ("fibonacci", {"n": 8}),
        ("euler_zigzag", {"n": 7}),
        ("euler_zigzag", {"n": 60}),  # wide enough that its falling levels take slices
    ):
        made.clear()
        assert evaluate_memoized(build(name, params)) == expected(name, params), name
        assert all(lower is None for lower in made), name


@pytest.mark.parametrize(
    "bound,form",
    [
        (Lit(4), (0, 4, 1)),
        (Add(Param("x"), Level()), (0, 10, 1)),  # x = 7 at level 3
        (Hist(2), (1, 0, 1)),
        (Sub(Mul(Lit(3), Prev()), Lit(2)), (3, -2, 1)),
        (Mul(Sub(Prev(), Param("x")), Lit(2)), (2, -14, 1)),
        (FloorDiv(Add(FloorDiv(Mul(Lit(3), Prev()), 2), Lit(1)), 4), (3, 2, 8)),  # nested floors: q multiplies
        (Add(Lit(5), FloorDiv(Prev(), 3)), (1, 15, 3)),
        (FloorDiv(Sub(Level(), Lit(1)), 2), (0, 1, 1)),
        (Sub(Prev(), Prev()), (0, 0, 1)),
        (Sub(Lit(1), Prev()), (-1, 1, 1)),  # a < 0: recognised, then left to a row
        (Sub(Lit(1), FloorDiv(Prev(), 2)), None),
        (Add(FloorDiv(Prev(), 2), FloorDiv(Prev(), 3)), None),
        (Mul(Lit(2), FloorDiv(Prev(), 3)), None),
        (Mul(Prev(), Prev()), None),
        (Table(Prev()), None),
        (IfZero(Lit(1), Lit(0), Prev()), None),
    ],
    ids=str,
)
def test_affine_forms(bound, form):
    # (a * v + c) // q at i_2 = v, against the reference interpreter
    assert engine._affine(bound, {"x": 7, "f": _TABLE}, 3) == form
    if form is not None:
        a, c, q = form
        for v in range(-4, 12):
            assert (a * v + c) // q == eval_expr(bound, {"x": 7, "f": _TABLE}, 3, (0, v))


def test_memoized_refuses_a_level_past_the_width_cap():
    huge = 10**21  # far past the cap: nothing of that size is ever built
    wide_row = IfZero(Lit(1), Lit(0), Mul(Lit(huge), Prev()))  # not affine: level 2 is a generated row
    for prog, level, width in (
        (build("moessner_stolid", {"x": huge, "n": 1}), 1, huge + 1),
        (build("moessner", {"x": huge, "n": 2}), 1, huge + 1),
        (SummationProgram(2, (LevelSpec(1, Param("x")), LevelSpec(0, wide_row)), Prev(), {"x": huge}), 1, huge),
        (SummationProgram(2, (LevelSpec(0, Lit(1)), LevelSpec(0, Mul(Lit(huge), Prev()))), Lit(1)), 2, huge + 1),
        (SummationProgram(2, (LevelSpec(0, Lit(1)), LevelSpec(1, wide_row)), Prev()), 2, huge),
    ):
        message = f"^level {level} has width {width}, past the {engine._MAX_WIDTH} cells a table may hold$"
        with pytest.raises(PreconditionError, match=message):
            evaluate_memoized(prog)


def test_walk_refuses_a_level_1_past_the_width_cap():
    huge, cap = 10**21, engine._MAX_WIDTH
    for prog, width in (
        (build("moessner", {"x": huge, "n": 2}), huge + 1),
        (SummationProgram(1, (LevelSpec(0, Lit(cap)),), Prev()), cap + 1),
        (SummationProgram(1, (LevelSpec(1, Lit(cap + 1)),), Param("x"), {"x": 1}), cap + 1),
        (SummationProgram(2, (LevelSpec(1, Param("x")), LevelSpec(0, Prev())), Prev(), {"x": huge}), huge),
        (SummationProgram(2, (LevelSpec(0, Param("x")), LevelSpec(0, Param("x"))), Lit(1), {"x": cap}), cap + 1),
    ):
        message = f"^level 1 has width {width}, past the {cap} indices the walk may visit$"
        for run in (evaluate, evaluate_counting):
            with pytest.raises(PreconditionError, match=message):
                run(prog)



def test_walk_admits_a_level_1_at_the_width_cap(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_WIDTH", 3)  # read when the nest is generated
    for bound, lower in ((2, 0), (3, 1)):
        prog = SummationProgram(2, (LevelSpec(lower, Lit(bound)), LevelSpec(0, Lit(0))), Lit(3))
        assert evaluate(prog) == 9 and evaluate_counting(prog) == EvalReport(9, 2, 3)
        wider = SummationProgram(2, (LevelSpec(lower, Lit(bound + 1)), LevelSpec(0, Lit(0))), Lit(3))
        for run in (evaluate, evaluate_counting):
            with pytest.raises(PreconditionError, match="^level 1 has width 4, past the 3 indices the walk may visit$"):
                run(wider)


def test_walk_sums_a_depth_1_lit_body_at_any_width():
    # one multiplication and no loop: level 1 is never walked, so no width is refused
    huge = 10**21
    for prog, report in (
        (build("moessner_stolid", {"x": huge, "n": 1}), EvalReport(huge + 1, huge, huge + 1)),
        (build("moessner", {"x": huge, "n": 1}), EvalReport(huge + 1, huge, huge + 1)),
        (SummationProgram(1, (LevelSpec(1, Lit(huge)),), Lit(3)), EvalReport(3 * huge, huge - 1, huge)),
    ):
        assert evaluate(prog) == report.value
        assert evaluate_counting(prog) == report
    for x in range(4):  # the same counts as the reference, where it can walk
        prog = build("moessner_stolid", {"x": x, "n": 1})
        assert evaluate_counting(prog) == reference_counting(prog) == EvalReport(x + 1, x, x + 1)


def test_memoized_rejects_non_markov():
    with pytest.raises(PreconditionError, match="Markov"):
        evaluate_memoized(build("a125860", {"x": 1, "n": 3}))
    with pytest.raises(PreconditionError):
        evaluate_memoized(build("a137273", {"n": 4}))


def test_memoized_reuses_rows_only_where_they_are_equal():
    step = Add(Prev(), Lit(1))
    # one bound at levels of lower 0 and lower 1: prefix positions bound + 1 and bound
    lowers = SummationProgram(
        4, (LevelSpec(0, Lit(2)), LevelSpec(0, step), LevelSpec(1, step), LevelSpec(0, step)), Prev()
    )
    # one Level-reading bound at several levels: i_k in 0..k - i_{k-1}
    by_level = SummationProgram(
        5, (LevelSpec(0, Lit(3)),) + (LevelSpec(0, Sub(Level(), Prev())),) * 4, Add(Prev(), Lit(1))
    )
    # a body equal to a bound: values, not positions
    body_as_bound = SummationProgram(3, (LevelSpec(0, Lit(3)), LevelSpec(0, step), LevelSpec(0, step)), step)
    for prog in (lowers, by_level, body_as_bound):
        assert evaluate_memoized(prog) == evaluate(prog) == reference_evaluate(prog)


def test_memoized_keeps_the_walk_errors_and_deep_expressions():
    def chain(base, leaf):  # 600 nested nodes: 300 * leaf + base - 600
        expr = Lit(base)
        for i in range(600):
            expr = Sub(expr, Lit(i % 5)) if i % 2 else Add(leaf, expr)
        return expr

    # i1 in 0..2, i2 in 0..300*i1 - 599 (0..1 at i1 = 2), i3 in 0..300*i2 - 1 read
    # through Hist(2), and the body 300*i3: every subtree past the nesting limit
    prog = SummationProgram(
        3,
        (LevelSpec(0, Lit(2)), LevelSpec(0, chain(1, Prev())), LevelSpec(0, chain(599, Hist(2)))),
        chain(600, Prev()),
    )
    assert evaluate_memoized(prog) == evaluate(prog) == reference_evaluate(prog) == 300 * 299 * 300 // 2

    miss = SummationProgram(2, (LevelSpec(0, Lit(3)), LevelSpec(0, Table(Prev()))), Lit(1), {"f": (1, 2)})
    errors = []
    for evaluator in (evaluate, evaluate_memoized):
        with pytest.raises(ParameterError) as caught:
            evaluator(miss)
        errors.append(str(caught.value))
    assert errors == ["table index 2 outside f of length 2"] * 2


def test_memoized_compiles_one_text_per_row_shape():
    # euler_zigzag's bounds differ at every level, in literals only
    for name, params in (("fibonacci", {"n": 8000}), ("catalan", {"n": 200}), ("euler_zigzag", {"n": 200})):
        prog = build(name, params)
        expr_module._shape_code.cache_clear()
        evaluate_memoized(prog)
        assert expr_module._shape_code.cache_info().misses <= 3, name


def test_unfold_display():
    assert (
        unfold_display(build("moessner", {"x": 3, "n": 3}))
        == "sum(i1=0..x) sum(i2=0..2*i1) sum(i3=0..3*i2/2) 1"
    )
    assert unfold_display(build("moessner", {"x": 5, "n": 0})) == "1"
    assert (
        unfold_display(build("catalan", {"n": 4}))
        == "sum(i1=0..0) sum(i2=0..i1+1) sum(i3=0..i2+1) sum(i4=0..i3+1) 1"
    )
    assert (
        unfold_display(build("fibonacci", {"n": 3}))
        == "sum(i1=0..0) sum(i2=0..1-i1) sum(i3=0..1-i2) 1"
    )
    assert (
        unfold_display(build("a002449_irwin", {"n": 3}))
        == "sum(i1=1..2) sum(i2=1..2*i1) sum(i3=1..2*i2) 2*i3"
    )


def test_unfold_display_names_the_level():
    prog = SummationProgram(2, (LevelSpec(0, Level()), LevelSpec(1, Sub(Level(), Prev()))), Mul(Level(), Prev()))
    assert unfold_display(prog) == "sum(i1=0..level) sum(i2=1..level-i1) level*i2"


ROUND_TRIP_PRESETS = [
    ("moessner", {"x": 3, "n": 4}),
    ("factorial_permuted", {"n": 3, "f": (1, 2, 0)}),
    ("a125860", {"x": 1, "n": 3}),
    ("fibonacci_lahlou", {"n": 5}),
    ("long2", {"x": 2, "n": 2, "a": 0, "d": 2}),
]


@pytest.mark.parametrize("name,params", ROUND_TRIP_PRESETS, ids=lambda v: str(v)[:24])
def test_program_serialization_round_trip(name, params):
    prog = build(name, params)
    again = program_from_dict(program_to_dict(prog))
    assert again == prog
    assert evaluate(again) == evaluate(prog)
    assert program_from_json(program_to_json(prog)) == prog


@given(_programs())
@settings(max_examples=100, deadline=None)
def test_every_valid_program_serializes(prog):
    # every node kind serializes, so no valid program is refused
    assert program_from_dict(program_to_dict(prog)) == prog
    assert program_from_json(program_to_json(prog)) == prog


def test_program_load_validates():
    data = program_to_dict(build("moessner", {"x": 2, "n": 2}))
    data["params"]["x"] = -3
    with pytest.raises(ParameterError):
        program_from_dict(data)
    data2 = program_to_dict(build("moessner", {"x": 2, "n": 2}))
    data2["depth"] = 5
    with pytest.raises(ValidationError):
        program_from_dict(data2)


def test_counting_report_example():
    assert evaluate_counting(build("moessner_stolid", {"x": 2, "n": 3})) == EvalReport(
        value=27, additions=26, leaves=27
    )


def test_bool_is_not_an_int_literal_or_lower_bound():
    with pytest.raises(ValidationError, match="literal"):
        validate(SummationProgram(1, (LevelSpec(0, Lit(2)),), Lit(True)))
    with pytest.raises(ValidationError, match="lower bound"):
        LevelSpec(True, Lit(2))
    with pytest.raises(ValidationError):
        program_from_dict({"depth": 1, "levels": [{"lower": False, "bound": {"node": "Lit", "value": 2}}],
                           "body": {"node": "Lit", "value": 1}})


def test_program_load_rejects_deep_nesting_and_odd_tags():
    deep = {"node": "Lit", "value": 1}
    for _ in range(5000):
        deep = {"node": "Add", "lhs": deep, "rhs": {"node": "Lit", "value": 1}}
    with pytest.raises(ValidationError, match="nested too deeply"):
        program_from_dict({"depth": 0, "levels": [], "body": deep})
    with pytest.raises(ValidationError, match="unknown expression node tag"):
        program_from_dict({"depth": 0, "levels": [], "body": {"node": ["Add"]}})


def test_hist_index_must_be_an_int():
    def one_level(index):
        return {"depth": 2, "levels": [{"lower": 0, "bound": {"node": "Lit", "value": 2}},
                                       {"lower": 0, "bound": {"node": "Hist", "index": index}}],
                "body": {"node": "Lit", "value": 1}}

    for index in ("a", True, 1.0, None):
        with pytest.raises(ValidationError, match="history index"):
            program_from_dict(one_level(index))
    with pytest.raises(ValidationError, match="history index"):
        validate(SummationProgram(2, (LevelSpec(0, Lit(2)), LevelSpec(0, Hist(True))), Lit(1)))
    assert evaluate(program_from_dict(one_level(1))) == 6


def test_program_from_json_rejects_malformed_text():
    with pytest.raises(ValidationError, match="not valid JSON"):
        program_from_json("{")
    deep = '{"node": "Table", "index": ' * 100_000 + '{"node": "Lit", "value": 0}' + "}" * 100_000
    with pytest.raises(ValidationError, match="nested too deeply"):
        program_from_json('{"depth": 0, "levels": [], "body": ' + deep + "}")
    for text in ("[1]", '"x"', "3", "null"):
        with pytest.raises(ValidationError, match="must be an object"):
            program_from_json(text)


# program dicts with arbitrary JSON values put in place of some of their fields
_json_keys = st.text(max_size=2) | st.sampled_from(["node", "index", "lhs", "lower", "f", "x"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_keys, inner, max_size=3),
    max_leaves=6,
)
_FUZZ_BASES = [
    program_to_dict(build(name, params))
    for name, params in [
        ("long2", {"x": 2, "n": 2, "a": 1, "d": 2}),
        ("factorial_permuted", {"n": 3, "f": (1, 2, 0)}),
        ("a125860", {"x": 1, "n": 2}),
        ("positive_integers", {"n": 3}),
        ("a137273", {"n": 4}),
        ("fibonacci_lahlou", {"n": 4}),
    ]
] + [{"depth": 1, "levels": [{"lower": 1, "bound": {"node": "Param", "name": "x"}}],
      "body": {"node": "Add", "lhs": {"node": "Level"}, "rhs": {"node": "Lit", "value": 1}},
      "params": {"x": 2}}]


def _paths(data, path=()):
    yield path
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _paths(value, path + (key,))
    elif isinstance(data, list):
        for key, value in enumerate(data):
            yield from _paths(value, path + (key,))


@st.composite
def _mangled_program_dicts(draw):
    data = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        value = draw(_json_values)
        if not path:
            return value
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return data


@given(_mangled_program_dicts())
@settings(max_examples=400, deadline=None)
def test_program_from_dict_takes_any_json(data):
    for load in (program_from_dict, lambda d: program_from_json(json.dumps(d))):
        try:
            program = load(data)
        except MoessnerError:
            continue
        assert isinstance(program, SummationProgram)


def test_negative_body_names_first_history_in_walk_order():
    cases = [
        (SummationProgram(1, (LevelSpec(1, Lit(5)),), Sub(Lit(3), Prev())), r"\(4,\)"),
        (
            SummationProgram(
                2, (LevelSpec(0, Lit(2)), LevelSpec(0, Prev())), Sub(Lit(2), Add(Prev(), Hist(1)))
            ),
            r"\(2, 1\)",
        ),
        # the inner sum is empty at i1 = 1, and the body goes negative at (2, 2)
        (
            SummationProgram(
                2,
                (LevelSpec(0, Lit(3)), LevelSpec(0, IfZero(Sub(Prev(), Lit(1)), Lit(-1), Prev()))),
                Sub(Lit(3), Add(Prev(), Hist(1))),
            ),
            r"\(2, 2\)",
        ),
        (SummationProgram(2, (LevelSpec(0, Lit(2)), LevelSpec(0, Prev())), Lit(-1)), r"\(\)"),
    ]
    for prog, history in cases:
        for evaluator in (evaluate, evaluate_counting):
            with pytest.raises(DomainError, match=r"body evaluated to -1 at history " + history):
                evaluator(prog)


# Programs deeper than one generated block (engine._BLOCK levels) run as a
# chain of generated functions; these compare them with the references on
# both sides of each block boundary.
_K = engine._BLOCK


def _empty_sum_levels(program):
    """The levels at which some sum of the walk is empty."""
    levels = set()

    def go(level, history):
        if level <= program.depth:
            spec = program.levels[level - 1]
            hi = eval_expr(spec.bound, program.params, level, history)
            if hi < spec.lower:
                levels.add(level)
            for i in range(spec.lower, hi + 1):
                go(level + 1, history + (i,))

    go(1, ())
    return levels


def _zigzag_step(k):
    """(lower, c) with i_k in lower..c-i_{k-1}: in 1..2-i_{k-1}, 1 follows 1 and a 2
    cuts the next sum; the level before each block boundary branches into 0..3-i_{k-1}."""
    return (0, 3) if k % _K == _K - 1 else (1, 2)


def _zigzag_level(k):
    if k == 1:
        return LevelSpec(1, Lit(2))
    lower, c = _zigzag_step(k)
    return LevelSpec(lower, Sub(Lit(c), Prev()))


def _sum_hist_level(k):
    # i_1 + ... + i_k <= 2; levels K and K+1 must take at least 1
    return LevelSpec(int(k in (_K, _K + 1)), Sub(Lit(2), SumHist()))


def _prod_hist_level(k):
    # positive_integers with a lower bound 1 at every K-th level
    return LevelSpec(int(k % _K == 0), Lit(1) if k == 1 else ProdHist())


_DEEP_BODIES = [
    Lit(2),
    Add(Mul(Hist(1), Lit(3)), Prev()),
    Add(SumHist(), ProdHist()),
    IfZero(Prev(), Add(Hist(1), Lit(1)), Add(Add(SumHist(), Prev()), Lit(1))),
]


@pytest.mark.parametrize("depth", [_K - 1, _K, _K + 1, 2 * _K + 1])
@pytest.mark.parametrize("level", [_zigzag_level, _sum_hist_level, _prod_hist_level], ids=lambda f: f.__name__)
def test_deep_nests_match_reference_across_blocks(depth, level):
    levels = tuple(level(k) for k in range(1, depth + 1))
    for body in _DEEP_BODIES:
        prog = SummationProgram(depth, levels, body)
        assert evaluate(prog) == reference_evaluate(prog)
        assert evaluate_counting(prog) == reference_counting(prog)
    cuts = _empty_sum_levels(SummationProgram(depth, levels, Lit(1)))
    if depth > _K:  # empty sums at the last level of a block, and (but for ProdHist) at the first of the next
        assert ({_K} if level is _prod_hist_level else {_K, _K + 1}) <= cuts


def test_negative_body_names_a_history_spanning_two_blocks():
    # i1 in 0..1 in the first block, i_{K+2} in 0..2 in the second; all others 0
    depth = _K + 2
    levels = (LevelSpec(0, Lit(1)),) + (LevelSpec(0, Lit(0)),) * _K + (LevelSpec(0, Lit(2)),)
    prog = SummationProgram(depth, levels, Sub(Lit(2), Add(Hist(1), Prev())))
    history = re.escape(str((1,) + (0,) * _K + (2,)))
    for evaluator in (evaluate, evaluate_counting):
        with pytest.raises(DomainError, match=r"body evaluated to -1 at history " + history + "$"):
            evaluator(prog)


# Programs that can raise. Expressions call no user code, so the order in which
# the walks evaluate bounds and bodies shows only in which error comes first.
# Bounds and bodies read past an f of length 0 to 4, and bodies go negative
# (but for a negative Lit body, which is refused before any sum opens). Every
# bound is at most 1 and f holds 0s and 1s, so each index is 0 or 1. A deep
# program, across the block boundary, draws at most 4 of its levels from these
# lists and sums 1..1 at the others, so no walk has more than 16 leaves.
_FIRST_BOUNDS = [Lit(1), Table(Lit(0)), Table(Lit(2))]
_LATER_BOUNDS = [
    Lit(1),
    Prev(),
    Sub(Lit(1), Prev()),
    Sub(Prev(), Lit(1)),
    Sub(Lit(1), SumHist()),
    ProdHist(),
    Table(Prev()),
    Table(Sub(Prev(), Lit(1))),
    Table(Add(Prev(), Lit(2))),
    Sub(Table(Prev()), Prev()),
    FloorDiv(Table(Hist(1)), 2),
    IfZero(Prev(), Table(Lit(3)), Lit(1)),
]
_RAISING_BODIES = [
    Lit(0),
    Lit(2),
    Prev(),
    Sub(Prev(), Lit(1)),
    Sub(Lit(1), SumHist()),
    Sub(ProdHist(), Hist(1)),
    Sub(Table(Prev()), Hist(1)),
    Mul(Table(Add(Prev(), Lit(1))), Lit(2)),
    IfZero(Sub(Prev(), Lit(1)), Lit(3), Sub(Lit(0), Table(Hist(1)))),
    # the additions of the IfZero read f at i_d, the value reads f[3] first
    Add(Table(Lit(3)), IfZero(Table(Prev()), Add(Prev(), Lit(1)), Lit(0))),
]


@st.composite
def _raising_programs(draw, depths):
    depth = draw(depths)
    drawn = range(1, depth + 1) if depth <= 4 else draw(st.sets(st.integers(1, depth), min_size=1, max_size=4))
    levels = [LevelSpec(1, Lit(1))] * depth  # a level not drawn passes the one index 1 on
    for k in drawn:
        bounds = _FIRST_BOUNDS if k == 1 else _LATER_BOUNDS
        levels[k - 1] = LevelSpec(draw(st.sampled_from((0, 1))), draw(st.sampled_from(bounds)))
    f = tuple(draw(st.lists(st.integers(0, 1), max_size=4)))
    return SummationProgram(depth, tuple(levels), draw(st.sampled_from(_RAISING_BODIES)), {"f": f})


def _outcome(evaluator, program):
    try:
        return evaluator(program)
    except MoessnerError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("depths", [st.integers(1, 4), st.integers(_K - 1, _K + 2)], ids=["shallow", "deep"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_walks_raise_the_references_first_error(depths, data):
    prog = data.draw(_raising_programs(depths))
    want = _outcome(reference_evaluate, prog)
    assert _outcome(evaluate, prog) == want
    if isinstance(want, int):
        assert evaluate_counting(prog) == reference_counting(prog)
    else:
        assert _outcome(evaluate_counting, prog) == want


def test_counted_walk_evaluates_the_body_before_its_additions():
    # the value reads f[3] first; the additions of the IfZero read f[i1] = f[1]
    body = Add(Table(Lit(3)), IfZero(Table(Prev()), Add(Prev(), Lit(1)), Lit(0)))
    prog = SummationProgram(1, (LevelSpec(1, Lit(1)),), body, {"f": (0,)})
    for evaluator in (reference_evaluate, evaluate, evaluate_counting):
        with pytest.raises(ParameterError, match=r"^table index 3 outside f of length 1$"):
            evaluator(prog)


@pytest.mark.parametrize("depth", [_K + 1, _K + 2])
def test_walk_order_holds_across_blocks(depth):
    # zigzag levels, but level K+1 sums up to f[i_K - 1]: i_K is 1 and then 2, so
    # with f = (2,) the second branch misses f in the second block; a body
    # t - (i_1 + ... + i_depth) goes negative before that miss or only after it
    levels = [_zigzag_level(k) for k in range(1, depth + 1)]
    levels[_K] = LevelSpec(1, Table(Sub(Prev(), Lit(1))))
    seen = set()
    for f in ((2,), (2, 2)):
        for t in range(depth - 3, depth + 4):
            prog = SummationProgram(depth, tuple(levels), Sub(Lit(t), SumHist()), {"f": f})
            want = _outcome(reference_evaluate, prog)
            assert _outcome(evaluate, prog) == want
            if isinstance(want, int):
                assert evaluate_counting(prog) == reference_counting(prog)
            else:
                assert _outcome(evaluate_counting, prog) == want
            seen.add(want if isinstance(want, int) else want[0])
    assert {DomainError, ParameterError} <= seen and any(isinstance(v, int) for v in seen)


def _deep_chain(base):
    """600 nested nodes, past the parser's limit for one expression: 300 * Prev + base - 600."""
    expr = Lit(base)
    for i in range(600):
        expr = Sub(expr, Lit(i % 5)) if i % 2 else Add(Prev(), expr)
    return expr


def test_deep_expression_chains_in_bounds_and_body():
    # the bound is 300*i1 - 599 (so i2 in 0..1 at i1 = 2, empty before), the body 300*i2
    chain = _deep_chain
    prog = SummationProgram(2, (LevelSpec(0, Lit(2)), LevelSpec(0, chain(1))), chain(600))
    assert evaluate(prog) == reference_evaluate(prog) == 300
    assert evaluate_counting(prog) == reference_counting(prog)
    # the outer sum folds 3 terms, the inner one 2, and each of the 2 leaves costs 300
    assert evaluate_counting(prog).additions == 2 + 1 + 2 * 300


def test_deep_expression_chains_display():
    # one frame per node: the display reaches as deep as the evaluators do
    def text(base, index):  # the chain as rendered: no parentheses, Prev as the enclosing index
        out = str(base)
        for i in range(600):
            out = f"{out}-{i % 5}" if i % 2 else f"{index}+{out}"
        return out

    prog = SummationProgram(2, (LevelSpec(0, Lit(2)), LevelSpec(0, _deep_chain(1))), _deep_chain(600))
    assert unfold_display(prog) == f"sum(i1=0..2) sum(i2=0..{text(1, 'i1')}) {text(600, 'i2')}"


def test_memoized_gives_a_row_to_a_bound_too_deep_to_hash_or_analyse(monkeypatch):
    # the one guard in level_tables covers both the form cache's key and the affine analysis
    prog = build("moessner", {"x": 3, "n": 3})

    def too_deep(*args):
        raise RecursionError

    with monkeypatch.context() as patched:
        patched.setattr(engine, "_affine", too_deep)
        assert evaluate_memoized(prog) == 64
    with monkeypatch.context() as patched:
        patched.setattr(Mul, "__hash__", too_deep)  # every level-k bound, k >= 2, is a Mul
        assert evaluate_memoized(prog) == 64


def test_program_output_past_the_digit_limit_names_the_limit(default_digit_limit):
    wide = build("moessner", {"x": 10**5000, "n": 1})
    literal = SummationProgram(1, (LevelSpec(0, Lit(10**5000)),), Lit(1))
    divisor = SummationProgram(1, (LevelSpec(0, FloorDiv(Lit(1), 10**5000)),), Lit(1))
    for write, program in (
        (program_to_json, wide),
        (program_to_json, literal),
        (unfold_display, literal),
        (unfold_display, divisor),
    ):
        with pytest.raises(ValidationError, match=f"limit of {default_digit_limit} digits"):
            write(program)
    assert unfold_display(wide) == "sum(i1=0..x) 1"  # the display names parameters, not their values


def test_nest_code_cache_is_bounded():
    for n in range(1, 101):
        assert evaluate(build("positive_integers", {"n": n})) == n + 1
    assert expr_module._shape_code.cache_info().currsize <= 64


def test_walk_refuses_programs_deeper_than_its_call_chain():
    def flat(depth):
        return SummationProgram(depth, (LevelSpec(0, Lit(1)),) + (LevelSpec(0, Lit(0)),) * (depth - 1), Hist(1))

    assert evaluate(flat(3 * _K)) == 1
    for evaluator in (evaluate, evaluate_counting):
        with pytest.raises(PreconditionError, match=f"depth {engine._MAX_DEPTH + 1} is past"):
            evaluator(flat(engine._MAX_DEPTH + 1))


def test_program_json_past_the_digit_limit_is_a_validation_error(default_digit_limit):
    text = program_to_json(build("moessner", {"x": 1, "n": 1})).replace('"x": 1', '"x": ' + "9" * 5000)
    with pytest.raises(ValidationError, match=f"limit of {default_digit_limit} digits"):
        program_from_json(text)


# The counted tables (engine._counted_tables) are called directly here: through
# evaluate_counting, a table that raised would be rescued by the walk unseen.
@given(_programs().filter(is_markov))
@settings(max_examples=250, deadline=None)
def test_counted_tables_match_the_reference_on_random_programs(prog):
    want = _outcome(reference_counting, prog)
    if isinstance(want, EvalReport):
        assert engine._counted_tables(prog) == want


@pytest.mark.parametrize("name,grid", MEMOIZED_GRID, ids=lambda v: str(v)[:24])
def test_counted_tables_match_the_reference_on_the_memo_grid(name, grid):
    for params in grid:
        prog = build(name, params)
        assert engine._counted_tables(prog) == reference_counting(prog), (name, params)


@pytest.mark.parametrize("name,params", PRESET_SAMPLES, ids=lambda v: str(v))
def test_counted_tables_match_the_reference_on_presets(name, params):
    prog = build(name, params)
    if is_markov(prog):
        assert engine._counted_tables(prog) == reference_counting(prog)


def _refusing_tables(program):
    raise AssertionError("the tables ran")


def test_shallow_programs_keep_the_walk(monkeypatch):
    # depth <= 1, or depth 2 with a Lit body: the walk opens at most one loop, and the tables never run
    monkeypatch.setattr(engine, "_forward", _refusing_tables)
    shallow = [
        SummationProgram(0, (), Add(Param("x"), Lit(2)), {"x": 7}),
        SummationProgram(1, (LevelSpec(0, Lit(5)),), Add(Prev(), Lit(1))),
        SummationProgram(1, (LevelSpec(1, Lit(5)),), Lit(3)),
        build("moessner", {"x": 6, "n": 1}),
        build("moessner", {"x": 6, "n": 2}),
        build("moessner_stolid", {"x": 6, "n": 2}),
        build("fibonacci", {"n": 2}),
    ]
    for prog in shallow:
        assert is_markov(prog)
        assert evaluate_counting(prog) == reference_counting(prog)
    # a deeper Markov program runs the tables' forward pass, which picks the route
    for prog in (build("moessner", {"x": 2, "n": 3}), SummationProgram(2, (LevelSpec(0, Lit(2)), LevelSpec(0, Prev())), Prev())):
        with pytest.raises(AssertionError, match="the tables ran"):
            evaluate_counting(prog)


def _walk_loops(prog):
    # the loops at level k are the value of the first k levels over a body of 1; a Lit body's
    # innermost level is summed unwalked
    m = prog.depth - isinstance(prog.body, Lit)
    return sum(evaluate(SummationProgram(k, prog.levels[:k], Lit(1), prog.params)) for k in range(1, m + 1))


@given(_programs().filter(is_markov))
@settings(max_examples=250, deadline=None)
def test_walks_weighs_the_walks_loops(prog):
    # past _PLANNED cells the forward pass weighs the plan once, with the walk's loops over every
    # level it walks, and never where the walk loops over no level
    m = prog.depth - isinstance(prog.body, Lit)
    try:
        loops = _walk_loops(prog)
        engine._steps(prog)
    except MoessnerError:
        return
    weighed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PLANNED", -1)
        patch.setattr(engine, "_walks", lambda cells, loops: weighed.append(loops) or False)
        try:
            engine._counted_tables(prog, routed=True)
        except MoessnerError:  # a body error, raised after the bounds and the weighing
            pass
    assert weighed == [loops] * (m > 0)


def _naive_through(counts, positions, top):
    return [sum(n for n, p in zip(counts, positions) if p > j) for j in range(top)]


def _positions(step):
    if type(step) is list:
        return step
    lo, width, a, c, q = step
    return [max((a * v + c) // q, 0) for v in range(lo, lo + width)]


def _with_counts(step):
    parents = len(_positions(step))
    return st.tuples(st.just(step), st.lists(st.integers(0, 50), min_size=parents, max_size=parents))


_affine_steps = st.tuples(st.integers(0, 10), st.integers(1, 40), st.integers(-4, 4), st.integers(-20, 20), st.integers(1, 5))
_position_lists = st.lists(st.integers(0, 6) | st.integers(0, 40), min_size=1, max_size=20)


@given(st.one_of(_affine_steps, _position_lists).flatmap(_with_counts))
@example(((0, 12, -1, 11, 1), list(range(1, 13))))  # falling, past _NARROW
@example(((2, 12, 3, -4, 2), list(range(12, 0, -1))))  # rising by 3 every 2 indices
@example(((0, 3, 0, 2, 1), [1, 2, 3]))  # constant
@example(([0, 3, 3, 1, 0, 2], [1, 2, 3, 4, 5, 6]))  # repeated and zero positions
@settings(max_examples=400, deadline=None)
def test_forward_step_counts_the_histories_through_each_cell(found):
    step, counts = found
    positions = _positions(step)
    top = max(positions)
    assert engine._take(range(top + 1), step) == positions
    assert engine._through(counts, step, top) == (sum(counts), _naive_through(counts, positions, top))


@given(_position_lists.flatmap(_with_counts))
@example(([0, 3, 3, 1, 0, 2], [1, 2, 3, 4, 5, 6]))
@settings(max_examples=200, deadline=None)
def test_forward_step_reads_a_runs_transpose(found):
    # a run of one list step, as parents by falling position and how many pass each cell
    positions, counts = found
    top = max(positions)
    run = sorted(range(len(positions)), key=positions.__getitem__, reverse=True), [sum(p > j for p in positions) for j in range(top)]
    assert engine._through(counts, run, top) == (sum(counts), _naive_through(counts, positions, top))


def _sparse(w, body, depth=2):
    # level 1 in 0..1, level 2 in 0..w*i1 (and level 3 in 0..i2): the parents share no cells
    levels = (LevelSpec(0, Lit(1)), LevelSpec(0, Mul(Lit(w), Prev())), LevelSpec(0, Prev()))
    return SummationProgram(depth, levels[:depth], body)


@pytest.mark.parametrize(
    "prog,cells,walks",
    [
        (_sparse(2000, Add(Prev(), Lit(1))), 1 + 2 + 2001, True),
        (_sparse(2000, Lit(1), depth=3), 1 + 2 + 2001, True),
        (_sparse(500, Add(Prev(), Lit(1))), 1 + 2 + 501, False),
        (_sparse(500, Lit(1), depth=3), 1 + 2 + 501, False),
        (_sparse(1000, Add(Prev(), Lit(1)), depth=3), 1 + 2 + 1001 + 1001, False),
        (build("moessner", {"x": 3, "n": 4}), 1 + 4 + 7 + 10, False),
        (build("factorial_rising", {"n": 6}), 1 + 2 + 3 + 4 + 5 + 6, False),
    ],
    ids=["sparse-closure", "sparse-lit", "sparse-closure-planned", "sparse-lit-planned", "sparse-depth-3", "moessner",
         "factorial_rising"],
)
def test_counting_routes_by_loops_against_cells(monkeypatch, prog, cells, walks):
    # the walk keeps a program whose plan holds more than _PLANNED cells (every window its steps
    # cover, the innermost one only for a closure body) and whose loops come to at most
    # _LOOPS_PER_CELL per cell; a smaller plan always takes the tables
    walked = _walk_loops(prog)
    assert walks == (cells > engine._PLANNED and walked <= engine._LOOPS_PER_CELL * cells)
    want = reference_counting(prog)
    assert engine._counted_tables(prog) == want
    nests = []
    monkeypatch.setattr(engine, "_nest", lambda *args, _nest=engine._nest: nests.append(args) or _nest(*args))
    assert evaluate_counting(prog) == want
    assert len(nests) == walks  # the tables answered exactly where the walk did not run


@pytest.mark.parametrize("prog", [_sparse(20000, Add(Prev(), Lit(1))), _sparse(20000, Lit(1), depth=3)],
                         ids=["closure", "lit"])
def test_routed_walks_build_no_wide_window(monkeypatch, prog):
    # level 2's 20001 cells are weighed from level 1's 2 by their positions, and never built
    want = engine._counted_tables(prog)
    nests, tops = [], []
    monkeypatch.setattr(engine, "_nest", lambda *args, _nest=engine._nest: nests.append(args) or _nest(*args))
    monkeypatch.setattr(engine, "_through", lambda counts, step, top, _t=engine._through: tops.append(top) or _t(counts, step, top))
    assert evaluate_counting(prog) == want
    assert (len(nests), tops) == (1, [2])


def test_planned_markov_programs_take_the_tables_unrouted(monkeypatch):
    # a plan of at most _PLANNED cells answers by the tables without weighing the walk's loops
    monkeypatch.setattr(engine, "_walks", lambda *args: pytest.fail("the plan was weighed"))
    monkeypatch.setattr(engine, "_nest", lambda *args: pytest.fail("the walk ran"))
    for prog in (build("moessner", {"x": 2, "n": 3}), _sparse(500, Add(Prev(), Lit(1)))):
        assert evaluate_counting(prog) == reference_counting(prog)


def test_both_engines_route_by_the_engines_budget(monkeypatch):
    # _sparse(500) plans 504 Markov cells and _low_sharing(20)'s state pass 21 + 231 by level 2, each
    # with at most two loops per cell: both take the tables at a budget of 1024 cells and walk at 50.
    # _low_sharing(60) walks at either budget, its state pass stopping after level 2 or after level 1
    nests, levels = [], []
    monkeypatch.setattr(engine, "_nest", lambda *args, _nest=engine._nest: nests.append(args) or _nest(*args))
    monkeypatch.setattr(states, "_windows", lambda k, *args, _w=states._windows: levels.append(k) or _w(k, *args))
    for planned, walked, stopped in ((1024, 0, [1, 2]), (50, 2, [1])):
        monkeypatch.setattr(engine, "_PLANNED", planned)
        nests.clear()
        for prog in (_sparse(500, Add(Prev(), Lit(1))), _low_sharing(20)):
            assert evaluate_counting(prog) == reference_counting(prog)
        assert len(nests) == walked
        nests.clear()
        levels.clear()
        assert evaluate_counting(_low_sharing(60)) == reference_counting(_low_sharing(60))
        assert (len(nests), levels) == (1, stopped)


def test_counting_falls_back_to_the_walk_on_a_memory_error(monkeypatch):
    calls = []

    def out_of_memory(*args):
        calls.append(args)
        raise MemoryError

    monkeypatch.setattr(engine, "_through", out_of_memory)
    prog = build("moessner", {"x": 3, "n": 4})
    assert evaluate_counting(prog) == reference_counting(prog) == EvalReport(256, 255, 256)
    assert len(calls) == 1


def test_counting_falls_back_to_the_walk_past_the_tables_width_cap(monkeypatch):
    # level 2 is 6 cells wide, past a cap of 3, but the walk visits only 2 indices at level 1
    monkeypatch.setattr(engine, "_MAX_WIDTH", 3)
    prog = SummationProgram(3, (LevelSpec(0, Lit(1)), LevelSpec(0, Lit(5)), LevelSpec(1, Prev())), Lit(2))
    with pytest.raises(PreconditionError, match="^level 2 has width 6, past the 3 cells a table may hold$"):
        engine._counted_tables(prog)
    assert evaluate_counting(prog) == reference_counting(prog) == EvalReport(60, 31, 30)


def test_counting_validates_once(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "validate", lambda program: calls.append(program) or validate(program))
    prog = build("moessner", {"x": 3, "n": 4})
    assert evaluate_counting(prog) == EvalReport(256, 255, 256)
    assert calls == [prog]


@pytest.mark.parametrize(
    "bound",
    [{"node": "Lit", "value": True}, {"node": "Lit", "value": 1.0}],
    ids=["bool", "float"],
)
def test_json_load_refuses_a_bound_equal_to_a_valid_one(bound):
    # Lit(True) == Lit(1) and Lit(1.0) == Lit(1): interning equal bounds before validation would let these in
    data = {"depth": 2, "levels": [{"lower": 0, "bound": {"node": "Lit", "value": 1}}, {"lower": 0, "bound": bound}],
            "body": {"node": "Lit", "value": 1}}
    with pytest.raises(ValidationError, match="literal must be an int"):
        program_from_dict(data)


# The state tables (states.counted_tables) are called directly here, as the counted tables are above.
@given(_programs().filter(lambda prog: not is_markov(prog)))
@settings(max_examples=300, deadline=None)
def test_state_tables_match_the_reference_on_random_programs(prog):
    want = _outcome(reference_counting, prog)
    if isinstance(want, EvalReport):
        assert states.counted_tables(prog) == want


@given(st.builds(lambda prog, c: SummationProgram(prog.depth, prog.levels, Lit(c), prog.params),
                 _programs(), st.integers(0, 3)).filter(lambda prog: not is_markov(prog)))
@settings(max_examples=300, deadline=None)
def test_state_tables_match_the_reference_on_lit_bodies(prog):
    # a Lit body c runs no row: the value is c times the leaves, read off the forward pass's counts;
    # where the reference raises, a reached bound raises in the tables too
    want = _outcome(reference_counting, prog)
    got = _outcome(states.counted_tables, prog)
    if isinstance(want, EvalReport):
        assert got == want
    else:
        assert not isinstance(got, EvalReport)


def test_lit_body_counts_generate_no_row_after_the_forward_pass(monkeypatch):
    # a Lit body c is c times the leaves, the sums of the innermost counts; the additions are the
    # forward pass's tally, empty sums included (level 3 of the last program is empty under i2 = 0)
    empty = SummationProgram(3, (LevelSpec(0, Lit(3)), LevelSpec(0, SumHist()), LevelSpec(1, Prev())), Lit(3))
    programs = [build("a137273", {"n": 9}), build("a125860", {"x": 1, "n": 5}), build("positive_integers", {"n": 20}),
                SummationProgram(3, _low_sharing(6).levels, Lit(2)), empty]
    for prog in programs:
        plan = states.forward(prog)
        with monkeypatch.context() as patched:
            patched.setattr(states._Gen, "row", lambda *args: pytest.fail("a row was generated"))
            assert states.counts(plan) == reference_counting(prog)


@pytest.mark.parametrize("name,params", [(n, p) for n, p in PRESET_SAMPLES if not is_markov(build(n, p))],
                         ids=lambda v: str(v))
def test_state_tables_match_the_reference_on_presets(name, params):
    prog = build(name, params)
    assert states.counted_tables(prog) == reference_counting(prog)


def _refusing_state_tables(plan):
    raise AssertionError("the state tables ran")


def _low_sharing(w):
    # i1 in 0..w, i2 in 0..i1, i3 in 0..i1, body i3 + i2: every (i1, i2) is its own state
    levels = (LevelSpec(0, Lit(w)), LevelSpec(0, Prev()), LevelSpec(0, Hist(1)))
    return SummationProgram(3, levels, Add(Prev(), Hist(2)))


def test_completed_forward_passes_count_by_the_tables(monkeypatch):
    # once the forward pass is done, the tables count, whether the parents share little or much:
    # what is left is at most two rows over the innermost states, never more than the walk's leaves
    monkeypatch.setattr(engine, "_nest", lambda *args: pytest.fail("the walk ran"))
    # moessner's bounds with the body SumHist: the state is (i_k, the running sum), and few repeat
    running = SummationProgram(4, (LevelSpec(0, Param("x")), *[LevelSpec(0, Prev())] * 3), SumHist(), {"x": 3})
    for prog in (_low_sharing(5), running, build("a125860", {"x": 0, "n": 9})):
        plan = states.forward(prog)
        assert plan.loops <= engine._LOOPS_PER_CELL * plan.cells
        assert evaluate_counting(prog) == reference_counting(prog)
    # where the parents share much: i1 in 0..30, then three levels bounded by i1
    shared = SummationProgram(4, (LevelSpec(0, Lit(30)), *[LevelSpec(0, Hist(1))] * 3), Add(Prev(), Hist(1)))
    for prog in (shared, build("a137273", {"n": 11}), build("positive_integers", {"n": 200})):
        plan = states.forward(prog)
        assert plan.loops > engine._LOOPS_PER_CELL * plan.cells
        assert evaluate_counting(prog) == reference_counting(prog)


def test_low_sharing_programs_stop_the_forward_pass_early(monkeypatch):
    # levels 1 and 2 of _low_sharing(60) hold 61 + 1891 states, one per history: past _PLANNED
    # cells with no sharing so far, the routed pass does not plan level 3 and the walk runs
    levels = []
    monkeypatch.setattr(states, "_windows", lambda k, *args, _w=states._windows: levels.append(k) or _w(k, *args))
    prog = _low_sharing(60)
    assert states.forward(prog).cells > engine._PLANNED
    assert levels == [1, 2, 3]
    levels.clear()
    assert states.forward(prog, routed=True) is None
    assert levels == [1, 2]
    assert evaluate_counting(prog) == reference_counting(prog)


def test_shallow_non_markov_programs_never_plan(monkeypatch):
    # depth 1, or depth 2 with a Lit body: the walk opens at most one loop
    monkeypatch.setattr(states, "forward", _refusing_state_tables)
    for prog in (
        SummationProgram(1, (LevelSpec(0, Lit(5)),), SumHist()),
        SummationProgram(2, (LevelSpec(0, Lit(5)), LevelSpec(0, SumHist())), Lit(3)),
        build("positive_integers", {"n": 2}),
    ):
        assert not is_markov(prog)
        assert evaluate_counting(prog) == reference_counting(prog)


def test_state_tables_fall_back_to_the_walk_past_the_width_cap(monkeypatch):
    # the walk visits the one index of level 1; the tables' level 2 holds six states (i1, i2), past a cap of 3
    monkeypatch.setattr(engine, "_MAX_WIDTH", 3)
    levels = (LevelSpec(0, Lit(0)), LevelSpec(0, Lit(5)), LevelSpec(1, Add(Hist(1), Hist(2))))
    prog = SummationProgram(3, levels, Lit(2))
    with pytest.raises(PreconditionError, match="^level 2 has 6 states, past the 3 cells a table may hold$"):
        states.counted_tables(prog)
    assert evaluate_counting(prog) == reference_counting(prog) == EvalReport(30, 15, 15)


def test_state_tables_fall_back_to_the_walk_on_a_memory_error(monkeypatch):
    calls = []

    def out_of_memory(*args):
        calls.append(args)
        raise MemoryError

    monkeypatch.setattr(states, "_spread", out_of_memory)
    prog = build("a137273", {"n": 10})
    value = expected("a137273", {"n": 10})
    assert evaluate_counting(prog) == reference_counting(prog) == EvalReport(value, value - 1, value)
    assert len(calls) == 1


def test_state_tables_validate_once(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "validate", lambda program: calls.append(program) or validate(program))
    # the tables, then the walk after the routed forward pass stops early
    for prog in (build("a137273", {"n": 10}), _low_sharing(60)):
        want = reference_counting(prog)
        calls.clear()
        assert evaluate_counting(prog) == want
        assert calls == [prog]


def test_state_tables_count_a_depth_0_program():
    # SumHist is 0 at level 1: the root is the one state, and its one leaf
    prog = SummationProgram(0, (), Add(SumHist(), Param("x")), {"x": 4})
    assert not is_markov(prog)
    assert states.counted_tables(prog) == reference_counting(prog) == EvalReport(4, 1, 1)


def test_round_tripped_bounds_share_one_object():
    prog = build("fibonacci", {"n": 300})
    loaded = program_from_json(program_to_json(prog))
    assert loaded == prog
    assert len({id(spec.bound) for spec in loaded.levels[1:]}) == 1
    assert len({id(spec) for spec in loaded.levels[1:]}) == 1  # one lower, so one level record
    assert list(level_tables(loaded)) == list(level_tables(prog))
    # a bound equal to the one above at another lower shares the bound alone
    data = {"depth": 3, "levels": [{"lower": 0, "bound": {"node": "Lit", "value": 2}}] * 2
            + [{"lower": 1, "bound": {"node": "Lit", "value": 2}}], "body": {"node": "Prev"}}
    loaded = program_from_dict(data)
    assert [spec.lower for spec in loaded.levels] == [0, 0, 1]
    assert len({id(spec.bound) for spec in loaded.levels}) == 1
    assert evaluate_counting(loaded) == reference_counting(loaded)


def test_loaded_programs_are_validated_before_equal_literals_share():
    # Lit(True) == Lit(1), yet the bool is refused wherever it stands, shallower or deeper
    one, true = {"node": "Lit", "value": 1}, {"node": "Lit", "value": True}
    for bounds in ((one, true), (true, one)):
        data = {"depth": 2, "levels": [{"lower": 0, "bound": bound} for bound in bounds], "body": one}
        with pytest.raises(ValidationError, match="^literal must be an int, got True$"):
            program_from_dict(data)
    # a bound equal to the body is one object, walked once, at its shallowest level
    data = {"depth": 2, "levels": [{"lower": 0, "bound": one}, {"lower": 1, "bound": {"node": "Prev"}}],
            "body": {"node": "Prev"}}
    loaded = program_from_dict(data)
    assert loaded.levels[1].bound is loaded.body
    assert evaluate_counting(loaded) == reference_counting(loaded) == EvalReport(1, 1, 1)


def test_state_tables_generate_code_once_per_level_relative_shape(monkeypatch):
    # a137273's bound Hist(k-2) + Hist(k-1) is a new object at every level, but one shape
    made = []
    code = states._code
    monkeypatch.setattr(states, "_code", lambda *args: made.append(args[3]) or code(*args))
    for n in (9, 12):
        made.clear()
        prog = build("a137273", {"n": n})
        assert len({id(spec.bound) for spec in prog.levels}) == n
        value = expected("a137273", {"n": n})
        assert states.counted_tables(prog) == EvalReport(value, value - 1, value)
        assert made == [1, 2, 3, n]  # the innermost level keeps no slot: a shape of its own


def test_level_relative_shapes_read_indices_back_from_the_level():
    assert states._back(Prev(), 5) == states._back(Hist(4), 5) != states._back(Hist(3), 5)
    assert states._back(Add(Hist(3), Hist(4)), 5) == states._back(Add(Hist(5), Hist(6)), 7)
    assert states._back(Lit(1), 3) != states._back(Lit(2), 3)
    assert states._back((1, 2, "s"), 3) == states._back((3, 4, "s"), 5) != states._back((3, 4, "s"), 6)


def test_state_tables_read_the_shape_of_a_deep_bound():
    # a bound nested 700 deep passes validation, so reading its shape must not run out of frames:
    # the tables refuse it as they generate its code, and the walk counts it
    bound = Hist(1)
    for _ in range(700):
        bound = Add(bound, Lit(0))
    prog = SummationProgram(3, (LevelSpec(0, Lit(2)), LevelSpec(0, Lit(2)), LevelSpec(0, bound)), SumHist())
    with pytest.raises(PreconditionError, match="nests too deeply for the state tables"):
        states.counted_tables(prog)
    assert evaluate_counting(prog) == EvalReport(54, 17, 18)


def test_state_tables_keep_apart_levels_whose_children_keep_other_indices():
    # levels 3 and 4 both sum to the index above, but level 4's child states keep i_3 for level 5
    levels = (LevelSpec(0, Lit(2)), LevelSpec(0, Add(Prev(), Lit(1))), LevelSpec(0, Prev()), LevelSpec(0, Prev()),
              LevelSpec(0, Hist(3)))
    prog = SummationProgram(5, levels, Hist(4))
    assert states.counted_tables(prog) == reference_counting(prog) == EvalReport(63, 75, 76)


def test_counted_tables_reach_past_the_walks_depth_cap():
    # the tables nest no Python frames: a Markov program deeper than the walk's call chain is counted
    n = engine._MAX_DEPTH + 1
    prog = build("fibonacci", {"n": n})
    with pytest.raises(PreconditionError, match=f"depth {n} is past"):
        evaluate(prog)
    value = expected("fibonacci", {"n": n})
    assert evaluate_counting(prog) == EvalReport(value, value - 1, value)


def test_bounds_too_deep_to_generate_end_in_a_validation_error():
    # validation walks a bound with one frame per node; code generation takes more, the frames of
    # each subtree it compiles apart. On a thread's fresh stack with 4000 frames allowed, a chain
    # 3900 deep loads and every evaluator refuses it with the loader's text; one 500 deep is summed.
    def load(head, depth):
        bound = {"node": head}
        for _ in range(depth):
            bound = {"node": "Add", "lhs": bound, "rhs": {"node": "Lit", "value": 0}}
        levels = [{"lower": 0, "bound": {"node": "Lit", "value": 2}}] * 2 + [{"lower": 0, "bound": bound}]
        return program_from_dict({"depth": 3, "levels": levels, "body": {"node": "Lit", "value": 1}})

    outcomes = {}

    def run():
        for head, tables in (("Prev", evaluate_memoized), ("SumHist", states.counted_tables)):
            for depth in (500, 3900):
                prog = load(head, depth)
                outcomes[head, depth] = [_outcome(f, prog) for f in (evaluate, evaluate_counting, tables)]

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4000)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
    assert not thread.is_alive()
    deep = [(ValidationError, "program expressions are nested too deeply")] * 3
    assert outcomes == {
        ("Prev", 500): [18, EvalReport(18, 17, 18), 18],
        ("Prev", 3900): deep,
        # the state tables generate no subtree apart: they refuse the 500-deep bound, and the walk counts it
        ("SumHist", 500): [27, EvalReport(27, 26, 27), (PreconditionError, "an expression nests too deeply for the state tables")],
        ("SumHist", 3900): deep,
    }


class _Apart(list):
    """A level's groups equal to no other groups, so no level below reuses a step."""

    def __eq__(self, other):
        return False

    __hash__ = None


def _level_steps(monkeypatch, apart=False):
    """The levels whose step states.forward computes, by their parents' groups; apart, each
    level's groups compare unequal, so every level computes its step."""
    computed = []
    for name in ("_single", "_windows", "_each"):
        def step(*args, _level=getattr(states, name)):
            computed.append(args)
            groups, *rest = _level(*args)
            return (_Apart(groups) if apart else groups, *rest)
        monkeypatch.setattr(states, name, step)
    return computed


_REUSE_POINTS = [("positive_integers", {"n": 200}), ("a137273", {"n": 12}), ("a125860", {"x": 1, "n": 8})]


def test_state_tables_reuse_a_repeated_levels_step(monkeypatch):
    # positive_integers' levels 2..n share ProdHist, and from level 3 on the parents are p in {0, 1}:
    # levels 1, 2 and the last (whose state keeps nothing) compute a step, whatever n
    computed = _level_steps(monkeypatch)
    for n in (3, 4, 20, 200):
        computed.clear()
        prog = build("positive_integers", {"n": n})
        assert states.counted_tables(prog) == EvalReport(n + 1, n, n + 1)
        assert len(computed) == 3
    # where the states change from level to level, every level computes its own
    for name, params in _REUSE_POINTS[1:]:
        computed.clear()
        prog = build(name, params)
        assert states.counted_tables(prog).value == expected(name, params)
        assert len(computed) == prog.depth


def test_state_tables_reuse_no_step_over_other_reached_parents(monkeypatch):
    # the window over the running sum is s in 1..4 after levels 2 and 3, and levels 3 and 4 share a
    # bound: level 2 reaches s = 1 and s = 4 alone, level 3 every s, so level 4 computes its own step
    spread = IfZero(Sub(SumHist(), Lit(1)), Lit(3), Lit(0))  # s = 1 reaches 1..4, any other s only itself
    levels = (LevelSpec(0, Lit(3)), LevelSpec(1, IfZero(Mul(SumHist(), Sub(SumHist(), Lit(3))), Lit(1), Lit(0))),
              LevelSpec(0, spread), LevelSpec(0, spread))
    prog = SummationProgram(4, levels, SumHist())
    computed = _level_steps(monkeypatch)
    plan = states.forward(prog)
    assert [args[1] for args in computed[2:]] == [[((), 1, 4, 0)]] * 2
    assert [args[2] for args in computed[2:]] == [[1, 0, 0, 1], [1, 1, 1, 2]]
    assert plan.counts == [1, 2, 2, 3]
    assert states.counted_tables(prog) == reference_counting(prog)


def test_reused_steps_plan_as_a_step_per_level(monkeypatch):
    for name, params in _REUSE_POINTS:
        prog = build(name, params)
        with monkeypatch.context() as patched:
            computed = _level_steps(patched, apart=True)
            each = states.forward(prog)
            assert len(computed) == prog.depth
        plan = states.forward(prog)
        assert plan.groups == list(each.groups) and plan.counts == each.counts
        assert (plan.loops, plan.cells) == (each.loops, each.cells)
        assert plan.sums == each.sums  # a reused level tallies its own opened sums


# Later levels that share one bound object, with few states: from some level on, a level runs the
# code of the one above over the same parents. Each bound is drawn with a lower that keeps at most
# two indices per sum where level 1 reads at most 1, so depth 10 has at most 2 ** 10 histories.
_REPEATED = [
    (Hist(1), 0),
    (Hist(1), 1),
    (Add(Hist(1), Lit(1)), 1),
    (Sub(Lit(3), ProdHist()), 1),
    (FloorDiv(ProdHist(), 16), 0),
    (IfZero(Prev(), Lit(1), Hist(1)), 0),
]


@st.composite
def _repeating_programs(draw):
    depth = draw(st.integers(5, 10))
    bound, lower = draw(st.sampled_from(_REPEATED))
    head = draw(st.sampled_from((Lit(0), Lit(1), Param("x"))))
    second = draw(st.sampled_from((None, Lit(1), Prev(), Sub(Lit(1), Prev()))))  # a level 2 of its own, or none
    levels = [LevelSpec(lower, head)] + [LevelSpec(lower, second)] * (second is not None)
    levels += [LevelSpec(lower, bound)] * (depth - len(levels))
    body = draw(_bodies)
    return SummationProgram(depth, tuple(levels), body, {"x": draw(st.integers(0, 1)), "f": _TABLE})


@given(_repeating_programs())
@settings(max_examples=300, deadline=None)
def test_state_tables_match_the_reference_on_repeating_programs(prog):
    with pytest.MonkeyPatch.context() as patched:
        computed = _level_steps(patched)
        got = _outcome(states.counted_tables, prog)
    event("reuses a step" if len(computed) < prog.depth else "computes every step")
    want = _outcome(reference_counting, prog)
    if isinstance(want, EvalReport):
        assert got == want


def test_repeating_programs_reuse_steps(monkeypatch):
    # every bound of the strategy under each head and three bodies: most reuse a step. Those that
    # do not sum an empty level 2, read a running sum that grows with each level, or keep i_1 and
    # the moving index, whose shape read back from the level changes with it.
    computed = _level_steps(monkeypatch)
    reused = []
    for bound, lower in _REPEATED:
        for head in (Lit(0), Lit(1)):
            for body in (Lit(1), Prev(), SumHist()):
                prog = SummationProgram(8, (LevelSpec(lower, head), *[LevelSpec(lower, bound)] * 7), body)
                computed.clear()
                assert states.counted_tables(prog) == reference_counting(prog)
                reused.append(len(computed) < prog.depth)
    assert sum(reused) >= len(reused) / 2


SAME_DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "same_digest.py"


def test_small_scope_slice_matches_the_references():
    # the depth <= 1, leaf-body part of scripts/same_digest.py's corpus, every program of it (6,610):
    # values and counts are the references', both walks raise the reference's first error, the
    # tables of the program's kind raise wherever it raises, and an invalid program is refused by all
    spec = importlib.util.spec_from_file_location("same_digest", SAME_DIGEST)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    leaves, every = corpus.expressions()
    checked = 0
    for prog in (*corpus.small_scope([], leaves), *corpus.small_scope([every], leaves)):
        refused = _outcome(validate, prog)
        if refused is not None:
            for evaluator in (evaluate, evaluate_counting, engine._counted_tables, states.counted_tables,
                              evaluate_memoized):
                assert _outcome(evaluator, prog) == refused, prog
            continue
        checked += 1
        markov = is_markov(prog)
        tables = _outcome(engine._counted_tables if markov else states.counted_tables, prog)
        memo = _outcome(evaluate_memoized, prog) if markov else None
        want = _outcome(reference_counting, prog)
        if isinstance(want, EvalReport):
            assert (evaluate(prog), evaluate_counting(prog), tables) == (want.value, want, want), prog
            assert memo in (None, want.value), prog
        else:
            assert _outcome(evaluate, prog) == _outcome(reference_evaluate, prog) == want, prog
            assert _outcome(evaluate_counting, prog) == want, prog
            assert not isinstance(tables, EvalReport) and not isinstance(memo, int), prog
    assert checked > 3000


def test_same_digest_cli_part_is_cold_calls_of_every_subcommand(capsys):
    # the cli part of scripts/same_digest.py: the cli workload's 104 distinct argvs over seeds 0..5,
    # all eight subcommands among them, each run as a cold python -m moessner call
    spec = importlib.util.spec_from_file_location("same_digest", SAME_DIGEST)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    argvs = list(corpus.items("cli"))
    assert len(set(argvs)) == len(argvs) == 104
    assert {argv[0] for argv in argvs} == {"eval", "prefix", "compare", "process", "inverse", "polygonal",
                                           "oeis-check", "list-presets"}
    assert cli.main(["list-presets"]) == 0
    assert corpus.cold(("list-presets",)) == (0, capsys.readouterr().out.encode(), b"")
