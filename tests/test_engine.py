"""Engine cross-checks against a naive recursive reference, plus validation and Markov paths."""

import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moessner import engine
from moessner import expr as expr_module
from moessner.engine import (
    EvalReport,
    LevelSpec,
    SummationProgram,
    evaluate,
    evaluate_counting,
    evaluate_memoized,
    is_markov,
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
    Custom,
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
from moessner.presets import build


def reference_evaluate(program):
    """Direct recursion over the levels; deliberately slow and obvious."""
    depth = program.depth
    params = program.params

    def go(level, history):
        if level > depth:
            v = eval_expr(program.body, params, depth + 1, history)
            assert v >= 0
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
    ]
    if k >= 3:
        opts.append(Add(Hist(k - 2), Hist(k - 1)))
    return st.sampled_from(opts)


_bodies = st.sampled_from(
    [Lit(1), Lit(3), Lit(0), Param("x"), Prev(), Add(Prev(), Lit(1)), SumHist(),
     Mul(Prev(), Prev()), Add(Mul(Lit(2), Prev()), Level()),
     # branch-dependent counts: the condition costs 1, then 1, else 2
     IfZero(Sub(Add(Prev(), Lit(1)), Lit(2)), Add(Prev(), Lit(1)), Add(Add(Prev(), Prev()), Lit(1))),
     # table index arithmetic is not counted; indices stay below _TABLE's length
     Add(Table(Add(Prev(), Lit(1))), Lit(1)),
     FloorDiv(Add(Prev(), Level()), 2),
     Sub(Add(Prev(), Lit(2)), Lit(1))]
)
# depth 0: the body stands at level 1, with no enclosing index to read
_root_bodies = st.sampled_from(
    [Lit(1), Lit(0), Param("x"), Level(), SumHist(), Add(Param("x"), Level()),
     Add(Table(Param("x")), Lit(1)),
     IfZero(Param("x"), Add(Param("x"), Lit(1)), Add(Add(Param("x"), Param("x")), Lit(1)))]
)
_TABLE = tuple(i * 7 % 5 for i in range(32))


@st.composite
def _programs(draw):
    depth = draw(st.integers(0, 4))
    levels = []
    for k in range(1, depth + 1):
        lower = draw(st.sampled_from((0, 1)))
        bound = draw(_bound_head) if k == 1 else draw(_later_bound(k))
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
        (Custom(lambda params, level, history: params["x"] + level + len(history), "x+level"), 3),
    ],
    ids=["lit0", "lit5", "const_cost", "branch_taken", "branch_not_taken", "table_hit", "custom"],
)
def test_depth_zero_matches_the_references(body, x):
    prog = SummationProgram(0, (), body, {"x": x, "f": _F0})
    value = eval_expr(body, prog.params, 1, ())
    adds = eval_expr_counted(body, prog.params, 1, ())[1]
    assert evaluate(prog) == value
    assert evaluate_counting(prog) == EvalReport(value=value, additions=adds, leaves=1)
    if isinstance(body, Custom):
        with pytest.raises(PreconditionError, match="Markov"):
            evaluate_memoized(prog)
    else:
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

    custom_bound = SummationProgram(
        1, (LevelSpec(0, Custom(lambda p, lv, h: 2, "two")),), Lit(1)
    )
    assert not is_markov(custom_bound)
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
    assert len(walks) == prog.depth + 1 == 51
    validate(prog)
    assert is_markov(prog)
    assert evaluate_memoized(prog) == 20365011074
    assert len(walks) == 51


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


def test_program_load_validates():
    data = program_to_dict(build("moessner", {"x": 2, "n": 2}))
    data["params"]["x"] = -3
    with pytest.raises(ParameterError):
        program_from_dict(data)
    data2 = program_to_dict(build("moessner", {"x": 2, "n": 2}))
    data2["depth"] = 5
    with pytest.raises(ValidationError):
        program_from_dict(data2)


def test_program_with_custom_node_is_not_serializable():
    prog = SummationProgram(
        1, (LevelSpec(0, Custom(lambda p, lv, h: 1, "one")),), Lit(1)
    )
    with pytest.raises(ValidationError):
        program_to_dict(prog)


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


def _logged(log, fn):
    """A Custom node that records each (level, history) it is called at."""
    return Custom(lambda params, level, history: log.append((level, history)) or fn(history), "log")


# (lower bound, upper bound of the history) per level; bounds below the lower
# bound make empty sums at the penultimate and the innermost level
_LOGGED_WALKS = [
    [(0, lambda h: 2)],
    [(1, lambda h: 0)],
    [(0, lambda h: 3), (0, lambda h: h[-1] - 1)],
    [(1, lambda h: 3), (1, lambda h: 3 - h[-1])],
    [(0, lambda h: 3), (0, lambda h: -1 if h[0] == 1 else 2), (1, lambda h: (h[0] + h[1]) % 3)],
    [(1, lambda h: 2), (0, lambda h: h[0] - 1), (0, lambda h: h[1] - 1)],
]


@pytest.mark.parametrize("walk", _LOGGED_WALKS, ids=lambda walk: f"depth{len(walk)}")
def test_walk_calls_bounds_and_body_in_reference_order(walk):
    def program(log):
        levels = tuple(LevelSpec(lower, _logged(log, bound)) for lower, bound in walk)
        return SummationProgram(len(walk), levels, _logged(log, lambda h: sum(h) % 3 + 1))

    want_log, got_log, counted_log = [], [], []
    want = reference_evaluate(program(want_log))
    assert evaluate(program(got_log)) == want
    assert evaluate_counting(program(counted_log)).value == want
    assert got_log == want_log
    assert counted_log == want_log


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


@pytest.mark.parametrize("depth", [_K + 1, _K + 2])
def test_walk_order_holds_across_blocks(depth):
    def level(log, k):  # _zigzag_level(k) as a logged Custom bound
        lower, c = (1, 2) if k == 1 else _zigzag_step(k)
        return LevelSpec(lower, _logged(log, lambda h: c - h[-1] if h else c))

    def program(log):
        levels = tuple(level(log, k) for k in range(1, depth + 1))
        return SummationProgram(depth, levels, _logged(log, lambda h: sum(h) % 3 + 1))

    want_log, got_log, counted_log = [], [], []
    want = reference_evaluate(program(want_log))
    assert evaluate(program(got_log)) == want
    assert evaluate_counting(program(counted_log)) == reference_counting(program([]))
    assert got_log == want_log
    assert counted_log == want_log
    assert {(k, len(h)) for k, h in want_log} >= {(_K + 1, _K), (depth + 1, depth)}


def test_negative_body_names_a_history_spanning_two_blocks():
    # i1 in 0..1 in the first block, i_{K+2} in 0..2 in the second; all others 0
    depth = _K + 2
    levels = (LevelSpec(0, Lit(1)),) + (LevelSpec(0, Lit(0)),) * _K + (LevelSpec(0, Lit(2)),)
    prog = SummationProgram(depth, levels, Sub(Lit(2), Add(Hist(1), Prev())))
    history = re.escape(str((1,) + (0,) * _K + (2,)))
    for evaluator in (evaluate, evaluate_counting):
        with pytest.raises(DomainError, match=r"body evaluated to -1 at history " + history + "$"):
            evaluator(prog)


def test_deep_expression_chains_in_bounds_and_body():
    # 600 nested nodes, past the parser's limit for one expression: the bound is
    # 300*i1 - 599 (so i2 in 0..1 at i1 = 2, empty before), the body 300*i2
    def chain(base):
        expr = Lit(base)
        for i in range(600):
            expr = Sub(expr, Lit(i % 5)) if i % 2 else Add(Prev(), expr)
        return expr

    prog = SummationProgram(2, (LevelSpec(0, Lit(2)), LevelSpec(0, chain(1))), chain(600))
    assert evaluate(prog) == reference_evaluate(prog) == 300
    assert evaluate_counting(prog) == reference_counting(prog)
    # the outer sum folds 3 terms, the inner one 2, and each of the 2 leaves costs 300
    assert evaluate_counting(prog).additions == 2 + 1 + 2 * 300


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
