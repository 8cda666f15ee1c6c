"""Expression AST: evaluation, the compiled form, validation, serialization, rendering."""

import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moessner.errors import ParameterError, ValidationError
from moessner.expr import (
    Add,
    Expr,
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
    additions_expr,
    compile_expr,
    eval_expr,
    eval_expr_counted,
    expr_from_dict,
    expr_to_dict,
    render_expr,
    validate_expr,
)

PARAMS = {"x": 5, "n": 3, "a": 2, "d": 4, "k": 1, "f": (2, 4, 6, 8, 10)}


def test_eval_each_node():
    h = (3, 1)
    assert eval_expr(Lit(9), PARAMS, 3, h) == 9
    assert eval_expr(Param("x"), PARAMS, 3, h) == 5
    assert eval_expr(Level(), PARAMS, 3, h) == 3
    assert eval_expr(Prev(), PARAMS, 3, h) == 1
    assert eval_expr(Hist(1), PARAMS, 3, h) == 3
    assert eval_expr(SumHist(), PARAMS, 3, h) == 4
    assert eval_expr(ProdHist(), PARAMS, 3, h) == 3
    assert eval_expr(SumHist(), PARAMS, 1, ()) == 0
    assert eval_expr(ProdHist(), PARAMS, 1, ()) == 1
    assert eval_expr(Table(Lit(2)), PARAMS, 3, h) == 6
    assert eval_expr(Add(Lit(2), Prev()), PARAMS, 3, h) == 3
    assert eval_expr(Sub(Lit(2), Prev()), PARAMS, 3, h) == 1
    assert eval_expr(Mul(Param("n"), Prev()), PARAMS, 3, h) == 3
    assert eval_expr(FloorDiv(Lit(7), 2), PARAMS, 3, h) == 3
    assert eval_expr(IfZero(Prev(), Lit(10), Lit(20)), PARAMS, 3, (3, 0)) == 10
    assert eval_expr(IfZero(Prev(), Lit(10), Lit(20)), PARAMS, 3, (3, 2)) == 20


def test_eval_can_go_negative():
    # bounds legitimately go negative; only bodies are guarded, elsewhere
    assert eval_expr(Sub(Lit(0), Lit(4)), PARAMS, 1, ()) == -4
    assert eval_expr(FloorDiv(Sub(Lit(0), Lit(3)), 2), PARAMS, 1, ()) == -2


def test_eval_missing_param_and_table():
    with pytest.raises(ParameterError):
        eval_expr(Param("k"), {}, 1, ())
    with pytest.raises(ParameterError):
        eval_expr(Table(Lit(0)), {}, 1, ())
    with pytest.raises(ParameterError):
        eval_expr(Table(Lit(7)), PARAMS, 1, ())


def test_param_name_checked_at_construction():
    with pytest.raises(ValidationError):
        Param("y")
    with pytest.raises(ValidationError):
        Param("f")  # tables only through Table


def test_floordiv_divisor_checked_at_construction():
    with pytest.raises(ValidationError):
        FloorDiv(Lit(4), 0)
    with pytest.raises(ValidationError):
        FloorDiv(Lit(4), -2)
    with pytest.raises(ValidationError):
        FloorDiv(Lit(4), True)


def test_counted_evaluation():
    h = (2,)
    assert eval_expr_counted(Add(Lit(1), Lit(2)), PARAMS, 2, h) == (3, 1)
    assert eval_expr_counted(Sub(Lit(5), Lit(2)), PARAMS, 2, h) == (3, 0)
    assert eval_expr_counted(Mul(Lit(5), Lit(2)), PARAMS, 2, h) == (10, 0)
    assert eval_expr_counted(FloorDiv(Add(Lit(4), Lit(4)), 3), PARAMS, 2, h) == (2, 1)
    # only the taken branch costs
    taken = IfZero(Lit(0), Add(Lit(1), Lit(1)), Add(Add(Lit(1), Lit(1)), Lit(1)))
    assert eval_expr_counted(taken, PARAMS, 2, h) == (2, 1)
    not_taken = IfZero(Lit(1), Add(Lit(1), Lit(1)), Add(Add(Lit(1), Lit(1)), Lit(1)))
    assert eval_expr_counted(not_taken, PARAMS, 2, h) == (3, 2)
    # table index arithmetic is addressing, not counted work
    assert eval_expr_counted(Table(Add(Lit(1), Lit(1))), PARAMS, 2, h) == (6, 0)
    nested = Add(Mul(Lit(2), Add(Lit(1), Lit(1))), Lit(3))
    assert eval_expr_counted(nested, PARAMS, 2, h) == (7, 2)


def test_validate_expr():
    validate_expr(Prev(), 2, role="bound")
    with pytest.raises(ValidationError, match="level 1"):
        validate_expr(Prev(), 1, role="bound")
    with pytest.raises(ValidationError, match="Hist"):
        validate_expr(Hist(3), 3, role="bound")
    with pytest.raises(ValidationError, match="Hist"):
        validate_expr(Hist(0), 3, role="bound")
    validate_expr(Hist(2), 3, role="bound")
    with pytest.raises(ValidationError, match="body"):
        validate_expr(Add(Lit(1), Prev()), 1, role="body")
    with pytest.raises(ValidationError):
        validate_expr(Lit("three"), 1, role="body")
    with pytest.raises(ValidationError):
        validate_expr("not a node", 1, role="body")


def test_expr_references():
    e = Add(Table(Hist(2)), IfZero(SumHist(), Param("x"), Mul(Prev(), Level())))
    refs = validate_expr(e, 3, role="bound")
    assert refs["params"] == {"x"}
    assert refs["table"] and refs["prev"] and refs["sum_hist"] and refs["level"]
    assert refs["hist"] == {2}
    assert not refs["prod_hist"]
    assert set(refs) == {"params", "hist", "table", "prev", "sum_hist", "prod_hist", "level"}


ROUND_TRIP_CASES = [
    Lit(7),
    Param("n"),
    Level(),
    Prev(),
    Hist(2),
    SumHist(),
    ProdHist(),
    Table(Add(Prev(), Lit(1))),
    Add(Lit(1), Mul(Param("x"), Prev())),
    Sub(Lit(9), Hist(1)),
    Mul(Level(), Table(Prev())),
    FloorDiv(Mul(Lit(3), Prev()), 2),
    IfZero(Prev(), Param("a"), Param("d")),
]


@pytest.mark.parametrize("expr", ROUND_TRIP_CASES, ids=lambda e: type(e).__name__)
def test_serialization_round_trip(expr):
    assert expr_from_dict(expr_to_dict(expr)) == expr


def test_every_node_kind_serializes():
    # the language is closed: a new kind joins ROUND_TRIP_CASES, or this fails
    assert {type(expr) for expr in ROUND_TRIP_CASES} == set(typing.get_args(Expr))


def test_deserialized_equal_subtrees_are_one_object():
    prev, lit = {"node": "Prev"}, {"node": "Lit", "value": 1}
    sub = {"node": "Sub", "lhs": prev, "rhs": lit}
    added = expr_from_dict({"node": "Add", "lhs": sub, "rhs": dict(sub)})
    assert added.lhs is added.rhs
    shared = {}
    assert expr_from_dict(lit, shared) is expr_from_dict(dict(lit), shared)
    # keyed by type as well as value: equal scalars of other types stay apart
    for other in (True, 1.0):
        found = expr_from_dict({"node": "Lit", "value": other}, shared)
        assert found == Lit(1) and type(found.value) is type(other)


def test_serialization_rejects_junk():
    with pytest.raises(ValidationError):
        expr_to_dict("not a node")
    with pytest.raises(ValidationError):
        expr_from_dict({"node": "Nope"})
    with pytest.raises(ValidationError):
        expr_from_dict({"value": 3})
    with pytest.raises(ValidationError, match="missing field"):
        expr_from_dict({"node": "Add", "lhs": {"node": "Lit", "value": 1}})


def test_render_expr():
    assert render_expr(Sub(Lit(1), Prev()), 2) == "1-i1"
    assert render_expr(Mul(Lit(3), Prev()), 3) == "3*i2"
    assert render_expr(FloorDiv(Mul(Lit(3), Prev()), 2), 3) == "3*i2/2"
    assert render_expr(Add(Prev(), Lit(1)), 4) == "i3+1"
    # parenthesization keeps evaluation order visible
    assert render_expr(Sub(Lit(9), Add(Lit(1), Lit(2))), 1) == "9-(1+2)"
    assert render_expr(Mul(Add(Lit(1), Lit(2)), Lit(3)), 1) == "(1+2)*3"
    assert render_expr(FloorDiv(Add(Prev(), Lit(1)), 2), 2) == "(i1+1)/2"
    assert render_expr(SumHist(), 1) == "0"
    assert render_expr(ProdHist(), 1) == "1"
    assert render_expr(SumHist(), 4) == "i1+i2+i3"
    assert render_expr(ProdHist(), 3) == "i1*i2"
    assert render_expr(Table(Prev()), 2) == "f[i1]"
    assert render_expr(IfZero(Prev(), Param("a"), Param("d")), 2) == "if0(i1,a,d)"


# strategy for random expression trees over a fixed parameter environment
_leaves = st.sampled_from(
    [Lit(0), Lit(3), Param("x"), Param("n"), Level(), Prev(), Hist(1), SumHist(), ProdHist()]
)


def _branches(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(children, st.integers(1, 5)).map(lambda t: FloorDiv(*t)),
        st.tuples(children, children, children).map(lambda t: IfZero(*t)),
        children.map(lambda c: Table(FloorDiv(c, 9))),
    )


_exprs = st.recursive(_leaves, _branches, max_leaves=12)


@given(_exprs, st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_compiled_matches_interpreted(expr, history):
    level = len(history) + 1
    try:
        want = eval_expr(expr, PARAMS, level, tuple(history))
        failed = None
    except ParameterError as exc:
        want, failed = None, str(exc)
    fn = compile_expr(expr, PARAMS, level)
    try:
        got = fn(history)
        got_failed = None
    except ParameterError as exc:
        got, got_failed = None, str(exc)
    assert (want, failed) == (got, got_failed)


@given(_exprs, st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_additions_expr_matches_counted(expr, history):
    level = len(history) + 1
    try:
        _, want = eval_expr_counted(expr, PARAMS, level, tuple(history))
    except ParameterError:
        return  # the counted walk raises before it tallies anything
    assert compile_expr(additions_expr(expr), PARAMS, level)(history) == want


def test_additions_expr_folds_fixed_costs():
    assert additions_expr(Add(Mul(Lit(2), Add(Prev(), Lit(1))), Table(Add(Prev(), Lit(1))))) == Lit(2)
    assert additions_expr(IfZero(Prev(), Add(Lit(1), Lit(1)), Sub(Add(Prev(), Prev()), Lit(1)))) == Lit(1)
    assert additions_expr(IfZero(Lit(0), Add(Lit(1), Lit(1)), Lit(5))) == Lit(1)
    branchy = additions_expr(IfZero(Prev(), Lit(1), Add(Lit(1), Lit(1))))
    assert not isinstance(branchy, Lit)


def test_additions_expr_keeps_a_costly_left_operand_alone():
    # the left side costs by branch, the right side nothing: the cost is the left's alone
    expr = Sub(IfZero(Prev(), Add(Prev(), Lit(1)), Lit(0)), Prev())
    cost = additions_expr(expr)
    assert cost == IfZero(Prev(), Lit(1), Lit(0))
    for history in ((0,), (1,), (2,)):
        assert eval_expr(cost, PARAMS, 2, history) == eval_expr_counted(expr, PARAMS, 2, history)[1]


def test_render_level():
    assert render_expr(Level(), 1) == "level"
    assert render_expr(Sub(Level(), Prev()), 3) == "level-i2"
    assert render_expr(Mul(Level(), Add(Level(), Lit(1))), 2) == "level*(level+1)"


def test_compiled_missing_param_stays_lazy():
    # an untaken branch must not raise, same as the interpreter
    guarded = IfZero(Lit(0), Lit(1), Param("k"))
    assert compile_expr(guarded, {}, 1)([]) == 1
    fn = compile_expr(Param("k"), {}, 1)
    with pytest.raises(ParameterError, match="missing parameter 'k'"):
        fn([])
    with pytest.raises(ParameterError, match="missing table"):
        compile_expr(Table(Lit(0)), {}, 1)([])


def test_compiled_deep_chain_matches_interpreted():
    # 600 nested nodes is past the parser's nesting limit for one expression
    expr = Lit(1)
    for i in range(600):
        expr = Sub(expr, Lit(i % 5)) if i % 2 else Add(Prev(), expr)
    history = [3, 4]
    assert compile_expr(expr, PARAMS, 3)(history) == eval_expr(expr, PARAMS, 3, tuple(history))


def test_compiled_huge_values_are_exact():
    # values past the int->str digit limit: nothing is formatted into source text
    big = 10**4999 + 7
    fn = compile_expr(Add(Lit(big), Mul(Param("x"), Prev())), {"x": 3 * big}, 2)
    assert fn([2]) == big + 6 * big
    assert compile_expr(Param("n"), {"n": big}, 1)([]) == big


def test_compiled_same_shape_keeps_own_values():
    # one shape, compiled once, bound to different constants and parameters
    first = compile_expr(Sub(Lit(1), Prev()), {}, 2)
    second = compile_expr(Sub(Lit(5), Prev()), {}, 2)
    small = compile_expr(Add(Param("x"), Table(Prev())), {"x": 1, "f": (10, 20)}, 2)
    large = compile_expr(Add(Param("x"), Table(Prev())), {"x": 100, "f": (30, 40, 50)}, 2)
    assert (first([1]), second([1])) == (0, 4)
    assert (small([1]), large([1]), large([2])) == (21, 140, 150)
    with pytest.raises(ParameterError, match="table index 2 outside f of length 2"):
        small([2])
