"""Initial-segment rules and fold bound rules."""

import pytest

from moessner.errors import ParameterError
from moessner.expr import Add, FloorDiv, IfZero, Lit, Mul, Param, Prev, eval_expr
from moessner.rules import FOLD_RULES, InitRule, fold_bound, keep_bound, parse_fold_rule


def test_init_rows():
    assert InitRule.const(1).row(5) == [1, 1, 1, 1, 1]
    assert InitRule.const(3).row(4) == [3, 3, 3, 3]
    assert InitRule.indicator(2, 5).row(4) == [2, 5, 5, 5]
    assert InitRule.indicator(0, 1).row(3) == [0, 1, 1]
    assert InitRule.successor().row(6) == [1, 2, 3, 4, 5, 6]
    assert InitRule.successor().value_at(10) == 11
    assert InitRule.const(7).row(0) == []


@pytest.mark.parametrize(
    "rule",
    [InitRule.const(0), InitRule.const(3), InitRule.indicator(2, 5), InitRule.indicator(0, 1), InitRule.successor()],
    ids=lambda rule: rule.spec_string(),
)
@pytest.mark.parametrize("m", range(6))
def test_init_row_is_value_at_per_position(rule, m):
    assert rule.row(m) == [rule.value_at(y) for y in range(m)]


def test_init_parse_and_spec_string():
    assert InitRule.parse("ones") == InitRule.const(1)
    assert InitRule.parse("successor") == InitRule.successor()
    assert InitRule.parse("const:4") == InitRule.const(4)
    assert InitRule.parse("indicator:2:3") == InitRule.indicator(2, 3)
    for rule in (InitRule.const(4), InitRule.indicator(2, 3), InitRule.successor()):
        assert InitRule.parse(rule.spec_string()) == rule
    for bad in ("", "const", "const:1:2", "indicator:2", "wavelet", "const:x", "ones:1"):
        with pytest.raises(ParameterError):
            InitRule.parse(bad)


def test_init_rejects_bad_fields():
    with pytest.raises(ParameterError, match="kind"):
        InitRule("ramp")
    with pytest.raises(ParameterError, match="natural"):
        InitRule.const(-1)
    with pytest.raises(ParameterError, match="natural"):
        InitRule.indicator(1, -2)


def test_init_body_expr_matches_value_at():
    # feeding the position as a literal must reproduce the row
    for rule in (InitRule.const(3), InitRule.indicator(2, 5), InitRule.successor()):
        for y in range(6):
            body, extra = rule.body_expr(Lit(y))
            assert eval_expr(body, extra, 1, ()) == rule.value_at(y)


def test_init_body_expr_shapes():
    body, extra = InitRule.const(2).body_expr(Prev())
    assert body == Param("a") and extra == {"a": 2}
    body, extra = InitRule.indicator(0, 4).body_expr(Prev())
    assert body == IfZero(Prev(), Param("a"), Param("d"))
    assert extra == {"a": 0, "d": 4}
    body, extra = InitRule.successor().body_expr(Prev())
    assert body == Add(Prev(), Lit(1)) and extra == {}


def test_keep_bound_shapes():
    assert keep_bound(2) == Mul(Lit(2), Prev())
    assert keep_bound(3) == FloorDiv(Mul(Lit(3), Prev()), 2)
    assert keep_bound(5) == FloorDiv(Mul(Lit(5), Prev()), 4)
    with pytest.raises(ParameterError):
        keep_bound(1)


def test_keep_bound_values():
    for k in range(2, 7):
        for prev in range(20):
            got = eval_expr(keep_bound(k), {}, k, (0,) * (k - 2) + (prev,))
            assert got == k * prev // (k - 1)


def test_fold_bound_all_rules():
    params = {"x": 4}
    hist = (0, 3)
    assert eval_expr(fold_bound("keep", 3), params, 3, hist) == 4
    assert eval_expr(fold_bound("level", 3), params, 3, hist) == 2
    assert eval_expr(fold_bound("prev", 3), params, 3, hist) == 3
    assert eval_expr(fold_bound("prev_plus", 3, 2), params, 3, hist) == 5
    assert eval_expr(fold_bound("mult_x", 3), params, 3, hist) == 12
    assert eval_expr(fold_bound("const_x", 3), params, 3, hist) == 4
    with pytest.raises(ParameterError, match="level 2 onward"):
        fold_bound("keep", 1)
    with pytest.raises(ParameterError, match="unknown fold rule"):
        fold_bound("spiral", 3)


def test_parse_fold_rule():
    for name in FOLD_RULES:
        if name == "prev_plus":
            continue
        assert parse_fold_rule(name) == (name, 0)
    assert parse_fold_rule("prev_plus:3") == ("prev_plus", 3)
    assert parse_fold_rule("prev_plus:0") == ("prev_plus", 0)
    for bad in ("prev_plus", "prev_plus:x", "mult_x:2", "keep:1", "", "folded"):
        with pytest.raises(ParameterError):
            parse_fold_rule(bad)


def test_rule_fields_past_the_digit_limit_name_the_limit(default_digit_limit):
    big = "9" * 5000
    for parse, spec in (
        (InitRule.parse, "const:" + big),
        (InitRule.parse, f"indicator:1:{big}"),
        (parse_fold_rule, "prev_plus:" + big),
    ):
        with pytest.raises(ParameterError, match=f"limit of {default_digit_limit} digits"):
            parse(spec)
