"""Preset catalog: engine values vs independent expectations, cross-preset identities, schemas."""

from functools import lru_cache
from itertools import permutations

import pytest

from moessner import engine
from moessner.cli import build_parser
from moessner.engine import evaluate, evaluate_memoized, unfold_display
from moessner.errors import BFileParseError, ParameterError, PreconditionError
from moessner.oeis import normalize_a_number, parse_manifest
from moessner.presets import build, catalog, expected, parse_params, preset_names, sweep
from moessner.process import run_process
from moessner.rules import InitRule, parse_fold_rule

# value grids: every preset checked against its independent expected()
GRIDS = {
    "moessner": [{"x": x, "n": n} for x in range(6) for n in range(5)],
    "moessner_stolid": [{"x": x, "n": n} for x in range(5) for n in range(5)],
    "moessner_init": [
        {"x": x, "n": n, "init": init}
        for x in range(4)
        for n in range(4)
        for init in ("ones", "const:3", "successor")
    ],
    "moessner_init_plus": [
        {"x": x, "n": n, "init": init}
        for x in range(3)
        for n in range(3)
        for init in ("const:2", "successor", "indicator:2:3", "indicator:0:1")
    ],
    "long1": [{"x": x, "n": n, "a": a} for x in range(4) for n in range(4) for a in (0, 1, 3)],
    "long2": [
        {"x": x, "n": n, "a": a, "d": d}
        for x in range(4)
        for n in range(3)
        for a, d in ((2, 3), (0, 1), (1, 0), (5, 5))
    ],
    "another_round": [{"x": x, "n": n} for x in range(4) for n in range(4)],
    "fold": [
        {"x": x, "n": n, "rule": rule}
        for x in range(4)
        for n in range(4)
        for rule in ("keep", "const_x", "prev", "prev_plus:1", "mult_x")
    ]
    + [{"x": x, "n": n, "rule": "level"} for x in range(4) for n in range(1, 4)]
    + [{"x": 0, "n": n, "rule": "prev_plus:3"} for n in range(5)],
    "factorial_rising": [{"n": n} for n in range(8)],
    "factorial_falling": [{"n": n} for n in range(8)],
    "factorial_permuted": [
        {"n": 4, "f": perm} for perm in permutations(range(4))
    ] + [{"n": 1, "f": (0,)}, {"n": 2, "f": (1, 0)}],
    "factorial_multiple": [{"x": x, "n": n} for x in range(4) for n in range(6)],
    "xfold_factorial": [{"x": x, "n": n} for x in range(5) for n in range(5)],
    "product_of_table": [
        {"n": 2, "f": (3, 1, 4)},
        {"n": 0, "f": (7,)},
        {"n": 3, "f": (2, 2, 2, 2)},
        {"n": 4, "f": (1, 5, 2, 4, 3)},
        {"n": 2, "f": (3, 0, 4)},  # a zero entry empties one level
    ],
    "rosen_triple": [
        {"n1": a, "n2": b, "n3": c} for a in (0, 1, 3) for b in (1, 2) for c in (1, 4)
    ],
    "binomial": [{"x": x, "n": n} for x in range(7) for n in range(5)],
    "multiset": [{"x": x, "n": n} for x in range(6) for n in range(5)],
    "catalan": [{"n": n} for n in range(9)],
    "catalan_from_one": [{"n": n} for n in range(9)],
    "catalan_convolved": [{"x": x, "n": n} for x in range(5) for n in range(7)],
    "a002293": [{"n": n} for n in range(6)],
    "positive_integers": [{"n": n} for n in range(9)],
    "a125860": [{"x": 1, "n": n} for n in range(6)],
    "a137273": [{"n": n} for n in range(10)],
    "fibonacci": [{"n": n} for n in range(12)],
    "euler_zigzag": [{"n": n} for n in range(9)],
    "a002449": [{"n": n} for n in range(6)] + [{"n": 4, "b": 2}],
    "a002449_irwin": [{"n": n} for n in range(1, 7)],
    "fibonacci_lahlou": [{"n": n} for n in range(2, 12)],
}


def test_grid_covers_every_preset():
    assert sorted(GRIDS) == preset_names()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_value_matches_expected(name):
    for params in GRIDS[name]:
        assert evaluate(build(name, params)) == expected(name, params), (name, params)


# one small point per preset, every init kind and every fold rule: the literal
# program each builds, as (name, params, unfold_display, program params)
SHAPES = [
    ("moessner", {"x": 2, "n": 3},
     "sum(i1=0..x) sum(i2=0..2*i1) sum(i3=0..3*i2/2) 1",
     {"x": 2, "n": 3}),
    ("moessner_stolid", {"x": 2, "n": 3},
     "sum(i1=0..x) sum(i2=0..x) sum(i3=0..x) 1",
     {"x": 2, "n": 3}),
    ("moessner_init", {"x": 2, "n": 2, "init": "ones"},
     "sum(i1=0..x) sum(i2=0..2*i1) a",
     {"x": 2, "n": 2, "a": 1}),
    ("moessner_init", {"x": 2, "n": 2, "init": "const:3"},
     "sum(i1=0..x) sum(i2=0..2*i1) a",
     {"x": 2, "n": 2, "a": 3}),
    ("moessner_init", {"x": 2, "n": 2, "init": "indicator:2:3"},
     "sum(i1=0..x) sum(i2=0..2*i1) if0(3*i2/2,a,d)",
     {"x": 2, "n": 2, "a": 2, "d": 3}),
    ("moessner_init", {"x": 2, "n": 2, "init": "successor"},
     "sum(i1=0..x) sum(i2=0..2*i1) 3*i2/2+1",
     {"x": 2, "n": 2}),
    ("moessner_init", {"x": 2, "n": 0, "init": "indicator:2:3"},
     "if0(x,a,d)",
     {"x": 2, "n": 0, "a": 2, "d": 3}),
    ("moessner_init_plus", {"x": 2, "n": 1, "init": "const:3"},
     "sum(i1=0..x) sum(i2=0..2*i1) a",
     {"x": 2, "n": 1, "a": 3}),
    ("moessner_init_plus", {"x": 2, "n": 1, "init": "indicator:2:3"},
     "sum(i1=0..x) sum(i2=0..2*i1) if0(3*i2/2,a,d)",
     {"x": 2, "n": 1, "a": 2, "d": 3}),
    ("moessner_init_plus", {"x": 2, "n": 1, "init": "successor"},
     "sum(i1=0..x) sum(i2=0..2*i1) 3*i2/2+1",
     {"x": 2, "n": 1}),
    ("long1", {"x": 2, "n": 2, "a": 5},
     "sum(i1=0..x) sum(i2=0..2*i1) a",
     {"x": 2, "n": 2, "a": 5}),
    ("long2", {"x": 2, "n": 1, "a": 2, "d": 3},
     "sum(i1=0..x) sum(i2=0..2*i1) if0(3*i2/2,a,d)",
     {"x": 2, "n": 1, "a": 2, "d": 3}),
    ("another_round", {"x": 2, "n": 2},
     "sum(i1=0..x) sum(i2=0..2*i1) 3*i2/2+1",
     {"x": 2, "n": 2}),
    ("fold", {"x": 2, "n": 3, "rule": "keep"},
     "sum(i1=0..x) sum(i2=0..2*i1) sum(i3=0..3*i2/2) 1",
     {"x": 2, "n": 3}),
    ("fold", {"x": 2, "n": 3, "rule": "level"},
     "sum(i1=0..x) sum(i2=0..1) sum(i3=0..2) 1",
     {"x": 2, "n": 3}),
    ("fold", {"x": 2, "n": 3, "rule": "prev"},
     "sum(i1=0..x) sum(i2=0..i1) sum(i3=0..i2) 1",
     {"x": 2, "n": 3}),
    ("fold", {"x": 2, "n": 3, "rule": "prev_plus:2"},
     "sum(i1=0..x) sum(i2=0..i1+2) sum(i3=0..i2+2) 1",
     {"x": 2, "n": 3}),
    ("fold", {"x": 2, "n": 3, "rule": "mult_x"},
     "sum(i1=0..x) sum(i2=0..2*x) sum(i3=0..3*x) 1",
     {"x": 2, "n": 3}),
    ("fold", {"x": 2, "n": 3, "rule": "const_x"},
     "sum(i1=0..x) sum(i2=0..x) sum(i3=0..x) 1",
     {"x": 2, "n": 3}),
    ("factorial_rising", {"n": 3},
     "sum(i1=0..1) sum(i2=0..2) sum(i3=0..3) 1",
     {"n": 3}),
    ("factorial_falling", {"n": 3},
     "sum(i1=0..2) sum(i2=0..1) sum(i3=0..0) 1",
     {"n": 3}),
    ("factorial_permuted", {"n": 3, "f": (2, 0, 1)},
     "sum(i1=0..f[0]) sum(i2=0..f[1]) sum(i3=0..f[2]) 1",
     {"n": 3, "f": (2, 0, 1)}),
    ("factorial_multiple", {"x": 2, "n": 3},
     "sum(i1=0..x) sum(i2=0..1) sum(i3=0..2) 1",
     {"x": 2, "n": 3}),
    ("factorial_multiple", {"x": 2, "n": 0},
     "sum(i1=0..x) 1",
     {"x": 2, "n": 0}),
    ("xfold_factorial", {"x": 2, "n": 3},
     "sum(i1=0..x) sum(i2=0..2*x) sum(i3=0..3*x) 1",
     {"x": 2, "n": 3}),
    ("product_of_table", {"n": 2, "f": (3, 1, 4)},
     "sum(i1=1..f[0]) sum(i2=1..f[1]) sum(i3=1..f[2]) 1",
     {"n": 2, "f": (3, 1, 4)}),
    ("rosen_triple", {"n1": 2, "n2": 3, "n3": 4},
     "sum(i1=1..f[0]) sum(i2=1..f[1]) sum(i3=1..f[2]) 1",
     {"f": (2, 3, 4)}),
    ("binomial", {"x": 2, "n": 3},
     "sum(i1=0..x) sum(i2=0..i1) sum(i3=0..i2) 1",
     {"x": 2, "n": 3}),
    ("multiset", {"x": 2, "n": 3},
     "sum(i1=1..x) sum(i2=1..i1) sum(i3=1..i2) 1",
     {"x": 2, "n": 3}),
    ("catalan", {"n": 3},
     "sum(i1=0..0) sum(i2=0..i1+1) sum(i3=0..i2+1) 1",
     {"n": 3}),
    ("catalan_from_one", {"n": 3},
     "sum(i1=1..1) sum(i2=1..i1+1) sum(i3=1..i2+1) 1",
     {"n": 3}),
    ("catalan_convolved", {"x": 2, "n": 3},
     "sum(i1=0..x) sum(i2=0..i1+1) sum(i3=0..i2+1) 1",
     {"x": 2, "n": 3}),
    ("a002293", {"n": 3},
     "sum(i1=0..0) sum(i2=0..i1+3) sum(i3=0..i2+3) 1",
     {"n": 3}),
    ("positive_integers", {"n": 3},
     "sum(i1=0..1) sum(i2=0..i1) sum(i3=0..i1*i2) 1",
     {"n": 3}),
    ("a125860", {"x": 1, "n": 3},
     "sum(i1=0..x+0) sum(i2=0..x+i1) sum(i3=0..x+i1+i2) 1",
     {"x": 1, "n": 3}),
    ("a137273", {"n": 4},
     "sum(i1=0..0) sum(i2=0..1) sum(i3=0..i1+i2) sum(i4=0..i2+i3) 1",
     {"n": 4}),
    ("fibonacci", {"n": 3},
     "sum(i1=0..0) sum(i2=0..1-i1) sum(i3=0..1-i2) 1",
     {"n": 3}),
    ("euler_zigzag", {"n": 3},
     "sum(i1=0..2) sum(i2=0..1-i1) sum(i3=0..0-i2) 1",
     {"n": 3}),
    ("a002449", {"n": 2},
     "sum(i1=0..1) sum(i2=0..2*i1+1) sum(i3=0..2*i2+1) 1",
     {"n": 2}),
    ("a002449", {"n": 1, "b": 3},
     "sum(i1=0..2) sum(i2=0..3*i1+2) 1",
     {"n": 1}),
    ("a002449_irwin", {"n": 2},
     "sum(i1=1..2) sum(i2=1..2*i1) 2*i2",
     {"n": 2}),
    ("fibonacci_lahlou", {"n": 3},
     "sum(i1=1..1) sum(i2=1..3-i1) 3-i2",
     {"n": 3}),
]


def test_shapes_cover_every_preset():
    assert sorted({name for name, *_ in SHAPES}) == preset_names()


@pytest.mark.parametrize(
    "name, params, display, program_params",
    SHAPES,
    ids=[f"{name}-{i}" for i, (name, *_) in enumerate(SHAPES)],
)
def test_preset_program_shape(name, params, display, program_params):
    program = build(name, params)
    assert unfold_display(program) == display
    assert program.params == program_params


def test_init_presets_match_row_process():
    for init_s in ("const:3", "successor", "ones"):
        init = InitRule.parse(init_s)
        for n in range(4):
            row, _ = run_process(n, 5, init)
            for x in range(5):
                got = evaluate(build("moessner_init", {"x": x, "n": n, "init": init_s}))
                assert got == row[x], (init_s, n, x)


def test_init_plus_matches_row_process_for_indicator():
    # the indicator start runs one extra pass inside the row process
    init = InitRule.indicator(2, 3)
    for n in range(3):
        row, _ = run_process(n, 4, init)
        for x in range(4):
            got = evaluate(build("moessner_init_plus", {"x": x, "n": n, "init": init}))
            assert got == row[x]


def test_init_accepts_rule_objects_and_strings():
    a = evaluate(build("moessner_init", {"x": 3, "n": 2, "init": "const:2"}))
    b = evaluate(build("moessner_init", {"x": 3, "n": 2, "init": InitRule.const(2)}))
    assert a == b == 2 * 16
    with pytest.raises(ParameterError, match="init"):
        build("moessner_init", {"x": 3, "n": 2, "init": 7})


def test_fold_rule_forms():
    assert evaluate(build("fold", {"x": 2, "n": 3, "rule": ("prev_plus", 1)})) == evaluate(
        build("fold", {"x": 2, "n": 3, "rule": "prev_plus:1"})
    )
    with pytest.raises(ParameterError, match="rule"):
        build("fold", {"x": 2, "n": 3, "rule": ["keep"]})


def test_fold_rule_tuples_are_refused_where_their_strings_are():
    # n=1 has no level 2, so a rule the builder never reads must still be refused
    refused = {("bogus", 0): "bogus", ("keep", 7): "keep:7", ("prev_plus", True): "prev_plus:True",
               ("prev_plus", "2"): "prev_plus:x"}
    for rule, spec in refused.items():
        for form in (rule, spec):
            with pytest.raises(ParameterError, match="fold rule"):
                build("fold", {"x": 2, "n": 1, "rule": form})
    for rule, spec in ((("keep", 0), "keep"), (("prev_plus", 0), "prev_plus:0"), (("prev_plus", -1), "prev_plus:-1")):
        assert build("fold", {"x": 2, "n": 2, "rule": rule}) == build("fold", {"x": 2, "n": 2, "rule": spec})


def test_fold_specializations():
    for x in range(4):
        for n in range(4):
            base = {"x": x, "n": n}
            assert unfold_display(build("fold", {**base, "rule": "keep"})) == unfold_display(
                build("moessner", base)
            )
            assert evaluate(build("fold", {**base, "rule": "keep"})) == evaluate(
                build("moessner", base)
            )
            assert evaluate(build("fold", {**base, "rule": "const_x"})) == evaluate(
                build("moessner_stolid", base)
            )
            assert evaluate(build("fold", {**base, "rule": "prev"})) == evaluate(
                build("binomial", base)
            )
            assert evaluate(build("fold", {**base, "rule": "prev_plus:1"})) == evaluate(
                build("catalan_convolved", base)
            )
            assert evaluate(build("fold", {**base, "rule": "mult_x"})) == evaluate(
                build("xfold_factorial", base)
            )
            if n >= 1:
                assert evaluate(build("fold", {**base, "rule": "level"})) == evaluate(
                    build("factorial_multiple", base)
                )
    for n in range(5):
        assert evaluate(build("fold", {"x": 0, "n": n, "rule": "prev_plus:3"})) == evaluate(
            build("a002293", {"n": n})
        )


def test_fold_without_oracle_has_no_expected():
    assert evaluate(build("fold", {"x": 1, "n": 3, "rule": "prev_plus:2"})) > 0
    with pytest.raises(ParameterError, match="no oracle"):
        expected("fold", {"x": 1, "n": 3, "rule": "prev_plus:2"})
    with pytest.raises(ParameterError, match="no oracle"):
        expected("fold", {"x": 2, "n": 3, "rule": "prev_plus:3"})  # oracle is x=0 only


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("a137273", {"n": 17}, "A137273 fixture has no entry at index 17"),
        ("moessner_init", {"x": 1, "n": 2, "init": "indicator:2:3"}, "no closed form for an indicator init"),
    ],
    ids=["past the fixture", "indicator without the extra round"],
)
def test_expected_refuses_points_it_has_no_value_for(name, params, message):
    build(name, params)  # the point itself is valid
    with pytest.raises(ParameterError, match=message):
        expected(name, params)


def test_another_round_shifts_the_exponent():
    for x in range(5):
        for n in range(4):
            assert evaluate(build("another_round", {"x": x, "n": n})) == evaluate(
                build("moessner", {"x": x, "n": n + 1})
            )


def test_factorial_permuted_rejects_non_permutation():
    with pytest.raises(ParameterError, match="permutation"):
        build("factorial_permuted", {"n": 3, "f": (0, 0, 2)})
    with pytest.raises(ParameterError, match="permutation"):
        build("factorial_permuted", {"n": 3, "f": (0, 1)})


def test_product_of_table_needs_enough_entries():
    with pytest.raises(ParameterError, match="at least"):
        build("product_of_table", {"n": 3, "f": (2, 3)})
    with pytest.raises(ParameterError, match="natural"):
        build("product_of_table", {"n": 1, "f": (2, -3)})


def test_product_of_table_rejects_non_natural_tables():
    # a float entry used to be truncated, a str entry or a scalar table to escape as a bare error
    for table in ([1.5, 2], ["a", 1], 5):
        with pytest.raises(ParameterError, match="natural"):
            build("product_of_table", {"n": 1, "f": table})


def test_parse_params_grammar():
    assignments = ["x=3", " n = 4 ", "", "f=1:3:2", "init=indicator:2:3", "rule=prev_plus:1"]
    assert parse_params(assignments) == {
        "x": 3,
        "n": 4,
        "f": (1, 3, 2),
        "init": "indicator:2:3",
        "rule": "prev_plus:1",
    }
    bad = {"x 3": "key=value", "x=a": "non-integer", "f=1:b": "non-integer", "f=": "non-integer"}
    for assignment, message in bad.items():
        with pytest.raises(ParameterError, match=message):
            parse_params([assignment])
    with pytest.raises(ParameterError, match="'x' given more than once"):
        parse_params(["x=1", "x=2"])


def test_multiset_shift_identity():
    # C(x+n-1, n) at x+1 equals C(x+n, n)
    for x in range(8):
        for n in range(6):
            assert evaluate(build("multiset", {"x": x + 1, "n": n})) == evaluate(
                build("binomial", {"x": x, "n": n})
            )


def test_catalan_variants_agree():
    for n in range(9):
        assert evaluate(build("catalan_from_one", {"n": n})) == evaluate(
            build("catalan", {"n": n})
        )


def _widened_count(x, n):
    # depth-n chain where each new index may also grow later bounds
    @lru_cache(maxsize=None)
    def w(m, t):
        if m == 0:
            return 1
        return sum(w(m - 1, t + i) for i in range(t + 1))

    return w(n, x)


def test_a125860_matches_widening_recursion():
    for x in range(4):
        for n in range(6):
            assert evaluate(build("a125860", {"x": x, "n": n})) == _widened_count(x, n)


def test_a125860_expected_is_pinned_to_x1():
    assert evaluate(build("a125860", {"x": 2, "n": 3})) == _widened_count(2, 3)
    with pytest.raises(ParameterError, match="x=1"):
        expected("a125860", {"x": 2, "n": 3})


def _two_back_count(n):
    if n <= 1:
        return 1

    @lru_cache(maxsize=None)
    def paths(k, a, b):
        if k == n:
            return 1
        return sum(paths(k + 1, b, i) for i in range(a + b + 1))

    return sum(paths(2, 0, i2) for i2 in range(2))


def test_a137273_matches_two_back_recursion():
    for n in range(11):
        assert evaluate(build("a137273", {"n": n})) == _two_back_count(n)


def test_a002449_branching_parameter():
    assert evaluate(build("a002449", {"n": 3})) == evaluate(build("a002449", {"n": 3, "b": 2}))
    v3 = evaluate(build("a002449", {"n": 2, "b": 3}))
    assert v3 > 0
    with pytest.raises(ParameterError, match="b=2"):
        expected("a002449", {"n": 2, "b": 3})
    with pytest.raises(ParameterError, match=">= 2"):
        build("a002449", {"n": 2, "b": 1})


def test_irwin_matches_base_form():
    for n in range(1, 7):
        assert evaluate(build("a002449_irwin", {"n": n})) == expected(
            "a002449_irwin", {"n": n}
        )
        # the doubled-body form collapses one level of the b=2 chain
        assert evaluate(build("a002449_irwin", {"n": n})) == evaluate(
            build("a002449", {"n": n})
        )
    with pytest.raises(ParameterError, match="n >= 1"):
        build("a002449_irwin", {"n": 0})


def test_lahlou_needs_two_terms():
    with pytest.raises(ParameterError, match="n >= 2"):
        build("fibonacci_lahlou", {"n": 1})
    for n in range(2, 10):
        assert evaluate(build("fibonacci_lahlou", {"n": n})) == evaluate(
            build("fibonacci", {"n": n})
        )


def test_schema_errors():
    with pytest.raises(ParameterError, match="unknown preset"):
        build("mystery", {"n": 1})
    with pytest.raises(ParameterError, match="unknown preset"):
        expected("mystery", {"n": 1})
    with pytest.raises(ParameterError, match="missing"):
        build("moessner", {"x": 2})
    with pytest.raises(ParameterError, match="unexpected"):
        build("moessner", {"x": 2, "n": 1, "a": 3})
    with pytest.raises(ParameterError, match="natural"):
        build("moessner", {"x": -2, "n": 1})
    with pytest.raises(ParameterError, match="natural"):
        build("moessner", {"x": 2, "n": True})
    with pytest.raises(ParameterError, match="natural"):
        build("rosen_triple", {"n1": 1, "n2": 2, "n3": -1})


def test_expected_literal_examples():
    assert expected("moessner", {"x": 0, "n": 7}) == 1
    assert expected("moessner", {"x": 1, "n": 10}) == 1024
    assert expected("long2", {"x": 2, "n": 1, "a": 2, "d": 3}) == 24
    assert expected("rosen_triple", {"n1": 2, "n2": 3, "n3": 4}) == 24
    assert expected("a002449", {"n": 3}) == 166
    assert expected("catalan", {"n": 12}) == 208012
    assert expected("euler_zigzag", {"n": 9}) == 7936


def test_instantiate_and_catalog():
    cat = catalog()
    assert [row["name"] for row in cat] == preset_names()
    by_name = {row["name"]: row for row in cat}
    assert by_name["euler_zigzag"]["oeis"] == "A000111"
    assert by_name["catalan"]["oeis"] == "A000108"
    assert by_name["moessner"]["params"] == ["x", "n"]
    assert by_name["a002449"]["optional"] == ["b"]
    assert by_name["moessner_stolid"]["oeis"] is None
    assert len(cat) == 29


def test_memoized_usable_on_markov_presets():
    for name, params in (
        ("moessner", {"x": 7, "n": 4}),
        ("binomial", {"x": 8, "n": 4}),
        ("euler_zigzag", {"n": 8}),
        ("a002449", {"n": 5}),
    ):
        assert evaluate_memoized(build(name, params)) == expected(name, params)


def test_sweep_uses_the_tables_exactly_for_markov_programs(monkeypatch):
    used = []

    def recorded(name):
        original = getattr(engine, name)

        def call(program):
            used.append(name)
            return original(program)

        return call

    for name in ("evaluate", "evaluate_counting", "evaluate_memoized"):
        monkeypatch.setattr(engine, name, recorded(name))
    # a137273 is Markov for n <= 2 only; past it, the counted route's value and never the walk's entry
    assert sweep("a137273", {}, "n", range(6)) == [expected("a137273", {"n": n}) for n in range(6)]
    assert used == ["evaluate_memoized"] * 3 + ["evaluate_counting"] * 3


def test_sweep_refuses_a_fixed_parameter_it_would_override():
    with pytest.raises(ParameterError, match="^parameter 'n' is both fixed and swept$"):
        sweep("moessner", {"x": 2, "n": 9}, "n", range(3))
    assert sweep("moessner", {"x": 2}, "n", range(3)) == [1, 3, 9]


def _polygonal(*argv):
    return lambda t: build_parser().parse_args(["polygonal", *(t if a == "{}" else a for a in argv)])


# each site that reads an integer from text: (call on the text, what it raises, its text or argparse's last line)
_INTEGER_SITES = {
    "params": (lambda t: parse_params([f"n={t}"]), ParameterError, "non-integer value in 'n={}'"),
    "table": (lambda t: parse_params([f"f=1:{t}"]), ParameterError, "non-integer value in 'f=1:{}'"),
    "manifest": (lambda t: parse_manifest(f"catalan A000108 from={t}\n"), BFileParseError,
                 "manifest line 1: non-integer value in 'from={}'"),
    "init": (lambda t: InitRule.parse(f"indicator:1:{t}"), ParameterError, "non-integer field in init spec 'indicator:1:{}'"),
    "fold rule": (lambda t: parse_fold_rule(f"prev_plus:{t}"), ParameterError, "non-integer offset in fold rule 'prev_plus:{}'"),
    "--count": (_polygonal("--k", "3", "--count", "{}"), SystemExit,
                "moessner polygonal: error: argument --count: must be a natural number, got '{}'"),
    "--k": (_polygonal("--k", "{}", "--count", "2"), SystemExit, "moessner polygonal: error: argument --k: invalid int value: '{}'"),
    "a-number": (normalize_a_number, PreconditionError, "bad sequence id '{}'"),
}


@pytest.mark.parametrize("site", list(_INTEGER_SITES))
def test_every_integer_read_from_text_is_a_minus_and_ascii_digits(capsys, site):
    # int() alone reads each of these: '1_0' as 10, '+5' as 5 and Arabic-Indic '١٢' as 12
    call, error, text = _INTEGER_SITES[site]
    for bad in ("1_0", "+5", "\u0661\u0662"):
        with pytest.raises(error) as raised:
            call(bad)
        shown = capsys.readouterr().err.splitlines()[-1] if error is SystemExit else str(raised.value)
        assert shown == text.format(bad)


def test_parse_params_past_the_digit_limit_names_the_limit(default_digit_limit):
    for assignment in ("x=" + "9" * 5000, "f=1:" + "9" * 5000):
        with pytest.raises(ParameterError, match=f"limit of {default_digit_limit} digits"):
            parse_params([assignment])
