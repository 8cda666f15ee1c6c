"""The frozen records: construction, defaults, checks, repr, eq and hash, immutability, copy and pickle."""

import copy
import dataclasses
import pickle
import re

import pytest

from moessner.counting import CountingNat
from moessner import engine
from moessner.engine import EvalReport, LevelSpec, SummationProgram, evaluate, evaluate_counting, is_markov, validate
from moessner.errors import ParameterError, PreconditionError, ValidationError
from moessner.expr import Add, FloorDiv, Hist, IfZero, Lit, Mul, Param, Prev, Sub, Table
from moessner.oeis import BFileEntry, PrefixCheckLine
from moessner.presets import PresetInfo, build
from moessner.process import ProcessStep
from moessner.record import Record
from moessner.rules import InitRule


def test_kinds_with_equal_fields_differ():
    add, sub = Add(Lit(1), Prev()), Sub(Lit(1), Prev())
    assert add != sub and not add == sub
    assert len({add, sub}) == 2 and {add: "+", sub: "-"}[sub] == "-"
    assert Add(Lit(1), Prev()) == add and hash(Add(Lit(1), Prev())) == hash(add)
    assert Prev() == Prev() and hash(Prev()) == hash(Prev())
    assert Lit(1) != 1 and Lit(1) != (1,) and Lit(1) != Param("x")


def test_equality_is_the_fields_own():
    assert Lit(1) == Lit(True) and hash(Lit(1)) == hash(Lit(True))
    assert Lit(1) != Lit(2)
    assert Mul(Lit(2), Hist(1)) != Mul(Hist(1), Lit(2))
    assert LevelSpec(0, Param("x")) == LevelSpec(0, Param("x")) != LevelSpec(1, Param("x"))
    assert EvalReport(5, 4, 5) == EvalReport(5, 4, 5) != EvalReport(5, 4, 6)
    assert InitRule.const(1) == InitRule("const", 1, 0)
    assert CountingNat(3) == CountingNat(3, 0, 0) != CountingNat(3, 1)


def test_reprs():
    assert repr(Add(Lit(1), Prev())) == "Add(lhs=Lit(value=1), rhs=Prev())"
    assert repr(FloorDiv(Table(Hist(2)), 3)) == "FloorDiv(num=Table(index=Hist(index=2)), div=3)"
    assert repr(IfZero(Param("x"), Lit(0), Sub(Lit(1), Prev()))) == (
        "IfZero(cond=Param(name='x'), then=Lit(value=0), orelse=Sub(lhs=Lit(value=1), rhs=Prev()))"
    )
    assert repr(InitRule.indicator(2, 3)) == "InitRule(kind='indicator', a=2, d=3)"
    assert repr(LevelSpec(0, Param("x"))) == "LevelSpec(lower=0, bound=Param(name='x'))"
    assert repr(EvalReport(64, 63, 64)) == "EvalReport(value=64, additions=63, leaves=64)"
    assert repr(BFileEntry(1, 2)) == "BFileEntry(index=1, value=2)"


def test_keyword_construction_and_defaults():
    assert Add(rhs=Prev(), lhs=Lit(1)) == Add(Lit(1), rhs=Prev()) == Add(Lit(1), Prev())
    assert FloorDiv(num=Lit(7), div=2).div == 2
    assert (InitRule("const").a, InitRule("const").d) == (1, 0)
    assert InitRule(kind="indicator", d=4) == InitRule("indicator", 1, 4)
    counted = CountingNat(5)
    assert (counted.value, counted.additions, counted.multiplications) == (5, 0, 0)
    assert CountingNat(5, multiplications=2).multiplications == 2
    info = PresetInfo("p", ("n",), "n", build, len)
    assert info.oeis is None and dict(info.defaults) == {}
    assert PresetInfo("p", ("n",), "n", build, len, oeis="A000027", defaults={"b": 2}).defaults == {"b": 2}
    assert PrefixCheckLine(0, 1, None).ok is False and PrefixCheckLine(0, 1, 1).ok is True
    with pytest.raises(TypeError):
        Add(Lit(1))
    with pytest.raises(TypeError):
        Lit(1, 2)
    with pytest.raises(TypeError):
        Lit(size=1)


@pytest.mark.parametrize(
    "record,field",
    [
        (Lit(1), "value"),
        (Add(Lit(1), Prev()), "lhs"),
        (Prev(), "index"),
        (LevelSpec(0, Lit(1)), "bound"),
        (EvalReport(1, 0, 1), "value"),
        (InitRule.successor(), "kind"),
        (CountingNat(1), "additions"),
        (ProcessStep(2, (1,), (1,), (1,)), "period"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_setattr_and_delattr_are_refused(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 7
    assert repr(record) == before


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: Param("q"), ValidationError, "unknown parameter 'q'; use one of ('x', 'n', 'a', 'd', 'k') or Table for f"),
        (lambda: Param(name="f"), ValidationError, "unknown parameter 'f'; use one of ('x', 'n', 'a', 'd', 'k') or Table for f"),
        (lambda: FloorDiv(Lit(1), 0), ValidationError, "floor-division divisor must be a positive literal, got 0"),
        (lambda: FloorDiv(Lit(1), True), ValidationError, "floor-division divisor must be a positive literal, got True"),
        (lambda: FloorDiv(num=Lit(1), div=Lit(2)), ValidationError,
         "floor-division divisor must be a positive literal, got Lit(value=2)"),
        (lambda: LevelSpec(2, Lit(1)), ValidationError, "level lower bound must be 0 or 1, got 2"),
        (lambda: LevelSpec(True, Lit(1)), ValidationError, "level lower bound must be 0 or 1, got True"),
        (lambda: InitRule("ramp"), ParameterError, "unknown init kind 'ramp' (use one of ('const', 'indicator', 'successor'))"),
        (lambda: InitRule("const", a=-1), ParameterError, "init values must be naturals"),
        (lambda: InitRule("indicator", 1, d=-1), ParameterError, "init values must be naturals"),
        (lambda: InitRule("const", a="3"), ParameterError, "init values must be naturals"),
        (lambda: InitRule("indicator", a=2, d=None), ParameterError, "init values must be naturals"),
        (lambda: CountingNat(-1), PreconditionError, "CountingNat value must be >= 0, got -1"),
        (lambda: CountingNat("5"), PreconditionError, "CountingNat value must be >= 0, got '5'"),
        (lambda: CountingNat(1, multiplications=-1), PreconditionError, "operation tallies must be >= 0"),
    ],
)
def test_checks_keep_their_texts(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


def test_programs_survive_deepcopy_and_pickle():
    program = build("long2", {"x": 2, "n": 3, "a": 1, "d": 2})
    for twin in (copy.deepcopy(program), pickle.loads(pickle.dumps(program)), copy.copy(program)):
        assert twin == program and twin.levels == program.levels and twin.body == program.body
        assert evaluate(twin) == evaluate(program) == 135
    nodes = [Add(Lit(1), Prev()), LevelSpec(1, Mul(Param("x"), Prev())), IfZero(Prev(), Lit(0), Table(Hist(1))), InitRule.indicator(2, 5)]
    for node in nodes:
        assert copy.deepcopy(node) == node and copy.copy(node) == node
    assert pickle.loads(pickle.dumps(nodes[0])) == nodes[0]


def test_preset_records_survive_deepcopy_and_pickle():
    # a record built without defaults gets a fresh plain {}, which copies as a mapping proxy would not
    bare, given = PresetInfo("p", ("n",), "n", build, len), PresetInfo("q", ("n",), "n", build, len, defaults={"b": 2})
    assert bare.defaults == {} and bare.defaults is not PresetInfo("p", ("n",), "n", build, len).defaults
    for info in (bare, given):
        for twin in (copy.deepcopy(info), pickle.loads(pickle.dumps(info)), copy.copy(info)):
            assert twin == info and twin.defaults == info.defaults


def test_dataclasses_replace_on_a_program():
    program = build("long2", {"x": 2, "n": 3, "a": 1, "d": 2})
    counted = dataclasses.replace(program, body=Lit(1))
    assert counted.body == Lit(1) and counted.levels == program.levels and counted.params == program.params
    assert evaluate_counting(counted).leaves == evaluate_counting(program).leaves


def _program(**params):
    return SummationProgram(2, [LevelSpec(0, Param("x")), LevelSpec(1, Prev())], Mul(Hist(2), Lit(2)), params)


def test_a_program_keeps_its_dataclass_construction_repr_eq_and_hash():
    first, second = SummationProgram(0, (), Lit(3)), SummationProgram(0, (), Lit(3))
    assert first.params == {} and first.params is not second.params  # each its own dict, as default_factory gave
    program = _program(x=2, f=(1, 2))
    assert type(program.levels) is tuple and program.levels == (LevelSpec(0, Param("x")), LevelSpec(1, Prev()))
    assert repr(program) == (
        "SummationProgram(depth=2, levels=(LevelSpec(lower=0, bound=Param(name='x')), LevelSpec(lower=1, "
        "bound=Prev())), body=Mul(lhs=Hist(index=2), rhs=Lit(value=2)), params={'x': 2, 'f': (1, 2)})"
    )
    assert repr(first) == "SummationProgram(depth=0, levels=(), body=Lit(value=3), params={})"
    assert first == SummationProgram(0, [], Lit(3), {}) == SummationProgram(depth=0, levels=(), body=Lit(3))
    assert program == _program(x=2, f=(1, 2)) != _program(x=3, f=(1, 2))
    assert program.__eq__((2, program.levels, program.body, program.params)) is NotImplemented
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(program)


@pytest.mark.parametrize(
    "args,message",
    [
        ((True, (), Lit(1)), "depth must be an int, got True"),
        ((1.0, [LevelSpec(0, Lit(1))], Lit(1)), "depth must be an int, got 1.0"),
        ((2, [LevelSpec(0, Lit(1))], Lit(1)), "depth 2 does not match 1 level specs"),
    ],
)
def test_a_program_keeps_its_depth_error_texts(args, message):
    with pytest.raises(ValidationError) as caught:
        SummationProgram(*args)
    assert str(caught.value) == message


def test_dataclasses_fields_names_a_programs_fields():
    assert [f.name for f in dataclasses.fields(_program(x=3))] == ["depth", "levels", "body", "params"]
    assert [f.name for f in dataclasses.fields(SummationProgram)] == ["depth", "levels", "body", "params"]


def test_dataclasses_fields_and_replace_on_other_records():
    spec = LevelSpec(0, Prev())
    assert [f.name for f in dataclasses.fields(spec)] == ["lower", "bound"]
    assert dataclasses.replace(spec, lower=1) == LevelSpec(1, Prev())
    with pytest.raises(ValidationError, match="level lower bound must be 0 or 1, got 2"):
        dataclasses.replace(spec, lower=2)
    assert dataclasses.replace(Add(Lit(1), Prev()), rhs=Lit(2)) == Add(Lit(1), Lit(2))
    info = PresetInfo("p", ("n",), "n", build, len)
    assert dataclasses.replace(info, oeis="A000027") == PresetInfo("p", ("n",), "n", build, len, oeis="A000027")
    assert not dataclasses.is_dataclass(Record)


def test_each_program_analyses_itself_once(monkeypatch):
    walks = []
    original = engine.validate_expr
    monkeypatch.setattr(engine, "validate_expr", lambda *args, **kw: walks.append(args[0]) or original(*args, **kw))
    program = _program(x=3)
    assert is_markov(program) and validate(program) is None and is_markov(program)
    assert len(walks) == 3  # two bounds and the body, once
    for twin in (copy.copy(program), copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        walks.clear()
        assert twin == program and is_markov(twin) and len(walks) == 3  # no copy carries its original's analysis
        assert evaluate(twin) == 2 * (1 + 3 + 6)  # 2 * i2 over 1 <= i2 <= i1 <= 3
    changed = dataclasses.replace(program, body=Mul(Hist(1), Param("n")))
    assert not is_markov(changed) and is_markov(program)
    with pytest.raises(ParameterError, match=re.escape("missing parameters: ['n']")):
        validate(changed)
    assert evaluate(dataclasses.replace(changed, params={"x": 3, "n": 1})) == 1 * 1 + 2 * 2 + 3 * 3


def test_an_analysis_that_raises_raises_again():
    program = SummationProgram(1, [LevelSpec(0, Lit(1))], Hist(5))
    for _ in range(2):
        with pytest.raises(ValidationError, match=re.escape("body: Hist(5) out of range at level 2 (valid: 1..1)")):
            validate(program)
