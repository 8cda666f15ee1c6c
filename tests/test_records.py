"""The frozen records: construction, defaults, checks, repr, eq and hash, immutability, copy and pickle."""

import copy
import dataclasses
import pickle
import re

import pytest

from moessner.counting import CountingNat
from moessner.engine import EvalReport, LevelSpec, evaluate, evaluate_counting
from moessner.errors import ParameterError, PreconditionError, ValidationError
from moessner.expr import Add, Custom, FloorDiv, Hist, IfZero, Lit, Mul, Param, Prev, Sub, Table
from moessner.oeis import BFileEntry, PrefixCheckLine
from moessner.presets import PresetInfo, build
from moessner.process import ProcessStep
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
    assert re.fullmatch(r"Custom\(fn=<built-in function len>, label='custom'\)", repr(Custom(len)))
    assert repr(InitRule.indicator(2, 3)) == "InitRule(kind='indicator', a=2, d=3)"
    assert repr(LevelSpec(0, Param("x"))) == "LevelSpec(lower=0, bound=Param(name='x'))"
    assert repr(EvalReport(64, 63, 64)) == "EvalReport(value=64, additions=63, leaves=64)"
    assert repr(BFileEntry(1, 2)) == "BFileEntry(index=1, value=2)"


def test_keyword_construction_and_defaults():
    assert Add(rhs=Prev(), lhs=Lit(1)) == Add(Lit(1), rhs=Prev()) == Add(Lit(1), Prev())
    assert FloorDiv(num=Lit(7), div=2).div == 2
    assert Custom(len).label == "custom" and Custom(fn=len, label="size").label == "size"
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
        (lambda: CountingNat(-1), PreconditionError, "CountingNat value must be >= 0, got -1"),
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
    nodes = [Add(Lit(1), Prev()), Custom(len, "size"), IfZero(Prev(), Lit(0), Table(Hist(1))), InitRule.indicator(2, 5)]
    for node in nodes:
        assert copy.deepcopy(node) == node and copy.copy(node) == node
    assert pickle.loads(pickle.dumps(nodes[0])) == nodes[0]


def test_dataclasses_replace_on_a_program():
    program = build("long2", {"x": 2, "n": 3, "a": 1, "d": 2})
    counted = dataclasses.replace(program, body=Lit(1))
    assert counted.body == Lit(1) and counted.levels == program.levels and counted.params == program.params
    assert evaluate_counting(counted).leaves == evaluate_counting(program).leaves
