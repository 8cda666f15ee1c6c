"""Catalog of nested-summation programs for named integer sequences.

There is one record per preset (`PresetInfo`): its parameter schema and
the defaults of its optional parameters, a builder (parameters ->
SummationProgram), an independent expected-value source (closed form,
recurrence, or bundled sequence fixture), and, where one exists, an OEIS
A-number. The `_preset` decorator on each builder registers its record, so
a preset's facts sit next to its program. Every program is one chain of
levels (`_chain`): each builder, after its own refusals, names the chain's
depth, level-1 bound, level-k bound, body and lower bound, or instantiates
`fold` with a rule. The builders only assemble programs; all values come out
of the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from . import engine
from .engine import LevelSpec, SummationProgram, is_natural, normalize_params, validate
from .errors import ParameterError, digit_limit, integer
from .expr import (
    Add,
    Expr,
    Hist,
    Lit,
    Mul,
    Param,
    Prev,
    ProdHist,
    Sub,
    SumHist,
    Table,
)
from .record import Record
from .rules import LEVEL_FREE_RULES, InitRule, fold_bound, fold_rule, keep_bound, parse_fold_rule

Params = Dict[str, Any]
Builder = Callable[[Params], SummationProgram]


class PresetInfo(Record):
    name: str
    schema: Tuple[str, ...]  # required parameter names, CLI order
    computes: str  # what the value is, in plain math
    builder: Builder
    expected: Callable[[Params], int]  # independent of the engine
    oeis: Optional[str] = None
    defaults: Optional[Mapping[str, Any]] = None  # optional parameters; None: _check sets a fresh {} for this record

    def _check(self) -> None:
        if self.defaults is None:  # a Record default is one object, shared by every record
            object.__setattr__(self, "defaults", {})


_PRESETS: Dict[str, PresetInfo] = {}


def _preset(
    name: str,
    schema: Tuple[str, ...],
    computes: str,
    expected: Callable[[Params], int],
    oeis: Optional[str] = None,
    **defaults: Any,
) -> Callable[[Builder], Builder]:
    """Register the decorated builder as preset `name`."""

    def register(builder: Builder) -> Builder:
        _PRESETS[name] = PresetInfo(name, schema, computes, builder, expected, oeis, defaults)
        return builder

    return register


# expected-value sources shared by several presets or too long for a lambda


def _fixture_expected(a_number: str, index: int) -> int:
    from .oeis import load_fixture  # deferred: oeis imports presets for prefix checks

    entries = {e.index: e.value for e in load_fixture(a_number)}
    if index not in entries:
        raise ParameterError(f"{a_number} fixture has no entry at index {index}")
    return entries[index]


def _expected_power(p: Params) -> int:
    return oracles.pow_fast(p["x"] + 1, p["n"])


def _expected_moessner_init(p: Params, extra_rounds: int) -> int:
    init: InitRule = p["init"]
    x, n = p["x"], p["n"]
    rounds = n + extra_rounds
    if init.kind == "const":
        return init.a * oracles.pow_fast(x + 1, rounds)
    if init.kind == "successor":
        return oracles.pow_fast(x + 1, rounds + 1)
    if extra_rounds == 1:  # indicator needs the extra iteration to telescope
        return oracles.long2_closed(x, n, init.a, init.d)
    raise ParameterError("no closed form for an indicator init without the extra round")


def _expected_fold(p: Params) -> int:
    rule, offset = p["rule"]
    x, n = p["x"], p["n"]
    if rule in ("keep", "const_x"):
        return oracles.pow_fast(x + 1, n)
    if rule == "level":
        return 1 if n == 0 else oracles.factorial(n) * (x + 1)
    if rule == "mult_x":
        return oracles.multifactorial(x, n)
    if rule == "prev":
        return oracles.binomial(x + n, n)
    if rule == "prev_plus" and offset == 1:
        return oracles.catalan_convolved(x, n)
    if rule == "prev_plus" and offset == 3 and x == 0:
        return oracles.fuss_catalan(4, n)
    raise ParameterError(f"no oracle for fold rule {rule}:{offset} at x={x}")


def _expected_a125860(p: Params) -> int:
    if p["x"] != 1:
        raise ParameterError("a125860 fixture covers x=1 only")
    return _fixture_expected("A125860", p["n"])


def _expected_a002449(p: Params) -> int:
    if p["b"] != 2:
        raise ParameterError("a002449 oracle covers branching b=2 only")
    return oracles.a002449_rec(p["n"] + 2)


# every preset is one chain of levels


def _chain(p: Params, depth: int, first: Expr, rest: Union[Expr, Callable[[int], Expr]],
           body: Expr = Lit(1), lower: int = 0, **extra: Any) -> SummationProgram:
    """sum(i1=lower..first) sum(ik=lower..rest(k)) for k = 2..depth, then body.

    A rest that is an Expr is the bound of every later level, one object that
    the memo reads once. Its params are p's engine parameters plus `extra`,
    what the builder derived.
    """
    if isinstance(rest, Expr):
        later = [LevelSpec(lower, rest)] * (depth - 1)
    else:
        later = [LevelSpec(lower, rest(k)) for k in range(2, depth + 1)]
    levels = [LevelSpec(lower, first), *later][:depth]
    params = {key: p[key] for key in engine.ALLOWED_PARAM_KEYS if key in p}
    return SummationProgram(depth, levels, body, {**params, **extra})


# the presets


@_preset("moessner", ("x", "n"), "(x+1)^n", _expected_power, "A000079")
def _build_moessner(p: Params) -> SummationProgram:
    return _build_fold({**p, "rule": ("keep", 0)})


@_preset("moessner_stolid", ("x", "n"), "(x+1)^n with all bounds x", _expected_power)
def _build_stolid(p: Params) -> SummationProgram:
    return _build_fold({**p, "rule": ("const_x", 0)})


@_preset("moessner_init", ("x", "n", "init"), "process value for an initial segment",
         lambda p: _expected_moessner_init(p, 0))
def _build_moessner_init(p: Params) -> SummationProgram:
    n = p["n"]  # the body reads the survivor's index: the bound level n+1 would have
    body, extra = p["init"].body_expr(keep_bound(n + 1) if n else Param("x"))
    return _chain(p, n, Param("x"), keep_bound, body, **extra)


@_preset("moessner_init_plus", ("x", "n", "init"), "one extra round over the initial segment",
         lambda p: _expected_moessner_init(p, 1))
def _build_moessner_init_plus(p: Params) -> SummationProgram:
    body, extra = p["init"].body_expr(keep_bound(p["n"] + 2))
    return _chain(p, p["n"] + 1, Param("x"), keep_bound, body, **extra)


@_preset("long1", ("x", "n", "a"), "a*(x+1)^n", lambda p: p["a"] * _expected_power(p))
def _build_long1(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Param("x"), keep_bound, Param("a"))


@_preset("long2", ("x", "n", "a", "d"), "(a+d*x)*(x+1)^n",
         lambda p: oracles.long2_closed(p["x"], p["n"], p["a"], p["d"]))
def _build_long2(p: Params) -> SummationProgram:
    return _build_moessner_init_plus({**p, "init": InitRule.indicator(p["a"], p["d"])})


@_preset("another_round", ("x", "n"), "(x+1)^(n+1)",
         lambda p: oracles.pow_fast(p["x"] + 1, p["n"] + 1))
def _build_another_round(p: Params) -> SummationProgram:
    return _build_moessner_init({**p, "init": InitRule.successor()})


@_preset("fold", ("x", "n", "rule"), "generic fold; value depends on the rule", _expected_fold)
def _build_fold(p: Params) -> SummationProgram:
    rule, offset = p["rule"]
    rest = fold_bound(rule, 2, offset) if rule in LEVEL_FREE_RULES else lambda k: fold_bound(rule, k, offset)
    return _chain(p, p["n"], Param("x"), rest)


@_preset("factorial_rising", ("n",), "(n+1)!", lambda p: oracles.factorial(p["n"] + 1), "A000142")
def _build_factorial_rising(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(1), Lit)


@_preset("factorial_falling", ("n",), "n!", lambda p: oracles.factorial(p["n"]), "A000142")
def _build_factorial_falling(p: Params) -> SummationProgram:
    n = p["n"]
    return _chain(p, n, Lit(n - 1), lambda k: Lit(n - k))


@_preset("factorial_permuted", ("n", "f"), "n! (f = permutation of 0..n-1)",
         lambda p: oracles.factorial(p["n"]))
def _build_factorial_permuted(p: Params) -> SummationProgram:
    n, perm = p["n"], p["f"]
    if sorted(perm) != list(range(n)):
        raise ParameterError(f"f must be a permutation of 0..{n - 1}, got {list(perm)}")
    return _chain(p, n, Table(Lit(0)), lambda k: Table(Lit(k - 1)))


@_preset("factorial_multiple", ("x", "n"), "n!*(x+1)",
         lambda p: oracles.factorial(p["n"]) * (p["x"] + 1))
def _build_factorial_multiple(p: Params) -> SummationProgram:
    # one level even at n=0 so the value carries the x+1 factor
    return _chain(p, max(p["n"], 1), Param("x"), lambda k: Lit(k - 1))


@_preset("xfold_factorial", ("x", "n"), "(x*1+1)*(x*2+1)*...*(x*n+1)",
         lambda p: oracles.multifactorial(p["x"], p["n"]), "A001147")
def _build_xfold_factorial(p: Params) -> SummationProgram:
    return _build_fold({**p, "rule": ("mult_x", 0)})


@_preset("product_of_table", ("n", "f"), "f(0)*f(1)*...*f(n)",
         lambda p: oracles.product_table(p["f"], p["n"]))
def _build_product_of_table(p: Params) -> SummationProgram:
    n, table = p["n"], p["f"]
    if len(table) < n + 1:
        raise ParameterError(f"f must have at least n+1 = {n + 1} entries, got {len(table)}")
    return _chain(p, n + 1, Table(Lit(0)), lambda k: Table(Lit(k - 1)), lower=1)


@_preset("rosen_triple", ("n1", "n2", "n3"), "n1*n2*n3", lambda p: p["n1"] * p["n2"] * p["n3"])
def _build_rosen_triple(p: Params) -> SummationProgram:
    table = (p["n1"], p["n2"], p["n3"])
    return _chain(p, 3, Table(Lit(0)), lambda k: Table(Lit(k - 1)), lower=1, f=table)


@_preset("binomial", ("x", "n"), "C(x+n, n)",
         lambda p: oracles.binomial(p["x"] + p["n"], p["n"]), "A000217")
def _build_binomial(p: Params) -> SummationProgram:
    return _build_fold({**p, "rule": ("prev", 0)})


@_preset("multiset", ("x", "n"), "C(x+n-1, n)", lambda p: oracles.multiset(p["x"], p["n"]))
def _build_multiset(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Param("x"), Prev(), lower=1)


@_preset("catalan", ("n",), "Catalan number C_n", lambda p: oracles.catalan(p["n"]), "A000108")
def _build_catalan(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(0), Add(Prev(), Lit(1)))


@_preset("catalan_from_one", ("n",), "Catalan number C_n, sums from 1",
         lambda p: oracles.catalan(p["n"]), "A000108")
def _build_catalan_from_one(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(1), Add(Prev(), Lit(1)), lower=1)


@_preset("catalan_convolved", ("x", "n"), "(x+1)*C(2n+x, n)/(n+x+1)",
         lambda p: oracles.catalan_convolved(p["x"], p["n"]), "A000245")
def _build_catalan_convolved(p: Params) -> SummationProgram:
    return _build_fold({**p, "rule": ("prev_plus", 1)})


@_preset("a002293", ("n",), "C(4n, n)/(3n+1)", lambda p: oracles.fuss_catalan(4, p["n"]), "A002293")
def _build_a002293(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(0), Add(Prev(), Lit(3)))


@_preset("positive_integers", ("n",), "n+1", lambda p: p["n"] + 1, "A000027")
def _build_positive_integers(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(1), ProdHist())


@_preset("a125860", ("x", "n"), "history-widened power analogue", _expected_a125860, "A125860")
def _build_a125860(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Add(Param("x"), SumHist()), Add(Param("x"), SumHist()))


@_preset("a137273", ("n",), "two-back additive bound chain",
         lambda p: _fixture_expected("A137273", p["n"]), "A137273")
def _build_a137273(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(0), lambda k: Lit(1) if k == 2 else Add(Hist(k - 2), Hist(k - 1)))


@_preset("fibonacci", ("n",), "F(n+1)", lambda p: oracles.fibonacci(p["n"] + 1), "A000045")
def _build_fibonacci(p: Params) -> SummationProgram:
    return _chain(p, p["n"], Lit(0), Sub(Lit(1), Prev()))


@_preset("euler_zigzag", ("n",), "zigzag number E(n)",
         lambda p: oracles.euler_zigzag(p["n"]), "A000111")
def _build_euler_zigzag(p: Params) -> SummationProgram:
    n = p["n"]
    return _chain(p, n, Lit(n - 1), lambda k: Sub(Lit(n - k), Prev()))


@_preset("a002449", ("n",), "A002449(n+2)", _expected_a002449, "A002449", b=2)
def _build_a002449(p: Params) -> SummationProgram:
    b = p["b"]
    if b < 2:
        raise ParameterError(f"branching b must be >= 2, got {b}")
    return _chain(p, p["n"] + 1, Lit(b - 1), Add(Mul(Lit(b), Prev()), Lit(b - 1)))


@_preset("a002449_irwin", ("n",), "A002449(n+2), doubled-body form",
         lambda p: oracles.a002449_rec(p["n"] + 2), "A002449")
def _build_a002449_irwin(p: Params) -> SummationProgram:
    n = p["n"]
    if n < 1:
        raise ParameterError(f"a002449_irwin needs n >= 1, got {n}")
    return _chain(p, n, Lit(2), Mul(Lit(2), Prev()), Mul(Lit(2), Prev()), lower=1)


@_preset("fibonacci_lahlou", ("n",), "F(n+1), three-minus form",
         lambda p: oracles.fibonacci(p["n"] + 1), "A000045")
def _build_fibonacci_lahlou(p: Params) -> SummationProgram:
    n = p["n"]
    if n < 2:
        raise ParameterError(f"fibonacci_lahlou needs n >= 2, got {n}")
    return _chain(p, n - 1, Lit(1), Sub(Lit(3), Prev()), Sub(Lit(3), Prev()), lower=1)


def preset_names() -> List[str]:
    return sorted(_PRESETS)


def parse_params(assignments: Iterable[str]) -> Params:
    """Parse 'key=value' strings: the grammar of CLI --params and manifest tokens.

    f is a colon table of ints (f=1:3:2), init and rule values stay spec
    strings for build to parse, and every other value must be an int (errors.integer).
    Blank assignments are skipped; a repeated key is an error.
    """
    params: Params = {}
    for assignment in assignments:
        assignment = assignment.strip()
        if not assignment:
            continue
        key, eq, value = (part.strip() for part in assignment.partition("="))
        if not eq:
            raise ParameterError(f"bad token {assignment!r}, expected key=value")
        if key in params:
            raise ParameterError(f"parameter {key!r} given more than once")
        if key in ("init", "rule"):
            params[key] = value
            continue
        try:
            params[key] = tuple(integer(v) for v in value.split(":")) if key == "f" else integer(value)
        except ValueError as exc:
            limit = digit_limit(exc)
            raise ParameterError(f"{key}: {limit}" if limit else f"non-integer value in {assignment!r}") from None
    return params


def _lookup(name: str, raw: Mapping[str, Any]) -> Tuple[PresetInfo, Params]:
    """The preset's record and its checked parameters, optional defaults filled in."""
    info = _PRESETS.get(name)
    if info is None:
        raise ParameterError(f"unknown preset {name!r} (see preset_names())")
    unknown = set(raw) - set(info.schema) - set(info.defaults)
    if unknown:
        raise ParameterError(f"{name} got unexpected parameter(s): {sorted(unknown)}")
    missing = set(info.schema) - set(raw)
    if missing:
        raise ParameterError(f"{name} is missing parameter(s): {sorted(missing)}")
    cleaned: Params = dict(info.defaults)
    for key, value in raw.items():
        if key == "init":
            cleaned[key] = InitRule.parse(value) if isinstance(value, str) else value
            if not isinstance(cleaned[key], InitRule):
                raise ParameterError(f"init must be an InitRule or spec string, got {value!r}")
        elif key == "rule":
            if isinstance(value, str):
                cleaned[key] = parse_fold_rule(value)
            elif isinstance(value, tuple) and len(value) == 2:
                cleaned[key] = fold_rule(*value)
            else:
                raise ParameterError(f"rule must be a name or (name, offset), got {value!r}")
        elif key == "f":
            cleaned[key] = normalize_params({"f": value})["f"]
        elif is_natural(value):
            cleaned[key] = value
        else:
            raise ParameterError(f"{name} parameter {key}={value!r} must be a natural")
    return info, cleaned


def build(name: str, params: Mapping[str, Any]) -> SummationProgram:
    """Build the preset's program; raises ParameterError on schema violations."""
    info, cleaned = _lookup(name, params)
    program = info.builder(cleaned)
    validate(program)
    return program


def sweep_points(fixed: Mapping[str, Any], vary: str, points: Iterable[int]) -> List[Params]:
    """The parameters at each point of `vary`, the others fixed; refuses a
    `vary` that is fixed too, which the sweep would silently override."""
    if vary in fixed:
        raise ParameterError(f"parameter {vary!r} is both fixed and swept")
    return [{**fixed, vary: point} for point in points]


def sweep(name: str, fixed: Mapping[str, Any], vary: str, points: Iterable[int]) -> List[int]:
    """The preset's value at each point of `vary`, the other parameters fixed.

    A Markov program by its tables (evaluate_memoized), any other by
    evaluate_counting's value: the state tables or the walk, as that route
    decides, with the walk's errors. It calls engine.<name>, so wrappers put
    on the engine module (perfbench/tracer.py) see each call.
    """
    programs = (build(name, params) for params in sweep_points(fixed, vary, points))
    return [engine.evaluate_memoized(p) if engine.is_markov(p) else engine.evaluate_counting(p).value for p in programs]


def expected(name: str, params: Mapping[str, Any]) -> int:
    """Independent expected value for the same parameters."""
    global oracles  # the expected-value sources read it; imported here, as building never does
    from . import oracles

    info, cleaned = _lookup(name, params)
    return info.expected(cleaned)


def catalog() -> List[Dict[str, Any]]:
    """Full listing for the CLI: name, schema, optional params, value, OEIS id."""
    return [
        {
            "name": info.name,
            "params": list(info.schema),
            "optional": list(info.defaults),
            "computes": info.computes,
            "oeis": info.oeis,
        }
        for _, info in sorted(_PRESETS.items())
    ]
