"""Frozen records: the one base of every record type, the program included.

A subclass lists its fields as annotations, trailing ones with defaults, as
a frozen dataclass would, and may define `_check(self)`, run once the fields
are set. It gets what the dataclass gave: positional and keyword
construction, the repr text `Add(lhs=Lit(value=1), rhs=Prev())`, eq and hash
on (kind, fields), refused setattr and delattr, and copy and pickle. The
fields are slots; a class-body `__slots__` adds slots that are not fields,
which copy, pickle, eq and hash leave out (SummationProgram caches its
analysis in one). `__init__`, `__eq__` and `__hash__` are generated code
that reads each field by name, as the dataclass's is: the memo hashes and
compares every level's bound, and an `operator.attrgetter` per class made
the fibonacci n=8000 memo about a quarter slower on CPython 3.11. A class
costs one exec of code compiled once per signature, where the dataclass
machinery took about 1 ms per class on every cold CLI call.

`dataclasses.fields` and `dataclasses.replace` work on a record too (the
benchmark worker calls `dataclasses.replace(program, body=Lit(1))`), yet no
cold CLI call imports `dataclasses`, whose import loads `inspect`, about
6-7 ms: `__dataclass_fields__` and `__dataclass_params__` are made by
`dataclasses.make_dataclass` over the field names and annotations (not the
defaults) on first access, and then kept on the class.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Any, Dict, Tuple

_set = object.__setattr__


@lru_cache(maxsize=None)
def _methods(fields: Tuple[str, ...], defaults: int, check: bool) -> CodeType:
    """`__init__`, `__eq__` and `__hash__` over fields; the last `defaults` fields default to `_d[i]`."""
    first = len(fields) - defaults
    params = "".join(f", {f}" if i < first else f", {f}=_d[{i - first}]" for i, f in enumerate(fields))
    sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields) + "\n    self._check()" * check
    own, other = ("".join(f"{who}.{f}, " for f in fields) for who in ("self", "other"))
    return compile(
        f"def __init__(self{params}):\n    pass{sets}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n        return NotImplemented\n"
        f"    return ({own}) == ({other})\n"
        f"def __hash__(self):\n    return hash((self.__class__, {own}))\n",
        "<record>",
        "exec",
    )


class _RecordType(type):
    def __new__(mcs, name: str, bases: Tuple[type, ...], ns: Dict[str, Any]) -> "_RecordType":
        fields = tuple(ns.get("__annotations__", ()))
        defaults = tuple(ns.pop(f) for f in fields if f in ns)  # a slot cannot share its name with a class value
        env: Dict[str, Any] = {"_set": _set, "_d": defaults}
        exec(_methods(fields, len(defaults), "_check" in ns), env)
        for method in ("__init__", "__eq__", "__hash__"):
            ns[method] = env[method]
            ns[method].__qualname__ = f"{ns['__qualname__']}.{method}"
        ns.update(__slots__=fields + tuple(ns.get("__slots__", ())), _fields=fields)
        return super().__new__(mcs, name, bases, ns)


class _DataclassSurface:
    """`__dataclass_fields__` and `__dataclass_params__` of a record class, made on
    first access and then set on the class, where they hide this descriptor."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, record: Any, cls: _RecordType) -> Any:
        if cls is Record:  # the base has no fields: it is not a dataclass
            raise AttributeError(self.name)
        from dataclasses import make_dataclass

        made = make_dataclass(cls.__name__, [(f, cls.__annotations__[f]) for f in cls._fields], frozen=True)
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            type.__setattr__(cls, name, getattr(made, name))
        return getattr(cls, self.name)


class Record(metaclass=_RecordType):
    """An immutable record over its annotated fields, named in `_fields`; see the module docstring."""

    __dataclass_fields__ = _DataclassSurface()
    __dataclass_params__ = _DataclassSurface()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # rebuilt through __init__: the default slot restore would call the refused __setattr__
        return type(self), tuple(getattr(self, f) for f in self._fields)
