"""Exception hierarchy for the moessner package.

Everything raised on purpose derives from MoessnerError so callers can
catch one type at the boundary (the CLI does exactly that).
"""

import sys


def digit_limit(exc: ValueError) -> str:
    """Why int() refused a decimal string for its length alone (sys.set_int_max_str_digits), or ''."""
    if "sys.set_int_max_str_digits" not in str(exc):
        return ""
    return f"an integer has more than the interpreter's limit of {sys.get_int_max_str_digits()} digits"


def integer(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits, the one integer grammar of every text the
    package reads; int() alone would also read '+5', '1_0', ' 5' and '١٢'. Else ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


class MoessnerError(Exception):
    """Base class for all package errors."""


class PreconditionError(MoessnerError):
    """An operation was invoked on inputs outside its stated domain."""


class ParameterError(MoessnerError):
    """A preset or program was given missing, extra, or ill-typed parameters."""


class DomainError(MoessnerError):
    """A bound or body evaluated to a negative value on a reachable history."""


class ValidationError(MoessnerError):
    """A program or expression violates a structural rule."""


class BFileParseError(PreconditionError):
    """A b-file or manifest line could not be parsed, or indices were not increasing."""


class FixtureNotFoundError(MoessnerError):
    """No bundled fixture exists for the requested sequence number."""


class FetchError(MoessnerError):
    """A remote b-file download failed."""


class ConsistencyError(MoessnerError):
    """Two formulas that must agree did not (e.g. an exact division left a remainder)."""
