"""Error types and report containers shared across the toolkit."""

from typing import NamedTuple

_ECHO_CAP = 40  # characters of an input value an error detail repeats


def _echo(value) -> str:
    """An input value's text, ``str(value)``, as an error detail repeats it, cut to
    _ECHO_CAP characters."""
    try:
        text = str(value)
    except ValueError:  # str() of an integer over Python's digit limit
        return "(a number over Python's integer digit limit)"
    return text if len(text) <= _ECHO_CAP else f"{text[:_ECHO_CAP]}... ({len(text)} characters)"


def _echo_point(p) -> str:
    """A point as an error detail repeats it: "(p/q, ...)", cut by ``_echo``."""
    try:
        return _echo(f"({', '.join(map(str, p))})")
    except ValueError:  # str() of an integer over Python's digit limit
        return "(a point with a coordinate over Python's integer digit limit)"


class TropicError(Exception):
    """Base error; ``code`` is the stable machine-readable identifier."""

    code = "TropicError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


class SchemaError(TropicError):
    """Malformed input file or bad JSON shape (CLI exit code 2)."""

    code = "SchemaError"


class ZeroDirection(TropicError):
    code = "ZeroDirection"


class DimMismatch(TropicError):
    code = "DimMismatch"


class NotInSupport(TropicError):
    code = "NotInSupport"


class NoSuchVertex(TropicError):
    code = "NoSuchVertex"


class DegenerateEdge(TropicError):
    code = "DegenerateEdge"


class GenusNotOne(TropicError):
    code = "GenusNotOne"


class DeskScaleExceeded(TropicError):
    code = "DeskScaleExceeded"


class InvalidCurve(TropicError):
    code = "InvalidCurve"


class InvalidFan(TropicError):
    code = "InvalidFan"


class Unbalanced(TropicError):
    code = "Unbalanced"


class RecessionNotSupported(TropicError):
    code = "RecessionNotSupported"


class Violation(NamedTuple):
    code: str
    detail: str


class ValidationReport(NamedTuple):
    """Outcome of a well-formedness check; ``violations`` is empty iff valid.

    Each report owns its list: build it as ``ValidationReport([])`` and fill
    it with ``add``."""

    violations: list[Violation]

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append(Violation(code, detail))
