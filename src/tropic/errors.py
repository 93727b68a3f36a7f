"""Error types and report containers shared across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass, field

_ECHO_CAP = 40  # characters of an input value an error detail repeats


def _echo(text: str) -> str:
    """An input value's text as an error detail repeats it, cut to _ECHO_CAP characters."""
    return text if len(text) <= _ECHO_CAP else f"{text[:_ECHO_CAP]}... ({len(text)} characters)"


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


class NonIntegralRatio(TropicError):
    code = "NonIntegralRatio"


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


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass
class ValidationReport:
    """Outcome of a well-formedness check; ``violations`` is empty iff valid."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append(Violation(code, detail))
