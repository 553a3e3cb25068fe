"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``kind`` (used by the CLI's
JSON error contract) plus an optional context dict.
"""

from __future__ import annotations


class CsflowError(Exception):
    """Base class for all package errors."""

    kind = "Error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "context": self.context}


class DegenerateCurve(CsflowError):
    kind = "DegenerateCurve"


class ResampleFailure(CsflowError):
    kind = "ResampleFailure"


class NotEmbedded(CsflowError):
    kind = "NotEmbedded"


class NumericalBlowup(CsflowError):
    kind = "NumericalBlowup"


class DomainError(CsflowError):
    kind = "DomainError"


class WrongRunKind(CsflowError):
    kind = "WrongRunKind"


class GenerationFailure(CsflowError):
    kind = "GenerationFailure"


class ConfigError(CsflowError):
    kind = "ConfigError"


class CurveFormatError(CsflowError):
    kind = "CurveFormatError"
