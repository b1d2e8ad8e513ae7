"""Exception hierarchy with stable machine-readable error codes.

Every domain error carries a ``code`` string that the CLI emits verbatim in
its JSON error output, so downstream tooling can match on it.  ``read_json``
is the one reader of user JSON files, so that no decoder failure escapes as
a traceback.
"""

from __future__ import annotations

import json
from typing import Any


class BranchMonoError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.details = details

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"error": self.code, "message": str(self)}
        if self.details:
            out["details"] = {k: v for k, v in sorted(self.details.items())}
        return out


class InvalidInput(BranchMonoError):
    code = "INVALID_INPUT"


class UltrametricViolation(BranchMonoError):
    code = "ULTRAMETRIC_VIOLATION"


class IndistinguishableTruncation(BranchMonoError):
    code = "INDISTINGUISHABLE_TRUNCATION"


class NonIntegralPoint(BranchMonoError):
    code = "NON_INTEGRAL_POINT"


class DuplicatePoint(BranchMonoError):
    code = "DUPLICATE_POINT"


class NotCanonicallyOrdered(BranchMonoError):
    code = "NOT_CANONICALLY_ORDERED"


class IndexOutOfRange(BranchMonoError):
    code = "INDEX_OUT_OF_RANGE"


class IntervalOutOfRange(BranchMonoError):
    code = "INTERVAL_OUT_OF_RANGE"


class DimensionMismatch(BranchMonoError):
    code = "DIMENSION_MISMATCH"


class UnsupportedForm(BranchMonoError):
    code = "UNSUPPORTED_FORM"


class NotAGroup(BranchMonoError):
    code = "NOT_A_GROUP"


class UnknownBuiltin(BranchMonoError):
    code = "UNKNOWN_BUILTIN"


class SizeLimit(BranchMonoError):
    code = "SIZE_LIMIT"


class PrimeToPViolation(BranchMonoError):
    code = "PRIME_TO_P_VIOLATION"


class ParametersTooLarge(BranchMonoError):
    code = "PARAMETERS_TOO_LARGE"


class UnresolvedCrossing(BranchMonoError):
    code = "UNRESOLVED_CROSSING"


class MonodromyMismatch(BranchMonoError):
    code = "MONODROMY_MISMATCH"


def read_json(path: str) -> Any:
    """Parse a JSON file; any failure to read or decode it is InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, integer literals past the
        # interpreter's digit limit, and nesting past the recursion limit.
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
