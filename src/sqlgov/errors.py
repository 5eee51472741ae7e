"""Exception hierarchy. Every error carries a stable ``code`` string used by the CLI."""

from __future__ import annotations


class SqlGovError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class EmptyQueryError(SqlGovError):
    code = "EMPTY_QUERY"


class UnparseableQueryError(SqlGovError):
    """Structural parse failure. ``partial_tree`` holds the best-effort decomposition."""

    code = "UNPARSEABLE"

    def __init__(self, message: str, partial_tree=None):
        super().__init__(message)
        self.partial_tree = partial_tree


class OutOfRangeError(SqlGovError):
    code = "OUT_OF_RANGE"


class DimensionMismatchError(SqlGovError):
    code = "DIMENSION_MISMATCH"


class ZeroVectorError(SqlGovError):
    code = "ZERO_VECTOR"


class ProviderFailure(SqlGovError):
    code = "PROVIDER_FAILURE"


class MockMiss(ProviderFailure):
    """Strict scripted provider had no playbook entry for (template_id, digest)."""

    code = "MOCK_MISS"

    def __init__(self, template_id: str, digest: str):
        super().__init__(
            f"no playbook entry for template_id={template_id} digest={digest}; "
            f"add a fixture line to the playbook"
        )
        self.template_id = template_id
        self.digest = digest


class EmptyTextError(SqlGovError):
    code = "EMPTY_TEXT"


class RejectedResponseError(SqlGovError):
    code = "REJECTED_RESPONSE"


class NoHistoryError(SqlGovError):
    code = "NO_HISTORY"


class UnknownRuleError(SqlGovError):
    code = "UNKNOWN_RULE"


class IoFailure(SqlGovError):
    code = "IO_FAILURE"


class SchemaVersionMismatchError(SqlGovError):
    code = "SCHEMA_VERSION_MISMATCH"


class UnsupportedStatementError(SqlGovError):
    code = "UNSUPPORTED_STATEMENT"


class ContractViolationError(SqlGovError):
    code = "CONTRACT_VIOLATION"


class StillInvalidError(SqlGovError):
    """Corrected SQL failed re-validation. Carries both texts for reporting."""

    code = "STILL_INVALID"

    def __init__(self, message: str, original: str, corrected: str):
        super().__init__(message)
        self.original = original
        self.corrected = corrected
