"""Domain exceptions with stable error codes for the CLI layer."""


class FormLebError(Exception):
    """Base class for domain errors. `code` is the stable machine-readable code."""

    code = "DOMAIN_ERROR"


class DimensionMismatch(FormLebError):
    code = "DIM_MISMATCH"


class NonFinite(FormLebError, ValueError):
    """An input or intermediate matrix has an infinite or NaN entry."""

    code = "NON_FINITE"


class NotPSD(FormLebError):
    code = "NOT_PSD"


class NotDominating(FormLebError):
    """The supplied non-negative form does not dominate the target form."""

    code = "NOT_DOMINATING"


class InconsistentRank(FormLebError):
    """Two equivalent numerical criteria disagreed: rank decisions are unstable
    for this input at the current tolerance."""

    code = "INCONSISTENT_RANK"


class NegativeReference(FormLebError):
    """Reference measure has a negative or non-real atom."""

    code = "NEGATIVE_REFERENCE"


class PreconditionViolation(FormLebError):
    """An operation-specific precondition failed (message names which one)."""

    code = "PRECONDITION"
