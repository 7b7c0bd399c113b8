"""Exception types shared across the package.

The CLI maps these onto exit codes: schema/input problems are reported
differently from failed numerical checks.
"""


class SchwingerLabError(Exception):
    """Base class for package errors."""


class DomainError(SchwingerLabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class BoundsError(DomainError):
    """A size cap was exceeded (the message names the cap)."""


class ResolutionError(DomainError):
    """A requested object cannot be represented on the given grid."""


class PreconditionError(DomainError):
    """A documented precondition of a check was violated."""


class ModelError(SchwingerLabError, ValueError):
    """A functional tree violates one of its structural invariants."""


class SchemaError(SchwingerLabError, ValueError):
    """A config/model/spec document does not match its schema."""
