"""Exception types shared across the package.

The CLI maps these onto exit codes: schema/input problems are reported
differently from failed numerical checks.
"""


class SchwingerLabError(Exception):
    """Base class for package errors."""


class DomainError(SchwingerLabError, ValueError):
    """An argument is outside the mathematical domain of an operation, such as a
    tree that violates one of its structural invariants."""


class SchemaError(SchwingerLabError, ValueError):
    """A config/model/spec document does not match its schema."""
