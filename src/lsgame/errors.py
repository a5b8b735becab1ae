"""Exception taxonomy shared by all modules.

DomainError / PreconditionError signal bad inputs, including a file the CLI
cannot read or write, and ResourceError a size cap that would be exceeded
(CLI exit code 2).  Any other LsgameError, such as StructuralError, exits 1.
A failing relation or a self-test distance above tolerance is caught by the
CLI's own gates, which exit 3.
"""


class LsgameError(Exception):
    """Base class for all library errors."""


class DomainError(LsgameError, ValueError):
    """Input outside the documented domain of an operation."""


class PreconditionError(LsgameError, ValueError):
    """Numerical precondition violated; carries the offending residual."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class StructuralError(LsgameError, RuntimeError):
    """Objects that should fit together do not (missing key, shape mismatch)."""


class ResourceError(LsgameError, RuntimeError):
    """A configured size cap would be exceeded."""
