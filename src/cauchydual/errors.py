"""Exception taxonomy for the toolkit.

Every error raised by the library derives from :class:`ToolkitError`, so
callers can catch one base class.  The command line maps input-side errors
(:class:`ParseError`, :class:`ValidationError`) to exit code 2 and
everything else (numerical failures, and a report that breaks its
schema) to exit code 3.
"""

__all__ = [
    "ToolkitError",
    "ParseError",
    "ValidationError",
    "NonConvergence",
    "BoundaryRoot",
    "SingularGram",
    "NotPSD",
    "ResidualTooLarge",
    "SchemaViolation",
]


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ToolkitError):
    """A textual input (measure string, complex literal) could not be parsed."""


class ValidationError(ToolkitError):
    """An input violated a documented precondition."""


class NonConvergence(ToolkitError):
    """A root or contraction gate failed: root backward error, inner/outer
    root pairing, or the Cauchy dual's contraction check."""


class BoundaryRoot(ToolkitError):
    """The boundary-weight polynomial has a root on the unit circle."""


class SingularGram(ToolkitError):
    """A Gram matrix that must be positive definite is numerically singular."""


class NotPSD(ToolkitError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class ResidualTooLarge(ToolkitError):
    """A computed object failed its independent reconstruction check."""


class SchemaViolation(ToolkitError):
    """A report does not conform to its schema; the message names the JSON path."""
