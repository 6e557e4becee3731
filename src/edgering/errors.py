"""Exception taxonomy shared across the package.

Every error raised on bad caller input derives from ValueError so that
idiomatic `except ValueError` still works; the subclasses exist so the CLI
can map failures onto its exit codes.
"""


class EdgeRingError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(EdgeRingError, ValueError):
    """Input text/bytes do not conform to the declared format."""


class UnsupportedSizeError(EdgeRingError, ValueError):
    """Input is structurally valid but exceeds a documented size cap."""


class UndefinedInputError(EdgeRingError, ValueError):
    """The requested quantity is not defined for this input (e.g. max degree of K_0)."""


class ContractViolationError(EdgeRingError, ValueError):
    """A documented precondition was violated by the caller."""


class InternalInvariantError(EdgeRingError):
    """An internal consistency check failed; indicates a bug, not bad input."""
