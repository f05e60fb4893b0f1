"""Exception types raised across the library.

Every error derives from :class:`NetpolarError`, so callers (and the CLI)
can tell a rejected input from a programming error.  The four subclasses
are the distinctions a caller can act on; the message names the check.
"""


class NetpolarError(Exception):
    """Base class for all errors raised by netpolar."""


class ValidationError(NetpolarError, ValueError):
    """Input data is malformed: schema, ids, masses, weights or positions."""


class DisconnectedError(ValidationError):
    """A graph is, or would become, disconnected."""


class DomainError(NetpolarError, ValueError):
    """A parameter or size lies outside the domain where the result is defined."""


class ConvergenceFailureError(NetpolarError):
    """A numerical search ended without a result."""
