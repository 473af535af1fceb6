"""Exception types shared across the library."""


class CoherekitError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(CoherekitError):
    """A configured size cap (atom count or family size) was exceeded."""


class UnknownAtom(CoherekitError):
    """An event references an atom that is not part of the registry in use."""


class ImpossibleConditioningEvent(CoherekitError):
    """A conditional was built on an impossible conditioning event."""


class MissingSymbol(CoherekitError):
    """A prevision symbol required by an evaluation is not assigned."""


class PreconditionFailed(CoherekitError):
    """An operation's structural precondition does not hold."""


class DimensionMismatch(CoherekitError):
    """Vector/point dimensions do not agree."""


class IncoherentPremises(CoherekitError):
    """An extension was requested from premises that are not coherent."""


class OutOfRange(CoherekitError):
    """A numeric argument lies outside its admissible range."""


class ExtensionSearchFailed(CoherekitError):
    """No coherent extension could be located within the search budget."""


class ParseError(CoherekitError):
    """Assessment document or expression could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}" if line else message)


class UndeclaredAtom(ParseError):
    """An expression uses an identifier that was never declared."""


class InternalError(Exception):
    """A certificate re-check failed: a fault of the library, deliberately
    not a `CoherekitError`, so that it never reads as a verdict."""
