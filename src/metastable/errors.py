"""Exception types shared across the package.

Every error raised by this package derives from MetastableError so callers
can catch the whole family with one clause.
"""


class MetastableError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MetastableError):
    """Tuple lengths, matrix shapes, or update-function arity disagree."""


class StateDomainViolation(MetastableError):
    """A state value falls outside the declared state set."""


class UpdateDomainViolation(MetastableError):
    """An update function produced a value outside the state set."""


class TooFewEntities(MetastableError):
    """Not enough entities for the requested topology."""


class OutOfRange(MetastableError):
    """A numeric argument falls outside its allowed range."""


class BadCharacter(MetastableError):
    """A state string contains something other than '0' and '1'."""


class BadDimensions(MetastableError):
    """Layer counts or widths do not describe a valid network."""


class NonFiniteInput(MetastableError):
    """An activation input is NaN or infinite."""


class EmptyInput(MetastableError):
    """An operation that needs at least one element received none."""


class UnsupportedKind(MetastableError):
    """The requested combination of model kind and schedule is not supported."""


class ParseError(MetastableError):
    """A model-program document is textually malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SemanticError(MetastableError):
    """A model-program document is well-formed text but describes an invalid model."""


class NoBackendConfigured(MetastableError):
    """Source generation was requested without (or with an unknown) backend."""


class CompileFailed(MetastableError):
    """The toolchain command exited nonzero."""

    def __init__(self, message: str, diagnostics: str = ""):
        self.diagnostics = diagnostics
        super().__init__(message)


class RunTimeout(MetastableError):
    """The toolchain command exceeded its time budget."""
