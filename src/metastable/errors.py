"""Exception types shared across the package.

Every error raised by this package derives from MetastableError so callers
can catch the whole family with one clause.
"""


class MetastableError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MetastableError):
    """Shapes disagree: a state and its cell count, a net's wiring or bias and its
    layers, or the two states given to ``match``."""


class StateDomainViolation(MetastableError):
    """A state value falls outside the declared state set."""


class UpdateDomainViolation(MetastableError):
    """An update function produced a value outside the state set, at the step and first cell it names."""


class TooFewEntities(MetastableError):
    """Not enough entities for the requested topology."""


class OutOfRange(MetastableError):
    """A numeric argument falls outside its allowed range."""


class BadCharacter(MetastableError):
    """A state string contains something other than '0' and '1'."""


class BadDimensions(MetastableError):
    """Layer counts or widths do not describe a valid network."""


class NonFiniteInput(MetastableError):
    """A net's bias or weight is NaN or infinite."""


class EmptyInput(MetastableError):
    """An operation that needs at least one element received none."""


class UnsupportedKind(MetastableError):
    """A system outside the two kinds: an unknown update kind, a ring with a layered schedule, given
    wiring or a milieu that is not the ring, a net weight off its layer blocks, a bias on the input
    layer, or training a system that is not a net."""


class DocumentError(MetastableError):
    """A fault in a model-program document, with the line it was read from when there is one."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ParseError(DocumentError):
    """A model-program document is textually malformed."""


class SemanticError(DocumentError):
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
