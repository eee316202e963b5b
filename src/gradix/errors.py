"""Exception types shared across the library.

Validation failures (bad tables, tensors, cocycles, ...) all derive from
ValidationError so the CLI can map them to a single exit code.  Budget
exhaustion is kept separate because it signals "refuse to start", not
"input is wrong".
"""


class GradixError(Exception):
    pass


class ValidationError(GradixError):
    pass


class ParseError(ValidationError):
    """Malformed request document; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class DimensionMismatch(ValidationError):
    pass


# -- finite groups ----------------------------------------------------------

class NonAssociativeTable(ValidationError):
    pass


class MissingIdentity(ValidationError):
    pass


class MissingInverse(ValidationError):
    pass


# -- gradations -------------------------------------------------------------

class IncompatibleTensor(ValidationError):
    pass


class UnitNotInIdentityComponent(ValidationError):
    pass


class NotHomogeneous(ValidationError):
    pass


# -- crossed systems --------------------------------------------------------

class NotAutomorphism(ValidationError):
    pass


class AlphaNotNuclearUnit(ValidationError):
    pass


class N1Violation(ValidationError):
    pass


class N2Violation(ValidationError):
    pass


class N3Violation(ValidationError):
    pass


class NoNuclearUnit(GradixError):
    """A graded component contains no invertible nuclear element."""


# -- doubling ---------------------------------------------------------------

class MuZero(ValidationError):
    pass


# -- decision procedures ----------------------------------------------------

class ExactModeUnavailable(GradixError):
    """Exact enumeration requested over a field without one (the rationals)."""


class BudgetExceeded(GradixError):
    """Projective point count above the configured cap; nothing was computed."""


class UnboundedSearch(GradixError):
    """A search region could not be bounded (automorphism order unknown)."""
