"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse errors are code 2, verification
failures (a stated identity does not hold, with a located counterexample)
are code 1, violated mathematical preconditions are code 3, and budget
overruns are code 4.
"""

from __future__ import annotations


class MfkitError(Exception):
    """Base class for all package errors."""


class ParseError(MfkitError):
    """Malformed input text; `position` is a 0-based offset when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.position is not None:
            return f"{base} (at offset {self.position})"
        return base


class UnknownVariable(ParseError):
    pass


class DivisionByZeroInCoefficient(ParseError):
    pass


class PreconditionError(MfkitError):
    """A mathematical precondition of an operation is violated."""


class FieldMismatch(PreconditionError):
    pass


class VariableMismatch(PreconditionError):
    pass


class DimensionMismatch(PreconditionError):
    pass


class LevelMismatch(PreconditionError):
    pass


class TowerMismatch(PreconditionError):
    pass


class EndpointMismatch(PreconditionError):
    pass


class ZeroVector(PreconditionError):
    pass


class NotHomogeneous(PreconditionError):
    pass


class EmptyWindow(PreconditionError):
    """A degree or position window leaves the window oracle nothing to check."""


class NotDivisible(PreconditionError):
    """The element is not divisible in the quotient ring, so the exact
    division step of a lifting algorithm cannot proceed."""


class BudgetExceeded(MfkitError):
    """A degree-window computation would exceed the configured budget."""


class VerificationError(MfkitError):
    """A defining identity failed; `location` names the first counterexample."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.location = location


class AxiomViolation(VerificationError):
    """A matrix factorization axiom failed at a specific entry."""

    def __init__(self, identity: str, row: int, col: int, expected, found):
        self.identity = identity
        self.row = row
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(
            f"{identity} fails at entry ({row},{col}): expected {expected}, found {found}",
            location=f"{identity}@({row},{col})",
        )


class CommutationViolation(VerificationError):
    pass


class HomotopyViolation(VerificationError):
    pass


class VerificationFailure(VerificationError):
    """An internally derived identity failed; indicates a bug upstream."""
