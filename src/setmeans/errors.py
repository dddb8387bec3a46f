"""Exception types shared across the package."""


class SetMeansError(Exception):
    """Base class for all domain errors."""


class ValidationError(SetMeansError, ValueError):
    """A parameter or argument is out of its legal range (a ValueError too)."""


class ParseError(SetMeansError):
    """Source text does not match the grammar.

    Carries a 1-based position and the token set that would have been
    accepted at that point.
    """

    def __init__(self, message, line, column, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def __str__(self):
        base = super().__str__()
        return f"{base} at line {self.line}, column {self.column}"


class EmptyResult(SetMeansError):
    """An expression denotes the empty set."""


class CutNotRepresentable(SetMeansError):
    """A cut point lands where exact block surgery is impossible."""


class MembershipUndecided(SetMeansError):
    """Membership in a Cantor block was not settled within the depth cap."""


class IntersectionNotRepresentable(SetMeansError):
    """The intersection of two blocks is outside the decidable fragment."""


class DomainViolation(SetMeansError):
    """An operand is outside the domain of the requested mean."""


class IncomparableDimensions(SetMeansError):
    """Two distinct Hausdorff dimensions could not be separated."""
