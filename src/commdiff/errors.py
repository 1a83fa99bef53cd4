"""Exception types shared across the package."""


class CommdiffError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteError(CommdiffError, ArithmeticError):
    """A computation produced NaN or an infinity."""


class WindowError(CommdiffError, ValueError):
    """A sequence or operator was evaluated outside its validity window."""


class DegenerateDenominatorError(CommdiffError, ZeroDivisionError):
    """A denominator fell below the general-position threshold."""


class InconsistentDataError(CommdiffError, ValueError):
    """Initial or intermediate data violated a required identity."""


class RankDeficiencyError(CommdiffError, ValueError):
    """A linear system lost rank beyond the expected normalization freedom."""


class CommutationError(CommdiffError, ValueError):
    """Two operators expected to commute failed the commutation check."""


class LatticeProximityError(CommdiffError, ValueError):
    """An elliptic-function argument fell too close to a lattice point."""
