"""Exception types shared across the package.

Every guard in the library raises one of these rather than a bare ValueError,
so callers (including the CLI) can map failures onto exit codes: validation
problems exit 2, numerical non-convergence exits 3.
"""


class MotzkinChainError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpec(MotzkinChainError, ValueError):
    """A request carried inconsistent or out-of-range parameters."""


class SizeExceeded(MotzkinChainError, ValueError):
    """A requested computation would exceed a documented size guard."""


class DomainError(MotzkinChainError, ValueError):
    """A numeric argument lies outside the mathematical domain of the call."""


class NoConvergence(MotzkinChainError, RuntimeError):
    """An iterative eigensolve failed its residual certificate.

    Carries the residual actually achieved so callers can report it.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class NegativeEntry(MotzkinChainError, RuntimeError):
    """A matrix that must be entrywise nonnegative acquired a negative entry."""


class MatchingInfeasible(MotzkinChainError, RuntimeError):
    """No integral rounding of a fractional matching satisfied the bounds."""


class RouteMismatch(MotzkinChainError, RuntimeError):
    """A block-generated canonical route disagreed with the reference router."""


class OverlapTooLarge(MotzkinChainError, RuntimeError):
    """A trial state stayed too close to the ground state at every tried phase."""
