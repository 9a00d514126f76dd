"""Exception taxonomy shared across the package.

Each class corresponds to one well-defined failure mode so callers can
distinguish "your matrix is not SPD" from "your constraints are dependent"
without parsing messages.
"""


class IBKernelError(Exception):
    """Base class for all package-specific errors."""


class NotSPD(IBKernelError):
    """Matrix passed where a symmetric positive definite one is required."""


class RankDeficientConstraints(IBKernelError):
    """Equality constraint rows are linearly dependent."""


class InsufficientSupport(IBKernelError):
    """Too few sites with nonzero weight to satisfy the moment conditions."""


class Infeasible(IBKernelError):
    """Bound + equality constraint set is empty (phase-1 certified)."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class MaxIterationsExceeded(IBKernelError):
    """Iterative solver hit its iteration cap without converging."""


class LengthMismatch(IBKernelError):
    """Vector lengths disagree (weights vs data, weights vs weights)."""


class StencilOutsideDomain(IBKernelError):
    """Evaluation point too close to a domain edge for the kernel support."""


class DegenerateDomain(IBKernelError):
    """Grid extents empty or inverted, or fewer than one cell per axis."""
