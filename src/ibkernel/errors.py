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
    """Dependent equality rows, as a solver's rank rule finds them."""


class InsufficientSupport(IBKernelError):
    """Too few weighted sites; raised only by ``solve_generating_qp``."""


class Infeasible(IBKernelError):
    """Bound + equality constraint set is empty.

    Raised by the dual Newton solver when a direction it tests proves the
    box empty. ``certificate`` is then a Farkas vector y that proves it,
    and ``violation`` the lower bound y certifies on the max-norm equality
    miss of every point in the box; both are None where a raise carries no
    such proof.
    """

    def __init__(self, message, violation=None, certificate=None):
        super().__init__(message)
        self.violation = violation
        self.certificate = certificate


class MaxIterationsExceeded(IBKernelError):
    """The dual Newton solver took its cap of Newton steps without
    reaching an optimal working set or a certificate."""


class LengthMismatch(IBKernelError):
    """Vector lengths disagree (weights vs data, weights vs weights)."""


class StencilOutsideDomain(IBKernelError):
    """Evaluation point too close to a domain edge for the kernel support."""


class DegenerateDomain(IBKernelError):
    """Grid extents empty or inverted, or fewer than one cell per axis."""
