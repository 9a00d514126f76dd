"""Dense SPD and equality-constrained QP solvers.

All systems in this package are small (a few dozen unknowns, at most a
handful of constraints), so dense factorizations from LAPACK are both the
simplest and the most accurate choice. An equality QP is solved in range
space: a Cholesky factor L of the Hessian, then the m×m Cholesky factor
of the constraint Gram matrix, taken as the R of a QR factorization of
L⁻¹Cᵀ so that its condition number is not squared. What this module adds
on top is the checking: the Hessian's Cholesky pivots are verified against
a relative floor (NotSPD), and the pivots of R against a relative rank
threshold (RankDeficientConstraints).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import NotSPD, RankDeficientConstraints

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOLERANCES",
    "KKTSystem",
    "solve_spd",
    "solve_kkt",
]


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical thresholds used across the solvers.

    Attributes
    ----------
    spd_pivot : float
        A Cholesky pivot below ``spd_pivot * max(diag)`` means not SPD.
    rank_pivot : float
        Constraint rows are rank deficient when a constraint matrix's
        smallest singular value (a restricted moment matrix), or the
        smallest pivot of its R factor (L⁻¹Cᵀ in ``solve_kkt``), is below
        ``rank_pivot`` times its largest.
    zero_weight : float
        Sites whose weight-function value is at or below this are treated
        as having no support and are eliminated from solves.
    feasibility : float
        Phase-1 max constraint violation at or below this counts as feasible.
    """

    spd_pivot: float = 1e-14
    rank_pivot: float = 1e-12
    zero_weight: float = 1e-14
    feasibility: float = 1e-9


DEFAULT_TOLERANCES = ToleranceSet()

# Relative symmetry slack accepted on Hessian inputs.
_SYMMETRY_RTOL = 1e-12



def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, n, name):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _check_symmetric(a, name):
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if a.size and float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric")


def _solve_tri(a, v, lower=False, trans=0):
    """Triangular solve through LAPACK directly, on inputs already checked.

    At these sizes ``scipy.linalg.solve_triangular`` spends about four
    times as long on argument handling as on the solve, and the dual
    active-set loop makes several triangular solves per step.
    """
    if not a.size:
        return np.zeros(np.shape(v))
    x, info = scipy.linalg.lapack.dtrtrs(a, v, lower=lower, trans=trans)
    if info:
        raise RankDeficientConstraints("triangular factor is singular")
    return x


def _cholesky_checked(a, tol, exc):
    """Cholesky factor of ``a`` or raise ``exc`` with a pivot diagnostic."""
    diag_max = float(np.max(np.diag(a))) if a.size else 0.0
    if a.size and diag_max <= 0.0:
        raise exc("matrix has a non-positive diagonal")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise exc(f"Cholesky factorization failed: {err}") from err
    if a.size:
        pivots = np.diag(chol) ** 2
        floor = tol.spd_pivot * diag_max
        if float(np.min(pivots)) < floor:
            raise exc(
                f"smallest Cholesky pivot {float(np.min(pivots)):.3e} below "
                f"relative floor {floor:.3e}"
            )
    return chol


@dataclass
class KKTSystem:
    """Validated data of  min ½ xᵀHx + gᵀx  s.t.  Cx = b.

    H must be finite and symmetric; C, g and b finite, with at most n rows
    in C. ``constraints`` may have zero rows, in which case the problem is
    a plain SPD solve.
    """

    hessian: np.ndarray
    constraints: np.ndarray
    objective_gradient: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.hessian = _as_matrix(self.hessian, "hessian")
        n = self.hessian.shape[0]
        if self.hessian.shape[1] != n:
            raise ValueError("hessian must be square")
        _check_symmetric(self.hessian, "hessian")
        self.constraints = np.asarray(self.constraints, dtype=float)
        if self.constraints.size == 0:
            self.constraints = self.constraints.reshape(0, n)
        self.constraints = _as_matrix(self.constraints, "constraints")
        if self.constraints.shape[1] != n:
            raise ValueError(
                f"constraints have {self.constraints.shape[1]} columns, "
                f"expected {n}"
            )
        if self.constraints.shape[0] > n:
            raise ValueError("more constraints than unknowns")
        self.objective_gradient = _as_vector(
            self.objective_gradient, n, "objective_gradient"
        )
        self.rhs = _as_vector(self.rhs, self.constraints.shape[0], "rhs")

    @property
    def n(self):
        return self.hessian.shape[0]

    @property
    def m(self):
        return self.constraints.shape[0]


def solve_spd(matrix, rhs, tol=DEFAULT_TOLERANCES):
    """Solve ``matrix @ x = rhs`` for a symmetric positive definite matrix.

    Parameters
    ----------
    matrix : (n, n) array_like
        Symmetric positive definite.
    rhs : (n,) array_like
    tol : ToleranceSet

    Returns
    -------
    (n,) ndarray

    Raises
    ------
    NotSPD
        If the Cholesky factorization fails or produces a pivot below
        ``tol.spd_pivot`` times the largest diagonal entry.
    ValueError
        On shape mismatch or an asymmetric matrix.
    """
    a = _as_matrix(matrix, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _check_symmetric(a, "matrix")
    b = _as_vector(rhs, a.shape[0], "rhs")
    if a.shape[0] == 0:
        return np.zeros(0)
    chol = _cholesky_checked(a, tol, NotSPD)
    return scipy.linalg.cho_solve((chol, True), b)


def solve_kkt(system, tol=DEFAULT_TOLERANCES):
    """Solve an equality-constrained QP in range space.

    With H = LLᵀ (Cholesky) and L⁻¹Cᵀ = QR, R is the Cholesky factor of the
    Gram matrix C H⁻¹ Cᵀ. The multipliers solve RᵀR λ = b + C H⁻¹ g, and
    x = H⁻¹(Cᵀλ − g), computed as L⁻ᵀ(Q(R⁻ᵀb + QᵀL⁻¹g) − L⁻¹g).

    Parameters
    ----------
    system : KKTSystem
    tol : ToleranceSet

    Returns
    -------
    x : (n,) ndarray
        Primal minimizer.
    lam : (m,) ndarray
        Constraint multipliers, with the sign convention
        Hx + g = Cᵀλ at the solution.

    Raises
    ------
    NotSPD
        The Hessian is not positive definite.
    RankDeficientConstraints
        Dependent constraint rows: a pivot of R is below ``tol.rank_pivot``
        times the largest entry of R.
    """
    c, b = system.constraints, system.rhs
    chol = _cholesky_checked(system.hessian, tol, NotSPD)
    lc = _solve_tri(chol, c.T, lower=True)
    lg = _solve_tri(chol, system.objective_gradient, lower=True)
    q, r = scipy.linalg.qr(lc, mode="economic")
    if system.m:
        smallest = float(np.min(np.abs(np.diag(r))))
        r_scale = float(np.max(np.abs(r)))
        if r_scale == 0.0 or smallest < tol.rank_pivot * r_scale:
            raise RankDeficientConstraints(
                f"constraint rows dependent: smallest R pivot "
                f"{smallest:.3e} vs scale {r_scale:.3e}"
            )
    a = _solve_tri(r, b, trans=1) + q.T @ lg
    x = _solve_tri(chol, q @ a - lg, lower=True, trans=1)
    return x, _solve_tri(r, a)
