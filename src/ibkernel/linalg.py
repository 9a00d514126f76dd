"""The QP problem type and its SPD and equality-constrained solvers.

Every quadratic program in this package is a kernel's, min ½ xᵀHx subject
to Cx = b and optional bounds, with H = W⁻¹ diagonal. It is a
``QPProblem``, which holds H as the vector h of its diagonal, and its data
are checked once, when it is built: shapes, finite h, C and b, at most n
constraint rows, and bounds that are not NaN and not crossed.

H is SPD when every entry of h is > 0 (NotSPD otherwise), with no
relative pivot floor: a diagonal has no factorization error, and scaling
W leaves the kernel unchanged. L = diag(√h) has H = LLᵀ, so applying L⁻¹
is a division that costs O(n). An equality QP is solved in range space:
the m×m Cholesky factor of the constraint Gram matrix is taken as the R
of a QR factorization of L⁻¹Cᵀ, so that its condition number is not
squared, and its pivots are verified against a relative rank threshold
(RankDeficientConstraints). All systems are small
(a few dozen unknowns, at most a handful of constraints), so dense
factorizations from LAPACK are both the simplest and the most accurate
choice. ``solve_spd`` is a checked Cholesky solve of a dense SPD matrix
with a relative pivot floor of 1e-14; no kernel path calls it, and it
stays while bench/tracing.py looks it up.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import NotSPD, RankDeficientConstraints

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOLERANCES",
    "QPProblem",
    "solve_spd",
    "solve_kkt",
]


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical thresholds used across the solvers.

    Attributes
    ----------
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

    rank_pivot: float = 1e-12
    zero_weight: float = 1e-14
    feasibility: float = 1e-9


DEFAULT_TOLERANCES = ToleranceSet()

# Relative symmetry slack accepted on ``solve_spd``'s matrix, and its
# relative Cholesky pivot floor.
_SYMMETRY_RTOL = 1e-12
_SPD_PIVOT = 1e-14


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, n, name):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _solve_tri(a, v, trans=0):
    """Upper-triangular solve through LAPACK, on inputs already checked.

    At these sizes ``scipy.linalg.solve_triangular`` spends about four
    times as long on argument handling as on the solve, and the dual
    active-set loop makes several triangular solves per step.
    """
    if not a.size:
        return np.zeros(np.shape(v))
    x, info = scipy.linalg.lapack.dtrtrs(a, v, trans=trans)
    if info:
        raise RankDeficientConstraints("triangular factor is singular")
    return x


def _diagonal_root(hessian):
    """√h of a diagonal Hessian h, which is SPD when every entry is > 0.

    Raises NotSPD otherwise.
    """
    if hessian.size and not hessian.min() > 0.0:
        raise NotSPD(
            f"diagonal Hessian has a non-positive entry {hessian.min():.3e}"
        )
    return np.sqrt(hessian)


def _divide(v, root):
    """diag(root)⁻¹v for ``v`` of shape (n,) or (n, k), in O(n·k).

    Rounds as LAPACK's ``dtrtrs`` rounds a solve with diag(root) in the
    OpenBLAS that numpy and scipy ship: a single right-hand side is
    divided by the pivot, several are scaled by the pivot's reciprocal.
    """
    if v.ndim == 2 and v.shape[1] > 1:
        return v * (1.0 / root)[:, None]
    return v / (root if v.ndim == 1 else root[:, None])


def _householder_qr(a, full=False):
    """Q and R of the (n, m) matrix ``a``, n ≥ m, as ``scipy.linalg.qr``.

    Economic (Q n×m, R m×m) by default; with ``full``, Q is n×n and R is
    n×m. These are the two LAPACK calls ``scipy.linalg.qr`` makes, dgeqrf
    and dorgqr, without its workspace queries and argument handling: 4 µs
    against 34 on 36×3 economic, 7 against 45 on 216×4 full. R is copied
    out before dorgqr overwrites the factored matrix.
    """
    qr, tau, _, _ = scipy.linalg.lapack.dgeqrf(a)
    if full:
        r = np.triu(qr)
        square = np.empty((a.shape[0], a.shape[0]), order="F")
        square[:, :a.shape[1]] = qr
        qr = square
    else:
        r = np.triu(qr[:a.shape[1]])
    q, _, _ = scipy.linalg.lapack.dorgqr(qr, tau, overwrite_a=1)
    return q, r


@dataclass
class QPProblem:
    """min ½ xᵀHx  s.t.  eq_matrix·x = eq_rhs,  lower ≤ x ≤ upper.

    ``hessian`` is the (n,) diagonal h of H, as W⁻¹ is for every kernel; a
    2-D ``hessian`` is rejected. ``lower``/``upper`` are optional (scalars
    broadcast) and may be ±inf. h, eq_matrix and eq_rhs must be finite,
    with at most n rows in eq_matrix, which may have none. Any violation
    raises ValueError here, so the solvers take the data as checked; they
    raise NotSPD when an entry of h is not > 0.
    """

    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: object = None
    upper: object = None

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=float)
        if self.hessian.ndim != 1:
            raise ValueError(
                f"hessian must be the 1-D diagonal of H, got shape "
                f"{self.hessian.shape}"
            )
        n = self.hessian.size
        self.hessian = _as_vector(self.hessian, n, "hessian")
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=float)
        if self.eq_matrix.size == 0:
            self.eq_matrix = self.eq_matrix.reshape(0, n)
        self.eq_matrix = _as_matrix(self.eq_matrix, "eq_matrix")
        if self.eq_matrix.shape[1] != n:
            raise ValueError(
                f"eq_matrix has {self.eq_matrix.shape[1]} columns, expected {n}"
            )
        if self.eq_matrix.shape[0] > n:
            raise ValueError("more constraints than unknowns")
        self.eq_rhs = _as_vector(self.eq_rhs, self.eq_matrix.shape[0], "eq_rhs")
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                v = np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
                if np.isnan(v).any():
                    raise ValueError(f"{name} contains NaN")
                setattr(self, name, v)
        if (self.lower is not None and self.upper is not None
                and (self.lower > self.upper).any()):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n(self):
        return self.hessian.shape[0]

    @property
    def m(self):
        return self.eq_matrix.shape[0]

    @property
    def has_bounds(self):
        return self.lower is not None or self.upper is not None

    def bounds(self):
        lo = self.lower if self.lower is not None else np.full(self.n, -np.inf)
        hi = self.upper if self.upper is not None else np.full(self.n, np.inf)
        return lo, hi

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.hessian * x))


def solve_spd(matrix, rhs):
    """Solve ``matrix @ x = rhs`` for a symmetric positive definite matrix.

    Parameters
    ----------
    matrix : (n, n) array_like
        Symmetric positive definite.
    rhs : (n,) array_like

    Returns
    -------
    (n,) ndarray

    Raises
    ------
    NotSPD
        If the Cholesky factorization fails or produces a pivot below
        1e-14 times the largest diagonal entry.
    ValueError
        On shape mismatch or an asymmetric matrix.
    """
    a = _as_matrix(matrix, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a - a.T).max()) > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    b = _as_vector(rhs, a.shape[0], "rhs")
    if a.shape[0] == 0:
        return np.zeros(0)
    diag_max = float(a.diagonal().max())
    if diag_max <= 0.0:
        raise NotSPD("matrix has a non-positive diagonal")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotSPD(f"Cholesky factorization failed: {err}") from err
    smallest = float((chol.diagonal() ** 2).min())
    floor = _SPD_PIVOT * diag_max
    if smallest < floor:
        raise NotSPD(
            f"smallest Cholesky pivot {smallest:.3e} below "
            f"relative floor {floor:.3e}"
        )
    return scipy.linalg.cho_solve((chol, True), b)


def solve_kkt(problem, tol=DEFAULT_TOLERANCES):
    """Solve an equality-constrained QP in range space.

    With L = diag(√h) and L⁻¹Cᵀ = QR, R is the Cholesky factor of the
    Gram matrix C H⁻¹ Cᵀ. The multipliers solve RᵀR λ = b, and
    x = H⁻¹Cᵀλ is computed as L⁻¹QR⁻ᵀb, so the only factorization is the
    QR of H^-½Cᵀ.

    Parameters
    ----------
    problem : QPProblem without bounds.
    tol : ToleranceSet

    Returns
    -------
    x : (n,) ndarray
        Primal minimizer.
    lam : (m,) ndarray
        Constraint multipliers, with the sign convention Hx = Cᵀλ at the
        solution.

    Raises
    ------
    ValueError
        The problem has bounds.
    NotSPD
        The Hessian is not positive definite.
    RankDeficientConstraints
        Dependent constraint rows: a pivot of R is below ``tol.rank_pivot``
        times the largest entry of R.
    """
    if problem.has_bounds:
        raise ValueError("problem has bounds; use solve_box_qp")
    c, b = problem.eq_matrix, problem.eq_rhs
    root = _diagonal_root(problem.hessian)
    q, r = _householder_qr(_divide(c.T, root))
    if problem.m:
        smallest = float(np.min(np.abs(np.diag(r))))
        r_scale = float(np.max(np.abs(r)))
        if r_scale == 0.0 or smallest < tol.rank_pivot * r_scale:
            raise RankDeficientConstraints(
                f"constraint rows dependent: smallest R pivot "
                f"{smallest:.3e} vs scale {r_scale:.3e}"
            )
    a = _solve_tri(r, b, trans=1)
    return _divide(q @ a, root), _solve_tri(r, a)
