"""The QP problem type, its equality-constrained solver and shared factorizations.

Every quadratic program in this package is a kernel's, min ½ xᵀHx subject
to Cx = b and optional bounds, with H = W⁻¹ diagonal. It is a
``QPProblem``, which holds H as the vector h of its diagonal, and its data
are checked once, when it is built: shapes, finite h, C and b, at most n
constraint rows, and bounds that are not NaN and not crossed. A problem
the package builds from data it has checked already (``checked=True``)
skips those checks.

H is SPD when every entry of h is > 0 (NotSPD otherwise), with no
relative pivot floor: a diagonal has no factorization error, and scaling
W leaves the kernel unchanged. Every kernel QP, bounded or not, takes
the economic QR of the rows √wᵢcᵢᵀ of L⁻¹Cᵀ (L = diag(√h)) on a set of
sites, whose R is the Cholesky factor of the m×m constraint Gram matrix
without its condition number squared. ``_factor`` computes it and holds
the one dependence rule; ``_range_space`` gives x and λ with one
refinement step, for ``solve_kkt`` on every variable and for qpsolve's
bounded solver on each working set's free ones. Dense LAPACK suits these
small systems (a few dozen unknowns, at most four rows).
``solve_spd`` is a checked Cholesky solve of a dense SPD matrix with a
relative pivot floor of 1e-14; no kernel path calls it, and it stays
while bench/tracing.py looks it up.

The thresholds the kernel pipeline shares are fixed constants here: the
relative rank pivot, the weight at or below which a site has no support,
and the equality violation past which a box counts as empty.
"""

from dataclasses import InitVar, dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import NotSPD, RankDeficientConstraints

__all__ = [
    "QPProblem",
    "solve_spd",
    "solve_kkt",
]


# Constraint rows on a set of sites count as dependent (``_factor``) when
# a pivot of the R factor of their rows √wᵢcᵢᵀ is at or below this times
# the largest; ``ibops._closed_form_batch`` applies it to Cholesky pivots.
_RANK_PIVOT = 1e-12

# Sites whose weight-function value is at or below this carry no support:
# W⁻¹ is undefined there, so they are eliminated from every solve.
_ZERO_WEIGHT = 1e-14

# A box counts as empty only past this max equality violation, certified
# by the dual solver or found by phase-1; a failed solve is raised, not
# made soft, on a box within it.
_FEASIBILITY = 1e-9

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
    times as long on argument handling as on the solve, and each Newton
    step of the bounded solver makes several triangular solves.
    """
    if not a.size:
        return np.zeros(np.shape(v))
    x, info = scipy.linalg.lapack.dtrtrs(a, v, trans=trans)
    if info:
        raise RankDeficientConstraints("triangular factor is singular")
    return x


def _singular_values(a):
    """Singular values, largest first: np.linalg.svd's dgesdd, unwrapped."""
    _, sv, _, info = scipy.linalg.lapack.dgesdd(a, compute_uv=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return sv


def _diagonal_root(hessian):
    """√h of a diagonal Hessian h, which is SPD when every entry is > 0.

    Raises NotSPD otherwise.
    """
    if hessian.size and not hessian.min() > 0.0:
        raise NotSPD(
            f"diagonal Hessian has a non-positive entry {hessian.min():.3e}"
        )
    return np.sqrt(hessian)


def _householder_qr(a):
    """Economic Q (n×m) and R (m×m) of the (n, m) matrix ``a``, n ≥ m.

    The two LAPACK calls ``scipy.linalg.qr`` makes, dgeqrf and dorgqr,
    without its workspace queries and argument handling: 4 µs against 34
    on 36×3. R is copied out in Fortran order, the layout ``_solve_tri``
    passes to LAPACK, and its strictly lower entries are zeroed (at m ≤ 4
    that costs a third of ``np.triu``), before dorgqr overwrites the
    factored matrix.
    """
    qr, tau, _, _ = scipy.linalg.lapack.dgeqrf(a)
    r = qr[:a.shape[1]].copy(order="F")
    for j in range(1, r.shape[0]):
        r[j, :j] = 0.0
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

    ``checked=True`` skips those checks for data the package built from
    checked inputs (``qpsolve.solve_generating_qp`` on an assembled
    system, the soft fallback's augmented problem): float arrays of the
    right shapes, finite, with bounds neither NaN nor crossed. Scalar
    bounds are still broadcast.
    """

    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: object = None
    upper: object = None
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if checked:
            n = self.hessian.size
            for name in ("lower", "upper"):
                v = getattr(self, name)
                if v is not None and np.ndim(v) == 0:
                    setattr(self, name, np.full(n, float(v)))
            return
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
            if v is None:
                continue
            if np.ndim(v) == 0:  # a scalar: one check, then one fill
                v = float(v)
                nan, v = v != v, np.full(n, v)
            else:
                v = np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
                nan = np.isnan(v).any()
            if nan:
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


def _factor(rows):
    """Economic Q and R of the (n, m) rows √wᵢcᵢᵀ on a set of sites, or
    None where they are dependent, the one rule for every kernel QP: fewer
    sites than rows, or an R pivot at or below ``_RANK_PIVOT`` times the
    largest."""
    count, m = rows.shape
    if count < m:
        return None
    if not m:
        return np.empty((count, 0)), np.empty((0, 0))
    q, r = _householder_qr(rows)
    pivots = np.abs(r.diagonal())
    return (q, r) if pivots.min() > _RANK_PIVOT * pivots.max() else None


def _range_space(qr, root, c, rhs):
    """x = W Cᵀλ and λ with C W Cᵀλ = ``rhs``, W = diag(root)⁻², from the
    ``_factor`` of Cᵀ / root: x = W^½QR⁻ᵀrhs and λ = R⁻¹R⁻ᵀrhs, with one
    refinement step on the residual rhs − Cx."""
    q, r = qr
    a = _solve_tri(r, rhs, trans=1)
    x = (q @ a) / root
    a += _solve_tri(r, rhs - c @ x, trans=1)
    return (q @ a) / root, _solve_tri(r, a)


def solve_kkt(problem):
    """Solve an equality-constrained QP in range space.

    With L = diag(√h) and L⁻¹Cᵀ = QR, R is the Cholesky factor of the
    Gram matrix C H⁻¹ Cᵀ. The multipliers solve RᵀR λ = b, and
    x = H⁻¹Cᵀλ as L⁻¹QR⁻ᵀb, with one refinement step (``_range_space``).
    ``_factor`` gives the QR and its dependence rule. This is, to the bit,
    the bounded solver's working set with nothing pinned.

    Parameters
    ----------
    problem : QPProblem without bounds.

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
        Dependent constraint rows: a pivot of R is at or below
        ``_RANK_PIVOT`` times the largest pivot.
    """
    if problem.has_bounds:
        raise ValueError("problem has bounds; use solve_box_qp")
    root = _diagonal_root(problem.hessian)
    qr = _factor(problem.eq_matrix.T * (1.0 / root)[:, None])
    if qr is None:
        raise RankDeficientConstraints(
            f"dependent constraint rows: an R pivot ≤ {_RANK_PIVOT:g} × the largest")
    return _range_space(qr, root, problem.eq_matrix, problem.eq_rhs)
