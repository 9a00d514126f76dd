"""Constrained quadratic minimization engines.

Four routes to a minimizer of ½ xᵀHx + gᵀx:

- solve_eq_qp: equality constraints only, one KKT saddle solve.
- solve_box_qp: equalities plus bound constraints, primal active-set
  iteration with a lowest-index anti-cycling rule.
- solve_soft_qp: bounds only, equalities folded into a quadratic penalty;
  used when the hard-constrained set is empty.
- solve_peskin4: the four-point kernel's per-axis system, which is exactly
  determined up to one quadratic root and needs no iteration at all.

plus phase1_feasible (a bounded least-squares feasibility probe) and
check_kkt (residual audit of any solution against any problem).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    Infeasible,
    InsufficientSupport,
    LengthMismatch,
    MaxIterationsExceeded,
    RankDeficientConstraints,
)
from .kernels import KernelSource, KernelWeights, SolveMode
from .linalg import DEFAULT_TOLERANCES, KKTSystem, solve_kkt, solve_spd

__all__ = [
    "QPProblem",
    "QPSolution",
    "FeasibilityReport",
    "KKTReport",
    "Peskin4Weights",
    "solve_eq_qp",
    "solve_box_qp",
    "phase1_feasible",
    "solve_soft_qp",
    "solve_peskin4",
    "check_kkt",
    "solve_generating_qp",
    "SolveMode",
]

_DEFAULT_PENALTY = 1e8


@dataclass
class QPProblem:
    """min ½ xᵀHx + gᵀx  s.t.  eq_matrix·x = eq_rhs,  lower ≤ x ≤ upper.

    ``lower``/``upper`` are optional (scalars broadcast); ``linear`` is the
    optional gradient term g, zero when omitted. The Hessian must be
    symmetric and positive definite on the feasible set.
    """

    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: object = None
    upper: object = None
    linear: object = None

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=float)
        if self.hessian.ndim != 2 or self.hessian.shape[0] != self.hessian.shape[1]:
            raise ValueError("hessian must be square")
        n = self.hessian.shape[0]
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=float)
        if self.eq_matrix.size == 0:
            self.eq_matrix = self.eq_matrix.reshape(0, n)
        if self.eq_matrix.ndim != 2 or self.eq_matrix.shape[1] != n:
            raise ValueError("eq_matrix must be (m, n)")
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        if self.eq_rhs.shape[0] != self.eq_matrix.shape[0]:
            raise ValueError("eq_rhs length must match eq_matrix rows")
        if self.linear is not None:
            self.linear = np.asarray(self.linear, dtype=float).reshape(-1)
            if self.linear.shape[0] != n:
                raise ValueError("linear term must have length n")
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                v = np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
                if np.any(np.isnan(v)):
                    raise ValueError(f"{name} contains NaN")
                setattr(self, name, v)
        lo, hi = self.bounds()
        if np.any(lo > hi):
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

    def gradient(self):
        return self.linear if self.linear is not None else np.zeros(self.n)

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.hessian @ x + self.gradient() @ x)


@dataclass
class QPSolution:
    x: np.ndarray
    multipliers: np.ndarray
    bound_multipliers: np.ndarray
    active_set: tuple
    eq_residual: float
    iterations: int
    mode: SolveMode


@dataclass
class FeasibilityReport:
    feasible: bool
    witness: np.ndarray
    violation: float


@dataclass
class KKTReport:
    stationarity: float
    primal: float
    dual: float
    complementarity: float

    def max_residual(self):
        return max(self.stationarity, self.primal, self.dual, self.complementarity)


def _eq_solve(problem, tol):
    system = KKTSystem(
        hessian=problem.hessian,
        constraints=problem.eq_matrix,
        objective_gradient=problem.gradient(),
        rhs=problem.eq_rhs,
    )
    return solve_kkt(system, tol)


def solve_eq_qp(problem, tol=DEFAULT_TOLERANCES):
    """Solve an equality-constrained QP (no bounds allowed).

    Returns a QPSolution whose KKT residuals are at the direct-solve level
    (≤ 1e-10 for well-scaled inputs).
    """
    if problem.has_bounds:
        raise ValueError("problem has bounds; use solve_box_qp")
    x, lam = _eq_solve(problem, tol)
    eq_res = _eq_residual(problem, x)
    return QPSolution(
        x=x,
        multipliers=lam,
        bound_multipliers=np.zeros(problem.n),
        active_set=(),
        eq_residual=eq_res,
        iterations=1,
        mode=SolveMode.EXACT,
    )


def _eq_residual(problem, x):
    if problem.m == 0:
        return 0.0
    return float(np.max(np.abs(problem.eq_matrix @ x - problem.eq_rhs)))


def _reduced_direction(hff, cf, gdir, resid, tol):
    """EQP direction on the free block, tolerating dependent constraint rows.

    Returns (p_f, lam) where lam has one entry per original constraint row
    (zero on rows identified as dependent).
    """
    m = cf.shape[0]
    if m == 0:
        return solve_spd(hff, -gdir, tol), np.zeros(0)

    q, r, piv = scipy.linalg.qr(cf.T, pivoting=True)
    r_scale = float(np.max(np.abs(r))) if r.size else 0.0
    diag = np.abs(np.diag(r[: min(r.shape), : min(r.shape)]))
    if r_scale == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > tol.rank_pivot * r_scale))
    kept = np.sort(piv[:rank])

    if rank == 0:
        p_f = solve_spd(hff, -gdir, tol)
        lam = np.zeros(m)
    else:
        system = KKTSystem(
            hessian=hff,
            constraints=cf[kept],
            objective_gradient=gdir,
            rhs=resid[kept],
        )
        p_f, lam_kept = solve_kkt(system, tol)
        lam = np.zeros(m)
        lam[kept] = lam_kept

    # Dependent rows must be consistent with the kept ones.
    check = float(np.max(np.abs(cf @ p_f - resid))) if m else 0.0
    scale = 1.0 + (float(np.max(np.abs(resid))) if m else 0.0)
    if check > max(tol.feasibility, 1e3 * tol.residual) * scale:
        raise RankDeficientConstraints(
            f"dependent constraint rows are inconsistent (residual {check:.3e})"
        )
    return p_f, lam


def solve_box_qp(problem, tol=DEFAULT_TOLERANCES, max_iterations=None, start=None):
    """Primal active-set solver for equality + bound constrained QPs.

    The working set starts from the bounds hit when the plain equality-QP
    solution is clamped; each iteration solves an equality QP on the free
    variables, takes the longest in-bounds step along that direction, and
    adds the blocking bound (lowest index on ties). When the direction
    vanishes, multipliers decide release of a pinned variable (again lowest
    index). Pinned variables are re-snapped to their bound every iteration
    so the returned iterate respects bounds exactly.

    Parameters
    ----------
    problem : QPProblem with bounds.
    tol : ToleranceSet
    max_iterations : int, optional
        Defaults to 50·n.
    start : array_like, optional
        Bound-feasible starting point (e.g. a phase-1 witness). When
        omitted, phase-1 runs automatically if the clamped equality
        solution is not already optimal.

    Raises
    ------
    Infeasible
        Phase-1 certifies the equality set is unreachable within bounds.
    MaxIterationsExceeded
    """
    if not problem.has_bounds:
        raise ValueError("problem has no bounds; use solve_eq_qp")
    n, m = problem.n, problem.m
    h, c = problem.hessian, problem.eq_matrix
    b, g = problem.eq_rhs, problem.gradient()
    lo, hi = problem.bounds()
    cap = 50 * n if max_iterations is None else int(max_iterations)

    # Fast path: bounds inactive at the equality-QP minimizer.
    x_eq, lam_eq = _eq_solve(problem, tol)
    pad = tol.residual * (1.0 + float(np.max(np.abs(x_eq))))
    if np.all(x_eq >= lo - pad) and np.all(x_eq <= hi + pad):
        x = np.clip(x_eq, lo, hi)
        return QPSolution(
            x=x,
            multipliers=lam_eq,
            bound_multipliers=np.zeros(n),
            active_set=(),
            eq_residual=_eq_residual(problem, x),
            iterations=1,
            mode=SolveMode.EXACT,
        )

    if start is None:
        if m == 0:
            start = np.clip(x_eq, lo, hi)
        else:
            report = phase1_feasible(problem, tol)
            if not report.feasible:
                raise Infeasible(
                    "equality constraints unreachable within bounds "
                    f"(best violation {report.violation:.3e})",
                    violation=report.violation,
                )
            start = report.witness
    x = np.clip(np.asarray(start, dtype=float).reshape(-1), lo, hi)
    if x.shape[0] != n:
        raise ValueError("start point has wrong length")

    # active[i]: 0 free, -1 pinned at lower, +1 pinned at upper.
    active = np.zeros(n, dtype=int)
    bound_scale = np.maximum(
        np.where(np.isfinite(lo), np.abs(lo), 0.0),
        np.where(np.isfinite(hi), np.abs(hi), 0.0),
    )
    snap = 1e-9 * (1.0 + bound_scale)
    clamped = np.clip(x_eq, lo, hi)
    at_lo = np.isfinite(lo) & (np.abs(clamped - lo) <= snap) & (np.abs(x - lo) <= snap)
    at_hi = np.isfinite(hi) & (np.abs(clamped - hi) <= snap) & (np.abs(x - hi) <= snap)
    active[at_hi] = 1
    active[at_lo] = -1
    x[active == -1] = lo[active == -1]
    x[active == 1] = hi[active == 1]

    lam = np.zeros(m)
    iterations = 0
    while iterations < cap:
        iterations += 1
        free = active == 0
        p = np.zeros(n)
        if np.any(free):
            gdir = (h @ x + g)[free]
            resid = b - c @ x if m else np.zeros(0)
            p_f, lam = _reduced_direction(
                h[np.ix_(free, free)], c[:, free], gdir, resid, tol
            )
            p[free] = p_f
        elif m:
            # Everything pinned: best multipliers in least-squares sense.
            lam = np.linalg.lstsq(c.T, h @ x + g, rcond=None)[0]

        step_scale = 1.0 + float(np.max(np.abs(x)))
        if float(np.max(np.abs(p))) <= 1e-12 * step_scale:
            mu = h @ x + g - (c.T @ lam if m else 0.0)
            viol = np.where(
                active == -1, -mu, np.where(active == 1, mu, 0.0)
            )
            if float(np.max(viol, initial=0.0)) <= tol.complementarity:
                return _finish_box(problem, x, lam, mu, active, iterations)
            active[int(np.argmax(viol))] = 0
            continue

        # Ratio test toward the nearest blocking bound.
        alpha, block, side = 1.0, -1, 0
        eps_dir = 1e-13 * (1.0 + float(np.max(np.abs(p))))
        for i in np.where(free)[0]:
            pi = p[i]
            if pi > eps_dir and np.isfinite(hi[i]):
                t, s = (hi[i] - x[i]) / pi, 1
            elif pi < -eps_dir and np.isfinite(lo[i]):
                t, s = (lo[i] - x[i]) / pi, -1
            else:
                continue
            t = max(t, 0.0)
            if t < alpha - 1e-15:
                alpha, block, side = t, int(i), s
        x = x + alpha * p
        if block >= 0:
            active[block] = side
        x[active == -1] = lo[active == -1]
        x[active == 1] = hi[active == 1]

    raise MaxIterationsExceeded(f"active-set iteration cap {cap} reached")


def _finish_box(problem, x, lam, mu, active, iterations):
    bound_mult = np.where(active != 0, mu, 0.0)
    return QPSolution(
        x=x,
        multipliers=lam,
        bound_multipliers=bound_mult,
        active_set=tuple(int(i) for i in np.where(active != 0)[0]),
        eq_residual=_eq_residual(problem, x),
        iterations=iterations,
        mode=SolveMode.EXACT,
    )


def phase1_feasible(problem, tol=DEFAULT_TOLERANCES):
    """Feasibility probe: minimize equality violation subject to bounds.

    Solves min ‖eq_matrix·x − eq_rhs‖ over the box (bounded-variable
    least squares) and reports the max-norm violation of the minimizer.
    Feasible iff that violation is at most ``tol.feasibility``.

    Always returns a FeasibilityReport; never raises on infeasibility.
    """
    if not problem.has_bounds:
        raise ValueError("phase-1 requires bounds")
    lo, hi = problem.bounds()
    if problem.m == 0:
        witness = np.clip(np.zeros(problem.n), lo, hi)
        return FeasibilityReport(True, witness, 0.0)
    result = scipy.optimize.lsq_linear(
        problem.eq_matrix, problem.eq_rhs, bounds=(lo, hi), method="bvls",
        tol=1e-14,
    )
    witness = np.clip(result.x, lo, hi)
    violation = float(np.max(np.abs(problem.eq_matrix @ witness - problem.eq_rhs)))
    return FeasibilityReport(violation <= tol.feasibility, witness, violation)


def solve_soft_qp(problem, penalty=_DEFAULT_PENALTY, tol=DEFAULT_TOLERANCES,
                  max_iterations=None):
    """Penalty fallback: fold equalities into the objective, keep bounds hard.

    Minimizes ½ xᵀHx + gᵀx + (ρ/2)‖eq_matrix·x − eq_rhs‖² over the box.
    The returned multipliers are the penalty estimates ρ(b − Cx), the
    equality residual is reported honestly, and the mode is SoftConstraint
    so callers cannot mistake the result for an exact solve.
    """
    if not problem.has_bounds:
        raise ValueError("soft solve requires bounds")
    if not (penalty > 0.0):
        raise ValueError("penalty must be positive")
    c, b = problem.eq_matrix, problem.eq_rhs
    soft_h = problem.hessian + penalty * (c.T @ c)
    soft_h = 0.5 * (soft_h + soft_h.T)
    soft_g = problem.gradient() - penalty * (c.T @ b)
    inner = QPProblem(
        hessian=soft_h,
        eq_matrix=np.zeros((0, problem.n)),
        eq_rhs=np.zeros(0),
        lower=problem.lower,
        upper=problem.upper,
        linear=soft_g,
    )
    sol = solve_box_qp(inner, tol, max_iterations)
    lam = penalty * (b - c @ sol.x) if problem.m else np.zeros(0)
    return QPSolution(
        x=sol.x,
        multipliers=lam,
        bound_multipliers=sol.bound_multipliers,
        active_set=sol.active_set,
        eq_residual=_eq_residual(problem, sol.x),
        iterations=sol.iterations,
        mode=SolveMode.SOFT_CONSTRAINT,
    )


@dataclass
class Peskin4Weights:
    """Per-axis four-point kernel weights at integer offsets (-1, 0, 1, 2).

    ``shift`` is the marker position within its cell, per axis, in [0, 1).
    ``weights`` has shape (dimension, 4). Multi-dimensional weights are the
    tensor product of the per-axis rows.
    """

    shift: np.ndarray
    weights: np.ndarray
    dimension: int

    OFFSETS = (-1, 0, 1, 2)

    def tensor(self):
        t = self.weights[0]
        for k in range(1, self.dimension):
            t = np.multiply.outer(t, self.weights[k])
        return t


def solve_peskin4(shift, dimension=None):
    """Closed-form four-point kernel weights for a fractional shift.

    Per axis, the four weights at offsets (-1, 0, 1, 2) are pinned down by
    the even-sum, odd-sum, and first-moment conditions plus the sum-of-
    squares condition; the last is quadratic and the root is chosen so all
    weights stay non-negative, which also makes the map shift → weights
    continuous:

        w0  = (3 - 2s + sqrt(1 + 4s - 4s²)) / 8       (offset 0)
        w1  = (1 + 2s + sqrt(1 + 4s - 4s²)) / 8       (offset 1)
        w-1 = 1/2 - w1,   w2 = 1/2 - w0

    Multi-axis weights are tensor products.
    """
    s = np.asarray(shift, dtype=float).reshape(-1)
    if dimension is None:
        dimension = s.shape[0]
    if s.shape[0] == 1 and dimension > 1:
        s = np.full(dimension, s[0])
    if s.shape[0] != dimension:
        raise ValueError(
            f"{s.shape[0]} shifts given for dimension {dimension}"
        )
    if np.any((s < 0.0) | (s >= 1.0)):
        raise ValueError("shift must lie in [0, 1) per axis")

    root = np.sqrt(1.0 + 4.0 * s - 4.0 * s * s)
    w0 = (3.0 - 2.0 * s + root) / 8.0
    w1 = (1.0 + 2.0 * s + root) / 8.0
    weights = np.stack([0.5 - w1, w0, w1, 0.5 - w0], axis=1)
    return Peskin4Weights(shift=s, weights=weights, dimension=int(dimension))


def check_kkt(problem, solution, tol=DEFAULT_TOLERANCES):
    """Audit a solution against a problem; returns the four KKT residuals.

    stationarity  ‖Hx + g − Cᵀλ − μ‖∞
    primal        max of equality and bound violations
    dual          wrong-signed bound multipliers on the active set
    complementarity  |μ| × distance-to-bound (slack capped at 1 so
                  unbounded directions stay finite)
    """
    x = np.asarray(solution.x, dtype=float).reshape(-1)
    if x.shape[0] != problem.n:
        raise LengthMismatch(f"x has length {x.shape[0]}, expected {problem.n}")
    lam = np.asarray(solution.multipliers, dtype=float).reshape(-1)
    if lam.shape[0] != problem.m:
        raise LengthMismatch(
            f"multipliers have length {lam.shape[0]}, expected {problem.m}"
        )
    mu = np.asarray(solution.bound_multipliers, dtype=float).reshape(-1)
    if mu.shape[0] != problem.n:
        raise LengthMismatch(
            f"bound multipliers have length {mu.shape[0]}, expected {problem.n}"
        )
    h, g = problem.hessian, problem.gradient()
    lo, hi = problem.bounds()

    grad = h @ x + g - (problem.eq_matrix.T @ lam if problem.m else 0.0) - mu
    stationarity = float(np.max(np.abs(grad))) if problem.n else 0.0

    primal = _eq_residual(problem, x)
    primal = max(primal, float(np.max(lo - x, initial=0.0)))
    primal = max(primal, float(np.max(x - hi, initial=0.0)))

    dual = 0.0
    for i in solution.active_set:
        lo_gap = x[i] - lo[i] if np.isfinite(lo[i]) else np.inf
        hi_gap = hi[i] - x[i] if np.isfinite(hi[i]) else np.inf
        if lo_gap <= hi_gap:
            dual = max(dual, -mu[i])
        else:
            dual = max(dual, mu[i])
    dual = max(dual, 0.0)

    slack_lo = np.minimum(np.where(np.isfinite(lo), x - lo, 1.0), 1.0)
    slack_hi = np.minimum(np.where(np.isfinite(hi), hi - x, 1.0), 1.0)
    comp = np.maximum(np.maximum(mu, 0.0) * slack_lo,
                      np.maximum(-mu, 0.0) * slack_hi)
    complementarity = float(np.max(comp, initial=0.0))

    return KKTReport(stationarity, primal, dual, complementarity)


def solve_generating_qp(system, bounds=None, tol=DEFAULT_TOLERANCES,
                        source=KernelSource.PROBLEM_B):
    """Kernel weights by constrained minimization of ½ ΨᵀW⁻¹Ψ.

    Sites whose weight is at or below ``tol.zero_weight`` make W⁻¹
    undefined; they are eliminated with Ψ := 0 before solving, which
    preserves the minimizer of the remaining coordinates. Without bounds
    this is a single equality-QP solve; with bounds the active-set solver
    runs, falling back to the soft-constraint penalty when phase-1 reports
    the constraint set empty.

    ``bounds`` may be anything with ``alpha``/``beta`` attributes or an
    (alpha, beta) pair.
    """
    w = system.Wdiag
    keep = w > tol.zero_weight
    n_keep = int(np.count_nonzero(keep))
    if n_keep < system.n_basis:
        raise InsufficientSupport(
            f"only {n_keep} sites carry weight above {tol.zero_weight:g}"
        )
    hessian = np.diag(1.0 / w[keep])
    a_keep = system.A[:, keep]

    if bounds is None:
        problem = QPProblem(hessian, a_keep, system.p)
        sol = solve_eq_qp(problem, tol)
    else:
        alpha, beta = (
            (bounds.alpha, bounds.beta) if hasattr(bounds, "alpha") else bounds
        )
        if not np.all(keep) and not (alpha <= 0.0 <= beta):
            raise Infeasible(
                "eliminated zero-weight sites violate bounds excluding 0",
                violation=max(alpha - 0.0, 0.0 - beta),
            )
        problem = QPProblem(hessian, a_keep, system.p, lower=alpha, upper=beta)
        report = phase1_feasible(problem, tol)
        if report.feasible:
            sol = solve_box_qp(problem, tol, start=report.witness)
        else:
            sol = solve_soft_qp(problem, _DEFAULT_PENALTY, tol)

    psi = np.zeros(system.n_sites)
    psi[keep] = sol.x
    residual = float(np.max(np.abs(system.A @ psi - system.p)))
    return KernelWeights(
        psi=psi,
        sites=system.sites,
        eval=system.eval,
        source=source,
        equality_residual=residual,
        mode=sol.mode,
        support=keep,
    )
