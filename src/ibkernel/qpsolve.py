"""Constrained quadratic minimization engines.

Four routes to a minimizer of ½ xᵀHx + gᵀx:

- solve_eq_qp: equality constraints only, one range-space solve
  (linalg.solve_kkt).
- solve_box_qp: equalities plus bound constraints, the dual active-set
  method of Goldfarb & Idnani (Math. Programming 27, 1983), started from
  the equality-constrained minimizer.
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
    NotSPD,
    RankDeficientConstraints,
)
from .kernels import KernelSource, KernelWeights, SolveMode
# solve_spd is not called here; it is imported only because bench/tracing.py
# wraps it where this module would look it up.
from .linalg import (
    DEFAULT_TOLERANCES,
    KKTSystem,
    _cholesky_checked,
    _solve_tri,
    solve_kkt,
    solve_spd,
)

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


def _kkt_system(problem):
    """The problem's equality data, checked: finite, symmetric H, m ≤ n."""
    return KKTSystem(
        hessian=problem.hessian,
        constraints=problem.eq_matrix,
        objective_gradient=problem.gradient(),
        rhs=problem.eq_rhs,
    )


def solve_eq_qp(problem, tol=DEFAULT_TOLERANCES):
    """Solve an equality-constrained QP (no bounds allowed).

    Returns a QPSolution whose KKT residuals are at the direct-solve level
    (≤ 1e-10 for well-scaled inputs).
    """
    if problem.has_bounds:
        raise ValueError("problem has bounds; use solve_box_qp")
    x, lam = solve_kkt(_kkt_system(problem), tol)
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


# Rank rule: solve_box_qp refuses an optimum whose free variables F leave
# the equality Gram matrix C_F H_FF⁻¹ C_Fᵀ with a condition number above
# this. Past it the kernel puts 0.14 to 0.27 on a site whose weight
# function is 2e-14 to 1e-11, the multipliers reach 7e11 to 3e14, and no
# check run apart from the solver can confirm the result (a KKT check
# weighted by W reads 9e-7 to 3e-4 there). On the case-4 circle sweep
# every other feasible marker stays below 1.7e12 and the eight refused
# ones lie above 2.8e13.
_GRAM_COND_LIMIT = 1e13

# A bound normal counts as dependent on the working set when its part
# outside the working set's span, in the L⁻¹ metric, is below this
# fraction of its length.
_DEPENDENT = 1e-12


def _check_rank(r_eq):
    """Apply the rank rule to the Gram matrix r_eqᵀ r_eq.

    With the pinned bounds ordered before the equality rows, the trailing
    m×m block of R in the QR factorization of L⁻¹N is such a factor of
    C_F H_FF⁻¹ C_Fᵀ (a Schur complement of NᵀH⁻¹N).
    """
    cond = np.linalg.cond(r_eq) ** 2 if r_eq.size else 1.0
    if cond > _GRAM_COND_LIMIT:
        raise RankDeficientConstraints(
            "equality Gram matrix on the free variables has condition "
            f"number {cond:.3e} > {_GRAM_COND_LIMIT:.0e}"
        )


def solve_box_qp(problem, tol=DEFAULT_TOLERANCES, max_iterations=None):
    """Goldfarb–Idnani dual active-set solver for equality + bound QPs.

    The iterate starts at the equality-constrained minimizer and stays
    dual feasible throughout: each pass picks the most violated bound and
    moves along the direction that keeps every working-set constraint
    satisfied while raising that bound's multiplier. A full step reaches
    the bound, which joins the working set; a partial step stops where a
    working-set bound's multiplier reaches zero, and that bound leaves.
    A bound whose normal depends on the working set only exchanges
    multipliers; when no multiplier can fall, the problem is infeasible.

    The working set's normals N (a signed unit vector per pinned bound,
    then the equality rows) enter through a full QR factorization of
    L⁻¹N with H = LLᵀ, kept current by ``scipy.linalg.qr_insert`` and
    ``qr_delete``. After each full step the iterate and the multipliers
    are recomputed from that factorization, so rounding does not build up
    over the steps, and pinned variables sit exactly on their bounds.

    Parameters
    ----------
    problem : QPProblem with bounds.
    tol : ToleranceSet
    max_iterations : int, optional
        Cap on dual active-set steps; defaults to 50·n.

    Raises
    ------
    ValueError
        Non-finite data, an asymmetric Hessian, or no bounds.
    NotSPD
        The Hessian is not positive definite.
    Infeasible
        No point meets the equalities within the bounds; the reported
        violation is phase-1's.
    RankDeficientConstraints
        The equality rows restricted to the free variables at the optimum
        fail the rank rule (see ``_GRAM_COND_LIMIT``).
    MaxIterationsExceeded
    """
    if not problem.has_bounds:
        raise ValueError("problem has no bounds; use solve_eq_qp")
    system = _kkt_system(problem)
    n, m = system.n, system.m
    lo, hi = problem.bounds()
    cap = 50 * n if max_iterations is None else int(max_iterations)
    chol = _cholesky_checked(system.hessian, tol, NotSPD)
    y0 = -_solve_tri(chol, system.objective_gradient, lower=True)

    # Working set: the pinned bounds (site, +1 at lower / -1 at upper, the
    # bound) in the order they joined, then the m equality rows.
    pinned, side, at = [], [], []
    q_fac, r_fac = scipy.linalg.qr(
        _solve_tri(chol, system.constraints.T, lower=True)
    )
    _check_rank(r_fac[:m])

    def minimizer():
        """Minimizer and multipliers with every working-set row active."""
        q = len(pinned) + m
        r1, q1, q2 = r_fac[:q], q_fac[:, :q], q_fac[:, q:]
        rhs = np.concatenate([np.multiply(side, at), system.rhs])
        a = _solve_tri(r1, rhs, trans=1)
        x = _solve_tri(chol, q2 @ (q2.T @ y0) + q1 @ a, lower=True, trans=1)
        x[pinned] = at
        return x, _solve_tri(r1, a - q1.T @ y0)

    x, u = minimizer()
    steps = 0
    while True:
        viol = np.maximum(lo - x, x - hi)
        viol[pinned] = 0.0
        p = int(np.argmax(viol))
        if not viol[p] > 0.0:
            break
        s_p = 1.0 if lo[p] - x[p] >= x[p] - hi[p] else -1.0
        bound = lo[p] if s_p > 0 else hi[p]
        normal = np.zeros(n)
        normal[p] = s_p
        w = _solve_tri(chol, normal, lower=True)
        while True:
            steps += 1
            if steps > cap:
                raise MaxIterationsExceeded(
                    f"dual active-set iteration cap {cap} reached"
                )
            k, q = len(pinned), len(pinned) + m
            d = q_fac.T @ w
            r = _solve_tri(r_fac[:q], d[:q])
            dz = d[q:]
            curvature = float(dz @ dz)
            t_full = np.inf
            if curvature > _DEPENDENT**2 * float(w @ w):
                t_full = s_p * (bound - x[p]) / curvature
            ratios = np.full(k, np.inf)
            falling = r[:k] > 0.0
            ratios[falling] = np.maximum(u[:k][falling], 0.0) / r[:k][falling]
            t_part = float(np.min(ratios, initial=np.inf))
            if t_full == np.inf and t_part == np.inf:
                violation = phase1_feasible(problem, tol).violation
                raise Infeasible(
                    "equality constraints unreachable within bounds "
                    f"(best violation {violation:.3e})",
                    violation=violation,
                )
            if t_full <= t_part:
                q_fac, r_fac = scipy.linalg.qr_insert(
                    q_fac, r_fac, w, k, which="col", check_finite=False
                )
                pinned.append(p)
                side.append(s_p)
                at.append(bound)
                x, u = minimizer()
                break
            if t_full < np.inf:
                z = _solve_tri(chol, q_fac[:, q:] @ dz, lower=True, trans=1)
                x = x + t_part * z
            drop = int(np.argmin(ratios))
            u = np.delete(u - t_part * r, drop)
            q_fac, r_fac = scipy.linalg.qr_delete(
                q_fac, r_fac, drop, which="col", check_finite=False
            )
            del pinned[drop], side[drop], at[drop]

    k = len(pinned)
    _check_rank(r_fac[k:k + m, k:k + m])
    bound_mult = np.zeros(n)
    bound_mult[pinned] = np.multiply(side, u[:k])
    return QPSolution(
        x=x,
        multipliers=u[k:],
        bound_multipliers=bound_mult,
        active_set=tuple(sorted(pinned)),
        eq_residual=_eq_residual(problem, x),
        iterations=1 + steps,
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
            sol = solve_box_qp(problem, tol)
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
