"""Constrained quadratic minimization engines.

Three routes to a kernel's minimizer of ½ xᵀHx with H = W⁻¹ diagonal; each
takes a ``QPProblem`` (defined and validated in linalg, re-exported here),
which holds H as the vector of its diagonal:

- solve_eq_qp: equality constraints only, one range-space solve
  (linalg.solve_kkt), whose only factorization is the QR of H^-½Cᵀ.
- solve_box_qp: equalities plus bound constraints, the dual active-set
  method of Goldfarb & Idnani (Math. Programming 27, 1983), started from
  the equality-constrained minimizer. It detects an empty constraint set
  itself and raises Infeasible with a Farkas certificate read off its
  last step.
- solve_soft_qp: bounds only, equalities folded into a quadratic penalty
  with the fixed weight ρ = 1e8; used when the hard-constrained set is
  empty. With a diagonal H this is bounded least squares.

plus phase1_feasible (a bounded least-squares feasibility probe) and
check_kkt (residual audit of any solution against any problem). Phase-1
and the soft fallback share scipy's BVLS (``lsq_linear``), imported on
first use so that importing this module does not load ``scipy.optimize``.
The dual solver's certificate decides the soft fallback; phase-1 runs only
where a failed solve left no certificate, and the tests hold it as an
independent oracle that the solve mode agrees with.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    Infeasible,
    InsufficientSupport,
    LengthMismatch,
    MaxIterationsExceeded,
    RankDeficientConstraints,
)
from .kernels import KernelSource, KernelWeights, SolveMode
# solve_spd has no caller in the package; it is imported here only because
# bench/tracing.py wraps it where this module would look it up.
from .linalg import (
    _FEASIBILITY,
    _ZERO_WEIGHT,
    QPProblem,
    _diagonal_root,
    _divide,
    _householder_qr,
    _singular_values,
    _solve_tri,
    solve_kkt,
    solve_spd,
)

__all__ = [
    "QPProblem",
    "QPSolution",
    "FeasibilityReport",
    "KKTReport",
    "solve_eq_qp",
    "solve_box_qp",
    "phase1_feasible",
    "solve_soft_qp",
    "check_kkt",
    "solve_generating_qp",
    "SolveMode",
]

# Weight ρ of the soft fallback's penalty on the equality residual.
_PENALTY = 1e8

# scipy's QR column updates, called past the array-API batch wrapper that
# recent scipy puts around them (23 and 13 µs a call through it, against
# 5.9 and 2.4 µs). Where there is no wrapper these are the functions.
_qr_insert = getattr(scipy.linalg.qr_insert, "__wrapped__", scipy.linalg.qr_insert)
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)


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


def solve_eq_qp(problem):
    """Solve an equality-constrained QP (no bounds allowed).

    Returns a QPSolution whose KKT residuals are at the direct-solve level
    (≤ 1e-10 for well-scaled inputs).
    """
    x, lam = solve_kkt(problem)
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
    return float(np.abs(problem.eq_matrix @ x - problem.eq_rhs).max())


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

# solve_box_qp raises MaxIterationsExceeded after this many dual active-set
# steps per variable.
_STEPS_PER_VARIABLE = 50


def _check_rank(r_eq):
    """Apply the rank rule to the Gram matrix r_eqᵀ r_eq.

    With the pinned bounds ordered before the equality rows, the trailing
    m×m block of R in the QR factorization of L⁻¹N is such a factor of
    C_F H_FF⁻¹ C_Fᵀ (a Schur complement of NᵀH⁻¹N).
    """
    if not r_eq.size:
        return
    sv = _singular_values(r_eq)
    cond = (sv[0] / sv[-1]) ** 2 if sv[-1] > 0.0 else np.inf
    if cond > _GRAM_COND_LIMIT:
        raise RankDeficientConstraints(
            "equality Gram matrix on the free variables has condition "
            f"number {cond:.3e} > {_GRAM_COND_LIMIT:.0e}"
        )


def solve_box_qp(problem):
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
    L⁻¹N with L = diag(√h), kept current by scipy's ``qr_insert`` and
    ``qr_delete``. L⁻¹ is a division, and Qᵀ applied to the scaled unit
    normal of bound p is row p of Q, scaled. After each full step the
    iterate and the multipliers are recomputed from that factorization, so
    rounding does not build up over the steps, and pinned variables sit
    exactly on their bounds.

    Parameters
    ----------
    problem : QPProblem with bounds.

    Raises
    ------
    ValueError
        The problem has no bounds.
    NotSPD
        The Hessian is not positive definite.
    Infeasible
        The bound to add depends on the working set and no multiplier can
        fall. The equality part y of that last step direction is tested as
        a Farkas certificate (see ``_farkas_bound``): where it proves the
        box empty, ``certificate`` holds it and ``violation`` the bound it
        gives; otherwise both are None.
    RankDeficientConstraints
        The equality rows restricted to the free variables at the optimum
        fail the rank rule (see ``_GRAM_COND_LIMIT``).
    MaxIterationsExceeded
        More than 50·n dual active-set steps.
    """
    if not problem.has_bounds:
        raise ValueError("problem has no bounds; use solve_eq_qp")
    n, m = problem.n, problem.m
    lo, hi = problem.bounds()
    cap = _STEPS_PER_VARIABLE * n
    root = _diagonal_root(problem.hessian)

    # Working set: the k pinned bounds in the order they joined, then the
    # m equality rows. Pinned bound j holds site pinned[j] at fixed[0, j],
    # from side fixed[1, j] (+1 at lower, -1 at upper); fixed[2, j] is
    # their product, the bound's row of the working set's right-hand side.
    pinned = np.empty(n, dtype=np.intp)
    fixed = np.empty((3, n))
    k = 0
    q_fac, r_fac = _householder_qr(_divide(problem.eq_matrix.T, root), full=True)
    _check_rank(r_fac[:m])
    # The leading (k + m)-square block of R, copied once into the layout
    # LAPACK takes for all the triangular solves until R changes.
    r_top = np.asfortranarray(r_fac[:m])

    def minimizer():
        """Minimizer and multipliers with every working-set row active."""
        rhs = np.concatenate([fixed[2, :k], problem.eq_rhs]) if k else problem.eq_rhs
        a = _solve_tri(r_top, rhs, trans=1)
        x = _divide(q_fac[:, :k + m] @ a, root)
        if k:
            x[pinned[:k]] = fixed[0, :k]
        return x, _solve_tri(r_top, a)

    x, u = minimizer()
    steps = 0
    # Work buffers: bound violations, and qr_insert's column (its full-Q
    # column insert copies it, so it is zero again once entry p is).
    viol, above, unit = np.empty(n), np.empty(n), np.zeros(n)
    while True:
        np.subtract(lo, x, out=viol)
        np.subtract(x, hi, out=above)
        np.maximum(viol, above, out=viol)
        viol[pinned[:k]] = 0.0
        p = int(viol.argmax())
        if not viol[p] > 0.0:
            break
        lo_p, hi_p, x_p = float(lo[p]), float(hi[p]), float(x[p])
        s_p = 1.0 if lo_p - x_p >= x_p - hi_p else -1.0
        bound = lo_p if s_p > 0 else hi_p
        w_p = s_p / float(root[p])  # w = L⁻¹ times the unit normal is zero but at p
        while True:
            steps += 1
            if steps > cap:
                raise MaxIterationsExceeded(
                    f"dual active-set iteration cap {cap} reached"
                )
            q = k + m
            d = q_fac[p] * w_p  # Qᵀw
            r = _solve_tri(r_top, d[:q])
            dz = d[q:]
            curvature = float(dz @ dz)
            t_full = np.inf
            if curvature > _DEPENDENT**2 * (w_p * w_p):
                t_full = s_p * (bound - float(x[p])) / curvature
            t_part = np.inf
            falling = r[:k] > 0.0
            if falling.any():
                ratios = np.divide(
                    np.maximum(u[:k], 0.0), r[:k],
                    out=np.full(k, np.inf), where=falling,
                )
                t_part = float(ratios.min())
            if t_full == np.inf and t_part == np.inf:
                y, violation = _farkas_bound(problem, lo, hi, r[k:])
                raise Infeasible("equality constraints unreachable within bounds",
                                 violation=violation, certificate=y)
            if t_full <= t_part:
                unit[p] = w_p
                q_fac, r_fac = _qr_insert(
                    q_fac, r_fac, unit, k, which="col", overwrite_qru=True,
                    check_finite=False,
                )
                unit[p] = 0.0
                pinned[k] = p
                fixed[0, k] = bound
                fixed[1, k] = s_p
                fixed[2, k] = s_p * bound
                k += 1
                r_top = np.asfortranarray(r_fac[:k + m])
                x, u = minimizer()
                break
            if t_full < np.inf:
                z = _divide(q_fac[:, q:] @ dz, root)
                x = x + t_part * z
            drop = int(np.argmin(ratios))
            u = np.delete(u - t_part * r, drop)
            q_fac, r_fac = _qr_delete(
                q_fac, r_fac, drop, which="col", overwrite_qr=True,
                check_finite=False,
            )
            pinned[drop:k - 1] = pinned[drop + 1:k]
            fixed[:, drop:k - 1] = fixed[:, drop + 1:k]
            k -= 1
            r_top = np.asfortranarray(r_fac[:k + m])

    _check_rank(r_fac[k:k + m, k:k + m])
    bound_mult = np.zeros(n)
    bound_mult[pinned[:k]] = fixed[1, :k] * u[:k]
    return QPSolution(
        x=x,
        multipliers=u[k:],
        bound_multipliers=bound_mult,
        active_set=tuple(sorted(pinned[:k].tolist())),
        eq_residual=_eq_residual(problem, x),
        iterations=1 + steps,
        mode=SolveMode.EXACT,
    )


def _farkas_bound(problem, lo, hi, y):
    """(±y, bound) where ±y proves the box empty, or (None, None).

    For c = Cᵀy, every x in the box has cᵀx between the sums of
    min(loᵢcᵢ, hiᵢcᵢ) and of max(loᵢcᵢ, hiᵢcᵢ). Where yᵀb lies outside
    that range by a gap g, |yᵀ(b − Cx)| ≥ g, so ‖Cx − b‖∞ ≥ g / ‖y‖₁ on the
    whole box (Farkas). Returns the sign of y with the positive gap and
    that lower bound.
    """
    c = problem.eq_matrix.T @ y
    up, down = c > 0.0, c < 0.0
    most = hi[up] @ c[up] + lo[down] @ c[down]
    least = lo[up] @ c[up] + hi[down] @ c[down]
    target = float(y @ problem.eq_rhs)
    gap = max(target - most, least - target)
    if not gap > 0.0:
        return None, None
    return (y if target > most else -y), gap / float(np.abs(y).sum())


def _bounded_lsq(matrix, rhs, lo, hi):
    """argmin ‖matrix·x − rhs‖ over lo ≤ x ≤ hi, and its iteration count.

    scipy's bounded-variable least squares (Stark & Parker, Comput. Stat.
    10, 1995): ``lsq_linear(method="bvls", tol=1e-14)``, imported here so
    that importing the package does not load ``scipy.optimize``. It takes
    no entry with lo == hi, so those are held at their value and moved to
    the right-hand side.
    """
    from scipy.optimize import lsq_linear

    free = lo < hi
    x = lo.copy()
    if not free.any():
        return x, 0
    result = lsq_linear(
        matrix[:, free], rhs - matrix[:, ~free] @ lo[~free],
        bounds=(lo[free], hi[free]), method="bvls", tol=1e-14,
    )
    x[free] = np.clip(result.x, lo[free], hi[free])
    return x, int(result.nit)


def phase1_feasible(problem):
    """Feasibility probe: minimize equality violation subject to bounds.

    Solves min ‖eq_matrix·x − eq_rhs‖ over the box (bounded-variable
    least squares) and reports the max-norm violation of the minimizer.
    Feasible iff that violation is at most ``linalg._FEASIBILITY``.

    Always returns a FeasibilityReport; never raises on infeasibility.
    """
    if not problem.has_bounds:
        raise ValueError("phase-1 requires bounds")
    lo, hi = problem.bounds()
    if problem.m == 0:
        witness = np.clip(np.zeros(problem.n), lo, hi)
        return FeasibilityReport(True, witness, 0.0)
    witness, _ = _bounded_lsq(problem.eq_matrix, problem.eq_rhs, lo, hi)
    violation = _eq_residual(problem, witness)
    return FeasibilityReport(violation <= _FEASIBILITY, witness, violation)


def solve_soft_qp(problem):
    """Penalty fallback: fold equalities into the objective, keep bounds hard.

    Minimizes ½ xᵀHx + (ρ/2)‖eq_matrix·x − eq_rhs‖² over the box, with
    the fixed ρ = 1e8. With H = diag(h) that is the bounded least-squares
    problem min ‖[H^½; √ρC]x − [0; √ρb]‖, solved as phase-1's is. The
    returned multipliers are the penalty estimates λ = ρ(b − Cx), the
    bound multipliers are Hx − Cᵀλ at the sites on a bound, the equality
    residual is reported honestly, and the mode is SoftConstraint so
    callers cannot mistake the result for an exact solve.
    """
    if not problem.has_bounds:
        raise ValueError("soft solve requires bounds")
    c, b = problem.eq_matrix, problem.eq_rhs
    lo, hi = problem.bounds()
    scale = np.sqrt(_PENALTY)
    x, iterations = _bounded_lsq(
        np.vstack([np.diag(_diagonal_root(problem.hessian)), scale * c]),
        np.concatenate([np.zeros(problem.n), scale * b]), lo, hi,
    )
    lam = _PENALTY * (b - c @ x)
    active = (x <= lo) | (x >= hi)
    return QPSolution(
        x=x,
        multipliers=lam,
        bound_multipliers=np.where(active, problem.hessian * x - c.T @ lam, 0.0),
        active_set=tuple(np.flatnonzero(active).tolist()),
        eq_residual=_eq_residual(problem, x),
        iterations=iterations,
        mode=SolveMode.SOFT_CONSTRAINT,
    )


def check_kkt(problem, solution):
    """Audit a solution against a problem; returns the four KKT residuals.

    stationarity  ‖Hx − Cᵀλ − μ‖∞
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
    lo, hi = problem.bounds()

    grad = problem.hessian * x - problem.eq_matrix.T @ lam - mu
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


def solve_generating_qp(system, bounds=None, source=KernelSource.PROBLEM_B):
    """Kernel weights by constrained minimization of ½ ΨᵀW⁻¹Ψ.

    Sites whose weight is at or below ``linalg._ZERO_WEIGHT`` make W⁻¹
    undefined; they are eliminated with Ψ := 0 before solving, which
    preserves the minimizer of the remaining coordinates. Without bounds
    this is a single equality-QP solve. With bounds the dual active-set
    solver runs first. An Infeasible it raises with a certified violation
    above ``linalg._FEASIBILITY`` hands the kernel to the soft-constraint
    penalty. Any other Infeasible, RankDeficientConstraints or
    MaxIterationsExceeded goes soft only where phase-1 finds the box
    empty, and is raised otherwise.

    ``bounds`` may be anything with ``alpha``/``beta`` attributes or an
    (alpha, beta) pair.
    """
    w = system.Wdiag
    keep = w > _ZERO_WEIGHT
    n_keep = int(np.count_nonzero(keep))
    if n_keep < system.n_basis:
        raise InsufficientSupport(
            f"only {n_keep} sites carry weight above {_ZERO_WEIGHT:g}"
        )
    # With every site kept, Ψ and its residual are the solve's x and residual.
    everywhere = n_keep == keep.size
    hessian = 1.0 / (w if everywhere else w[keep])
    a_keep = system.A if everywhere else system.A[:, keep]

    if bounds is None:
        problem = QPProblem(hessian, a_keep, system.p)
        sol = solve_eq_qp(problem)
    else:
        alpha, beta = (
            (bounds.alpha, bounds.beta) if hasattr(bounds, "alpha") else bounds
        )
        if not everywhere and not (alpha <= 0.0 <= beta):
            raise Infeasible(
                "eliminated zero-weight sites violate bounds excluding 0",
                violation=max(alpha - 0.0, 0.0 - beta),
            )
        problem = QPProblem(hessian, a_keep, system.p, lower=alpha, upper=beta)
        try:
            sol = solve_box_qp(problem)
        except (Infeasible, RankDeficientConstraints,
                MaxIterationsExceeded) as exc:
            # A certified bound past the tolerance implies a phase-1
            # violation past it, so phase-1 would choose soft there too.
            certified = getattr(exc, "violation", None) or 0.0
            if certified <= _FEASIBILITY and phase1_feasible(problem).feasible:
                raise
            sol = solve_soft_qp(problem)

    psi, residual = sol.x, sol.eq_residual
    if not everywhere:
        psi = np.zeros(system.n_sites)
        psi[keep] = sol.x
        residual = float(np.abs(system.A @ psi - system.p).max())
    return KernelWeights(
        psi=psi,
        sites=system.sites,
        eval=system.eval,
        source=source,
        equality_residual=residual,
        mode=sol.mode,
        support=keep,
    )
