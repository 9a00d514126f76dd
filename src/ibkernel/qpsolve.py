"""Constrained quadratic minimization engines.

Three routes to a kernel's minimizer of ½ xᵀHx with H = W⁻¹ diagonal; each
takes a ``QPProblem`` (defined and validated in linalg, re-exported here),
which holds H as the vector of its diagonal:

- solve_eq_qp: equality constraints only (linalg.solve_kkt), which is
  solve_box_qp's working set with nothing pinned.
- solve_box_qp: equalities plus bound constraints, the dual active-set
  method of Goldfarb & Idnani (Math. Programming 27, 1983) on the free
  variables. Each working set is one range-space solve with a refinement
  step on the m×m R of the free rows of H^-½Cᵀ, whose dependence rule is
  linalg._factor's. It starts from an active set guessed by primal-dual
  active-set passes, run past the second only while the last moved more
  than 2m bounds (a hot start), and detects an empty constraint set
  itself, raising Infeasible with a Farkas certificate read off its last
  step.
- solve_soft_qp: bounds only, equalities folded into a quadratic penalty
  with the fixed weight ρ = 1e8; used when the hard-constrained set is
  empty. The residual joins the variables, unbounded, and the same dual
  active-set method solves the result.

plus phase1_feasible (a bounded least-squares feasibility probe, scipy's
BVLS ``lsq_linear``, imported on first use so that importing this module
does not load ``scipy.optimize``) and check_kkt (residual audit of any
solution against any problem). The dual solver's certificate decides the
soft fallback; phase-1 runs only where a failed solve left no
certificate, and the tests hold it as an independent oracle that the
solve mode agrees with.
"""

from dataclasses import dataclass, replace

import numpy as np

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
    _factor,
    _householder_qr,
    _range_space,
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

# solve_box_qp raises MaxIterationsExceeded after this many dual active-set
# steps per variable.
_STEPS_PER_VARIABLE = 50


def _check_rank(r_eq):
    """Apply the rank rule to r_eqᵀ r_eq = C_F H_FF⁻¹ C_Fᵀ, where r_eq is
    the R factor of the rows √wᵢcᵢᵀ over the free variables F."""
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

    The iterate stays dual feasible throughout: each pass picks the most
    violated bound and moves along the direction that keeps the working
    set satisfied while raising that bound's multiplier. A full step
    reaches the bound, which joins the working set; a partial step stops
    where a pinned bound's multiplier reaches zero, and that bound leaves.
    A bound whose pinning would leave the free rows dependent (see
    ``linalg._factor``) only exchanges multipliers; when no multiplier can
    fall, the problem is infeasible.

    With W = H⁻¹, a working set is the free variables F and the values of
    the pinned ones. Its minimizer has x_F = W_F C_Fᵀλ with C_F W_F C_Fᵀλ =
    b − C_P x_P, and pinned j the multiplier sⱼ(xⱼ/wⱼ − cⱼᵀλ), sⱼ = +1 at a
    lower bound and −1 at an upper one. Adding bound q moves λ by
    −s_q w_q (C_F W_F C_Fᵀ)⁻¹c_q at curvature w_q / (1 + w_q‖R′⁻ᵀc_q‖²),
    with R′ the R factor of the rows √wᵢcᵢᵀ over F∖{q}. Each factorization
    is such an m×m R, so no condition number is squared.

    The start is hot: primal-dual active-set passes (solve on the free
    set, then pin every variable that clip(W Cᵀλ) moves) guess the working
    set, and each pinned bound whose multiplier has the wrong sign is
    released until none is. Passes after the second run while the last
    one moved more than 2m bounds, and stop at a guess seen before, at a
    dependent guess or after eight passes. A dependent guess from the first
    two passes falls back to the equality-constrained minimizer; a later
    one leaves the last independent guess. The start and every full step
    compute the iterate from F and the pinned values alone, by one fixed
    sequence with one refinement step, so the result does not depend on
    the path and pinned variables sit exactly on their bounds.

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
        fall. The λ part of that last step direction is tested as a Farkas
        certificate (see ``_farkas_bound``): where it proves the box empty,
        ``certificate`` holds it and ``violation`` the bound it gives;
        otherwise both are None.
    RankDeficientConstraints
        The equality rows on every variable, or on the free variables at
        the optimum, fail the rank rule (see ``_GRAM_COND_LIMIT``).
    MaxIterationsExceeded
        More than 50·n dual active-set steps.
    """
    if not problem.has_bounds:
        raise ValueError("problem has no bounds; use solve_eq_qp")
    return _free_set_qp(problem, rank_rule=True)


def _free_set_qp(problem, rank_rule, start=None):
    """``solve_box_qp``'s method, with the rank rule only if ``rank_rule``.

    ``start``, a side per variable (+1 at its lower bound, −1 at its upper
    one, 0 free), replaces the primal-dual passes' guess: no pass runs, and
    a dependent ``start`` falls back to the cold start.
    """
    n, m = problem.n, problem.m
    lo, hi = problem.bounds()
    c, b, h = problem.eq_matrix, problem.eq_rhs, problem.hessian
    root = _diagonal_root(h)
    rows = c.T * (1.0 / root)[:, None]

    def held(side):
        """x with the pinned variables on their bounds and 0 on the free set."""
        return np.where(side > 0.0, lo, np.where(side < 0.0, hi, 0.0))

    def working_set(side, qr=None):
        """(side, Q and R, x, λ) of a working set, or of the cold start if F is dependent."""
        free = side == 0.0
        qr = qr or _factor(rows[free])
        if qr is None:
            return working_set(np.zeros(n), cold)
        x = held(side)
        x[free], lam = _range_space(qr, root[free], c[:, free], b - c @ x)
        return side, qr, x, lam

    cold = _householder_qr(rows)
    if rank_rule:
        _check_rank(cold[1])
    side, qr = (np.zeros(n), cold) if start is None else (np.array(start, float), None)
    seen = [side]
    for k in range(8 if start is None else 0):
        # A primal-dual active-set pass: λ on the guess (unrefined), then
        # pin every variable that clip(W Cᵀλ) moves. Passes after the
        # second run while the last one moved more than 2m bounds, at most
        # eight: the benchmark's sphere boxes (seeds 1-5) need no more.
        if k >= 2 and moved <= 2 * m:
            break
        lam = _solve_tri(qr[1], _solve_tri(qr[1], b - c @ held(side), trans=1))
        v = (c.T @ lam) / h
        guess = (v < lo) - (v > hi).astype(float)
        if any(np.array_equal(guess, s) for s in seen):
            break
        moved, qr_guess = np.count_nonzero(guess != side), _factor(rows[guess == 0.0])
        if qr_guess is None:
            side, qr = (np.zeros(n), cold) if k < 2 else (side, qr)
            break
        side, qr = guess, qr_guess
        seen.append(side)
    side, qr, x, lam = working_set(side, qr)
    while True:
        u = side * (h * x - c.T @ lam)
        if not (u < 0.0).any():
            break
        side, qr, x, lam = working_set(np.where(u < 0.0, 0.0, side))

    steps, cap = 0, _STEPS_PER_VARIABLE * n
    while True:
        viol = np.where(side == 0.0, np.maximum(lo - x, x - hi), 0.0)
        j = int(viol.argmax())
        if not viol[j] > 0.0:
            break
        s_j = 1.0 if lo[j] - x[j] >= x[j] - hi[j] else -1.0
        bound, w_j = (lo[j] if s_j > 0.0 else hi[j]), 1.0 / h[j]
        while True:
            steps += 1
            if steps > cap:
                raise MaxIterationsExceeded(f"dual active-set iteration cap {cap} reached")
            r = qr[1]
            d_lam = (-s_j * w_j) * _solve_tri(r, _solve_tri(r, c[:, j], trans=1))
            pinned = side.copy()
            pinned[j] = s_j
            qr_pinned = _factor(rows[pinned == 0.0])
            t_full = np.inf
            if qr_pinned is not None:
                v = _solve_tri(qr_pinned[1], c[:, j], trans=1)
                curvature = w_j / (1.0 + w_j * float(v @ v))
                t_full = s_j * (bound - x[j]) / curvature
            rate = side * (c.T @ d_lam)
            ratios = np.divide(np.maximum(u, 0.0), rate,
                               out=np.full(n, np.inf), where=rate > 0.0)
            drop = int(ratios.argmin())
            t_part = ratios[drop]
            if t_full == np.inf and t_part == np.inf:
                y, violation = _farkas_bound(problem, lo, hi, d_lam)
                raise Infeasible("equality constraints unreachable within bounds",
                                 violation=violation, certificate=y)
            if t_full <= t_part:
                side, qr, x, lam = working_set(pinned, qr_pinned)
                u = side * (h * x - c.T @ lam)
                break
            if t_full < np.inf:
                x[j] += t_part * s_j * curvature
            u -= t_part * rate
            u[drop] = side[drop] = 0.0
            qr = _householder_qr(rows[side == 0.0])

    if rank_rule:
        _check_rank(qr[1])
    return QPSolution(
        x=x, multipliers=lam, bound_multipliers=side * u,
        active_set=tuple(np.flatnonzero(side).tolist()),
        eq_residual=_eq_residual(problem, x), iterations=1 + steps, mode=SolveMode.EXACT,
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
    the fixed ρ = 1e8. The residual r = Cx − b joins x as m unbounded
    variables of Hessian ρ under the equality [C, −I][x; r] = b, and
    ``solve_box_qp``'s method solves that problem without the rank rule:
    its Gram matrix C_F H_FF⁻¹ C_Fᵀ + I/ρ is never singular. Sites on a
    bound sit exactly on it. The multipliers are the augmented problem's
    λ = ρ(b − Cx), the bound multipliers Hx − Cᵀλ on the active set, the
    equality residual is reported honestly, and the mode is SoftConstraint
    so callers cannot mistake the result for an exact solve.
    """
    if not problem.has_bounds:
        raise ValueError("soft solve requires bounds")
    n, m = problem.n, problem.m
    lo, hi = problem.bounds()
    unbounded = np.full(m, np.inf)
    sol = _free_set_qp(QPProblem(
        np.concatenate([problem.hessian, np.full(m, _PENALTY)]),
        np.hstack([problem.eq_matrix, -np.eye(m)]), problem.eq_rhs,
        lower=np.concatenate([lo, -unbounded]),
        upper=np.concatenate([hi, unbounded]),
    ), rank_rule=False)
    x = sol.x[:n]
    return replace(sol, x=x, bound_multipliers=sol.bound_multipliers[:n],
                   eq_residual=_eq_residual(problem, x),
                   mode=SolveMode.SOFT_CONSTRAINT)


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
    preserves the minimizer of the remaining coordinates; fewer of them
    than moment rows raise InsufficientSupport. Without bounds
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
