"""Constrained quadratic minimization engines.

Three routes to a kernel's minimizer of ½ xᵀHx with H = W⁻¹ diagonal; each
takes a ``QPProblem`` (defined and validated in linalg, re-exported here),
which holds H as the vector of its diagonal:

- solve_eq_qp: equality constraints only (linalg.solve_kkt), which is
  solve_box_qp's working set with nothing pinned.
- solve_box_qp: equalities plus bound constraints, a semismooth Newton
  method with an exact line search on the m-dimensional dual. Each step
  is one working set of the free variables: a range-space solve with a
  refinement step on the m×m R of the free rows of H^-½Cᵀ, whose
  dependence rule is linalg._factor's. It starts from the multipliers of
  the equality-constrained minimizer and detects an empty constraint set
  itself, raising Infeasible with a Farkas certificate.
- solve_soft_qp: bounds only, equalities folded into a quadratic penalty
  with the fixed weight ρ = 1e8; used when the hard-constrained set is
  empty. The residual joins the variables, unbounded, and the same Newton
  method solves the result.

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
from .kernels import KernelWeights, SolveMode
# solve_spd has no caller in the package; it is imported here only because
# bench/tracing.py wraps it where this module would look it up.
from .linalg import (
    _FEASIBILITY,
    _RANK_PIVOT,
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

# solve_box_qp and solve_soft_qp raise MaxIterationsExceeded after this many
# Newton steps.
_NEWTON_STEPS = 50

# A pinned bound's multiplier sⱼ(xⱼ/wⱼ − cⱼᵀλ) counts as wrong-signed only
# below −this × max|C|·‖λ‖₁, past the rounding of cⱼᵀλ. Without it a bound
# at a degenerate vertex (xⱼ on the bound with a zero multiplier) can be
# pinned and released in turn for ever: c·ψ6 at c = 1e4 on the case-4 marker
# at 170 degrees leaves a site 3.3e-10 below its bound when free and its
# multiplier at −1.9e-8, with ‖λ‖₁ about 2e6, when pinned.
_SIGN_SLACK = 1e-12


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
    """Semismooth Newton method on the dual of an equality + bound QP.

    With W = H⁻¹ the dual is the concave, piecewise quadratic g(λ) =
    bᵀλ − Σᵢ φᵢ(cᵢᵀλ) in λ ∈ ℝᵐ, maximized where its gradient
    b − CΨ(λ) vanishes, with Ψ(λ) = clip(W Cᵀλ, lower, upper). Its
    generalized Hessian is −C_F W_F C_Fᵀ on the variables F that the clip
    leaves free, so a Newton step is one working set: x_F = W_F C_Fᵀλ with
    C_F W_F C_Fᵀλ = b − C_P x_P and the pinned variables P on their
    bounds, one range-space solve with a refinement step on the m×m R of
    the free rows of H^-½Cᵀ (``linalg._factor`` decides dependence). The
    working set of the current pattern is the optimum when its x lies in
    the box and every pinned multiplier sⱼ(xⱼ/wⱼ − cⱼᵀλ) (sⱼ = +1 at a
    lower bound, −1 at an upper one) is not negative past rounding (see
    ``_SIGN_SLACK``). Otherwise λ moves toward the working set's
    multipliers by an exact line search on the piecewise linear slope of
    g (Hintermüller, Ito & Kunisch, SIAM J. Optim. 13, 2003; Frasch, Sager
    & Diehl, Math. Prog. Comp. 7, 2015). A full step takes the pattern
    read off the working set's x and multipliers, so each step either
    changes the pattern or ends the solve. Where the free rows are
    dependent, the step solves their Gram matrix plus 1e-12 of the trace
    of every variable's.

    The start is the multipliers λ₀ of the equality-constrained minimizer,
    from the factor of every variable. The result is the working set of
    the final pattern alone, computed by one fixed sequence, so it does
    not depend on the path, and pinned variables sit exactly on their
    bounds. Where the final pattern pins nothing it is that factor's.

    Parameters
    ----------
    problem : QPProblem with bounds.

    Returns
    -------
    QPSolution whose ``iterations`` is 1 + the Newton steps taken.

    Raises
    ------
    ValueError
        The problem has no bounds.
    NotSPD
        The Hessian is not positive definite.
    Infeasible
        A direction proves the box empty (see ``_raise_if_certified``): the
        Newton step where g still rises at the full step, the part of the
        gradient that dependent free rows cannot reach, or λ − λ₀ when the
        steps run out. ``certificate`` holds it and ``violation`` the
        bound it gives.
    RankDeficientConstraints
        The equality rows on every variable, or on the free variables at
        the optimum, fail the rank rule (see ``_GRAM_COND_LIMIT``).
    MaxIterationsExceeded
        More than ``_NEWTON_STEPS`` Newton steps.
    """
    if not problem.has_bounds:
        raise ValueError("problem has no bounds; use solve_eq_qp")
    return _dual_newton(problem, rank_rule=True)


def _dual_newton(problem, rank_rule):
    """``solve_box_qp``'s method. Without ``rank_rule`` (the soft
    fallback's problem, which always holds a point) it applies no rank
    rule and seeks no certificate."""
    lo, hi = problem.bounds()
    c, b, h = problem.eq_matrix, problem.eq_rhs, problem.hessian
    root = _diagonal_root(h)
    rows = c.T * (1.0 / root)[:, None]
    cold = _householder_qr(rows)
    if rank_rule:
        _check_rank(cold[1])
    slack = _SIGN_SLACK * np.abs(c).max(initial=0.0)
    lam0 = lam = _solve_tri(cold[1], _solve_tri(cold[1], b, trans=1))

    def pattern(v):
        """+1 where clip(v) pins a variable at its lower bound, −1 at its
        upper one, 0 where it leaves it free."""
        return (v < lo) - (v > hi).astype(float)

    v = (c.T @ lam) / h
    side = pattern(v)
    # Until a working set's x lies in the box, no certificate is ruled out.
    may_be_empty = rank_rule
    # A full step along which g still rose at t = 1 may have gone along a
    # certificate: its direction is tested once the next working set fails.
    rose = None
    for steps in range(_NEWTON_STEPS + 1):
        free = side == 0.0
        qr = cold if free.all() else _factor(rows[free])
        if qr is not None:
            x = np.where(side > 0.0, lo, hi)
            x[free] = 0.0  # the pinned values alone, for the right-hand side
            x[free], lam_ws = _range_space(qr, root[free], c[:, free], b - c @ x)
            ct_lam = c.T @ lam_ws
            u = side * (h * x - ct_lam)
            wrong = u < -slack * np.abs(lam_ws).sum()
            below, above = x < lo, x > hi
            outside = (below | above).any()
            if not (outside or wrong.any()):
                break
            may_be_empty = may_be_empty and outside
            d, v_ws = lam_ws - lam, ct_lam / h
        else:
            # Dependent free rows: the part of the gradient they cannot
            # reach may prove the box empty, and the step is regularized.
            grad = b - c @ np.minimum(np.maximum(v, lo), hi)
            _, sv, vt = np.linalg.svd(rows[free])
            sv = np.concatenate([sv, np.zeros(len(b) - sv.size)])
            if may_be_empty:
                null = vt[sv <= _RANK_PIVOT * sv.max(initial=0.0)]
                _raise_if_certified(problem, lo, hi, null.T @ (null @ grad))
            d = vt.T @ ((vt @ grad) / (sv * sv + 1e-12 * np.vdot(rows, rows)))
            v_ws = v + (c.T @ d) / h
        if rose is not None and may_be_empty:
            _raise_if_certified(problem, lo, hi, rose)
        t = _line_search(c, b, lo, hi, v, v_ws - v, d)
        if t < 1.0:
            v_t = v + t * (v_ws - v)
            side_t = pattern(v_t)
            # The same pattern at t < 1 is rounding: take the full step.
            if qr is None or not np.array_equal(side_t, side):
                lam, v, side, rose = lam + t * d, v_t, side_t, None
                continue
        rose = d if t > 1.0 else None
        lam, v = lam + d, v_ws
        # A full step's pattern is read off the working set's x and
        # multipliers where there is one.
        side = pattern(v) if qr is None else np.where(wrong, 0.0, side) + below - above
    else:
        # Iterates that never settle may have run off along a certificate.
        if may_be_empty:
            _raise_if_certified(problem, lo, hi, lam - lam0)
        raise MaxIterationsExceeded(f"Newton iteration cap {_NEWTON_STEPS} reached")
    if rank_rule and qr is not cold:
        _check_rank(qr[1])
    return QPSolution(
        x=x, multipliers=lam_ws, bound_multipliers=side * u,
        active_set=tuple(np.flatnonzero(side).tolist()),
        eq_residual=_eq_residual(problem, x), iterations=1 + steps, mode=SolveMode.EXACT,
    )


def _line_search(c, b, lo, hi, v, e, d):
    """The exact step along d from v = W Cᵀλ, with e = W Cᵀd: a t in
    (0, 1], inf where g still rises at t = 1, or 1 where d does not
    ascend. g's slope dᵀ(b − C clip(v + t·e)) is piecewise linear and
    falls with t; it breaks where a variable reaches a bound."""
    if (b - c @ np.minimum(np.maximum(v + e, lo), hi)) @ d > 0.0:
        return np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.concatenate([(lo - v) / e, (hi - v) / e])
    t = np.concatenate([[0.0], np.sort(t[(t > 0.0) & (t < 1.0)]), [1.0]])
    slopes = (b - np.minimum(np.maximum(v + t[:, None] * e, lo), hi) @ c.T) @ d
    if not slopes[0] > 0.0:
        return 1.0
    k = int(np.argmax(slopes <= 0.0))
    return t[k - 1] + (t[k] - t[k - 1]) * slopes[k - 1] / (slopes[k - 1] - slopes[k])


def _raise_if_certified(problem, lo, hi, y):
    """Raise Infeasible where ±y proves the box empty (Farkas).

    For c = Cᵀy, every x in the box has cᵀx between the sums of
    min(loᵢcᵢ, hiᵢcᵢ) and of max(loᵢcᵢ, hiᵢcᵢ). Where yᵀb lies outside
    that range by a gap g, |yᵀ(b − Cx)| ≥ g, so ‖Cx − b‖∞ ≥ g / ‖y‖₁ on the
    whole box. The raise carries the sign of y with the positive gap as
    ``certificate`` and that lower bound as ``violation``.
    """
    c = problem.eq_matrix.T @ y
    up, down = c > 0.0, c < 0.0
    most = hi[up] @ c[up] + lo[down] @ c[down]
    least = lo[up] @ c[up] + hi[down] @ c[down]
    target = float(y @ problem.eq_rhs)
    gap = max(target - most, least - target)
    if gap > 0.0:
        raise Infeasible("equality constraints unreachable within bounds",
                         violation=gap / float(np.abs(y).sum()),
                         certificate=y if target > most else -y)


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
    ``solve_box_qp``'s Newton method solves that problem without the rank
    rule: its Gram matrix C_F H_FF⁻¹ C_Fᵀ + I/ρ is never singular, and its
    dual is strongly concave. Sites on a bound sit exactly on it. The
    multipliers are the augmented problem's λ = ρ(b − Cx), the bound
    multipliers Hx − Cᵀλ on the active set, the equality residual is
    reported honestly, and the mode is SoftConstraint so callers cannot
    mistake the result for an exact solve.
    """
    if not problem.has_bounds:
        raise ValueError("soft solve requires bounds")
    n, m = problem.n, problem.m
    lo, hi = problem.bounds()
    unbounded = np.full(m, np.inf)
    sol = _dual_newton(QPProblem(
        np.concatenate([problem.hessian, np.full(m, _PENALTY)]),
        np.hstack([problem.eq_matrix, -np.eye(m)]), problem.eq_rhs,
        lower=np.concatenate([lo, -unbounded]),
        upper=np.concatenate([hi, unbounded]), checked=True,
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


def solve_generating_qp(system, bounds=None, checked=False):
    """Kernel weights by constrained minimization of ½ ΨᵀW⁻¹Ψ.

    W alone decides the unknowns: sites whose weight is at or below
    ``linalg._ZERO_WEIGHT`` (weightless or Minus side) are structural
    zeros, Ψ := 0 and False in ``support``; fewer kept sites than moment
    rows raise InsufficientSupport. The kept columns ``system.A[:, keep]``
    are solved, with the box on the kept sites only, and the kernel reports
    that solve's own equality residual. Without bounds this is a single
    equality-QP solve. With bounds the dual Newton solver runs first. An
    Infeasible it raises with a certified violation
    above ``linalg._FEASIBILITY`` hands the kernel to the soft-constraint
    penalty. Any other Infeasible, RankDeficientConstraints or
    MaxIterationsExceeded goes soft only where phase-1 finds the box
    empty, and is raised otherwise.

    ``bounds`` may be anything with scalar ``alpha``/``beta`` attributes
    or an (alpha, beta) pair. A hand-built system's shapes are checked
    here, and its A, W and p by the ``QPProblem`` built from them.
    ``checked=True`` says that ``kernels.assemble_system`` built the
    system (and at most ``onesided.restrict_weights`` zeroed weights), so
    its arrays are finite and consistent and only the bounds are checked.
    """
    w, n = system.Wdiag, system.n_sites
    if not checked and not (np.shape(w) == (n,) == np.shape(system.A)[1:]):
        raise ValueError(f"A {np.shape(system.A)}, W {np.shape(w)} don't fit {n} sites")
    keep = w > _ZERO_WEIGHT
    n_keep = int(np.count_nonzero(keep))
    if n_keep < system.n_basis:
        raise InsufficientSupport(
            f"only {n_keep} sites carry weight above {_ZERO_WEIGHT:g}"
        )
    hessian, a_keep = 1.0 / w[keep], system.A[:, keep]

    if bounds is None:
        problem = QPProblem(hessian, a_keep, system.p, checked=checked)
        sol = solve_eq_qp(problem)
    else:
        alpha, beta = (
            (bounds.alpha, bounds.beta) if hasattr(bounds, "alpha") else bounds
        )
        if checked and not (alpha <= beta):  # NaN fails too
            raise ValueError(f"bounds ({alpha}, {beta}) are NaN or crossed")
        problem = QPProblem(hessian, a_keep, system.p, lower=alpha, upper=beta,
                            checked=checked)
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

    psi = np.zeros(n)
    psi[keep] = sol.x
    return KernelWeights(
        psi=psi,
        sites=system.sites,
        eval=system.eval,
        equality_residual=sol.eq_residual,
        mode=sol.mode,
        support=keep,
    )
