"""Independent reference computations shared by the test modules."""

import itertools
from dataclasses import dataclass

import numpy as np
import numpy.random as npr
import scipy.linalg
import scipy.optimize

from ibkernel.errors import (
    Infeasible,
    LengthMismatch,
    MaxIterationsExceeded,
    StencilOutsideDomain,
)
from ibkernel.ibops import _BATCH_COND_LIMIT, Stencil
from ibkernel.kernels import (
    SolveMode,
    as_point,
    as_sites,
    assemble_system,
    build_basis,
)
from ibkernel.linalg import _RANK_PIVOT
from ibkernel.onesided import classify_side, restrict_weights
from ibkernel.qpsolve import (
    _PENALTY,
    QPProblem,
    QPSolution,
    _check_rank,
    _eq_residual,
    phase1_feasible,
    solve_generating_qp,
)


def objective(problem, x):
    """½ xᵀHx of a ``QPProblem``, whose H is the vector of its diagonal."""
    x = np.asarray(x, dtype=float)
    return float(0.5 * x @ (problem.hessian * x))


@dataclass
class KKTReport:
    stationarity: float
    primal: float
    dual: float
    complementarity: float

    def max_residual(self):
        return max(self.stationarity, self.primal, self.dual, self.complementarity)


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


def peskin4_tensor(pw):
    """The d-dimensional four-point weights of a ``Peskin4Weights``: the
    outer product of its per-axis rows, shape (4,) * d."""
    t = pw.weights[0]
    for row in pw.weights[1:]:
        t = np.multiply.outer(t, row)
    return t


def brute_force_box_qp(problem):
    """Enumerate every free/at-lower/at-upper pattern and keep the best.

    Each pattern fixes the pinned variables and solves the stationarity
    plus equality system on the free ones by least squares; candidates
    that actually satisfy constraints and bounds compete on objective.
    The true minimizer's own pattern is always among these, so the best
    feasible candidate is the optimum of the original problem.
    """
    n = problem.n
    lo, hi = problem.bounds()
    h = problem.hessian
    c, b = problem.eq_matrix, problem.eq_rhs
    best_x, best_obj = None, np.inf
    for pattern in itertools.product((0, -1, 1), repeat=n):
        x = np.zeros(n)
        free = []
        skip = False
        for i, p in enumerate(pattern):
            if p == -1:
                if not np.isfinite(lo[i]):
                    skip = True
                    break
                x[i] = lo[i]
            elif p == 1:
                if not np.isfinite(hi[i]):
                    skip = True
                    break
                x[i] = hi[i]
            else:
                free.append(i)
        if skip:
            continue
        f = np.array(free, dtype=int)
        if f.size:
            pinned = np.setdiff1d(np.arange(n), f)
            cf = c[:, f]
            bf = b - c[:, pinned] @ x[pinned]
            kkt = np.block(
                [[np.diag(h[f]), -cf.T], [cf, np.zeros((c.shape[0], c.shape[0]))]]
            )
            rhs = np.concatenate([np.zeros(f.size), bf])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            if np.max(np.abs(kkt @ sol - rhs), initial=0.0) > 1e-9:
                continue
            x[f] = sol[: f.size]
        if c.shape[0] and np.max(np.abs(c @ x - b)) > 1e-9:
            continue
        if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
            continue
        obj = objective(problem, x)
        if obj < best_obj - 1e-13:
            best_obj, best_x = obj, x.copy()
    return best_x, best_obj


def bounded_lsq_optimality(matrix, rhs, lo, hi, x, at_bound=1e-14):
    """How far x is from argmin ‖matrix·x − rhs‖ over lo ≤ x ≤ hi.

    With g = matrixᵀ(matrix·x − rhs), x is the minimizer exactly when it
    lies in the box with g = 0 on free entries, g ≥ 0 at a lower bound and
    g ≤ 0 at an upper bound (the problem is convex). Returns the largest
    violation of these sign conditions relative to ‖matrix‖₂‖rhs‖₂, which
    bounds |g| at any point no worse than x = 0; inf where x leaves the
    box or moves an entry with lo == hi. An entry within ``at_bound`` of
    a bound counts as on it: BVLS steps back to the box along a segment
    and can stop that close to a bound it holds.
    """
    fixed = lo == hi
    if np.any(x < lo) or np.any(x > hi) or not np.array_equal(x[fixed], lo[fixed]):
        return np.inf
    g = matrix.T @ (matrix @ x - rhs)
    lower = ~fixed & (x - lo <= at_bound)
    upper = ~fixed & (hi - x <= at_bound)
    free = ~(fixed | lower | upper)
    worst = max(np.max(np.abs(g[free]), initial=0.0),
                np.max(-g[lower], initial=0.0), np.max(g[upper], initial=0.0))
    return worst / (np.linalg.norm(matrix, 2) * np.linalg.norm(rhs))


def farkas_margin(problem, y):
    """Lower bound that y certifies on ‖Cx − b‖∞ over the box, from scratch.

    With c = Cᵀy, the box's vertex v with vᵢ = hiᵢ where cᵢ > 0 and loᵢ
    where cᵢ < 0 maximizes cᵀx over the box, so every x in it has
    yᵀ(b − Cx) ≥ yᵀb − cᵀv, and ‖Cx − b‖∞ ≥ (yᵀb − cᵀv) / ‖y‖₁. A positive
    result proves the box empty. O(nm).
    """
    c = problem.eq_matrix.T @ y
    lo, hi = problem.bounds()
    vertex = np.where(c > 0.0, hi, np.where(c < 0.0, lo, 0.0))
    return (float(y @ problem.eq_rhs) - float(c @ vertex)) / float(np.abs(y).sum())


def box_margin(problem):
    """Largest t with A·x = p and lower + t <= x <= upper - t, by LP.

    Independent of phase-1: positive means the box holds a strictly
    interior point satisfying the moment conditions, negative means no
    point of the box satisfies them, and -inf that no point at all does
    (the LP is infeasible).
    """
    n = problem.n
    lo, hi = problem.bounds()
    eye = np.eye(n)
    ones = np.ones((n, 1))
    result = scipy.optimize.linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.block([[-eye, ones], [eye, ones]]),
        b_ub=np.r_[-lo, hi],
        A_eq=np.hstack([problem.eq_matrix, np.zeros((problem.m, 1))]),
        b_eq=problem.eq_rhs,
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    if result.status == 2:
        return -np.inf
    assert result.status == 0, result.message
    return float(result.x[-1])


def random_box_problem(n):
    """Strictly feasible random instance: box built around a known point."""
    m = npr.randint(0, n)
    h = npr.uniform(0.1, 10.0, size=n)
    x_feas = npr.uniform(-0.5, 0.5, size=n)
    lo = x_feas - npr.uniform(0.05, 0.8, size=n)
    hi = x_feas + npr.uniform(0.05, 0.8, size=n)
    # loosen a couple of bounds to infinity now and then
    for i in range(n):
        if npr.rand() < 0.15:
            lo[i] = -np.inf
        if npr.rand() < 0.15:
            hi[i] = np.inf
    c = npr.randn(m, n)
    b = c @ x_feas
    return QPProblem(h, c, b, lower=lo, upper=hi)


# dense_box_qp's own test of a dependent bound normal: its part outside
# the working set's span, in the L⁻¹ metric, is below this fraction of its
# length.
DENSE_DEPENDENT = 1e-12


def dense_box_qp(problem):
    """The dual active-set method of Goldfarb & Idnani with H as a matrix.

    ``qpsolve.solve_box_qp`` takes Newton steps on the m-dimensional dual
    with an m×m factor of the free variables. This is a different method:
    it factors H = diag(h) as a dense (n, n) matrix, H = LLᵀ, applies L⁻¹
    by triangular solves, starts from the equality-constrained minimizer,
    adds one violated bound per dual step, and keeps the full n×n QR
    factorization of L⁻¹N over the working set's normals N by
    ``scipy.linalg.qr_insert``/``qr_delete``. Each minimizer on a working
    set takes one step of refinement on those dense factors. It applies
    the solver's rank rule, stops after 50·n dual steps, and raises the
    solver's error classes.
    """
    n, m = problem.n, problem.m
    lo, hi = problem.bounds()
    cap = 50 * n
    chol = np.linalg.cholesky(np.diag(problem.hessian))

    def solve(v, trans=0):
        return scipy.linalg.solve_triangular(chol, v, lower=True, trans=trans)

    pinned, side, at = [], [], []
    q_fac, r_fac = scipy.linalg.qr(solve(problem.eq_matrix.T))
    _check_rank(r_fac[:m])

    def minimizer():
        q = len(pinned) + m
        rhs = np.concatenate([np.multiply(side, at), problem.eq_rhs])
        a = scipy.linalg.solve_triangular(r_fac[:q], rhs, trans=1)
        x = solve(q_fac[:, :q] @ a, trans=1)
        # Nᵀx = Rᵀa in exact arithmetic, so the working set's residual
        # corrects a through the same triangular factor.
        miss = rhs - np.concatenate([np.multiply(side, x[pinned]),
                                     problem.eq_matrix @ x])
        a += scipy.linalg.solve_triangular(r_fac[:q], miss, trans=1)
        x = solve(q_fac[:, :q] @ a, trans=1)
        x[pinned] = at
        return x, scipy.linalg.solve_triangular(r_fac[:q], a)

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
        w = solve(normal)
        while True:
            steps += 1
            if steps > cap:
                raise MaxIterationsExceeded(f"iteration cap {cap} reached")
            k, q = len(pinned), len(pinned) + m
            d = q_fac.T @ w
            r = scipy.linalg.solve_triangular(r_fac[:q], d[:q])
            dz = d[q:]
            curvature = float(dz @ dz)
            t_full = np.inf
            if curvature > DENSE_DEPENDENT**2 * float(w @ w):
                t_full = s_p * (bound - x[p]) / curvature
            ratios = np.full(k, np.inf)
            falling = r[:k] > 0.0
            ratios[falling] = np.maximum(u[:k][falling], 0.0) / r[:k][falling]
            t_part = float(np.min(ratios, initial=np.inf))
            if t_full == np.inf and t_part == np.inf:
                violation = phase1_feasible(problem).violation
                raise Infeasible("infeasible", violation=violation)
            if t_full <= t_part:
                q_fac, r_fac = scipy.linalg.qr_insert(q_fac, r_fac, w, k, which="col")
                pinned.append(p)
                side.append(s_p)
                at.append(bound)
                x, u = minimizer()
                break
            if t_full < np.inf:
                x = x + t_part * solve(q_fac[:, q:] @ dz, trans=1)
            drop = int(np.argmin(ratios))
            u = np.delete(u - t_part * r, drop)
            q_fac, r_fac = scipy.linalg.qr_delete(q_fac, r_fac, drop, which="col")
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
        eq_residual=float(np.max(np.abs(problem.eq_matrix @ x - problem.eq_rhs),
                                 initial=0.0)),
        iterations=1 + steps,
        mode=SolveMode.EXACT,
    )


def augmented_soft_qp(problem):
    """Minimizer of ``qpsolve.solve_soft_qp``'s penalty problem, by ``dense_box_qp``.

    The residual r = Cx − b joins x as m unbounded variables of Hessian ρ
    under the equality [C, −I][x; r] = b, so ½ xᵀHx + (ρ/2)‖Cx − b‖² over
    the box becomes a hard-constrained QP. The soft solver poses the same
    problem; this solves it cold, on dense n×n factors, so the two share
    no factorization. Returns x.
    """
    n, m = problem.n, problem.m
    lo, hi = problem.bounds()
    unbounded = np.full(m, np.inf)
    augmented = QPProblem(
        np.concatenate([problem.hessian, np.full(m, _PENALTY)]),
        np.hstack([problem.eq_matrix, -np.eye(m)]),
        problem.eq_rhs,
        lower=np.concatenate([lo, -unbounded]),
        upper=np.concatenate([hi, unbounded]),
    )
    return dense_box_qp(augmented).x[:n]


def saddle_solve(h, c, b):
    """Minimizer and multipliers of ½ xᵀHx s.t. Cx = b, one dense solve.

    ``h`` is the diagonal of H. Factors the whole (n+m) saddle matrix
    [[H, −Cᵀ], [C, 0]] at once, so it shares no arithmetic with a
    range-space solve; λ follows the convention Hx = Cᵀλ.
    """
    n, m = c.shape[1], c.shape[0]
    saddle = np.block([[np.diag(h), -c.T], [c, np.zeros((m, m))]])
    sol = np.linalg.solve(saddle, np.concatenate([np.zeros(n), b]))
    return sol[:n], sol[n:]


def closed_form_psi(system):
    """Ψ = W Aᵀ (A W Aᵀ)⁻¹ p of a kernel system, through its Gram matrix.

    One dense LU solve of the m×m weighted Gram matrix, where the
    library's equality QP takes the QR of W^½Aᵀ and never forms it.
    """
    w, a = system.Wdiag, system.A
    return w * (a.T @ np.linalg.solve((a * w) @ a.T, system.p))


def lapack_gram_solve(gram):
    """c = G⁻¹e₀ of each Gram in an (m, m, n) stack, markers last, by LAPACK.

    The route the closed-form pass took before its unrolled factor:
    ``np.linalg.cholesky`` on the transposed (n, m, m) stack, here one
    marker at a time so that each gets its own verdict, then forward and
    back substitution on the factor. A marker is refused if the factor
    fails (a pivot not positive, or NaN), if its smallest pivot is at or
    below ``_RANK_PIVOT`` times its largest, or if its pivots scaled by
    diag(G)^-½ have a squared extreme ratio above ``_BATCH_COND_LIMIT``.
    Returns (c, accepted): c is (m, n) with NaN columns where refused.
    """
    m, n = gram.shape[1:]
    c, accepted = np.full((m, n), np.nan), np.zeros(n, dtype=bool)
    for k, g in enumerate(gram.transpose(2, 0, 1)):
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            continue
        pivots = np.diag(chol)
        if not pivots.min() > _RANK_PIVOT * pivots.max():
            continue
        scaled = pivots / np.sqrt(np.diag(g))
        if not scaled.max() ** 2 <= _BATCH_COND_LIMIT * scaled.min() ** 2:
            continue
        y = scipy.linalg.solve_triangular(chol, np.eye(m)[0], lower=True)
        c[:, k] = scipy.linalg.solve_triangular(chol.T, y, lower=False)
        accepted[k] = True
    return c, accepted


def kernel_kkt_residuals(psi, w, a, alpha, beta, box_tol=1e-12):
    """(stationarity, sign) residuals of a bounded kernel, scaled by W.

    ``psi`` and ``w`` hold the kernel and the weights of the supported
    sites, ``a`` the (m, n) moment rows on them. Optimality of
    min ½ ΨᵀW⁻¹Ψ s.t. AΨ = p, α ≤ Ψ ≤ β means Ψ − W Aᵀλ = W μ with μ = 0
    on free sites, μ ≥ 0 on sites at α and μ ≤ 0 on sites at β. λ is the
    least-squares fit on the free sites; the sign test covers the pinned
    ones.
    """
    lower = psi <= alpha + box_tol
    upper = psi >= beta - box_tol
    free = ~(lower | upper)
    basis = w[:, None] * a.T
    lam = np.linalg.lstsq(basis[free], psi[free], rcond=None)[0]
    r = psi - basis @ lam
    stationarity = float(np.max(np.abs(r[free]), initial=0.0))
    sign = max(float(np.max(-r[lower], initial=0.0)),
               float(np.max(r[upper], initial=0.0)))
    return stationarity, sign


def full_scan_stencil(grid, eval_point, radius_in_cells):
    """The cells within reach of a point, found by testing every centre.

    Keeps each centre with |center − eval| < radius_in_cells·spacing on
    every axis, scanning each axis's full ``axis_centers`` array, and
    builds the C-order product with ``np.meshgrid`` and
    ``np.ravel_multi_index``; the edge check is ``ibops.support_stencil``'s.
    The reference for the window that ``support_stencil`` returns, which
    holds these cells (all but, at most, one within rounding of the reach)
    and pads them to ⌈2·radius_in_cells⌉ per axis.
    """
    eval_point = as_point(eval_point, grid.dimension)
    right = grid.right_edge
    per_axis = []
    for ax in range(grid.dimension):
        h = grid.spacing[ax]
        reach = radius_in_cells * h
        fuzz = 1e-12 * h
        if (eval_point[ax] - reach < grid.origin[ax] - fuzz
                or eval_point[ax] + reach > right[ax] + fuzz):
            raise StencilOutsideDomain(
                f"evaluation point {eval_point.tolist()} within "
                f"{radius_in_cells} cells of a domain edge on axis {ax}"
            )
        centers = grid.axis_centers(ax)
        idx = np.where(np.abs(centers - eval_point[ax]) < reach)[0]
        per_axis.append(idx)

    mesh = np.meshgrid(*per_axis, indexing="ij")
    axis_idx = np.stack([m.ravel() for m in mesh], axis=1)
    flat = np.ravel_multi_index(tuple(axis_idx.T), grid.counts)
    sites = np.stack(
        [grid.axis_centers(ax)[axis_idx[:, ax]] for ax in range(grid.dimension)],
        axis=1,
    )
    return Stencil(sites=sites, indices=flat.astype(int))


def site_chain_kernel(strategy, grid, marker):
    """One marker's kernel on the cells in reach, every layer checking.

    ``full_scan_stencil``'s sites go through the (N, d) form of
    ``assemble_system``, ``classify_side`` and ``restrict_weights`` on the
    strategy's side, and ``solve_generating_qp`` with its own checks, where
    ``KernelStrategy.kernel_for`` assembles the window from its per-axis
    coordinates and lets the later layers take the system as checked.
    """
    wf = strategy.weight_function
    stencil = full_scan_stencil(grid, marker, wf.radius_in_cells)
    basis = build_basis(grid.dimension, strategy.degree)
    system = assemble_system(stencil.sites, marker, wf, basis)
    if strategy.signed_distance is not None:
        plus = classify_side(strategy.signed_distance, system.sites)
        system = restrict_weights(system, plus)
    return stencil, solve_generating_qp(system, bounds=strategy.bounds)


def per_marker_interpolate(field, markers, strategy):
    """Interpolation with one ``kernel_for`` call per marker.

    The loop ``ibops.interpolate`` ran before interpolate and spread
    shared one build of the kernels.
    """
    markers = as_sites(markers, field.grid.dimension)
    out = np.empty(markers.shape[0])
    for k, marker in enumerate(markers):
        stencil, weights = strategy.kernel_for(field.grid, marker)
        out[k] = float(weights.psi @ field.values[stencil.indices])
    return out


def per_marker_spread(values, markers, grid, strategy):
    """Spreading with one ``kernel_for`` call and one ``np.add.at`` per marker."""
    markers = as_sites(markers, grid.dimension)
    values = np.asarray(values, dtype=float).reshape(-1)
    field = np.zeros(grid.total_cells)
    for k, marker in enumerate(markers):
        stencil, weights = strategy.kernel_for(grid, marker)
        np.add.at(field, stencil.indices, values[k] * weights.psi)
    return field


def tensor_weight(site, eval_point, wf):
    """Tensor-product weight of one site relative to the evaluation point.

    Product over axes of the 1D profile at (site - eval)/h. Zero as soon
    as any axis offset reaches the support radius.
    """
    site = np.asarray(site, dtype=float).reshape(-1)
    eval_point = np.asarray(eval_point, dtype=float).reshape(-1)
    r = (site - eval_point) / wf.mesh_width
    vals = np.atleast_1d(wf.eval1d(r))
    return float(np.prod(vals))


def compare_kernels(a, b):
    """(L2, L∞) norms of the difference between a kernel and a vector."""
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != a.psi.shape[0]:
        raise LengthMismatch(
            f"comparison vector has length {b.shape[0]}, kernel has "
            f"{a.psi.shape[0]}"
        )
    diff = a.psi - b
    return float(np.linalg.norm(diff)), float(np.max(np.abs(diff), initial=0.0))


def flat_index(grid, axis_indices):
    """Flat C-order index of a cell of ``grid`` from its per-axis indices."""
    return int(np.ravel_multi_index(tuple(axis_indices), grid.counts))


def per_value_profile(f):
    """A one-offset weight profile ``f`` as an array map: one call per offset."""
    return lambda r: np.array([float(f(v)) for v in np.asarray(r).tolist()])


def per_site_map(f):
    """A per-site signed distance ``f`` as an array map: one call per site."""
    return lambda sites: np.array([float(f(p)) for p in sites])


def circle_distance(center, radius):
    """|point - center| - radius at one point, in the circle map's arithmetic.

    The per-site reference for ``SignedDistance.circle``, whose map does
    the same operations on all sites at once, so the bits agree.
    """
    center = np.asarray(center, dtype=float).reshape(-1)

    def f(point):
        rel = as_point(point, center.size) - center
        return float(np.sqrt((rel * rel).sum())) - radius

    return f
