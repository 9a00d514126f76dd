"""Independent reference computations shared by the test modules."""

import itertools

import numpy as np
import numpy.random as npr
import scipy.linalg

from ibkernel.errors import Infeasible, MaxIterationsExceeded, StencilOutsideDomain
from ibkernel.ibops import Stencil
from ibkernel.kernels import SolveMode, as_point, as_sites
from ibkernel.qpsolve import (
    _DEPENDENT,
    _PENALTY,
    QPProblem,
    QPSolution,
    _check_rank,
    phase1_feasible,
)


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
        obj = problem.objective(x)
        if obj < best_obj - 1e-13:
            best_obj, best_x = obj, x.copy()
    return best_x, best_obj


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


def dense_box_qp(problem):
    """``qpsolve.solve_box_qp``'s dual active-set method with H as a matrix.

    Where the solver divides by √h, this factors H = diag(h) as a dense
    (n, n) matrix, H = LLᵀ, applies L⁻¹ by triangular solves, and forms
    Qᵀ(L⁻¹e_p) as a full product. The working set's QR factorization of
    L⁻¹N is kept by ``scipy.linalg.qr_insert``/``qr_delete``, with the
    solver's rank rule and its cap of 50·n steps; it raises as the solver
    does.
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
            if curvature > _DEPENDENT**2 * float(w @ w):
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
    the box becomes a hard-constrained QP that shares no arithmetic with
    the soft solver's bounded least squares. Returns x.
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
    """Support stencil found by testing every cell center on each axis.

    The same selection rule and edge check as ``ibops.support_stencil``,
    but it scans each axis's full ``axis_centers`` array and builds the
    C-order product with ``np.meshgrid`` and ``np.ravel_multi_index``.
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
