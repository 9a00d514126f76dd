"""Independent reference computations shared by the test modules."""

import itertools

import numpy as np
import numpy.random as npr

from ibkernel.errors import StencilOutsideDomain
from ibkernel.ibops import Stencil
from ibkernel.kernels import as_point, as_sites
from ibkernel.qpsolve import QPProblem


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
    h, g = problem.hessian, problem.linear
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
            hff = h[np.ix_(f, f)]
            gf = g[f] + h[np.ix_(f, pinned)] @ x[pinned]
            cf = c[:, f]
            bf = b - c[:, pinned] @ x[pinned]
            kkt = np.block(
                [[hff, -cf.T], [cf, np.zeros((c.shape[0], c.shape[0]))]]
            )
            rhs = np.concatenate([-gf, bf])
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
    mat = npr.randn(n, n)
    h = mat.T @ mat + n * np.eye(n)
    g = npr.randn(n)
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
    return QPProblem(h, c, b, lower=lo, upper=hi, linear=g)


def saddle_solve(h, c, g, b):
    """Minimizer and multipliers of ½ xᵀHx + gᵀx s.t. Cx = b, one dense solve.

    Factors the whole (n+m) saddle matrix [[H, −Cᵀ], [C, 0]] at once, so
    it shares no arithmetic with a range-space solve; λ follows the
    convention Hx + g = Cᵀλ.
    """
    n, m = c.shape[1], c.shape[0]
    saddle = np.block([[h, -c.T], [c, np.zeros((m, m))]])
    sol = np.linalg.solve(saddle, np.concatenate([-g, b]))
    return sol[:n], sol[n:]


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
