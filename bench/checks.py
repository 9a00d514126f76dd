"""Independent checks of interpolate/spread outputs and the kernels behind them.

Everything here is computed from the marker, the grid geometry and the
method's definition with numpy and scipy alone; nothing is imported from
ibkernel and nothing is compared against saved output. Each check returns
a list of problem strings (empty when the output passes).

The references:

- ``psi6``: the six-point profile written as the centred quintic B-spline in
  truncated-power form, itself verified by its unit-spacing reproducing sums
  (``check_psi6_profile``).
- ``closed_form``: Ψ = W Aᵀ (A W Aᵀ)⁻¹ p on the benchmark's own stencil,
  with W masked to the Plus side of the benchmark's own signed distance.
- ``kkt_residuals``: optimality of a bounded kernel from least-squares
  multipliers on its free sites and the signs on its pinned ones.
- ``box_margin``: the largest t with A Ψ = p and α + t ≤ Ψ ≤ β − t, an LP
  solved by HiGHS; the box can be met exactly when t ≥ 0.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.optimize import linprog

EXACT = "Exact"
SOFT = "SoftConstraint"

# Sites whose weight is at or below this carry no weight (the method's
# elimination threshold; a site near it contributes ~1e-14 either way).
ZERO_WEIGHT = 1e-14
SUPPORT_CELLS = 3.0
# Linear fields and moments must be reproduced to this share of their scale.
REPRODUCTION_TOL = 1e-10
# Interpolate and spread must use the same kernel to rounding.
CONSISTENCY_TOL = 1e-12
# Agreement of an unbounded kernel with the closed form, and KKT residuals
# of a bounded one, both in units of the largest weight.
CLOSED_FORM_TOL = 1e-9
KKT_TOL = 1e-9
# A weight within this of a bound is pinned; beyond it outside the box.
BOX_TOL = 1e-12
# LP margins this close to zero do not decide the solve mode.
MARGIN_BAND = 1e-9

# Problem groups: a kernel that misses the accuracy tolerances, or any
# other wrong output.
ACCURACY = "accuracy"
WRONG = "wrong"


def psi6(r):
    """Centred quintic B-spline: (1/120) Σ_k (-1)^k C(6,k) (3 - k - |r|)_+^5."""
    a = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(a)
    for k in range(3):
        out += (-1) ** k * comb(6, k) * np.clip(3.0 - k - a, 0.0, None) ** 5
    return out / 120.0


def check_psi6_profile():
    """Unit-spacing reproducing sums of ``psi6``: Σ ψ(r-k) = 1, Σ (r-k) ψ(r-k) = 0."""
    r = np.linspace(0.0, 1.0, 101)[:, None] - np.arange(-4, 5)[None, :]
    vals = psi6(r)
    problems = []
    if np.max(np.abs(vals.sum(axis=1) - 1.0)) > 1e-13:
        problems.append("psi6 constant sum is not 1")
    if np.max(np.abs((r * vals).sum(axis=1))) > 1e-13:
        problems.append("psi6 first moment is not 0")
    if np.any(psi6(np.array([3.0, 3.5, -3.0])) != 0.0):
        problems.append("psi6 is not zero outside |r| < 3")
    return problems


class Geometry:
    """Cell-centred grid: centres at origin + (i + 1/2) h, flat in C order."""

    def __init__(self, origin, h, counts):
        self.origin = np.asarray(origin, dtype=float)
        self.h = float(h)
        self.counts = tuple(int(c) for c in counts)
        self.dim = len(self.counts)
        self._all_centers = None

    @property
    def size(self):
        return int(np.prod(self.counts))

    def centers(self, flat):
        idx = np.unravel_index(np.asarray(flat), self.counts)
        return np.stack(
            [self.origin[k] + (idx[k] + 0.5) * self.h for k in range(self.dim)],
            axis=-1,
        )

    def all_centers(self):
        if self._all_centers is None:
            self._all_centers = self.centers(np.arange(self.size))
        return self._all_centers

    def stencil(self, x):
        """Flat indices of the 6^d centres with every axis offset below 3h."""
        x = np.asarray(x, dtype=float)
        per_axis = []
        for k in range(self.dim):
            lo = int(np.floor((x[k] - self.origin[k]) / self.h - 0.5)) - 3
            cand = np.arange(lo, lo + 8)
            off = np.abs(self.origin[k] + (cand + 0.5) * self.h - x[k])
            cand = cand[off < SUPPORT_CELLS * self.h]
            if cand.size == 0 or cand[0] < 0 or cand[-1] >= self.counts[k]:
                raise ValueError(f"support of {x.tolist()} leaves the grid")
            per_axis.append(cand)
        mesh = np.meshgrid(*per_axis, indexing="ij")
        return np.ravel_multi_index(tuple(m.ravel() for m in mesh), self.counts)


def signed_distance(sites, center, radius):
    """|x - c| - r; positive outside. Sites with distance <= 0 are Minus."""
    return np.sqrt(np.sum((sites - np.asarray(center)) ** 2, axis=-1)) - radius


def moment_rows(sites, x, h):
    """Rows [1, (s - x)/h] of the linear moment matrix; p = (1, 0, ..., 0)."""
    rel = (sites - np.asarray(x)) / h
    return np.concatenate([np.ones(rel.shape[:-1] + (1,)), rel], axis=-1)


def moment_rhs(m):
    """p = (1, 0, ..., 0): the moments of the basis at the marker."""
    p = np.zeros(m)
    p[0] = 1.0
    return p


def weights(sites, x, h):
    """Tensor-product psi6 weights of sites around x."""
    return np.prod(psi6((sites - np.asarray(x)) / h), axis=-1)


def closed_form(w, a_rows):
    """Ψ = W Aᵀ (A W Aᵀ)⁻¹ p; batched over leading axes of w (…, n), a_rows (…, n, m)."""
    gram = np.einsum("...n,...ni,...nj->...ij", w, a_rows, a_rows)
    p = np.broadcast_to(moment_rhs(gram.shape[-1]), gram.shape[:-1])
    coef = np.linalg.solve(gram, p[..., None])[..., 0]
    return w * np.einsum("...ni,...i->...n", a_rows, coef)


def kkt_residuals(psi, w, a_rows, alpha, beta):
    """(stationarity, dual sign) residuals of a bounded kernel, scaled by W.

    Optimality of min ½ ΨᵀW⁻¹Ψ s.t. AΨ = p, α ≤ Ψ ≤ β means
    Ψ_i - w_i a_iᵀλ = w_i μ_i with μ = 0 on free sites, μ ≥ 0 on sites at
    α and μ ≤ 0 on sites at β. λ is the least-squares fit on the free sites.
    """
    lower = psi <= alpha + BOX_TOL
    upper = psi >= beta - BOX_TOL
    free = ~(lower | upper)
    basis = w[:, None] * a_rows
    lam = np.linalg.lstsq(basis[free], psi[free], rcond=None)[0]
    r = psi - basis @ lam
    stationarity = float(np.max(np.abs(r[free]), initial=0.0))
    dual = max(float(np.max(-r[lower], initial=0.0)),
               float(np.max(r[upper], initial=0.0)))
    return stationarity, dual


def box_margin(a_rows, alpha, beta):
    """max t with A Ψ = p and α + t ≤ Ψ ≤ β - t (HiGHS LP); rows of a_rows are sites."""
    n, m = a_rows.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    eye = np.eye(n)
    ones = np.ones((n, 1))
    a_ub = np.block([[-eye, ones], [eye, ones]])
    b_ub = np.concatenate([np.full(n, -alpha), np.full(n, beta)])
    a_eq = np.hstack([a_rows.T, np.zeros((m, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=moment_rhs(m),
                  bounds=[(None, None)] * (n + 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"box-margin LP did not solve: {res.message}")
    return float(res.x[-1])


@dataclass(frozen=True)
class Setting:
    """What a kernel was asked for: an optional interface and an optional box."""

    label: str
    center: tuple = None
    radius: float = None
    bounds: tuple = None

    @property
    def one_sided(self):
        return self.radius is not None


def check_marker(geom, x, setting, psi_grid, mode, value, spread_field, v,
                 field, field_at_x, field_scale):
    """Check one marker's interpolate value, spread field and kernel.

    ``psi_grid`` is the program's kernel scattered onto the grid and
    ``mode`` its reported solve mode. Returns (problems, accuracy): each
    problem is (group, message), where group ACCURACY marks a kernel that
    misses the moment or optimality tolerances and WRONG anything else;
    ``accuracy`` is the kernel's worst moment or KKT residual (0 if not Exact).
    """
    problems = []
    idx = geom.stencil(x)
    outside = np.ones(geom.size, dtype=bool)
    outside[idx] = False
    if np.any(psi_grid[outside] != 0.0):
        problems.append((WRONG, "kernel has weight outside the 6^d stencil"))
    psi = psi_grid[idx]
    big = max(1.0, float(np.max(np.abs(psi))))

    # Interpolate and spread use this kernel, and are adjoint.
    if abs(value - psi @ field[idx]) > CONSISTENCY_TOL * field_scale * big:
        problems.append((WRONG, "interpolate disagrees with the kernel"))
    if np.max(np.abs(spread_field - v * psi_grid)) > CONSISTENCY_TOL * abs(v) * big:
        problems.append((WRONG, "spread disagrees with the kernel"))
    if abs(spread_field @ field - v * value) > CONSISTENCY_TOL * abs(v) * field_scale * big:
        problems.append((WRONG, "spread is not the adjoint of interpolate"))

    sites = geom.centers(idx)
    w = weights(sites, x, geom.h)
    keep = w > ZERO_WEIGHT
    if setting.one_sided:
        plus = signed_distance(sites, setting.center, setting.radius) > 0.0
        if np.any(psi[~plus] != 0.0):
            problems.append((WRONG, "Minus-side site carries weight"))
        keep &= plus
    if setting.bounds is not None:
        alpha, beta = setting.bounds
        if np.any(psi < alpha - BOX_TOL) or np.any(psi > beta + BOX_TOL):
            problems.append((WRONG, "weight outside its box"))

    a_rows = moment_rows(sites, x, geom.h)
    if setting.bounds is not None:
        margin = box_margin(a_rows[keep], alpha, beta)
        if abs(margin) > MARGIN_BAND and (mode == SOFT) != (margin < 0.0):
            problems.append((WRONG, f"mode {mode} but LP box margin is {margin:.3e}"))
    elif mode != EXACT:
        problems.append((WRONG, f"unbounded kernel finished {mode}"))

    accuracy = 0.0
    if mode == EXACT:
        accuracy = float(np.max(np.abs(a_rows.T @ psi - moment_rhs(a_rows.shape[-1]))))
        if abs(value - field_at_x) > REPRODUCTION_TOL * field_scale:
            problems.append((ACCURACY, "linear field not reproduced"))
        centers = geom.all_centers()
        if abs(spread_field.sum() - v) > REPRODUCTION_TOL * abs(v):
            problems.append((ACCURACY, "spread does not conserve the constant moment"))
        if np.max(np.abs(spread_field @ centers - v * x)) > REPRODUCTION_TOL * abs(v):
            problems.append((ACCURACY, "spread does not conserve the linear moment"))
        if setting.bounds is None:
            ref = closed_form(np.where(keep, w, 0.0), a_rows)
            if np.max(np.abs(psi - ref)) > CLOSED_FORM_TOL * big:
                problems.append((ACCURACY, "unbounded kernel differs from the closed form"))
        else:
            stat, dual = kkt_residuals(psi[keep], w[keep], a_rows[keep], alpha, beta)
            accuracy = max(accuracy, stat / big, dual / big)
            if stat > KKT_TOL * big or dual > KKT_TOL * big:
                problems.append((ACCURACY,
                    f"bounded kernel fails KKT (stationarity {stat:.2e}, sign {dual:.2e})"))
    return problems, accuracy


def check_transfer(geom, markers, v, values, spread_field, field, field_at_markers,
                   field_scale):
    """Check a batched two-sided unbounded interpolate + spread pass.

    Every marker's kernel is rebuilt here in closed form; the program's
    spread field must match their scatter entry by entry.
    """
    problems = []
    idx = np.stack([geom.stencil(x) for x in markers])
    sites = geom.centers(idx)
    psi = closed_form(weights(sites, markers[:, None, :], geom.h),
                      moment_rows(sites, markers[:, None, :], geom.h))
    ref_field = np.bincount(idx.ravel(), weights=(v[:, None] * psi).ravel(),
                            minlength=geom.size)
    vscale = float(np.sum(np.abs(v)))

    bad = np.abs(values - field_at_markers) > REPRODUCTION_TOL * field_scale
    if np.any(bad):
        problems.append(f"linear field not reproduced at {int(bad.sum())} markers")
    if np.max(np.abs(spread_field - ref_field)) > CLOSED_FORM_TOL * vscale:
        problems.append("spread differs from the closed-form kernels")
    if abs(spread_field.sum() - v.sum()) > REPRODUCTION_TOL * vscale:
        problems.append("spread does not conserve the constant moment")
    centers = geom.all_centers()
    if np.max(np.abs(spread_field @ centers - v @ markers)) > REPRODUCTION_TOL * vscale:
        problems.append("spread does not conserve the linear moment")
    if abs(spread_field @ field - v @ values) > REPRODUCTION_TOL * vscale * field_scale:
        problems.append("spread is not the adjoint of interpolate")
    return problems
