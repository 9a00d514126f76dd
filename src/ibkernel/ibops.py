"""Cartesian grids, field sampling, support stencils, interpolate/spread.

The interpolation and spreading operators are exact adjoints of one
another by construction: both apply the same kernel weights for a given
marker, produced by whatever generation strategy the caller bundles. An
interpolate and a spread at the same markers share one build of those
weights (see ``KernelStrategy``). The two-sided unbounded kernels of a
call with several markers are built together in one closed-form pass,
from per-axis moments over each marker's in-support run of cells; every
other kernel is built marker by marker.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomain, StencilOutsideDomain
from .kernels import BasisDegree, as_point, as_sites, build_basis
from .linalg import _RANK_PIVOT, _ZERO_WEIGHT
from .onesided import generate_one_sided_kernel

__all__ = [
    "CartesianGrid",
    "GridField",
    "MarkerSet",
    "Stencil",
    "KernelStrategy",
    "make_grid",
    "sample_field",
    "support_stencil",
    "interpolate",
    "spread",
]


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform cell-centered grid: centers at origin + (i + ½)·spacing."""

    origin: tuple
    spacing: tuple
    counts: tuple

    @property
    def dimension(self):
        return len(self.counts)

    @property
    def right_edge(self):
        return tuple(
            o + h * n for o, h, n in zip(self.origin, self.spacing, self.counts)
        )

    @property
    def total_cells(self):
        return math.prod(self.counts)

    def axis_centers(self, axis):
        o, h, n = self.origin[axis], self.spacing[axis], self.counts[axis]
        return o + (np.arange(n) + 0.5) * h

    def centers(self):
        """All cell centers, (total_cells, d), C-order over axis indices."""
        axes = [self.axis_centers(k) for k in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def flat_index(self, axis_indices):
        return int(np.ravel_multi_index(tuple(axis_indices), self.counts))


def make_grid(extents, spacing):
    """Grid over ``extents`` with exact cell width ``spacing``.

    The cell count per axis is round(length/spacing); when length is not a
    multiple of the spacing the recorded right edge differs from the
    requested one by less than one cell. The spacing is never adjusted.

    Parameters
    ----------
    extents : sequence of (lo, hi) pairs, or a single pair for 1D.
    spacing : float or per-axis sequence.

    Raises
    ------
    DegenerateDomain
        Empty or inverted extents, or extents shorter than half a cell.
    """
    extents = np.asarray(extents, dtype=float)
    if extents.ndim == 1:
        extents = extents[None, :]
    if extents.ndim != 2 or extents.shape[1] != 2:
        raise DegenerateDomain(f"extents must be (d, 2), got {extents.shape}")
    d = extents.shape[0]
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,))
    if np.any(~(spacing > 0.0)):
        raise DegenerateDomain("spacing must be positive")
    lengths = extents[:, 1] - extents[:, 0]
    if np.any(~(lengths > 0.0)):
        raise DegenerateDomain("extents must have positive length")
    counts = np.rint(lengths / spacing).astype(int)
    if np.any(counts < 1):
        raise DegenerateDomain(
            f"extents {extents.tolist()} hold no cells at spacing "
            f"{spacing.tolist()}"
        )
    return CartesianGrid(
        origin=tuple(float(v) for v in extents[:, 0]),
        spacing=tuple(float(v) for v in spacing),
        counts=tuple(int(v) for v in counts),
    )


@dataclass
class GridField:
    """One value per cell, flat in the grid's C-order."""

    values: np.ndarray
    grid: CartesianGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.shape[0] != self.grid.total_cells:
            raise ValueError(
                f"{self.values.shape[0]} values for {self.grid.total_cells} cells"
            )


def sample_field(grid, fn):
    """Evaluate ``fn`` at every cell center; values must come out finite."""
    centers = grid.centers()
    values = np.array([float(fn(c)) for c in centers])
    if not np.all(np.isfinite(values)):
        raise ValueError("field map produced non-finite values")
    return GridField(values, grid)


@dataclass
class MarkerSet:
    """Lagrangian evaluation points, (N, d), all finite."""

    positions: np.ndarray

    def __post_init__(self):
        self.positions = as_sites(self.positions)

    def __len__(self):
        return self.positions.shape[0]

    @property
    def dimension(self):
        return self.positions.shape[1]


def _marker_array(markers, dimension):
    if isinstance(markers, MarkerSet):
        markers = markers.positions
    return as_sites(markers, dimension)


@dataclass
class Stencil:
    """Support sites for one evaluation point, with their flat cell indices."""

    sites: np.ndarray
    indices: np.ndarray

    def __len__(self):
        return self.sites.shape[0]


def support_stencil(grid, eval_point, radius_in_cells):
    """Cell centers with per-axis offset strictly inside the support radius.

    Selects every center with |center − eval| < radius_in_cells·spacing on
    each axis. The evaluation point must sit at least that far from every
    recorded domain edge so the support never truncates.

    Raises
    ------
    StencilOutsideDomain
    """
    d = grid.dimension
    eval_point = as_point(eval_point, d)
    right = grid.right_edge
    # Only this many cells per axis can lie within reach of the point.
    window = math.ceil(2 * radius_in_cells) + 2
    per_axis = []
    for ax in range(d):
        o, h, x = grid.origin[ax], grid.spacing[ax], float(eval_point[ax])
        reach = radius_in_cells * h
        fuzz = 1e-12 * h
        if x - reach < o - fuzz or x + reach > right[ax] + fuzz:
            raise StencilOutsideDomain(
                f"evaluation point {eval_point.tolist()} within "
                f"{radius_in_cells} cells of a domain edge on axis {ax}"
            )
        first = max(math.floor((x - o) / h - 0.5 - radius_in_cells), 0)
        idx, centers = [], []
        for i in range(first, min(first + window, grid.counts[ax])):
            c = o + (i + 0.5) * h  # the arithmetic of axis_centers
            if abs(c - x) < reach:
                idx.append(i)
                centers.append(c)
        per_axis.append((np.array(idx, dtype=np.intp), np.array(centers)))

    # C order over the axis indices, as np.ravel_multi_index would give.
    sites = np.empty(tuple(len(idx) for idx, _ in per_axis) + (d,))
    flat = 0
    for ax, (idx, centers) in enumerate(per_axis):
        shape = (1,) * ax + (-1,) + (1,) * (d - ax - 1)
        sites[..., ax] = centers.reshape(shape)
        flat = flat * grid.counts[ax] + idx.reshape(shape)
    return Stencil(sites=sites.reshape(-1, d), indices=flat.reshape(-1))


@dataclass(frozen=True)
class KernelStrategy:
    """Bundle of everything needed to turn a marker into kernel weights.

    interpolate/spread stay agnostic to how the weights are produced: the
    weight function, basis degree, side restriction and bounds all live
    here. Frozen, so the weights cannot change between an interpolate and
    a spread that share one build of them (16 B per stencil site, at most
    one batch held).
    ``kernel_for`` builds one marker's kernel; the operators build a
    batch, which for several two-sided unbounded markers agrees with
    ``kernel_for`` to rounding and otherwise bitwise.
    """

    weight_function: object
    degree: BasisDegree = BasisDegree.LINEAR
    signed_distance: object = None
    bounds: object = None

    def kernel_for(self, grid, marker):
        stencil = support_stencil(
            grid, marker, self.weight_function.radius_in_cells
        )
        basis = build_basis(grid.dimension, self.degree)
        weights = generate_one_sided_kernel(
            stencil.sites,
            marker,
            self.weight_function,
            basis,
            sd=self.signed_distance,
            bounds=self.bounds,
        )
        return stencil, weights

    def _batch(self, operator, grid, markers):
        """Flat stencil indices and weights of ``markers``, and their counts.

        Takes the batch the other operator left in ``_pending`` for an
        equal grid and the same marker shape and bytes; otherwise drops
        it, builds one and leaves that. A build that raises leaves none.
        A one-marker batch is that marker's own stencil indices and
        weights, with counts None.

        Several two-sided unbounded markers are built on their in-support
        runs of cells by ``_closed_form_batch``, whose weights differ from
        ``kernel_for``'s by rounding (1e-12 of the largest at most, in the
        tests). Any other batch, and one that pass refuses, is built by
        ``kernel_for`` marker by marker, raising what a failing marker raises.
        """
        key = (grid, markers.shape, markers.tobytes())
        pending = self.__dict__.pop("_pending", None)
        if pending and pending[0] != operator and pending[1] == key:
            return pending[2]
        batch = None
        if len(markers) == 1:
            stencil, weights = self.kernel_for(grid, markers[0])
            batch = (stencil.indices, weights.psi, None)
        elif (len(markers) > 1 and self.signed_distance is None
              and self.bounds is None):
            batch = _closed_form_batch(
                grid, markers, self.weight_function, self.degree
            )
        if batch is None:
            indices, psi = [np.empty(0, np.intp)], [np.empty(0)]
            for marker in markers:
                stencil, weights = self.kernel_for(grid, marker)
                indices.append(stencil.indices)
                psi.append(weights.psi)
            counts = np.array([len(p) for p in psi[1:]], dtype=np.intp)
            batch = (np.concatenate(indices), np.concatenate(psi), counts)
        self.__dict__["_pending"] = (operator, key, batch)
        return batch


# Bound on the condition number of the diagonally scaled Gram D·G·D,
# D = diag(G)^-½, as its Cholesky pivots read it. The closed-form pass
# solves the normal equations G c = p, whose error grows with that number.
# It is 1, to rounding, where the profile meets the moment conditions on
# its grid (ψ6 or ψ4 at the grid's spacing). On a grid of spacing
# (1e-4, 3e-4) with a ψ6 of width 1e-4 it runs past 1e5; the markers this
# bound admits there read up to 2.3e-13·max|Ψ| from kernel_for, and those
# a bound of 1e4 would admit up to 2.8e-12.
_BATCH_COND_LIMIT = 1e3


def _closed_form_batch(grid, markers, wf, degree):
    """Two-sided unbounded kernels of many markers in one closed-form pass.

    On a full tensor stencil W is a product of 1D profiles, so each entry
    of the Gram matrix A W Aᵀ is a product of per-axis sums Σφ, Σφr and
    Σφr² (r the physical offset from the marker, as ``PolynomialBasis``
    takes it). The kernel is Ψ = W·(c₀ + c·r) with c = G⁻¹p. Sites at or
    below ``linalg._ZERO_WEIGHT`` are eliminated as ``solve_generating_qp``
    eliminates them: their terms are taken out of the Gram, and Ψ = 0
    there. The tensor spans each axis's run of cells inside the support
    (6 for ψ6, not the window's 8); a shorter run's extra cells, as at a
    marker on a cell center, are dropped from the result.

    Returns the flat indices, weights and per-marker counts in the C
    order of ``support_stencil``, or None if any marker is within the
    support of an edge, has fewer than m supported sites, or has a Gram
    matrix whose Cholesky pivots fail ``linalg._factor``'s dependence rule
    (the R of its QR is that Cholesky factor) or whose scaled
    condition number exceeds ``_BATCH_COND_LIMIT``. Weights agree with
    ``KernelStrategy.kernel_for`` to rounding, not bitwise.
    """
    try:
        m = build_basis(grid.dimension, degree).size
    except ValueError:
        return None
    n, d = markers.shape
    radius = wf.radius_in_cells
    window = math.ceil(2 * radius) + 2
    # support_stencil's candidate cells, (d, window, n): markers go on the
    # last axis of every array, where numpy's inner loops run long. Each
    # keeps the longest in-support run's width from its own run's start.
    o, h, right, counts = (np.array(v)[:, None, None] for v in (
        grid.origin, grid.spacing, grid.right_edge, grid.counts))
    x, reach, fuzz = markers.T.copy()[:, None], radius * h, 1e-12 * h
    if np.any(x - reach < o - fuzz) or np.any(x + reach > right + fuzz):
        return None
    first = np.maximum(np.floor((x - o) / h - 0.5 - radius), 0)
    idx = first.astype(np.intp) + np.arange(window)[:, None]
    r = o + (idx + 0.5) * h - x  # the centers of axis_centers, less x
    ok = (idx < counts) & (np.abs(r) < reach)
    run = ok.sum(axis=1).max()
    idx = idx[:, :1] + np.minimum(ok.argmax(axis=1), window - run)[:, None]
    idx = idx + np.arange(run)[:, None]
    r = o + (idx + 0.5) * h - x
    ok = (idx < counts) & (np.abs(r) < reach)
    phi = np.zeros(r.shape)
    phi[ok] = wf.eval1d(r[ok] / wf.mesh_width)
    # The runs, broadcast to the (run, ..., run, n) tensor.
    along, inside, flat, weight = [], True, 0, 1.0
    for ax in range(d):
        shape = (1,) * ax + (run,) + (1,) * (d - ax - 1) + (n,)
        along.append(r[ax].reshape(shape))
        inside = inside & ok[ax].reshape(shape)
        flat = flat * grid.counts[ax] + idx[ax].reshape(shape)
        weight = weight * phi[ax].reshape(shape)
    kept = weight > _ZERO_WEIGHT
    if np.any(np.count_nonzero(kept.reshape(-1, n), axis=0) < m):
        return None

    # Entry (a, b) of the Gram is the product over axes of the per-axis
    # sum of φ·r^k, k the power of that axis in basis rows a and b.
    moments = np.stack([phi.sum(1), (phi * r).sum(1), (phi * r**2).sum(1)],
                       axis=1)  # (d, 3, n)
    powers = np.eye(m, d, -1, dtype=np.intp)  # row 0 is 1, row a is r_(a-1)
    gram = moments[np.arange(d), powers[:, None] + powers[None]].prod(2)
    gone = np.flatnonzero(~kept & (weight != 0.0))
    if gone.size:
        *cell, k = np.unravel_index(gone, weight.shape)
        a = np.ones((m, gone.size))
        for ax in range(m - 1):
            a[ax + 1] = r[ax, cell[ax], k]
        np.subtract.at(gram, (..., k), weight.flat[gone] * a[:, None] * a)

    try:
        chol = np.linalg.cholesky(gram.transpose(2, 0, 1))
    except np.linalg.LinAlgError:
        return None
    chol = np.ascontiguousarray(chol.transpose(1, 2, 0))  # (m, m, n)
    pivots = chol[np.arange(m), np.arange(m)]  # positive
    if not np.all(pivots.min(axis=0) > _RANK_PIVOT * pivots.max(axis=0)):
        return None
    # D·chol is the Cholesky factor of D·G·D. The squared ratio of its
    # extreme pivots is a lower bound on that matrix's condition number.
    scaled = pivots / np.sqrt(gram[np.arange(m), np.arange(m)])
    if not np.all(scaled.max(axis=0) ** 2
                  <= _BATCH_COND_LIMIT * scaled.min(axis=0) ** 2):
        return None
    # c = G⁻¹e₀ by forward (L y = e₀), then back (Lᵀc = y) substitution.
    c = np.eye(m, 1).repeat(n, axis=1)
    for i in range(m):
        c[i] = (c[i] - (chol[i, :i] * c[:i]).sum(0)) / pivots[i]
    for i in reversed(range(m)):
        c[i] = (c[i] - (chol[i + 1:, i] * c[i + 1:]).sum(0)) / pivots[i]
    psi = weight  # Ψ = W·(c₀ + c·r), in W's place
    psi *= sum((c[ax + 1] * along[ax] for ax in range(m - 1)), c[0])
    psi[~kept] = 0.0
    # Marker-major rows, each in the C order of its stencil.
    flat, psi, inside = (v.reshape(-1, n).T for v in (flat, psi, inside))
    if np.all(inside):  # every run has full length: no site to drop
        return flat.reshape(-1), psi.reshape(-1), np.full(n, inside.shape[1])
    return flat[inside], psi[inside], np.count_nonzero(inside, axis=1)


def interpolate(field, markers, strategy):
    """Kernel-weighted field values at each marker, in marker order.

    Takes the kernels a preceding ``spread`` at the same markers left on
    the strategy, or builds them and leaves them for the next ``spread``.
    """
    markers = _marker_array(markers, field.grid.dimension)
    indices, psi, counts = strategy._batch("interpolate", field.grid, markers)
    vals = field.values[indices]
    if counts is None:
        return np.array([psi @ vals])
    # Per stencil length, one stacked matmul: each row is psi[a:b] @ vals[a:b]
    # to the bit, which a sum along rows or zero-padded rows is not.
    out = np.empty(len(counts))
    starts = np.cumsum(counts) - counts
    for length in np.unique(counts):
        rows = np.flatnonzero(counts == length)
        at = (starts[rows, None] + np.arange(length)
              if len(rows) < len(counts) else slice(None))
        out[rows] = np.matmul(psi[at].reshape(-1, 1, length),
                              vals[at].reshape(-1, length, 1))[:, 0, 0]
    return out


def spread(values, markers, grid, strategy):
    """Scatter marker values onto the grid with the same kernels.

    Applies the very weights of the ``interpolate`` at the same markers
    (taking its batch, or building one and leaving it for the next
    interpolate), which makes the pair adjoint. Accumulation runs in
    marker order so results are bitwise reproducible.
    """
    markers = _marker_array(markers, grid.dimension)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != markers.shape[0]:
        raise ValueError(
            f"{values.shape[0]} values for {markers.shape[0]} markers"
        )
    indices, psi, counts = strategy._batch("spread", grid, markers)
    if counts is None:
        weighted = psi * values[0]
    else:
        weighted = np.repeat(values, counts) * psi
    field = np.bincount(indices, weighted, minlength=grid.total_cells)
    return GridField(field, grid)
