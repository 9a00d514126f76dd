"""Cartesian grids, field sampling, support stencils, interpolate/spread.

The interpolation and spreading operators are exact adjoints of one
another by construction: both apply the same kernel weights for a given
marker, produced by whatever generation strategy the caller bundles. An
interpolate and a spread at the same markers share one build of those
weights (see ``KernelStrategy``). Every stencil is a window of ⌈2R⌉
cells per axis (R the support radius in cells), so a call's kernels form
one (markers, ⌈2R⌉^d) array. The two-sided unbounded kernels of a call
with several markers are built together in one closed-form pass, from
per-axis moments over each window; every other kernel is built marker by
marker.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomain, StencilOutsideDomain
from .kernels import (
    BasisDegree,
    SiteAxes,
    _site_positions,
    as_point,
    as_sites,
    build_basis,
)
from .linalg import _RANK_PIVOT, _ZERO_WEIGHT
from .onesided import generate_one_sided_kernel

__all__ = [
    "CartesianGrid",
    "GridField",
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
class Stencil:
    """Support sites for one evaluation point, with their flat cell indices.

    ``axes`` holds each axis's window of cell centres, as
    ``kernels.SiteAxes``; ``sites`` is their product in C order, and the
    flat indices follow the same order. Built by hand, a stencil may
    leave ``axes`` None.
    """

    sites: np.ndarray
    indices: np.ndarray
    axes: SiteAxes = None

    def __len__(self):
        return self.sites.shape[0]


def support_stencil(grid, eval_point, radius_in_cells):
    """The window of k = ⌈2R⌉ cells per axis, R = ``radius_in_cells``.

    On each axis the window starts at the first centre with |center −
    eval| < R·spacing, ⌊(eval − origin)/spacing − ½ − R⌋ + 1, or at
    count − k where it would pass the last cell. It holds every centre in
    reach (at most k); its other cells lie at or beyond the reach, where
    the profile is 0 unless the grid is finer than the profile's mesh
    width. The point must sit at least R·spacing from every recorded
    domain edge. The stencil keeps the windows' centres as its ``axes``,
    which ``kernels.assemble_system`` takes as they are.

    Raises
    ------
    StencilOutsideDomain
    """
    d = grid.dimension
    eval_point = as_point(eval_point, d)
    k = math.ceil(2 * radius_in_cells)
    centres, first = [], 0
    for ax, x in enumerate(eval_point.tolist()):
        o, h, count = grid.origin[ax], grid.spacing[ax], grid.counts[ax]
        reach = radius_in_cells * h
        fuzz = 1e-12 * h
        if x - reach < o - fuzz or x + reach > o + h * count + fuzz or count < k:
            raise StencilOutsideDomain(
                f"evaluation point {eval_point.tolist()} within "
                f"{radius_in_cells} cells of a domain edge on axis {ax}"
            )
        start = min(math.floor((x - o) / h - 0.5 - radius_in_cells) + 1, count - k)
        # The centres of axis_centers, in its arithmetic.
        centres += [o + (i + 0.5) * h for i in range(start, start + k)]
        first = first * count + start
    coords = np.array(centres, dtype=float)
    return Stencil(sites=coords[_site_positions((k,) * d)[0]],
                   indices=first + _block_offsets((k,) * d, grid.counts),
                   axes=SiteAxes(coords.reshape(d, k)))


@functools.lru_cache(maxsize=64)
def _block_offsets(shape, counts):
    """Flat offsets of a block of cells from its first cell, in C order.

    The result is shared between calls, so it is read-only.
    """
    flat = np.ravel_multi_index(np.indices(shape).reshape(len(shape), -1), counts)
    flat.flags.writeable = False
    return flat


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
            stencil.axes,
            marker,
            self.weight_function,
            basis,
            sd=self.signed_distance,
            bounds=self.bounds,
        )
        return stencil, weights

    def _batch(self, operator, grid, markers):
        """Stencil indices and weights of ``markers``, as (n, k^d) arrays.

        Row i holds marker i's stencil (k = ⌈2R⌉ cells per axis) in the C
        order of ``support_stencil``; both arrays are C-contiguous. Takes
        the batch the other operator left in ``_pending`` for an equal
        grid and the same marker shape and bytes; otherwise drops it,
        builds one and leaves that. A build that raises leaves none.

        Several two-sided unbounded markers are built by
        ``_closed_form_batch``, whose weights differ from ``kernel_for``'s
        by rounding (1e-12 of the largest at most, in the tests). Any other
        batch, and one that pass refuses, is built by ``kernel_for`` marker
        by marker, raising what a failing marker raises.
        """
        key = (grid, markers.shape, markers.tobytes())
        pending = self.__dict__.pop("_pending", None)
        if pending and pending[0] != operator and pending[1] == key:
            return pending[2]
        batch = None
        if len(markers) > 1 and self.signed_distance is None and self.bounds is None:
            batch = _closed_form_batch(
                grid, markers, self.weight_function, self.degree
            )
        if batch is None:
            k = math.ceil(2 * self.weight_function.radius_in_cells)
            shape = (len(markers), k**grid.dimension)
            indices, psi = np.empty(shape, np.intp), np.empty(shape)
            for row, marker in enumerate(markers):
                stencil, weights = self.kernel_for(grid, marker)
                indices[row], psi[row] = stencil.indices, weights.psi
            batch = indices, psi
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


def _solve_grams(gram):
    """c = G⁻¹e₀ for every marker's Gram at once, or None.

    ``gram`` is (m, m, n) with m ≤ 4 and the markers last; only its lower
    triangle is read. The factor is Cholesky's without square roots,
    G = L·D·Lᵀ with L unit lower triangular, unrolled over its m(m+1)/2
    entries so that each step is one vector operation over the markers;
    then L z = e₀, and Lᵀc = D⁻¹z. The Cholesky pivots of G are √D.

    Returns c as a list of m arrays of n, or None if any marker's Gram has
    a pivot that is not positive (NaN included), a pivot at or below
    ``linalg._RANK_PIVOT`` times its largest (``linalg._factor``'s
    dependence rule: the R of its QR is that Cholesky factor), or pivots
    scaled by diag(G)^-½ whose squared extreme ratio, a lower bound on the
    condition number of D·G·D, exceeds ``_BATCH_COND_LIMIT``.
    """
    m = len(gram)
    low = [[None] * m for _ in range(m)]  # low[i][j] = L_ij, i > j
    dia = []
    for j in range(m):
        ld = [low[j][k] * dia[k] for k in range(j)]  # row j of L·D
        for i in range(j, m):
            entry = gram[i, j]
            for k in range(j):
                entry = entry - ld[k] * low[i][k]
            if i > j:
                low[i][j] = entry / dia[j]
            elif entry.min() > 0.0:  # NaN fails too
                dia.append(entry)
            else:
                return None
    dia = np.array(dia)
    if not (dia.min(axis=0) > _RANK_PIVOT**2 * dia.max(axis=0)).all():
        return None
    scaled = dia / gram.diagonal().T  # squared, as D·G·D's
    if not (scaled.max(axis=0) <= _BATCH_COND_LIMIT * scaled.min(axis=0)).all():
        return None
    z = [1.0]
    for i in range(1, m):
        z.append(-low[i][0])
        for k in range(1, i):
            z[i] = z[i] - low[i][k] * z[k]
    c = [None] * m
    for i in reversed(range(m)):
        c[i] = z[i] / dia[i]
        for k in range(i + 1, m):
            c[i] = c[i] - low[k][i] * c[k]
    return c


def _closed_form_batch(grid, markers, wf, degree):
    """Two-sided unbounded kernels of many markers in one closed-form pass.

    On a tensor stencil W is a product of 1D profiles, so each entry of
    the Gram matrix A W Aᵀ is a product of per-axis sums Σφ, Σφr and Σφr²
    (r the physical offset from the marker, as ``PolynomialBasis`` takes
    it) over each axis's window of k = ⌈2R⌉ cells, ``support_stencil``'s.
    The kernel is Ψ = W·(c₀ + c·r) with c = G⁻¹p, which ``_solve_grams``
    gives for every marker at once. The profile is evaluated once on the
    (d, k, n) array of offsets.

    Sites at or below ``linalg._ZERO_WEIGHT`` are eliminated as
    ``solve_generating_qp`` eliminates them. They are found once, as flat
    positions in the (k, ..., k, n) tensor (the marker is the position
    modulo n), and that short list counts each marker's sites, takes their
    terms out of the Gram by one ``np.bincount`` per lower-triangle entry,
    and sets Ψ = 0 there.

    Returns the (n, k^d) flat indices and weights of ``KernelStrategy._batch``,
    or None if any marker is within the support of an edge (or an axis
    has fewer than k cells), ``wf.eval1d`` refuses the profile's values
    (the per-marker loop then raises its ValueError), a marker has fewer
    than m supported sites, or has a Gram that ``_solve_grams`` refuses.
    Weights agree with ``KernelStrategy.kernel_for`` to rounding, not
    bitwise.
    """
    try:
        m = build_basis(grid.dimension, degree).size
    except ValueError:
        return None
    n, d = markers.shape
    radius = wf.radius_in_cells
    k = math.ceil(2 * radius)
    # The windows, (d, k, n): markers go on the last axis of every array,
    # where numpy's inner loops run long.
    o, h, right, cells = (np.array(v)[:, None, None] for v in (
        grid.origin, grid.spacing, grid.right_edge, grid.counts))
    x, reach, fuzz = markers.T.copy()[:, None], radius * h, 1e-12 * h
    if (np.any(x - reach < o - fuzz) or np.any(x + reach > right + fuzz)
            or np.any(cells < k)):
        return None
    start = np.minimum(np.floor((x - o) / h - 0.5 - radius) + 1, cells - k)
    idx = start.astype(np.intp) + np.arange(k)[:, None]
    r = o + (idx + 0.5) * h - x  # the centers of axis_centers, less x
    try:
        phi = wf.eval1d(r / wf.mesh_width)
    except ValueError:
        return None
    # The windows, broadcast to the (k, ..., k, n) tensor, and the flat
    # index of each one's first cell.
    along, weight, first = [], 1.0, 0
    for ax in range(d):
        shape = (1,) * ax + (k,) + (1,) * (d - ax - 1) + (n,)
        along.append(r[ax].reshape(shape))
        weight = weight * phi[ax].reshape(shape)
        first = first * grid.counts[ax] + idx[ax, 0]
    cut = np.flatnonzero(weight <= _ZERO_WEIGHT)
    owner = cut % n
    if np.bincount(owner, minlength=n).max() > k**d - m:
        return None

    # Entry (a, b) of the Gram is the product over axes of the per-axis
    # sum of φ·r^k, k the power of that axis in basis rows a and b.
    moments = np.stack([phi.sum(1), (phi * r).sum(1), (phi * r**2).sum(1)],
                       axis=1)  # (d, 3, n)
    powers = np.eye(m, d, -1, dtype=np.intp)  # row 0 is 1, row a is r_(a-1)
    gram = moments[np.arange(d), powers[:, None] + powers[None]].prod(2)
    if cut.size:
        *cell, _ = np.unravel_index(cut, weight.shape)
        basis = [1.0] + [r[ax, cell[ax], owner] for ax in range(m - 1)]
        for a in range(m):
            wa = weight.flat[cut] * basis[a]
            for b in range(a + 1):
                gram[a, b] -= np.bincount(owner, wa * basis[b], minlength=n)

    c = _solve_grams(gram)
    if c is None:
        return None
    psi = weight  # Ψ = W·(c₀ + c·r), in W's place
    psi *= sum((c[ax + 1] * along[ax] for ax in range(m - 1)), c[0])
    psi.flat[cut] = 0.0
    # Marker-major rows, each in the C order of its stencil and contiguous.
    indices = first[:, None] + _block_offsets((k,) * d, grid.counts)
    return indices, psi.reshape(-1, n).T.copy()


def interpolate(field, markers, strategy):
    """Kernel-weighted field values at each marker, in marker order.

    ``markers`` are (N, d) finite positions, checked by ``as_sites``.
    Takes the kernels a preceding ``spread`` at the same markers left on
    the strategy, or builds them and leaves them for the next ``spread``.
    """
    markers = as_sites(markers, field.grid.dimension)
    indices, psi = strategy._batch("interpolate", field.grid, markers)
    # One stacked matmul over contiguous rows: each row is psi[i] @ vals[i]
    # to the bit, which a sum along rows is not.
    return np.matmul(psi[:, None], field.values[indices][:, :, None])[:, 0, 0]


def spread(values, markers, grid, strategy):
    """Scatter marker values onto the grid with the same kernels.

    Applies the very weights of the ``interpolate`` at the same markers
    (taking its batch, or building one and leaving it for the next
    interpolate), which makes the pair adjoint. Accumulation runs in
    marker order so results are bitwise reproducible.
    """
    markers = as_sites(markers, grid.dimension)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != markers.shape[0]:
        raise ValueError(
            f"{values.shape[0]} values for {markers.shape[0]} markers"
        )
    indices, psi = strategy._batch("spread", grid, markers)
    field = np.bincount(indices.ravel(), (values[:, None] * psi).ravel(),
                        minlength=grid.total_cells)
    return GridField(field, grid)
