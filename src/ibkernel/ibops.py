"""Cartesian grids, field sampling, support stencils, interpolate/spread.

The interpolation and spreading operators are exact adjoints of one
another by construction: both use the identical kernel weights for a given
marker, produced by whatever generation strategy the caller bundles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomain, StencilOutsideDomain
from .kernels import BasisDegree, as_point, as_sites, build_basis
from .linalg import DEFAULT_TOLERANCES
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
        return int(np.prod(self.counts))

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


@dataclass
class KernelStrategy:
    """Bundle of everything needed to turn a marker into kernel weights.

    interpolate/spread stay agnostic to how the weights are produced:
    side restriction, bounds and tolerances all live here.
    """

    weight_function: object
    degree: BasisDegree = BasisDegree.LINEAR
    signed_distance: object = None
    bounds: object = None
    tolerances: object = DEFAULT_TOLERANCES

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
            tol=self.tolerances,
        )
        return stencil, weights


def interpolate(field, markers, strategy):
    """Kernel-weighted field values at each marker, in marker order."""
    markers = _marker_array(markers, field.grid.dimension)
    out = np.empty(markers.shape[0])
    for k, marker in enumerate(markers):
        stencil, weights = strategy.kernel_for(field.grid, marker)
        out[k] = float(weights.psi @ field.values[stencil.indices])
    return out


def spread(values, markers, grid, strategy):
    """Scatter marker values onto the grid with the same kernels.

    Accumulation runs in marker order so results are bitwise reproducible;
    uses the identical weights interpolate would use for each marker,
    which is what makes the operator pair adjoint.
    """
    markers = _marker_array(markers, grid.dimension)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != markers.shape[0]:
        raise ValueError(
            f"{values.shape[0]} values for {markers.shape[0]} markers"
        )
    field = np.zeros(grid.total_cells)
    for k, marker in enumerate(markers):
        stencil, weights = strategy.kernel_for(grid, marker)
        np.add.at(field, stencil.indices, values[k] * weights.psi)
    return GridField(field, grid)
