"""Symmetry oracles: a kernel against the kernel of its mirror image.

Each kernel is the unique minimizer of a strictly convex QP. A symmetry
of the grid that maps the interface and the box onto themselves maps the
QP of a marker onto the QP of its image, so it must map the kernel onto
the image's kernel. The comparison needs no solver of its own: what it
reads is the rounding of the program, and a wrong optimum shows as a
large reading. Readings are relative to max|Ψ|.
"""

import itertools

import numpy as np
import pytest

from ibkernel.errors import IBKernelError
from ibkernel.experiments import CircleCaseConfig
from ibkernel.ibops import KernelStrategy, make_grid
from ibkernel.kernels import BasisDegree, WeightFunction
from ibkernel.onesided import KernelBounds, SignedDistance

# Case-4 angles whose optimum fails the rank rule; they come in mirror
# pairs, which must raise alike.
RANK_DEFICIENT_DEG = (115.0, 115.5, 125.0, 125.5, 324.5, 325.0, 334.5, 335.0)

# Bounds on the mirror reading, with what the solvers read today in
# brackets; most leave room for another BLAS's rounding. The case-4 bounds
# belong to the bounded solver: a more accurate one lowers them, and no
# change may raise them. At 187.5° and 225° the float data fix the kernel
# only to about 1e-9 and 1e-10 of max|Ψ|, so their readings are rounding.
CASE_BOUND = {1: 1e-14, 2: 1e-14, 3: 1e-14}  # [6.0e-15, 4.7e-15, 4.2e-15]
CASE4_BOUND = {
    29.0: 5e-15,  # [5.7e-16]
    187.5: 5e-9,  # [8.1e-10]
    225.0: 1.5e-10,  # [2.6e-11], its own mirror
}
# Every other case-4 angle of the subset, Exact or SoftConstraint
# [5.2e-12, soft at 0° and 90°; 1.1e-14 Exact at 55°].
CASE4_OTHER_BOUND = 6e-12


def _grid_kernel(strategy, grid, marker):
    """The kernel as an array over the whole grid, or the exception class."""
    try:
        stencil, weights = strategy.kernel_for(grid, marker)
    except IBKernelError as exc:
        return type(exc).__name__, None
    psi = np.zeros(grid.total_cells)
    psi[stencil.indices] = weights.psi
    return weights.mode.value, psi.reshape(grid.counts)


def _reading(a, b):
    """max|a − b| relative to max|a|."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))


def _mirror_reading(case, deg):
    """(mode, mode of the mirror, reading) of the marker at ``deg``.

    Swapping x and y maps the paper's square grid and the circle onto
    themselves, and the marker at θ onto the one at 90° − θ.
    """
    cfg = CircleCaseConfig.for_case(
        case, marker_angles_deg=(deg, (90.0 - deg) % 360.0)
    )
    grid = make_grid(cfg.extents, cfg.mesh_width)
    strategy = cfg.strategy()
    marker, image = cfg.marker_positions()
    mode, psi = _grid_kernel(strategy, grid, marker)
    mirror_mode, mirror = _grid_kernel(strategy, grid, image)
    if psi is None or mirror is None:
        return mode, mirror_mode, 0.0
    return mode, mirror_mode, _reading(psi, mirror.T)


TIER1_DEG = sorted(
    set(5.0 * np.arange(72)) | {29.0, 187.5, 225.0} | set(RANK_DEFICIENT_DEG)
)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_mirror_pairs_on_the_circle(case):
    readings = {}
    for deg in TIER1_DEG:
        mode, mirror_mode, reading = _mirror_reading(case, deg)
        assert mode == mirror_mode, deg
        if case == 4 and deg in RANK_DEFICIENT_DEG:
            assert mode == "RankDeficientConstraints", deg
        readings[deg] = reading
    for deg, reading in readings.items():
        if case < 4:
            bound = CASE_BOUND[case]
        else:
            bound = CASE4_BOUND.get(deg, CASE4_OTHER_BOUND)
        assert reading <= bound, (deg, reading)


# A few markers of tests/test_onesided.py::test_sphere_boxes's lattice
# (r = 0.5), on the sphere_3d benchmark's grid: (−0.9, 0.9)³ at h = 0.075,
# 24 cells per axis, which every symmetry of the cube maps onto itself.
SPHERE_MARKERS = (2, 7, 13)
# Symmetries of the cube as (axis permutation, signs): the image of x has
# coordinate a equal to signs[a]·x[perm[a]].
CUBE_SYMMETRIES = (
    ((1, 0, 2), (1, 1, 1)),
    ((1, 2, 0), (1, 1, 1)),
    ((0, 1, 2), (-1, 1, 1)),
    ((2, 0, 1), (1, -1, -1)),
    ((0, 1, 2), (-1, -1, -1)),
)
SPHERE_BOUND = 1.5e-14  # [6.2e-15]


def _sphere_markers():
    n = 20
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    lattice = np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    return 0.5 * lattice[list(SPHERE_MARKERS)]


def _image(psi, perm, signs):
    """The grid array ``psi`` under the symmetry (perm, signs)."""
    out = np.transpose(psi, perm)
    return np.flip(out, axis=[a for a, s in enumerate(signs) if s < 0])


@pytest.mark.parametrize("box", [(-0.07, 0.5), (0.0, 0.75)])
def test_sphere_box_kernels_under_the_cube_symmetries(box):
    h = 0.075
    grid = make_grid([(-0.9, 0.9)] * 3, h)
    strategy = KernelStrategy(
        WeightFunction.six_point_spline(h),
        degree=BasisDegree.LINEAR,
        signed_distance=SignedDistance.circle(np.zeros(3), 0.5),
        bounds=KernelBounds(*box),
    )
    for marker in _sphere_markers():
        mode, psi = _grid_kernel(strategy, grid, marker)
        assert mode == "Exact"
        for perm, signs in CUBE_SYMMETRIES:
            image = np.asarray(signs) * marker[list(perm)]
            image_mode, image_psi = _grid_kernel(strategy, grid, image)
            assert image_mode == mode
            reading = _reading(_image(psi, perm, signs), image_psi)
            assert reading <= SPHERE_BOUND, (marker, perm, signs, reading)


# A two-sided kernel depends on the marker's offsets from the sites only.
SHIFT_BOUND = 5e-15  # [2.2e-15]


@pytest.mark.parametrize("dim", [2, 3])
def test_two_sided_kernels_unchanged_by_a_shift_of_whole_cells(dim):
    h = 0.075
    grid = make_grid([(-1.0, 1.0)] * dim, h)
    strategy = KernelStrategy(WeightFunction.six_point_spline(h))
    rng = np.random.default_rng(dim)
    markers = rng.uniform(-0.4, 0.4, (4, dim))
    shifts = [np.array(s) for s in itertools.product((-3, 0, 4), repeat=dim)]
    for marker in markers:
        _, psi = _grid_kernel(strategy, grid, marker)
        for shift in shifts:
            _, moved = _grid_kernel(strategy, grid, marker + shift * h)
            back = np.roll(moved, -shift, axis=tuple(range(dim)))
            assert _reading(psi, back) <= SHIFT_BOUND, (marker, shift)
