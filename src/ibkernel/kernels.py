"""Weight functions, polynomial bases, and moving-least-squares systems.

The central object is the kernel system (A, W, p): a small polynomial
matrix A over the support sites, a diagonal weight matrix W from a
compactly supported 1D profile in tensor-product form, and the basis
values p at the evaluation point. The generating function (the vector of
kernel weights) is the minimizer of ½ΨᵀW⁻¹Ψ subject to AΨ = p, whose
closed form is Ψ = W Aᵀ(A W Aᵀ)⁻¹p. qpsolve.solve_generating_qp solves
that problem and its bounded variant; this module only assembles it,
from scattered (N, d) sites or from a Cartesian stencil's per-axis
coordinates (``SiteAxes``), whose profile values are computed once per
coordinate. The four-point kernel's per-axis weights, which are exactly
determined up to one quadratic root, come in closed form from
``solve_peskin4``.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "WeightKind",
    "WeightFunction",
    "BasisDegree",
    "PolynomialBasis",
    "KernelSystem",
    "SolveMode",
    "KernelWeights",
    "eval_psi6",
    "eval_psi4",
    "Peskin4Weights",
    "solve_peskin4",
    "build_basis",
    "SiteAxes",
    "assemble_system",
]


def eval_psi6(r):
    """Six-point quintic spline kernel on dimensionless offsets.

    Piecewise quintic in kappa = |r| + 3, supported on |r| < 3, C2 across
    the branch boundaries, and identically zero for |r| >= 3. Satisfies
    the constant and linear reproducing sums on any unit-spaced stencil.

    Parameters
    ----------
    r : float or array_like
        Offset in units of the mesh width.

    Returns
    -------
    float or ndarray
        Kernel value(s); scalar input gives a float.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    a = np.abs(np.atleast_1d(r))
    if a.size <= _FEW_OFFSETS:
        out = _psi6_few(a.ravel())
        return float(out[0]) if scalar else out.reshape(r.shape)
    out = np.zeros_like(a)

    # Each branch is evaluated in a local variable so the quintic
    # coefficients stay O(1); the raw kappa = |r| + 3 form loses three
    # digits to cancellation near the outer boundary.
    m = a < 1.0
    t = a[m]
    out[m] = 0.55 - 0.5 * t**2 + t**4 * (0.25 - t / 12.0)
    m = (a >= 1.0) & (a < 2.0)
    t = a[m] - 1.0
    out[m] = (
        13.0 / 60.0
        + t * (-5.0 / 12.0 + t * (1.0 / 6.0 + t * (1.0 / 6.0 + t * (-1.0 / 6.0 + t / 24.0))))
    )
    m = (a >= 2.0) & (a < 3.0)
    t = 3.0 - a[m]
    out[m] = t**5 / 120.0

    return float(out[0]) if scalar else out.reshape(r.shape)


# Up to this many offsets (a 3D stencil's 18 per-axis ones), ``eval_psi6``
# runs its branches per element in Python floats: at that size numpy's
# cost per call, not per element, dominates. The powers still come from
# numpy over the whole array, so every value keeps its bits: on an
# AVX-512 x86-64 CPU numpy's vector ``power`` and the C library's ``pow``
# disagree in the last bit on about 5% of inputs, and ``t**2`` is numpy's
# exact square t·t.
_FEW_OFFSETS = 32


def _psi6_few(a):
    """``eval_psi6`` on a few non-negative offsets ``a``, value by value."""
    out = []
    for v, v4, w5 in zip(a.tolist(), (a**4).tolist(), ((3.0 - a) ** 5).tolist()):
        if v < 1.0:
            out.append(0.55 - 0.5 * (v * v) + v4 * (0.25 - v / 12.0))
        elif v < 2.0:
            t = v - 1.0
            out.append(13.0 / 60.0 + t * (-5.0 / 12.0 + t * (
                1.0 / 6.0 + t * (1.0 / 6.0 + t * (-1.0 / 6.0 + t / 24.0)))))
        elif v < 3.0:
            out.append(w5 / 120.0)
        else:  # NaN too, as no branch of the masked form takes it
            out.append(0.0)
    return np.array(out)


def eval_psi4(r):
    """Four-point cosine-free delta kernel (piecewise algebraic form).

    Supported on |r| < 2:
      |r| < 1:      (3 - 2|r| + sqrt(1 + 4|r| - 4r^2)) / 8
      1 <= |r| < 2: (5 - 2|r| - sqrt(-7 + 12|r| - 4r^2)) / 8
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    a = np.abs(np.atleast_1d(r))
    out = np.zeros_like(a)

    m = a < 1.0
    am = a[m]
    out[m] = (3.0 - 2.0 * am + np.sqrt(1.0 + 4.0 * am - 4.0 * am**2)) / 8.0
    m = (a >= 1.0) & (a < 2.0)
    am = a[m]
    out[m] = (5.0 - 2.0 * am - np.sqrt(-7.0 + 12.0 * am - 4.0 * am**2)) / 8.0

    return float(out[0]) if scalar else out.reshape(r.shape)


@dataclass
class Peskin4Weights:
    """Per-axis four-point kernel weights at integer offsets (-1, 0, 1, 2).

    ``shift`` is the marker position within its cell, per axis, in [0, 1).
    ``weights`` has shape (dimension, 4). Multi-dimensional weights are the
    tensor product of the per-axis rows.
    """

    shift: np.ndarray
    weights: np.ndarray
    dimension: int

    OFFSETS = (-1, 0, 1, 2)


def solve_peskin4(shift):
    """Closed-form four-point kernel weights for a fractional shift.

    Per axis, the four weights at offsets (-1, 0, 1, 2) are pinned down by
    the even-sum, odd-sum, and first-moment conditions plus the sum-of-
    squares condition; the last is quadratic and the root is chosen so all
    weights stay non-negative, which also makes the map shift → weights
    continuous:

        w0  = (3 - 2s + sqrt(1 + 4s - 4s²)) / 8       (offset 0)
        w1  = (1 + 2s + sqrt(1 + 4s - 4s²)) / 8       (offset 1)
        w-1 = 1/2 - w1,   w2 = 1/2 - w0

    Multi-axis weights are tensor products; the number of shifts is the
    dimension.
    """
    s = np.asarray(shift, dtype=float).reshape(-1)
    if not (s.size and np.all((s >= 0.0) & (s < 1.0))):  # also rejects NaN
        raise ValueError("need one shift in [0, 1) per axis")

    root = np.sqrt(1.0 + 4.0 * s - 4.0 * s * s)
    w0 = (3.0 - 2.0 * s + root) / 8.0
    w1 = (1.0 + 2.0 * s + root) / 8.0
    weights = np.stack([0.5 - w1, w0, w1, 0.5 - w0], axis=1)
    return Peskin4Weights(shift=s, weights=weights, dimension=s.size)


class WeightKind(Enum):
    SIX_POINT_SPLINE = "SixPointSpline"
    FOUR_POINT_PESKIN = "FourPointPeskin"
    CUSTOM_1D = "Custom1D"


@dataclass(frozen=True)
class WeightFunction:
    """A 1D weight profile applied in tensor-product form.

    ``profile`` is only consulted for CUSTOM_1D. It is an array map: it
    takes the 1-D array of dimensionless offsets strictly inside
    ``radius_in_cells`` and returns one finite value >= 0 for each.
    ``eval1d`` gives 0 at every other offset, so every profile vanishes
    at and beyond its radius, as ψ6 (radius 3) and ψ4 (radius 2) do by
    their formulas. A one-offset function f ports as
    ``lambda r: np.array([float(f(v)) for v in r.tolist()])``. The weights
    alone decide which sites a kernel is solved on; a box bounds only those.
    """

    kind: WeightKind
    mesh_width: float
    radius_in_cells: float
    profile: object = None

    def __post_init__(self):
        if not (0.0 < self.mesh_width < np.inf):
            raise ValueError("mesh_width must be positive and finite")
        if not (0.0 < self.radius_in_cells < np.inf):
            raise ValueError("radius_in_cells must be positive and finite")
        if self.kind is WeightKind.CUSTOM_1D and not callable(self.profile):
            raise ValueError("Custom1D requires a callable profile")

    @classmethod
    def six_point_spline(cls, mesh_width):
        return cls(WeightKind.SIX_POINT_SPLINE, mesh_width, 3.0)

    @classmethod
    def four_point_peskin(cls, mesh_width):
        return cls(WeightKind.FOUR_POINT_PESKIN, mesh_width, 2.0)

    @classmethod
    def custom1d(cls, mesh_width, profile, radius_in_cells):
        """``profile`` maps the 1-D array of in-radius offsets to values >= 0."""
        return cls(WeightKind.CUSTOM_1D, mesh_width, radius_in_cells, profile)

    @classmethod
    def from_table(cls, mesh_width, offsets, values, radius_in_cells):
        """Tabulated 1D profile, linearly interpolated, zero outside.

        Raises ValueError unless the offsets are finite and strictly
        increasing, as the interpolation requires.
        """
        offsets = np.asarray(offsets, dtype=float)
        values = np.asarray(values, dtype=float)
        if offsets.shape != values.shape or offsets.ndim != 1:
            raise ValueError("offsets and values must be equal-length 1D")
        if not (np.isfinite(offsets).all() and (np.diff(offsets) > 0.0).all()):
            raise ValueError("table offsets must be finite and strictly increasing")

        def profile(r):
            return np.interp(r, offsets, values, left=0.0, right=0.0)

        return cls(WeightKind.CUSTOM_1D, mesh_width, radius_in_cells, profile)

    def eval1d(self, r):
        """The profile at the dimensionless offsets ``r``, in r's shape.

        The one place profile values are made and checked (ψ6 and ψ4 give
        finite values >= 0 at any offset). Raises ValueError where a custom
        profile gives other than one value per offset, or a negative, NaN
        or infinite one.
        """
        if self.kind is WeightKind.SIX_POINT_SPLINE:
            return eval_psi6(r)
        if self.kind is WeightKind.FOUR_POINT_PESKIN:
            return eval_psi4(r)
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) < self.radius_in_cells
        at = r[inside]
        values = np.asarray(self.profile(at), dtype=float)
        if values.shape != at.shape:
            raise self._refusal(
                f"gave shape {values.shape} for {at.size} offsets; "
                "a profile maps the 1-D array of offsets to one value each")
        bad = np.flatnonzero(~((values >= 0.0) & (values < np.inf)))
        if bad.size:
            raise self._refusal(
                f"gave {float(values[bad[0]])} at offset {at[bad[0]]:g}; "
                "profile values must be finite and >= 0")
        out = np.zeros(r.shape)
        out[inside] = values
        return out

    def _refusal(self, what):
        """The ValueError for a custom profile that ``what``, naming it."""
        f = self.profile
        name = f.__name__ if hasattr(f, "__name__") else repr(f)
        return ValueError(f"weight profile {self.kind.value} {name} {what}")


class BasisDegree(Enum):
    CONSTANT_ONLY = "ConstantOnly"
    LINEAR = "Linear"


@dataclass(frozen=True)
class PolynomialBasis:
    """Constant or linear polynomial basis in d dimensions.

    Basis functions are expressed in coordinates shifted by the evaluation
    point, so the basis values there are always (1, 0, ..., 0). This keeps
    the Gram matrix well scaled regardless of where the stencil sits.
    """

    dimension: int
    degree: BasisDegree

    @property
    def size(self):
        return 1 if self.degree is BasisDegree.CONSTANT_ONLY else self.dimension + 1

    def rows(self, sites, eval_point):
        """Matrix A with A[i, j] = (i-th basis function)(site j)."""
        sites = as_sites(sites, self.dimension)
        return self._rows_at(sites - as_point(eval_point, self.dimension))

    def _rows_at(self, offsets):
        """A from the (N, d) offsets of the sites from the evaluation point."""
        a = np.empty((self.size, offsets.shape[0]))
        a[0] = 1.0
        if self.degree is BasisDegree.LINEAR:
            a[1:] = offsets.T
        return a

    def at_eval(self):
        p = np.zeros(self.size)
        p[0] = 1.0
        return p


def build_basis(dimension, degree):
    """Polynomial basis of the requested degree in ``dimension`` in {1,2,3}."""
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    if not isinstance(degree, BasisDegree):
        raise ValueError(f"degree must be a BasisDegree, got {degree!r}")
    return PolynomialBasis(dimension, degree)


def as_sites(sites, dimension=None):
    """Coerce to an (N, d) float array; 1D input is treated as d = 1."""
    sites = np.asarray(sites, dtype=float)
    if sites.ndim == 1:
        sites = sites[:, None]
    if sites.ndim != 2:
        raise ValueError(f"sites must be (N, d), got shape {sites.shape}")
    if dimension is not None and sites.shape[1] != dimension:
        raise ValueError(
            f"sites have dimension {sites.shape[1]}, expected {dimension}"
        )
    if not np.isfinite(sites).all():
        raise ValueError("sites contain non-finite coordinates")
    return sites


def as_point(point, dimension=None):
    point = np.asarray(point, dtype=float).reshape(-1)
    if dimension is not None and point.shape[0] != dimension:
        raise ValueError(
            f"point has dimension {point.shape[0]}, expected {dimension}"
        )
    if not all(map(math.isfinite, point.tolist())):
        raise ValueError("point has non-finite coordinates")
    return point


@dataclass
class KernelSystem:
    """Assembled system (A, Wdiag, p) for one evaluation point.

    A : (m, N) polynomial matrix, rows are basis functions at the sites.
    Wdiag : (N,) tensor-product weights, the diagonal of W.
    p : (m,) basis values at the evaluation point, (1, 0, ..., 0).
    """

    A: np.ndarray
    Wdiag: np.ndarray
    p: np.ndarray
    eval: np.ndarray
    sites: np.ndarray

    @property
    def n_sites(self):
        return self.sites.shape[0]

    @property
    def n_basis(self):
        return self.A.shape[0]


class SolveMode(Enum):
    EXACT = "Exact"
    SOFT_CONSTRAINT = "SoftConstraint"


@dataclass
class KernelWeights:
    """Generating-function weights Ψ on a support stencil.

    ``support`` flags the sites that entered the solve as variables;
    entries outside it are structural zeros (restricted or weightless
    sites), distinct from a weight that came out of the solver as 0.
    """

    psi: np.ndarray
    sites: np.ndarray
    eval: np.ndarray
    equality_residual: float
    mode: SolveMode = SolveMode.EXACT
    support: np.ndarray = None

    def supported_psi(self):
        if self.support is None:
            return self.psi
        return self.psi[self.support]


class SiteAxes(tuple):
    """Sites as a tensor: d 1-D coordinate arrays, one per axis.

    The sites are their product in C order (the last axis varies fastest),
    as ``ibops.support_stencil`` lays out a stencil. ``assemble_system``
    requires each axis finite and strictly increasing, which makes the
    sites pairwise distinct.
    """

    __slots__ = ()


@lru_cache(maxsize=64)
def _site_positions(sizes):
    """Where each site of a tensor of ``sizes`` takes its coordinates.

    Returns the (N, d) positions of each site's coordinates in the
    concatenation of the axes, the sites in C order, and the axis of each
    position of that concatenation. Both are shared between calls, so
    they are read-only.
    """
    starts = np.cumsum((0,) + sizes[:-1], dtype=np.intp)
    flat = np.indices(sizes, dtype=np.intp).reshape(len(sizes), -1)
    positions = (flat + starts[:, None]).T.copy()  # C order, as the sites
    axis = np.repeat(np.arange(len(sizes)), sizes)
    positions.flags.writeable = axis.flags.writeable = False
    return positions, axis


def assemble_system(sites, eval_point, wf, basis):
    """Build the kernel system (A, Wdiag, p) for one evaluation point.

    Checks only its input; ``qpsolve.solve_generating_qp`` decides
    whether the system has enough support and independent moment rows.
    Both forms of ``sites`` give the same system, to the bit.

    Parameters
    ----------
    sites : (N, d) array_like or SiteAxes
        Finite, pairwise distinct data sites. As ``SiteAxes`` the profile
        is evaluated once per axis coordinate (18 values for a 216-site 3D
        stencil, not 648) and each site gathers its offsets and profile
        values from those; the axes must be finite and strictly
        increasing, which proves the sites distinct. The (N, d) form, for
        scattered sites, checks for duplicates by sorting.
    eval_point : (d,) array_like
    wf : WeightFunction
        Its ``eval1d`` checks the profile values.
    basis : PolynomialBasis

    Raises
    ------
    ValueError
        Non-finite, duplicate or (as axes) unsorted sites, a non-finite
        point, a dimension mismatch, or a bad profile value.
    """
    d = basis.dimension
    if isinstance(sites, SiteAxes):
        coords, (positions, axis) = _check_axes(sites, d)
        eval_point = as_point(eval_point, d)
        along = coords - eval_point[axis]
        offsets = along[positions]
        per_axis = wf.eval1d(along / wf.mesh_width)[positions]
        sites = coords[positions]
    else:
        sites = as_sites(sites, d)
        eval_point = as_point(eval_point, d)
        ordered = sites[np.lexsort(sites.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("sites must be pairwise distinct")
        offsets = sites - eval_point
        per_axis = wf.eval1d(offsets / wf.mesh_width)

    # Tensor-product weights: the product over axes of the 1D profile.
    wdiag = per_axis[:, 0]
    for ax in range(1, d):
        wdiag = wdiag * per_axis[:, ax]
    return KernelSystem(
        A=basis._rows_at(offsets),
        Wdiag=wdiag,
        p=basis.at_eval(),
        eval=eval_point,
        sites=sites,
    )


def _check_axes(axes, dimension):
    """The concatenated coordinates of ``axes`` and ``_site_positions``;
    raises ValueError unless there are ``dimension`` axes, each 1-D,
    finite and strictly increasing."""
    if len(axes) != dimension:
        raise ValueError(f"{len(axes)} site axes, expected {dimension}")
    sizes = tuple(len(a) for a in axes)
    coords = np.concatenate(axes, dtype=float)
    if coords.ndim != 1:
        raise ValueError("site axes must be 1-D")
    values = coords.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("site axes contain non-finite coordinates")
    start = 0
    for size in sizes:
        run = values[start:start + size]
        if not all(map(operator.lt, run, run[1:])):
            raise ValueError("site axes must be strictly increasing")
        start += size
    return coords, _site_positions(sizes)
