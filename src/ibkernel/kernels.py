"""Weight functions, polynomial bases, and moving-least-squares systems.

The central object is the kernel system (A, W, p): a small polynomial
matrix A over the support sites, a diagonal weight matrix W from a
compactly supported 1D profile in tensor-product form, and the basis
values p at the evaluation point. The generating function (the vector of
kernel weights) is the minimizer of ½ΨᵀW⁻¹Ψ subject to AΨ = p, whose
closed form is Ψ = W Aᵀ(A W Aᵀ)⁻¹p. qpsolve.solve_generating_qp solves
that problem and its bounded variant; this module only assembles it.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientSupport
from .linalg import DEFAULT_TOLERANCES

__all__ = [
    "WeightKind",
    "WeightFunction",
    "BasisDegree",
    "PolynomialBasis",
    "KernelSystem",
    "KernelSource",
    "SolveMode",
    "KernelWeights",
    "eval_psi6",
    "eval_psi4",
    "tensor_weight",
    "build_basis",
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


class WeightKind(Enum):
    SIX_POINT_SPLINE = "SixPointSpline"
    FOUR_POINT_PESKIN = "FourPointPeskin"
    CUSTOM_1D = "Custom1D"


@dataclass(frozen=True)
class WeightFunction:
    """A 1D weight profile applied in tensor-product form.

    ``profile`` is only consulted for CUSTOM_1D and must be a callable of
    the dimensionless offset returning non-negative values; its compact
    support radius (in cells) is ``radius_in_cells``.
    """

    kind: WeightKind
    mesh_width: float
    radius_in_cells: float
    profile: object = None

    def __post_init__(self):
        if not (self.mesh_width > 0.0):
            raise ValueError("mesh_width must be positive")
        if not (self.radius_in_cells > 0.0):
            raise ValueError("radius_in_cells must be positive")
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
        return cls(WeightKind.CUSTOM_1D, mesh_width, radius_in_cells, profile)

    @classmethod
    def from_table(cls, mesh_width, offsets, values, radius_in_cells):
        """Tabulated 1D profile, linearly interpolated, zero outside."""
        offsets = np.asarray(offsets, dtype=float)
        values = np.asarray(values, dtype=float)
        if offsets.shape != values.shape or offsets.ndim != 1:
            raise ValueError("offsets and values must be equal-length 1D")

        def profile(r):
            return np.interp(r, offsets, values, left=0.0, right=0.0)

        return cls(WeightKind.CUSTOM_1D, mesh_width, radius_in_cells, profile)

    def eval1d(self, r):
        if self.kind is WeightKind.SIX_POINT_SPLINE:
            return eval_psi6(r)
        if self.kind is WeightKind.FOUR_POINT_PESKIN:
            return eval_psi4(r)
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            return float(self.profile(float(r)))
        try:
            flat = np.asarray(self.profile(r.ravel()), dtype=float)
            if flat.shape != r.ravel().shape:
                raise ValueError
        except (TypeError, ValueError):
            # scalar-only profiles are fine, just slower
            flat = np.array([float(self.profile(float(v))) for v in r.ravel()])
        return flat.reshape(r.shape)


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


def _tensor_weights(sites, eval_point, wf):
    r = (sites - eval_point[None, :]) / wf.mesh_width
    vals = np.asarray(wf.eval1d(r.ravel()), dtype=float).reshape(r.shape)
    return np.prod(vals, axis=1)


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
        eval_point = as_point(eval_point, self.dimension)
        n = sites.shape[0]
        a = np.empty((self.size, n))
        a[0] = 1.0
        if self.degree is BasisDegree.LINEAR:
            a[1:] = (sites - eval_point[None, :]).T
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
    if not np.isfinite(point).all():
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


class KernelSource(Enum):
    CLOSED_FORM = "ClosedForm"
    PROBLEM_B = "ProblemB"
    PROBLEM_C = "ProblemC"
    PROBLEM_D = "ProblemD"


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
    source: KernelSource
    equality_residual: float
    mode: SolveMode = SolveMode.EXACT
    support: np.ndarray = None

    def supported_psi(self):
        if self.support is None:
            return self.psi
        return self.psi[self.support]


def assemble_system(sites, eval_point, wf, basis, tol=DEFAULT_TOLERANCES):
    """Build the kernel system (A, Wdiag, p) for one evaluation point.

    Parameters
    ----------
    sites : (N, d) array_like
        Distinct data sites; N must be at least the basis size.
    eval_point : (d,) array_like
    wf : WeightFunction
    basis : PolynomialBasis
    tol : ToleranceSet

    Raises
    ------
    InsufficientSupport
        Fewer than ``basis.size`` sites carry weight above
        ``tol.zero_weight``.
    """
    sites = as_sites(sites, basis.dimension)
    eval_point = as_point(eval_point, basis.dimension)
    n = sites.shape[0]
    if n < basis.size:
        raise InsufficientSupport(
            f"{n} sites cannot support a basis of size {basis.size}"
        )
    ordered = sites[np.lexsort(sites.T)]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise ValueError("sites must be pairwise distinct")

    wdiag = _tensor_weights(sites, eval_point, wf)
    supported = int(np.count_nonzero(wdiag > tol.zero_weight))
    if supported < basis.size:
        raise InsufficientSupport(
            f"only {supported} sites carry weight above {tol.zero_weight:g}, "
            f"need {basis.size}"
        )
    return KernelSystem(
        A=basis.rows(sites, eval_point),
        Wdiag=wdiag,
        p=basis.at_eval(),
        eval=eval_point,
        sites=sites,
    )
