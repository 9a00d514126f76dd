"""Circular-interface interpolation experiment and kernel validation.

A linear field g(x, y) = a·x + b·y defined on a cell-centered grid is
interpolated onto markers on a circle of radius R. Four configurations
stress the kernel generator in sequence:

  case 1  two-sided support, equality constraints only
  case 2  support restricted to the outside of the circle, equality only
  case 3  restricted support with weight bounds (-0.07, 0.5)
  case 4  restricted support with weight bounds (0, 0.75)

Each marker row records the relative interpolation error, the weight
range, the equality residual, and how the solve finished.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch
from .ibops import KernelStrategy, make_grid, sample_field
from .kernels import BasisDegree, WeightFunction
from .onesided import KernelBounds, SignedDistance

__all__ = [
    "CASE_BOUNDS",
    "CircleCaseConfig",
    "MarkerResult",
    "ErrorTable",
    "run_circle_case",
    "validate_moments",
    "compare_kernels",
]

# Default weight bounds per bounded case.
CASE_BOUNDS = {3: (-0.07, 0.5), 4: (0.0, 0.75)}


def _floats(value):
    """A number as a float, a (nested) sequence as (nested) float tuples."""
    if np.ndim(value) == 0:
        return float(value)
    return tuple(_floats(v) for v in value)


@dataclass
class CircleCaseConfig:
    """Full description of one experiment run (defaults reproduce case 1)."""

    case: int = 1
    extents: tuple = ((-1.0, 1.0), (-1.0, 1.0))
    mesh_width: float = 0.075
    center: tuple = (0.0, 0.0)
    radius: float = 0.5
    marker_angles_deg: tuple = (40.0, 140.0, 230.0, 310.0)
    bounds: KernelBounds = None
    field_coefficients: tuple = (10.0, 5.0)

    def __post_init__(self):
        # JSON-shaped input (lists, ints) becomes tuples of floats and
        # floats here, so a malformed value fails when the config is built.
        # A shape of None takes any number of entries in one dimension.
        shapes = {"extents": (2, 2), "mesh_width": (), "center": (2,), "radius": (),
                  "marker_angles_deg": None, "field_coefficients": (2,)}
        for name, shape in shapes.items():
            value = _floats(getattr(self, name))
            shape = (np.size(value),) if shape is None else shape
            if np.shape(value) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
            setattr(self, name, value)
        if self.case not in (1, 2, 3, 4):
            raise ValueError(f"case must be 1..4, got {self.case}")
        if self.bounds is not None and not isinstance(self.bounds, KernelBounds):
            alpha, beta = self.bounds
            self.bounds = KernelBounds(float(alpha), float(beta))
        if self.case in (3, 4) and self.bounds is None:
            raise ValueError(f"case {self.case} requires bounds")
        if self.case in (1, 2) and self.bounds is not None:
            raise ValueError(f"case {self.case} takes no bounds")
        if not (self.radius > 0.0):
            raise ValueError("radius must be positive")
        if not (self.mesh_width > 0.0):
            raise ValueError("mesh_width must be positive")

    @classmethod
    def for_case(cls, case, **overrides):
        """Config with the default bounds wired in for the bounded cases."""
        if case in CASE_BOUNDS and "bounds" not in overrides:
            overrides["bounds"] = KernelBounds(*CASE_BOUNDS[case])
        return cls(case=case, **overrides)

    def marker_positions(self):
        ang = np.deg2rad(np.asarray(self.marker_angles_deg, dtype=float))
        cx, cy = self.center
        return np.stack(
            [cx + self.radius * np.cos(ang), cy + self.radius * np.sin(ang)],
            axis=1,
        )

    def field(self, point):
        a, b = self.field_coefficients
        return a * point[0] + b * point[1]

    def strategy(self):
        sd = None
        if self.case in (2, 3, 4):
            sd = SignedDistance.circle(self.center, self.radius)
        return KernelStrategy(
            weight_function=WeightFunction.six_point_spline(self.mesh_width),
            degree=BasisDegree.LINEAR,
            signed_distance=sd,
            bounds=self.bounds,
        )


@dataclass
class MarkerResult:
    """One error-table row plus the kernel that produced it."""

    marker_deg: float
    position: np.ndarray
    rel_error: float
    psi_min: float
    psi_max: float
    eq_residual: float
    mode: str
    weights: object
    stencil: object


@dataclass
class ErrorTable:
    case: int
    rows: list = field(default_factory=list)

    @property
    def rel_errors(self):
        return np.array([r.rel_error for r in self.rows])

    @property
    def max_rel_error(self):
        return float(np.max(self.rel_errors))

    @property
    def psi_min(self):
        return float(min(r.psi_min for r in self.rows))

    @property
    def psi_max(self):
        return float(max(r.psi_max for r in self.rows))

    @property
    def modes(self):
        return [r.mode for r in self.rows]


def run_circle_case(config):
    """Run one case over all markers; deterministic for a fixed config.

    Relative errors are measured against the field at the exact marker
    coordinates (R cos θ, R sin θ), not at any grid location. Weight
    min/max are taken over the supported (nonzero-weight) part of each
    kernel, since eliminated sites hold structural zeros.
    """
    grid = make_grid(config.extents, config.mesh_width)
    gf = sample_field(grid, config.field)
    strategy = config.strategy()

    table = ErrorTable(case=config.case)
    for deg, pos in zip(config.marker_angles_deg, config.marker_positions()):
        stencil, weights = strategy.kernel_for(grid, pos)
        value = float(weights.psi @ gf.values[stencil.indices])
        exact = config.field(pos)
        denom = abs(exact)
        rel = abs(value - exact) / denom if denom > 0.0 else float("inf")
        live = weights.supported_psi()
        if live.size == 0:
            live = weights.psi
        table.rows.append(
            MarkerResult(
                marker_deg=float(deg),
                position=pos,
                rel_error=rel,
                psi_min=float(np.min(live)),
                psi_max=float(np.max(live)),
                eq_residual=weights.equality_residual,
                mode=weights.mode.value,
                weights=weights,
                stencil=stencil,
            )
        )
    return table


def validate_moments(weights, basis):
    """Per-basis-function residuals |Σ p_j(site_i)·ψ_i − p_j(eval)|."""
    psi = np.asarray(weights.psi, dtype=float).reshape(-1)
    if psi.shape[0] != weights.sites.shape[0]:
        raise LengthMismatch(
            f"{psi.shape[0]} weights for {weights.sites.shape[0]} sites"
        )
    if weights.sites.shape[1] != basis.dimension:
        raise LengthMismatch(
            f"sites have dimension {weights.sites.shape[1]}, "
            f"basis expects {basis.dimension}"
        )
    rows = basis.rows(weights.sites, weights.eval)
    return np.abs(rows @ psi - basis.at_eval())


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
