"""Side classification and one-sided / bounded kernel generation.

A signed-distance function splits the support sites into a Plus region
(positive distance) and a Minus region (non-positive, ties included).
Restricting the weight matrix to the Plus side and re-solving the
constrained minimization yields kernels whose support never crosses the
interface; optional scalar bounds on the weights tame the resulting
over/undershoot. This module only builds the restricted system;
``qpsolve.solve_generating_qp`` decides whether it can be solved.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSystem, as_point, as_sites, assemble_system
from .qpsolve import KernelSource, solve_generating_qp

__all__ = [
    "SignedDistance",
    "SideMask",
    "KernelBounds",
    "classify_side",
    "restrict_weights",
    "generate_one_sided_kernel",
]


@dataclass(frozen=True)
class SignedDistance:
    """Signed distance to an interface: positive outside, negative inside.

    ``evaluator`` maps a d-vector to a signed real. For circles use the
    ``circle`` constructor, whose evaluator is the exact distance
    |x - center| - radius, computed for all sites at once by ``evaluate``.
    """

    evaluator: object

    @classmethod
    def circle(cls, center, radius):
        center = np.asarray(center, dtype=float).reshape(-1)
        if not (np.isfinite(center).all() and 0.0 < radius < np.inf):
            raise ValueError("center must be finite, radius positive and finite")

        def evaluator(point):  # evaluate's arithmetic, so the bits agree
            rel = as_point(point, center.size) - center
            return float(np.sqrt((rel * rel).sum())) - radius

        return _Circle(evaluator, tuple(center.tolist()), radius)

    def evaluate(self, sites):
        sites = as_sites(sites)
        return np.array([float(self.evaluator(s)) for s in sites])


@dataclass(frozen=True)
class _Circle(SignedDistance):
    """|x - center| - radius over all sites at once."""

    center: tuple
    radius: float

    def evaluate(self, sites):
        rel = as_sites(sites, len(self.center)) - self.center
        return np.sqrt((rel * rel).sum(axis=1)) - self.radius


@dataclass
class SideMask:
    """Per-site classification; ``plus`` is True where the site is outside."""

    plus: np.ndarray

    def __post_init__(self):
        self.plus = np.asarray(self.plus, dtype=bool).reshape(-1)

    def __len__(self):
        return self.plus.shape[0]

    @property
    def n_plus(self):
        return int(np.count_nonzero(self.plus))

    @property
    def n_minus(self):
        return len(self) - self.n_plus


@dataclass(frozen=True)
class KernelBounds:
    """Scalar box alpha ≤ Ψ_i ≤ beta applied to every weight."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha <= self.beta):
            raise ValueError("alpha must not exceed beta")


def classify_side(sd, sites):
    """Classify each site by the sign of the distance; ties go to Minus."""
    return SideMask(sd.evaluate(sites) > 0.0)


def restrict_weights(system, mask):
    """Zero the weights of Minus sites, keeping everything else.

    Too few surviving sites, or survivors whose moment rows are dependent
    (collinear ones for a linear basis), are refused by the solve.
    """
    if len(mask) != system.n_sites:
        raise ValueError(
            f"mask length {len(mask)} != site count {system.n_sites}"
        )
    wdiag = np.where(mask.plus, system.Wdiag, 0.0)
    return KernelSystem(system.A, wdiag, system.p, system.eval, system.sites)


def generate_one_sided_kernel(sites, eval_point, wf, basis, sd=None,
                              bounds=None):
    """Full pipeline: assemble, restrict to one side, minimize.

    With ``sd`` omitted the support is two-sided; with ``bounds`` omitted
    the solve is equality-only. Minus-side entries of the result are
    exactly zero; the solve mode records whether the equalities were met
    exactly or via the penalty fallback.
    """
    system = assemble_system(sites, eval_point, wf, basis)
    if sd is not None:
        system = restrict_weights(system, classify_side(sd, system.sites))
    return solve_generating_qp(system, bounds=bounds, source=KernelSource.PROBLEM_D)
