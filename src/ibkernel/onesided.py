"""Side classification and one-sided / bounded kernel generation.

A signed-distance function splits the support sites into a Plus region
(positive distance) and a Minus region (non-positive, ties included).
Restricting the weight matrix to the Plus side and re-solving the
constrained minimization yields kernels whose support never crosses the
interface; optional scalar bounds on the weights tame the resulting
over/undershoot.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientSupport, RankDeficientConstraints
from .kernels import as_sites, assemble_system
from .linalg import DEFAULT_TOLERANCES
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
    |x - center| - radius.
    """

    evaluator: object

    @classmethod
    def circle(cls, center, radius):
        center = np.asarray(center, dtype=float).reshape(-1)
        if not (radius > 0.0):
            raise ValueError("radius must be positive")

        def evaluator(point):
            point = np.asarray(point, dtype=float)
            return float(np.linalg.norm(point - center)) - radius

        return cls(evaluator)

    def evaluate(self, sites):
        sites = as_sites(sites)
        return np.array([float(self.evaluator(s)) for s in sites])


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


def restrict_weights(system, mask, tol=DEFAULT_TOLERANCES):
    """Zero the weights of Minus sites, keeping everything else.

    Raises
    ------
    InsufficientSupport
        Fewer surviving sites than basis functions.
    RankDeficientConstraints
        Surviving sites are geometrically degenerate (e.g. collinear for a
        linear basis), so the moment conditions lose row rank.
    """
    if len(mask) != system.n_sites:
        raise ValueError(
            f"mask length {len(mask)} != site count {system.n_sites}"
        )
    wdiag = np.where(mask.plus, system.Wdiag, 0.0)
    keep = wdiag > tol.zero_weight
    if int(np.count_nonzero(keep)) < system.n_basis:
        raise InsufficientSupport(
            f"restriction leaves {int(np.count_nonzero(keep))} supported "
            f"sites, need {system.n_basis}"
        )
    a_keep = system.A[:, keep]
    sv = np.linalg.svd(a_keep, compute_uv=False)
    if sv[-1] < tol.rank_pivot * sv[0]:
        raise RankDeficientConstraints(
            "restricted moment matrix lost row rank "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
        )
    return replace(system, Wdiag=wdiag)


def generate_one_sided_kernel(sites, eval_point, wf, basis, sd=None,
                              bounds=None, tol=DEFAULT_TOLERANCES):
    """Full pipeline: assemble, restrict to one side, minimize.

    With ``sd`` omitted the support is two-sided; with ``bounds`` omitted
    the solve is equality-only. Minus-side entries of the result are
    exactly zero; the solve mode records whether the equalities were met
    exactly or via the penalty fallback.
    """
    system = assemble_system(sites, eval_point, wf, basis, tol)
    if sd is not None:
        system = restrict_weights(system, classify_side(sd, system.sites), tol)
    return solve_generating_qp(
        system, bounds=bounds, tol=tol, source=KernelSource.PROBLEM_D
    )
