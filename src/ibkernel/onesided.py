"""Side classification and one-sided / bounded kernel generation.

A signed-distance function splits the support sites into a Plus region
(positive distance) and a Minus region (non-positive, ties included).
It is an array map: an (N, d) float array of sites in, N finite signed
distances out, called once per stencil. A per-point function ``f``
becomes one as ``lambda s: np.array([f(p) for p in s])``.
Restricting the weight matrix to the Plus side and re-solving the
constrained minimization yields kernels whose support never crosses the
interface; optional scalar bounds on the weights tame the resulting
over/undershoot. This module only builds the restricted system;
``qpsolve.solve_generating_qp`` decides whether it can be solved.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSystem, as_sites, assemble_system
from .qpsolve import solve_generating_qp

__all__ = [
    "SignedDistance",
    "KernelBounds",
    "classify_side",
    "restrict_weights",
    "generate_one_sided_kernel",
]


@dataclass(frozen=True)
class SignedDistance:
    """Signed distance to an interface: positive outside, negative inside.

    ``evaluator`` maps an (N, d) float array of sites to N finite signed
    distances, one call per stencil; a site at distance 0 is on Minus. A
    per-point function ``f`` becomes such a map as
    ``lambda s: np.array([f(p) for p in s])``. ``evaluate`` checks the
    sites before the call and the distances after it. For circles and
    spheres use ``circle``, whose map is the exact |x - center| - radius.
    """

    evaluator: object

    @classmethod
    def circle(cls, center, radius):
        center = np.asarray(center, dtype=float).reshape(-1)
        if not (np.isfinite(center).all() and 0.0 < radius < np.inf):
            raise ValueError("center must be finite, radius positive and finite")

        def evaluator(sites):
            if sites.shape[1] != center.size:
                raise ValueError(
                    f"sites have dimension {sites.shape[1]}, expected {center.size}"
                )
            rel = sites - center
            return np.sqrt((rel * rel).sum(axis=1)) - radius

        return cls(evaluator)

    def evaluate(self, sites):
        sites = as_sites(sites)
        distances = np.asarray(self.evaluator(sites), dtype=float)
        if distances.shape != (len(sites),):
            raise ValueError(
                f"signed distances have shape {distances.shape}, expected ({len(sites)},)"
            )
        if not np.isfinite(distances).all():
            raise ValueError("signed distances contain non-finite values")
        return distances


@dataclass(frozen=True)
class KernelBounds:
    """Scalar box alpha ≤ Ψ_i ≤ beta on the supported sites only; the
    others (weightless or Minus side) stay 0, so the box need not hold 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha <= self.beta):
            raise ValueError("alpha must not exceed beta")


def classify_side(sd, sites):
    """(N,) bool, True where the distance is positive; ties go to Minus."""
    return sd.evaluate(sites) > 0.0


def restrict_weights(system, plus):
    """Zero the weights of Minus sites, keeping everything else.

    ``plus`` is any (N,) bool-like mask, True on Plus. Too few surviving
    sites, or survivors whose moment rows are dependent (collinear ones
    for a linear basis), are refused by the solve.
    """
    plus = np.asarray(plus, dtype=bool).reshape(-1)
    if len(plus) != system.n_sites:
        raise ValueError(
            f"mask length {len(plus)} != site count {system.n_sites}"
        )
    wdiag = np.where(plus, system.Wdiag, 0.0)
    return KernelSystem(system.A, wdiag, system.p, system.eval, system.sites)


def generate_one_sided_kernel(sites, eval_point, wf, basis, sd=None,
                              bounds=None):
    """Full pipeline: assemble, restrict to one side, minimize.

    ``sites`` takes either form ``assemble_system`` takes: (N, d) sites or
    ``SiteAxes``. Their input is checked there, and the solve checks the
    assembled system and the bounds as it does any other.
    With ``sd`` omitted the support is two-sided; with ``bounds`` omitted
    the solve is equality-only. Minus-side entries of the result are
    exactly zero; the solve mode records whether the equalities were met
    exactly or via the penalty fallback.
    """
    system = assemble_system(sites, eval_point, wf, basis)
    if sd is not None:
        plus = classify_side(sd, system.sites)
        system = restrict_weights(system, plus)
    return solve_generating_qp(system, bounds=bounds)
