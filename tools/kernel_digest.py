"""One SHA-256 per group of kernels, to show that a change leaves them bitwise unchanged.

    python3 tools/kernel_digest.py

Imports ``ibkernel`` from the ``src/`` next to this file, so a copy of the
tool placed in another checkout digests that checkout. Three groups:

- ``circle``: the paper's circle cases 1-4 at 720 angles (0.5° apart),
  one ``kernel_for`` call per marker through
  ``CircleCaseConfig.for_case(case).strategy()``;
- ``sphere``: 150 markers of a Fibonacci sphere (radius 0.5, h = 0.075,
  extents ±0.9) under the unbounded, [-0.07, 0.5] and [0, 0.75]
  one-sided strategies;
- ``transfer``: the ``interpolate`` and ``spread`` outputs of one
  1,280-marker two-sided unbounded batch on a 512² grid.

A kernel enters its digest as its stencil indices, ψ bytes, solve mode
and equality residual, or as the class of the exception it raised. Each
group's digest hashes the digests of its parts in order, and after the
three group lines the tool prints each part's own: ``circle/1`` to
``circle/4`` by case, and ``sphere/unbounded``, ``sphere/[-0.07,0.5]`` and
``sphere/[0,0.75]`` by strategy. They show which kernels kept their bits.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ibkernel import ibops  # noqa: E402
from ibkernel.errors import IBKernelError  # noqa: E402
from ibkernel.experiments import CircleCaseConfig  # noqa: E402
from ibkernel.kernels import BasisDegree, WeightFunction  # noqa: E402
from ibkernel.onesided import KernelBounds, SignedDistance  # noqa: E402


def _digest_kernels(strategy, grid, markers, outcomes):
    """Digest of ``strategy.kernel_for`` over ``markers``; tallies outcomes."""
    sha = hashlib.sha256()
    for marker in markers:
        try:
            stencil, weights = strategy.kernel_for(grid, marker)
        except IBKernelError as exc:
            sha.update(b"raised " + type(exc).__name__.encode())
            outcomes[type(exc).__name__] += 1
            continue
        sha.update(np.asarray(stencil.indices, dtype=np.int64).tobytes())
        sha.update(weights.psi.tobytes())
        sha.update(weights.mode.value.encode())
        sha.update(np.float64(weights.equality_residual).tobytes())
        outcomes[weights.mode.value] += 1
    return sha


def _combine(parts):
    """The group digest: a SHA-256 over its parts' digests, in order."""
    sha = hashlib.sha256()
    for part in parts.values():
        sha.update(part.digest())
    return sha


def circle_group():
    parts, outcomes = {}, Counter()
    angles = tuple(np.arange(720) * 0.5)
    for case in (1, 2, 3, 4):
        cfg = CircleCaseConfig.for_case(case, marker_angles_deg=angles)
        grid = ibops.make_grid(cfg.extents, cfg.mesh_width)
        parts[f"circle/{case}"] = _digest_kernels(
            cfg.strategy(), grid, cfg.marker_positions(), outcomes)
    return _combine(parts), outcomes, parts


def sphere_group():
    parts, outcomes = {}, Counter()
    n, radius, h = 150, 0.5, 0.075
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    markers = radius * np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    grid = ibops.make_grid(((-0.9, 0.9),) * 3, h)
    sd = SignedDistance.circle((0.0, 0.0, 0.0), radius)
    for label, bounds in (("unbounded", None),
                          ("[-0.07,0.5]", KernelBounds(-0.07, 0.5)),
                          ("[0,0.75]", KernelBounds(0.0, 0.75))):
        strategy = ibops.KernelStrategy(
            WeightFunction.six_point_spline(h), BasisDegree.LINEAR, sd, bounds,
        )
        parts[f"sphere/{label}"] = _digest_kernels(strategy, grid, markers, outcomes)
    return _combine(parts), outcomes, parts


def transfer_group():
    h, per_circle = 2.0 / 512, 640
    grid = ibops.make_grid(((-1.0, 1.0), (-1.0, 1.0)), h)
    rng = np.random.default_rng(0)
    radius = per_circle * (h / 2) / (2 * np.pi)
    theta = 2 * np.pi * np.arange(per_circle) / per_circle
    markers = np.concatenate([
        rng.uniform(-0.6, 0.6, 2) + radius * np.stack([np.cos(t), np.sin(t)], axis=1)
        for t in (theta + rng.uniform(0, 2 * np.pi), theta + rng.uniform(0, 2 * np.pi))
    ])
    field = ibops.GridField(grid.centers() @ np.array([10.0, 5.0]), grid)
    strategy = ibops.KernelStrategy(WeightFunction.six_point_spline(h))
    values = ibops.interpolate(field, markers, strategy)
    spread = ibops.spread(rng.uniform(-2.0, 2.0, len(markers)), markers, grid, strategy)
    sha = hashlib.sha256(values.tobytes())
    sha.update(spread.values.tobytes())
    return sha, Counter(markers=len(markers)), {}


def main():
    all_parts = {}
    for name, group in (("circle", circle_group), ("sphere", sphere_group),
                        ("transfer", transfer_group)):
        sha, outcomes, parts = group()
        print(f"{name:8s} {sha.hexdigest()}  {dict(sorted(outcomes.items()))}")
        all_parts.update(parts)
    for name, part in all_parts.items():
        print(f"{name:18s} {part.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
