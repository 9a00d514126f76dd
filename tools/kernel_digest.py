"""One SHA-256 per group of kernels, to show that a change leaves them bitwise unchanged.

    python3 tools/kernel_digest.py

Imports ``ibkernel`` from the ``src/`` next to this file, so a copy of the
tool placed in another checkout digests that checkout. Five groups:

- ``circle``: the paper's circle cases 1-4 at 720 angles (0.5° apart),
  one ``kernel_for`` call per marker through
  ``CircleCaseConfig.for_case(case).strategy()``;
- ``sphere``: 150 markers of a Fibonacci sphere (radius 0.5, h = 0.075,
  extents ±0.9) under the unbounded, [-0.07, 0.5] and [0, 0.75]
  one-sided strategies;
- ``ellipse``: the paper's 720 circle markers with the case-2 and case-4
  settings, restricted to the outside of the ellipse
  (x/0.5)² + (y/0.35)² − 1 > 0 in place of the circle: an interface
  given by an array map other than ``SignedDistance.circle``;
- ``custom``: the same 720 markers with the case-2 and case-4 settings
  and a custom profile in place of ψ6: an array map 1e-4·ψ6 (most of a
  stencil's weight at or below the cut) and ψ6 tabulated every 0.1 cell
  and linearly interpolated by ``WeightFunction.from_table``;
- ``transfer``: the ``interpolate`` and ``spread`` outputs of one
  1,280-marker two-sided unbounded batch on a 512² grid.

A kernel enters its digest as its stencil indices, ψ bytes, solve mode
and equality residual, or as the class of the exception it raised. Each
group's digest hashes the digests of its parts in order, and after the
five group lines the tool prints each part's own: ``circle/1`` to
``circle/4`` by case, ``sphere/unbounded``, ``sphere/[-0.07,0.5]`` and
``sphere/[0,0.75]`` by strategy, ``ellipse/2`` and ``ellipse/4`` by
case, and ``custom/scaled/2`` to ``custom/table/4`` by profile and case.
They show which kernels kept their bits.

Right after the ``transfer`` line, ``transfer moves`` gives the largest
|batched − one-marker| of the interpolate and of the spread outputs, each
relative to the largest one-marker output: how far the batch sits from
one ``interpolate`` and one ``spread`` call per marker, so that a change
that moves the transfer digest can say by how much.
"""

import hashlib
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ibkernel import ibops  # noqa: E402
from ibkernel.errors import IBKernelError  # noqa: E402
from ibkernel.experiments import CircleCaseConfig  # noqa: E402
from ibkernel.kernels import BasisDegree, WeightFunction, eval_psi6  # noqa: E402
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


def ellipse_group():
    parts, outcomes = {}, Counter()
    angles = tuple(np.arange(720) * 0.5)

    def level(sites):
        u, v = sites[:, 0] / 0.5, sites[:, 1] / 0.35
        return u * u + v * v - 1.0

    for case in (2, 4):
        cfg = CircleCaseConfig.for_case(case, marker_angles_deg=angles)
        grid = ibops.make_grid(cfg.extents, cfg.mesh_width)
        strategy = replace(cfg.strategy(), signed_distance=SignedDistance(level))
        parts[f"ellipse/{case}"] = _digest_kernels(
            strategy, grid, cfg.marker_positions(), outcomes)
    return _combine(parts), outcomes, parts


def custom_group():
    parts, outcomes = {}, Counter()
    angles = tuple(np.arange(720) * 0.5)
    table = np.linspace(-3.0, 3.0, 61)

    def scaled_psi6(r):
        return 1e-4 * eval_psi6(r)

    for label, profile in (
        ("scaled", lambda h: WeightFunction.custom1d(h, scaled_psi6, 3.0)),
        ("table", lambda h: WeightFunction.from_table(h, table, eval_psi6(table), 3.0)),
    ):
        for case in (2, 4):
            cfg = CircleCaseConfig.for_case(case, marker_angles_deg=angles)
            grid = ibops.make_grid(cfg.extents, cfg.mesh_width)
            strategy = replace(cfg.strategy(), weight_function=profile(cfg.mesh_width))
            parts[f"custom/{label}/{case}"] = _digest_kernels(
                strategy, grid, cfg.marker_positions(), outcomes)
    return _combine(parts), outcomes, parts


def _transfer_case():
    """Grid, field, markers, spread values and strategy of the transfer group."""
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
    return grid, field, markers, rng.uniform(-2.0, 2.0, len(markers)), strategy


def transfer_group():
    grid, field, markers, spread_values, strategy = _transfer_case()
    values = ibops.interpolate(field, markers, strategy)
    spread = ibops.spread(spread_values, markers, grid, strategy)
    sha = hashlib.sha256(values.tobytes())
    sha.update(spread.values.tobytes())
    return sha, Counter(markers=len(markers)), {}


def transfer_moves():
    """The ``transfer moves`` line: batched against one-marker outputs."""
    grid, field, markers, spread_values, strategy = _transfer_case()
    batched = (ibops.interpolate(field, markers, strategy),
               ibops.spread(spread_values, markers, grid, strategy).values)
    single = (
        np.array([ibops.interpolate(field, x, strategy)[0] for x in markers[:, None]]),
        sum(ibops.spread(v, x, grid, strategy).values
            for v, x in zip(spread_values[:, None], markers[:, None])),
    )
    interp, spread = (np.max(np.abs(b - s)) / np.max(np.abs(s))
                      for b, s in zip(batched, single))
    return f"transfer moves  interpolate {interp:.1e}  spread {spread:.1e}"


def main():
    all_parts = {}
    for name, group in (("circle", circle_group), ("sphere", sphere_group),
                        ("ellipse", ellipse_group), ("custom", custom_group),
                        ("transfer", transfer_group)):
        sha, outcomes, parts = group()
        print(f"{name:8s} {sha.hexdigest()}  {dict(sorted(outcomes.items()))}")
        all_parts.update(parts)
    print(transfer_moves())
    for name, part in all_parts.items():
        print(f"{name:18s} {part.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
