"""The three workloads: inputs made from the seed, set-up, and timed rounds.

A workload object is built once per process (its set-up is what
``setup_s`` times) and then runs whole rounds. Every round attempts the
same operations, so the share of failed markers does not depend on how
long a run lasts. Only calls to ``ibops.interpolate`` and ``ibops.spread``
are timed; the checks run between them, untimed, with tracing paused.
"""

import time
from collections import Counter

import numpy as np

from ibkernel import ibops
from ibkernel.errors import IBKernelError
from ibkernel.kernels import BasisDegree, WeightFunction
from ibkernel.onesided import KernelBounds, SignedDistance

import checks

# Case-4 markers of the 0.5-degree circle sweep that raise today, by
# exception class: the bounded solver's fault (qpsolve.solve_box_qp hits its
# 50·n iteration cap, or _reduced_direction finds dependent rows
# inconsistent). A marker that fails must be one of these, with this class.
RANK_DEFICIENT_DEG = (115.0, 115.5, 125.0, 125.5, 324.5, 325.0, 334.5, 335.0)
MAX_ITERATIONS_DEG = (
    1.5, 60.5, 61.0, 88.0, 90.0, 96.5, 97.0, 106.5, 114.5, 116.5, 117.5,
    118.5, 123.0, 124.0, 124.5, 126.0, 126.5, 127.0, 127.5, 128.0, 160.5,
    161.5, 172.0, 173.0, 173.5, 174.0, 174.5, 175.5, 177.0, 177.5, 187.0,
    188.5, 223.5, 224.0, 224.5, 225.0, 263.0, 264.0, 264.5, 266.0, 267.0,
    268.5, 269.5, 270.0, 271.0, 272.0, 272.5, 273.0, 274.0, 274.5, 275.5,
    276.0, 276.5, 278.0, 280.0, 281.5, 288.5, 289.5, 321.5, 322.0, 323.0,
    323.5, 324.0, 325.5, 326.0, 327.0, 334.0, 335.5, 343.0, 353.0, 353.5,
)
KNOWN_FAILURES = {
    **{("case4", d): "RankDeficientConstraints" for d in RANK_DEFICIENT_DEG},
    **{("case4", d): "MaxIterationsExceeded" for d in MAX_ITERATIONS_DEG},
}

# The same solver also returns bounded kernels marked Exact whose moment or
# KKT residuals exceed the checks' tolerances (1e-10, 1e-9) by up to ~100x.
# Such a marker counts as failed with this class, not as a wrong result,
# as long as its residuals stay below INEXACT_LIMIT and nothing else is off.
INEXACT = "InexactKernel"
INEXACT_LIMIT = 1e-6


def unexpected_failures(failures):
    """Failures that are neither a named raise nor an inexact bounded kernel."""
    return [(label, cls) for label, cls in failures
            if cls != INEXACT and KNOWN_FAILURES.get(label) != cls]


class RoundStats:
    """What one round did: timed totals, counts and check problems."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.interp_n = 0
        self.interp_s = 0.0
        self.spread_n = 0
        self.spread_s = 0.0
        self.wall_s = 0.0
        self.failures = []          # (label, exception class)
        self.modes = Counter()
        self.problems = []          # check failures, as strings

    @property
    def timed_s(self):
        return self.interp_s + self.spread_s


def _strategy(h, setting):
    sd = None
    if setting.one_sided:
        sd = SignedDistance.circle(setting.center, setting.radius)
    bounds = KernelBounds(*setting.bounds) if setting.bounds is not None else None
    return ibops.KernelStrategy(
        weight_function=WeightFunction.six_point_spline(h),
        degree=BasisDegree.LINEAR,
        signed_distance=sd,
        bounds=bounds,
    )


class _Field:
    """A linear field g(x) = c·x, sampled by the program on its grid."""

    def __init__(self, grid, coefficients):
        self.c = np.asarray(coefficients, dtype=float)
        # Plain float arithmetic: sample_field calls this once per cell.
        a = tuple(float(c) for c in coefficients)
        self.grid_field = ibops.sample_field(
            grid,
            (lambda x: a[0] * x[0] + a[1] * x[1]) if len(a) == 2
            else (lambda x: a[0] * x[0] + a[1] * x[1] + a[2] * x[2]),
        )

    def __call__(self, point):
        return float(self.c @ point)


class PerMarkerWorkload:
    """Markers each given their own interpolate and spread call."""

    def __init__(self, extents, h, field_coefficients, settings, markers,
                 marker_setting, labels, v):
        self.grid = ibops.make_grid(extents, h)
        self.geom = checks.Geometry([lo for lo, _ in extents], h, self.grid.counts)
        self.field = _Field(self.grid, field_coefficients)
        self.field_scale = _field_scale(self.field.c, extents)
        self.settings = settings
        self.strategies = [_strategy(h, s) for s in settings]
        self.markers = markers
        self.marker_setting = marker_setting
        self.labels = labels
        self.v = v
        # Warm-up: one marker per strategy, which finishes lazy imports. It is
        # the lowest label, so where labels do not depend on the seed (the
        # circle sweep) neither do the traced call counts.
        for s, strategy in enumerate(self.strategies):
            k = min((k for k in range(len(markers))
                     if marker_setting[k] == s and labels[k] not in KNOWN_FAILURES),
                    key=lambda k: labels[k])
            x = markers[k:k + 1]
            ibops.interpolate(self.field.grid_field, x, strategy)
            ibops.spread(v[k:k + 1], x, self.grid, strategy)

    def run_round(self, paused):
        stats = RoundStats()
        start = time.perf_counter()
        for k in range(len(self.markers)):
            stats.attempted += 1
            strategy = self.strategies[self.marker_setting[k]]
            x = self.markers[k:k + 1]
            t0 = time.perf_counter()
            try:
                value = ibops.interpolate(self.field.grid_field, x, strategy)[0]
            except IBKernelError as exc:
                stats.interp_s += time.perf_counter() - t0
                stats.failures.append((self.labels[k], type(exc).__name__))
                continue
            t1 = time.perf_counter()
            stats.interp_s += t1 - t0
            stats.interp_n += 1
            try:
                spread = ibops.spread(self.v[k:k + 1], x, self.grid, strategy).values
            except IBKernelError as exc:
                stats.spread_s += time.perf_counter() - t1
                stats.failures.append((self.labels[k], type(exc).__name__))
                continue
            stats.spread_s += time.perf_counter() - t1
            stats.spread_n += 1
            with paused():
                problems, accuracy = self._check(k, strategy, value, spread, stats)
            bounded = self.settings[self.marker_setting[k]].bounds is not None
            if not problems:
                stats.passed += 1
            elif (bounded and accuracy <= INEXACT_LIMIT
                  and all(group == checks.ACCURACY for group, _ in problems)):
                stats.failures.append((self.labels[k], INEXACT))
            else:
                stats.problems.extend(f"{self.labels[k]}: {m}" for _, m in problems)
        stats.wall_s = time.perf_counter() - start
        return stats

    def _check(self, k, strategy, value, spread, stats):
        """The program's own kernel for marker k, checked with its outputs."""
        x = self.markers[k]
        stencil, kernel = strategy.kernel_for(self.grid, x)
        mode = kernel.mode.value
        stats.modes[mode] += 1
        psi_grid = np.zeros(self.geom.size)
        psi_grid[stencil.indices] = kernel.psi
        return checks.check_marker(
            self.geom, x, self.settings[self.marker_setting[k]], psi_grid, mode,
            value, spread, float(self.v[k]), self.field.grid_field.values,
            self.field(x), self.field_scale,
        )


def _field_scale(coefficients, extents):
    """max |c·x| over the domain."""
    return float(np.abs(coefficients) @ np.max(np.abs(np.asarray(extents)), axis=1))


def _rng(seed, name):
    return np.random.default_rng([seed, sum(map(ord, name))])


def _values(rng, n):
    """Spread strengths: magnitude in [0.5, 2], random sign."""
    return rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)


def circle_sweep(seed):
    """The paper's circle, cases 1-4, swept in 0.5-degree steps."""
    center, radius, h = (0.0, 0.0), 0.5, 0.075
    settings = [
        checks.Setting("case1"),
        checks.Setting("case2", center, radius),
        checks.Setting("case3", center, radius, (-0.07, 0.5)),
        checks.Setting("case4", center, radius, (0.0, 0.75)),
    ]
    angles = np.arange(720) * 0.5
    case = np.repeat(np.arange(4), angles.size)
    deg = np.tile(angles, 4)
    rng = _rng(seed, "circle_sweep")
    order = rng.permutation(case.size)
    case, deg = case[order], deg[order]
    rad = np.deg2rad(deg)
    markers = radius * np.stack([np.cos(rad), np.sin(rad)], axis=1)
    labels = [(settings[c].label, float(d)) for c, d in zip(case, deg)]
    return PerMarkerWorkload(
        ((-1.0, 1.0), (-1.0, 1.0)), h, (10.0, 5.0), settings, markers, case,
        labels, _values(rng, case.size),
    )


def sphere_3d(seed):
    """Seeded markers on a sphere, one-sided kernels cycling three settings."""
    center, radius, h = (0.0, 0.0, 0.0), 0.5, 0.075
    settings = [
        checks.Setting("unbounded", center, radius),
        checks.Setting("box_-0.07_0.5", center, radius, (-0.07, 0.5)),
        checks.Setting("box_0_0.75", center, radius, (0.0, 0.75)),
    ]
    rng = _rng(seed, "sphere_3d")
    n = SPHERE_MARKERS_PER_SETTING * len(settings)
    # A Fibonacci lattice turned by a seeded random rotation: every seed
    # covers the sphere evenly, so the mix of cut geometries, and with it
    # the work per round, varies little from seed to seed.
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    lattice = np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    markers = radius * lattice @ (q * np.sign(np.diag(r))).T
    setting = np.arange(n) % len(settings)
    labels = [(settings[s].label, k) for k, s in enumerate(setting)]
    return PerMarkerWorkload(
        ((-0.9, 0.9),) * 3, h, (10.0, 5.0, -3.0), settings, markers, setting,
        labels, _values(rng, n),
    )


SPHERE_MARKERS_PER_SETTING = 50


class TransferWorkload:
    """Two-sided unbounded kernels: one interpolate and one spread call per round."""

    def __init__(self, extents, h, field_coefficients, markers, v):
        self.grid = ibops.make_grid(extents, h)
        self.geom = checks.Geometry([lo for lo, _ in extents], h, self.grid.counts)
        self.field = _Field(self.grid, field_coefficients)
        self.field_scale = _field_scale(self.field.c, extents)
        self.strategy = _strategy(h, checks.Setting("two_sided"))
        self.markers = markers
        self.v = v
        ibops.interpolate(self.field.grid_field, markers[:1], self.strategy)
        ibops.spread(v[:1], markers[:1], self.grid, self.strategy)

    def run_round(self, paused):
        stats = RoundStats()
        n = len(self.markers)
        stats.attempted = n
        start = time.perf_counter()
        values = ibops.interpolate(self.field.grid_field, self.markers, self.strategy)
        t1 = time.perf_counter()
        spread = ibops.spread(self.v, self.markers, self.grid, self.strategy).values
        t2 = time.perf_counter()
        stats.interp_n, stats.interp_s = n, t1 - start
        stats.spread_n, stats.spread_s = n, t2 - t1
        with paused():
            stats.problems = checks.check_transfer(
                self.geom, self.markers, self.v, values, spread,
                self.field.grid_field.values, self.markers @ self.field.c,
                self.field_scale,
            )
        stats.passed = 0 if stats.problems else n
        stats.wall_s = time.perf_counter() - start
        return stats


TRANSFER_CIRCLES = 2
TRANSFER_MARKERS_PER_CIRCLE = 640


def transfer_2d(seed):
    """Markers h/2 apart on seeded circles in a 512^2 grid over [-1, 1]^2."""
    h = 2.0 / 512
    rng = _rng(seed, "transfer_2d")
    m = TRANSFER_MARKERS_PER_CIRCLE
    radius = m * (h / 2) / (2 * np.pi)
    circles = []
    for _ in range(TRANSFER_CIRCLES):
        center = rng.uniform(-0.6, 0.6, 2)
        theta = rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.arange(m) / m
        circles.append(center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    markers = np.concatenate(circles)
    return TransferWorkload(((-1.0, 1.0), (-1.0, 1.0)), h, (10.0, 5.0), markers,
                            _values(rng, len(markers)))
