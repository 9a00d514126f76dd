"""Each of the benchmark's checks rejects a wrong result built here.

Run with ``python3 -m pytest bench``. The correct kernels come from the
benchmark's own closed form, so these tests do not depend on the program.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks

H = 0.075
GEOM = checks.Geometry((-1.0, -1.0), H, (27, 27))
COEF = np.array([10.0, 5.0])
FIELD = GEOM.all_centers() @ COEF
SCALE = 15.0
CENTER, RADIUS = (0.0, 0.0), 0.5
X = RADIUS * np.array([np.cos(np.deg2rad(40.0)), np.sin(np.deg2rad(40.0))])
V = -1.3


def _one_sided_kernel():
    """Closed-form one-sided kernel at X on the grid, and its local pieces."""
    idx = GEOM.stencil(X)
    sites = GEOM.centers(idx)
    w = checks.weights(sites, X, H)
    plus = checks.signed_distance(sites, CENTER, RADIUS) > 0.0
    psi = checks.closed_form(np.where(plus, w, 0.0), checks.moment_rows(sites, X, H))
    psi_grid = np.zeros(GEOM.size)
    psi_grid[idx] = psi
    return psi_grid, idx, sites, plus


def _check(setting, psi_grid, mode="Exact", spread=None):
    """Run check_marker on outputs made consistently from ``psi_grid``."""
    value = psi_grid @ FIELD
    if spread is None:
        spread = V * psi_grid
    problems, _ = checks.check_marker(GEOM, X, setting, psi_grid, mode, value,
                                      spread, V, FIELD, X @ COEF, SCALE)
    return [message for _, message in problems]


def _box_setting(psi_grid):
    """A box whose upper bound pins the largest weight exactly."""
    return checks.Setting("box", CENTER, RADIUS,
                          (float(psi_grid.min()) - 0.01, float(psi_grid.max())))


def test_psi6_reproducing_sums():
    assert checks.check_psi6_profile() == []


def test_psi6_profile_check_rejects_a_wrong_profile(monkeypatch):
    good = checks.psi6
    monkeypatch.setattr(checks, "psi6", lambda r: good(np.asarray(r) * 1.001))
    assert checks.check_psi6_profile()


def test_correct_kernels_pass():
    psi_grid, *_ = _one_sided_kernel()
    assert _check(checks.Setting("case2", CENTER, RADIUS), psi_grid) == []
    assert _check(_box_setting(psi_grid), psi_grid) == []


def test_linear_moment_off_by_1e_6_is_rejected():
    psi_grid, idx, sites, plus = _one_sided_kernel()
    kept = idx[plus & (checks.weights(sites, X, H) > 0.01)]
    i, j = kept[0], kept[-1]
    dx = GEOM.centers(i)[0] - GEOM.centers(j)[0]
    assert abs(dx) > H / 2
    wrong = psi_grid.copy()
    wrong[i] += 1e-6 / dx
    wrong[j] -= 1e-6 / dx
    # Constant moment kept, first linear moment off by 1e-6.
    assert abs(wrong.sum() - 1.0) < 1e-13
    assert abs((wrong - psi_grid) @ GEOM.all_centers()[:, 0] - 1e-6) < 1e-12
    for setting in (checks.Setting("case2", CENTER, RADIUS), _box_setting(psi_grid)):
        problems = _check(setting, wrong)
        assert "linear field not reproduced" in problems
        assert "spread does not conserve the linear moment" in problems
    assert "unbounded kernel differs from the closed form" in _check(
        checks.Setting("case2", CENTER, RADIUS), wrong)


def test_weight_1e_6_outside_its_box_is_rejected():
    psi_grid, *_ = _one_sided_kernel()
    setting = _box_setting(psi_grid)
    wrong = psi_grid.copy()
    wrong[np.argmax(wrong)] += 1e-6
    assert "weight outside its box" in _check(setting, wrong)


def test_weight_on_a_minus_side_site_is_rejected():
    psi_grid, idx, sites, plus = _one_sided_kernel()
    wrong = psi_grid.copy()
    wrong[idx[~plus][0]] = 1e-6
    problems = _check(checks.Setting("case2", CENTER, RADIUS), wrong)
    assert "Minus-side site carries weight" in problems


def test_soft_constraint_where_the_box_can_be_met_is_rejected():
    psi_grid, *_ = _one_sided_kernel()
    setting = _box_setting(psi_grid)
    problems = _check(setting, psi_grid, mode="SoftConstraint")
    assert any(p.startswith("mode SoftConstraint but LP box margin") for p in problems)


def test_exact_where_the_box_cannot_be_met_is_rejected():
    psi_grid, *_ = _one_sided_kernel()
    setting = checks.Setting("tight", CENTER, RADIUS, (0.0, 0.05))
    problems = _check(setting, np.clip(psi_grid, 0.0, 0.05), mode="Exact")
    assert any(p.startswith("mode Exact but LP box margin") for p in problems)


def test_feasible_but_not_optimal_bounded_kernel_fails_kkt():
    psi_grid, idx, sites, plus = _one_sided_kernel()
    keep = plus & (checks.weights(sites, X, H) > checks.ZERO_WEIGHT)
    a_rows = checks.moment_rows(sites[keep], X, H)
    # A direction that keeps every moment: the null space of Aᵀ.
    null = np.linalg.svd(a_rows.T)[2][-1]
    wrong = psi_grid.copy()
    wrong[idx[keep]] += 1e-6 * null / np.max(np.abs(null))
    problems = _check(checks.Setting("wide", CENTER, RADIUS, (-1.0, 1.0)), wrong)
    assert any(p.startswith("bounded kernel fails KKT") for p in problems)
    assert "linear field not reproduced" not in problems


def test_spread_that_loses_mass_is_rejected():
    psi_grid, idx, *_ = _one_sided_kernel()
    spread = V * psi_grid
    spread[idx[np.argmax(psi_grid[idx])]] *= 0.999
    problems = _check(checks.Setting("case2", CENTER, RADIUS), psi_grid, spread=spread)
    assert "spread does not conserve the constant moment" in problems
    assert "spread disagrees with the kernel" in problems


def _transfer_pass(markers, v):
    """A correct batched pass made from the closed form."""
    idx = np.stack([GEOM.stencil(x) for x in markers])
    sites = GEOM.centers(idx)
    psi = checks.closed_form(checks.weights(sites, markers[:, None, :], H),
                             checks.moment_rows(sites, markers[:, None, :], H))
    values = np.sum(psi * FIELD[idx], axis=1)
    spread = np.bincount(idx.ravel(), weights=(v[:, None] * psi).ravel(),
                         minlength=GEOM.size)
    return values, spread


def test_transfer_check_passes_and_rejects_lost_mass():
    rng = np.random.default_rng(0)
    markers = rng.uniform(-0.6, 0.6, (40, 2))
    v = rng.uniform(0.5, 2.0, 40)
    values, spread = _transfer_pass(markers, v)
    args = (GEOM, markers, v, values)
    tail = (FIELD, markers @ COEF, SCALE)
    assert checks.check_transfer(*args, spread, *tail) == []
    problems = checks.check_transfer(*args, spread * (1 - 1e-6), *tail)
    assert "spread does not conserve the constant moment" in problems
    off = values.copy()
    off[3] += 1e-6
    assert "linear field not reproduced at 1 markers" in checks.check_transfer(
        GEOM, markers, v, off, spread, *tail)


def test_tracer_counts_calls_and_restores_the_program():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    pytest.importorskip("ibkernel")
    from ibkernel import ibops, qpsolve
    from ibkernel.kernels import WeightFunction
    import tracing

    originals = (ibops.interpolate, qpsolve.solve_kkt)
    grid = ibops.make_grid(((-1.0, 1.0), (-1.0, 1.0)), H)
    strategy = ibops.KernelStrategy(WeightFunction.six_point_spline(H))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        field = ibops.sample_field(grid, lambda c: float(c @ COEF))
        t0 = time.perf_counter()
        ibops.interpolate(field, X[None, :], strategy)
        wall = time.perf_counter() - t0
        with tracer.paused():
            ibops.interpolate(field, X[None, :], strategy)
    finally:
        tracer.uninstall()
    assert (ibops.interpolate, qpsolve.solve_kkt) == originals
    assert tracer.missing == []
    m = {k: v["value"] for k, v in tracer.metrics().items()}
    for name in ("ibops.interpolate", "ibops.sample_field", "linalg.solve_kkt",
                 "qpsolve.solve_eq_qp", "kernels.assemble_system"):
        assert m[f"{name}.calls"] == 1
    assert m["qpsolve.solve_box_qp.calls"] == 0
    assert m["onesided.classify_side.calls"] == 0
    # Self times partition the call: none negative, and they add up to at
    # most its wall time.
    inside = [m[f"{name}.self_s"] for name, _ in tracing.TRACED
              if name != "ibops.sample_field"]
    assert min(inside) >= 0.0
    assert 0.0 < sum(inside) <= wall
