import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import kernel_kkt_residuals

from ibkernel.errors import LengthMismatch, RankDeficientConstraints
from ibkernel.experiments import (
    CASE_BOUNDS,
    CircleCaseConfig,
    compare_kernels,
    run_circle_case,
    validate_moments,
)
from ibkernel.kernels import (
    BasisDegree,
    assemble_system,
    build_basis,
    tensor_weight,
)
from ibkernel.onesided import KernelBounds
from ibkernel.qpsolve import QPProblem, phase1_feasible


class TestConfig:
    def test_defaults_are_case1(self):
        cfg = CircleCaseConfig()
        assert cfg.case == 1
        assert cfg.bounds is None
        assert cfg.mesh_width == 0.075
        assert cfg.radius == 0.5

    def test_for_case_wires_bounds(self):
        cfg3 = CircleCaseConfig.for_case(3)
        assert cfg3.bounds == KernelBounds(*CASE_BOUNDS[3])
        cfg4 = CircleCaseConfig.for_case(4)
        assert cfg4.bounds.alpha == 0.0
        assert cfg4.bounds.beta == 0.75

    def test_tuple_bounds_coerced(self):
        cfg = CircleCaseConfig(case=3, bounds=(-0.07, 0.5))
        assert isinstance(cfg.bounds, KernelBounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircleCaseConfig(case=5)
        with pytest.raises(ValueError):
            CircleCaseConfig(case=3)
        with pytest.raises(ValueError):
            CircleCaseConfig(case=1, bounds=(-0.07, 0.5))
        with pytest.raises(ValueError):
            CircleCaseConfig(radius=0.0)

    def test_json_shaped_input_converted(self):
        cfg = CircleCaseConfig(
            marker_angles_deg=[10, 20], center=[0, 0], radius=1,
            extents=[[-2, 2], [-2, 2]],
        )
        assert cfg.marker_angles_deg == (10.0, 20.0)
        assert all(type(v) is float for v in cfg.marker_angles_deg)
        assert cfg.center == (0.0, 0.0)
        assert cfg.extents == ((-2.0, 2.0), (-2.0, 2.0))
        assert type(cfg.radius) is float
        with pytest.raises(ValueError):
            CircleCaseConfig(mesh_width="abc")
        with pytest.raises(TypeError):
            CircleCaseConfig(field_coefficients=[10, None])

    def test_marker_positions(self):
        cfg = CircleCaseConfig()
        pos = cfg.marker_positions()
        ang = np.deg2rad(40.0)
        assert_allclose(pos[0], 0.5 * np.array([np.cos(ang), np.sin(ang)]))
        assert pos.shape == (4, 2)


@pytest.fixture(scope="module")
def table1():
    return run_circle_case(CircleCaseConfig.for_case(1))


@pytest.fixture(scope="module")
def table2():
    return run_circle_case(CircleCaseConfig.for_case(2))


@pytest.fixture(scope="module")
def table3():
    return run_circle_case(CircleCaseConfig.for_case(3))


@pytest.fixture(scope="module")
def table4():
    return run_circle_case(CircleCaseConfig.for_case(4))


class TestCase1:
    def test_errors_tiny(self, table1):
        assert table1.max_rel_error <= 1e-12

    def test_all_exact(self, table1):
        assert table1.modes == ["Exact"] * 4

    def test_matches_raw_tensor_weights(self, table1):
        cfg = CircleCaseConfig.for_case(1)
        wf = cfg.strategy().weight_function
        for row in table1.rows:
            raw = np.array(
                [tensor_weight(s, row.position, wf) for s in row.stencil.sites]
            )
            l2, linf = compare_kernels(row.weights, raw)
            assert l2 <= 1e-10
            assert linf <= 1e-10

    def test_moment_residuals(self, table1):
        basis = build_basis(2, BasisDegree.LINEAR)
        for row in table1.rows:
            assert np.max(validate_moments(row.weights, basis)) <= 1e-10


class TestCase2:
    def test_errors_tiny(self, table2):
        assert table2.max_rel_error <= 1e-12

    def test_weight_range_matches_reference(self, table2):
        assert table2.psi_min == pytest.approx(-0.3627, abs=1e-3)
        assert table2.psi_max == pytest.approx(0.9178, abs=1e-3)

    def test_negative_weights_present_per_marker(self, table2):
        for row in table2.rows:
            assert row.psi_min < -1e-3

    def test_support_outside_only(self, table2):
        cfg = CircleCaseConfig.for_case(2)
        for row in table2.rows:
            r = np.linalg.norm(row.stencil.sites, axis=1)
            inside = r <= cfg.radius
            assert np.all(row.weights.psi[inside] == 0.0)

    def test_moment_residuals(self, table2):
        basis = build_basis(2, BasisDegree.LINEAR)
        for row in table2.rows:
            assert np.max(validate_moments(row.weights, basis)) <= 1e-10


class TestCase3:
    def test_errors(self, table3):
        assert table3.max_rel_error <= 1e-8

    def test_bounds_respected(self, table3):
        assert table3.psi_min >= -0.07 - 1e-10
        assert table3.psi_max <= 0.5 + 1e-10

    def test_both_bounds_activate(self, table3):
        # the reference configuration pins weights at both box faces
        assert table3.psi_min == pytest.approx(-0.07, abs=1e-12)
        assert table3.psi_max == pytest.approx(0.5, abs=1e-12)

    def test_moment_residuals(self, table3):
        basis = build_basis(2, BasisDegree.LINEAR)
        for row in table3.rows:
            assert np.max(validate_moments(row.weights, basis)) <= 1e-10

    def test_all_exact(self, table3):
        assert table3.modes == ["Exact"] * 4


class TestCase4:
    def test_errors(self, table4):
        assert table4.max_rel_error <= 1e-5

    def test_no_negative_weights(self, table4):
        for row in table4.rows:
            assert np.min(row.weights.psi) >= -1e-10

    def test_bounds_respected(self, table4):
        assert table4.psi_min >= -1e-10
        assert table4.psi_max <= 0.75 + 1e-10

    def test_feasible_so_all_exact(self, table4):
        # the (0, 0.75) box is strictly feasible on every marker stencil,
        # so the active-set path finishes without the penalty fallback
        assert table4.modes == ["Exact"] * 4
        for row in table4.rows:
            assert row.eq_residual <= 1e-10


# Case-4 angles of the 0.5-degree sweep whose optimum leaves the moment
# Gram matrix of the free sites with condition number above 1e13 (2.8e13
# to 9.4e15 measured; every other feasible angle stays below 1.7e12), so
# the bounded solver raises RankDeficientConstraints there.
CASE4_RANK_DEFICIENT_DEG = (
    115.0, 115.5, 125.0, 125.5, 324.5, 325.0, 334.5, 335.0,
)


def _supported_system(cfg, row):
    """Moment rows, weights and moments of the solve behind one table row."""
    strategy = cfg.strategy()
    system = assemble_system(
        row.stencil.sites, row.position, strategy.weight_function,
        build_basis(2, strategy.degree), cfg.tolerances,
    )
    keep = row.weights.support
    return system.A[:, keep], system.Wdiag[keep], system.p


class TestSweeps:
    def test_case4_every_half_degree(self):
        for deg in CASE4_RANK_DEFICIENT_DEG:
            with pytest.raises(RankDeficientConstraints):
                run_circle_case(
                    CircleCaseConfig.for_case(4, marker_angles_deg=(deg,))
                )
        angles = [d for d in np.arange(720) * 0.5
                  if d not in CASE4_RANK_DEFICIENT_DEG]
        cfg = CircleCaseConfig.for_case(4, marker_angles_deg=angles)
        # Any other raise, MaxIterationsExceeded included, fails here.
        table = run_circle_case(cfg)
        for row in table.rows:
            a, w, p = _supported_system(cfg, row)
            problem = QPProblem(np.eye(w.size), a, p, lower=0.0, upper=0.75)
            feasible = phase1_feasible(problem, cfg.tolerances).feasible
            want = "Exact" if feasible else "SoftConstraint"
            assert row.mode == want, row.marker_deg
            if feasible:
                assert row.eq_residual <= 1e-10, row.marker_deg
            assert np.min(row.weights.psi) >= 0.0, row.marker_deg
            assert np.max(row.weights.psi) <= 0.75, row.marker_deg

    def test_case3_every_2_5_degrees_is_kkt_optimal(self):
        cfg = CircleCaseConfig.for_case(
            3, marker_angles_deg=np.arange(144) * 2.5
        )
        for row in run_circle_case(cfg).rows:
            assert row.mode == "Exact", row.marker_deg
            a, w, _ = _supported_system(cfg, row)
            stationarity, sign = kernel_kkt_residuals(
                row.weights.supported_psi(), w, a, -0.07, 0.5
            )
            assert max(stationarity, sign) <= 1e-9, row.marker_deg


def test_case_ordering_invariant():
    t1 = run_circle_case(CircleCaseConfig.for_case(1))
    t3 = run_circle_case(CircleCaseConfig.for_case(3))
    t4 = run_circle_case(CircleCaseConfig.for_case(4))
    assert t1.max_rel_error <= t3.max_rel_error <= t4.max_rel_error


def test_determinism():
    a = run_circle_case(CircleCaseConfig.for_case(3))
    b = run_circle_case(CircleCaseConfig.for_case(3))
    assert a.rel_errors.tolist() == b.rel_errors.tolist()
    for ra, rb in zip(a.rows, b.rows):
        assert ra.weights.psi.tolist() == rb.weights.psi.tolist()


class TestValidateMoments:
    def test_mollified_kernel_loses_first_moment(self):
        table = run_circle_case(CircleCaseConfig.for_case(2))
        basis = build_basis(2, BasisDegree.LINEAR)
        for row in table.rows:
            clipped = np.clip(row.weights.psi, 0.0, None)
            clipped /= clipped.sum()
            mollified = dataclasses.replace(row.weights, psi=clipped)
            res = validate_moments(mollified, basis)
            assert res[0] <= 1e-12
            assert np.max(res[1:]) > 1e-3

    def test_zero_weights_residual_pattern(self):
        table = run_circle_case(CircleCaseConfig.for_case(1))
        basis = build_basis(2, BasisDegree.LINEAR)
        row = table.rows[0]
        zeroed = dataclasses.replace(row.weights, psi=np.zeros_like(row.weights.psi))
        res = validate_moments(zeroed, basis)
        assert res[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(res[1:]) == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch(self):
        table = run_circle_case(CircleCaseConfig.for_case(1))
        basis = build_basis(2, BasisDegree.LINEAR)
        row = table.rows[0]
        short = dataclasses.replace(row.weights, psi=np.zeros(3))
        with pytest.raises(LengthMismatch):
            validate_moments(short, basis)
        with pytest.raises(LengthMismatch):
            validate_moments(row.weights, build_basis(3, BasisDegree.LINEAR))


class TestCompareKernels:
    def test_identical(self):
        table = run_circle_case(CircleCaseConfig.for_case(1))
        row = table.rows[0]
        assert compare_kernels(row.weights, row.weights.psi) == (0.0, 0.0)

    def test_single_entry_perturbation(self):
        table = run_circle_case(CircleCaseConfig.for_case(1))
        row = table.rows[0]
        other = row.weights.psi.copy()
        other[0] += 1e-3
        l2, linf = compare_kernels(row.weights, other)
        assert l2 == pytest.approx(1e-3, rel=1e-12)
        assert linf == pytest.approx(1e-3, rel=1e-12)

    def test_length_mismatch(self):
        table = run_circle_case(CircleCaseConfig.for_case(1))
        with pytest.raises(LengthMismatch):
            compare_kernels(table.rows[0].weights, np.zeros(2))
