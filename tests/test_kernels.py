import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose

from ibkernel.errors import InsufficientSupport
from ibkernel.kernels import (
    BasisDegree,
    KernelSource,
    WeightFunction,
    WeightKind,
    assemble_system,
    build_basis,
    eval_psi4,
    eval_psi6,
    tensor_weight,
)
from ibkernel.qpsolve import solve_generating_qp


# Polynomial branches written out independently of the implementation,
# used as the oracle for branch values and continuity.
def _branch1(k):
    return (-5 * k**5 + 90 * k**4 - 630 * k**3 + 2130 * k**2 - 3465 * k + 2193) / 60


def _branch2(k):
    return (5 * k**5 - 120 * k**4 + 1140 * k**3 - 5340 * k**2 + 12270 * k - 10974) / 120


def _branch3(k):
    return (-(k**5) + 30 * k**4 - 360 * k**3 + 2160 * k**2 - 6480 * k + 7776) / 120


class TestPsi6:
    def test_center_value(self):
        assert eval_psi6(0.0) == pytest.approx(0.55, abs=1e-15)
        assert eval_psi6(0.0) == pytest.approx(_branch1(3.0), abs=1e-15)

    def test_outside_support(self):
        assert eval_psi6(3.5) == 0.0
        assert eval_psi6(-3.0) == 0.0
        assert eval_psi6(3.0) == 0.0
        assert eval_psi6(100.0) == 0.0

    def test_branch_boundary_at_one(self):
        # both adjacent branches give 26/120 at kappa = 4
        left = _branch1(4.0)
        right = _branch2(4.0)
        assert left == pytest.approx(26.0 / 120.0, abs=1e-15)
        assert right == pytest.approx(26.0 / 120.0, abs=1e-15)
        assert eval_psi6(1.0) == pytest.approx(26.0 / 120.0, abs=1e-15)

    def test_branch_boundary_at_two(self):
        assert _branch2(5.0) == pytest.approx(1.0 / 120.0, abs=1e-15)
        assert _branch3(5.0) == pytest.approx(1.0 / 120.0, abs=1e-15)
        assert eval_psi6(2.0) == pytest.approx(1.0 / 120.0, abs=1e-15)

    def test_zero_at_outer_boundary(self):
        assert _branch3(6.0) == pytest.approx(0.0, abs=1e-15)
        assert eval_psi6(2.999999) == pytest.approx(0.0, abs=1e-12)

    def test_even_symmetry(self):
        npr.seed(2)
        r = npr.uniform(0, 3.5, size=50)
        assert_allclose(eval_psi6(-r), eval_psi6(r), rtol=0, atol=0)

    def test_integer_stencil_partition_of_unity(self):
        total = eval_psi6(0) + 2 * eval_psi6(1) + 2 * eval_psi6(2)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_reproducing_sums_random_shifts(self):
        npr.seed(5)
        offsets = np.arange(-2, 4)
        for s in npr.uniform(0, 1, size=200):
            vals = eval_psi6(offsets - s)
            assert abs(np.sum(vals) - 1.0) <= 1e-12
            assert abs(np.sum((offsets - s) * vals)) <= 1e-12

    def test_array_shape(self):
        r = np.array([[0.0, 1.0], [2.0, 4.0]])
        out = eval_psi6(r)
        assert out.shape == (2, 2)
        assert out[1, 1] == 0.0
        assert isinstance(eval_psi6(0.25), float)


class TestPsi4:
    def test_center_and_tails(self):
        assert eval_psi4(0.0) == pytest.approx(0.5, abs=1e-15)
        assert eval_psi4(2.0) == 0.0
        assert eval_psi4(-2.5) == 0.0

    def test_half_shift(self):
        assert eval_psi4(0.5) == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-15)
        assert eval_psi4(1.5) == pytest.approx((2 - np.sqrt(2)) / 8, abs=1e-15)

    def test_even_odd_sums(self):
        npr.seed(9)
        for s in npr.uniform(0, 1, size=40):
            vals = eval_psi4(np.arange(-1, 3) - s)
            assert abs(vals[1] + vals[3] - 0.5) <= 1e-12
            assert abs(vals[0] + vals[2] - 0.5) <= 1e-12


class TestWeightFunction:
    def test_kinds(self):
        wf = WeightFunction.six_point_spline(0.075)
        assert wf.kind is WeightKind.SIX_POINT_SPLINE
        assert wf.radius_in_cells == 3.0
        wf4 = WeightFunction.four_point_peskin(0.1)
        assert wf4.radius_in_cells == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightFunction.six_point_spline(0.0)
        with pytest.raises(ValueError):
            WeightFunction(WeightKind.CUSTOM_1D, 0.1, 2.0, profile=None)

    def test_tabulated_profile(self):
        wf = WeightFunction.from_table(
            1.0, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], radius_in_cells=1.0
        )
        assert wf.eval1d(0.0) == 1.0
        assert wf.eval1d(0.5) == pytest.approx(0.5)
        assert wf.eval1d(2.0) == 0.0
        assert_allclose(wf.eval1d(np.array([-0.5, 0.25])), [0.5, 0.75])

    def test_custom_scalar_profile(self):
        # non-vectorized profiles must still work
        wf = WeightFunction.custom1d(1.0, lambda r: max(0.0, 1.0 - abs(r)), 1.0)
        assert_allclose(wf.eval1d(np.array([0.0, 0.5, 3.0])), [1.0, 0.5, 0.0])


class TestTensorWeight:
    def test_at_eval_point(self):
        wf = WeightFunction.six_point_spline(0.075)
        w = tensor_weight([0.1, 0.2], [0.1, 0.2], wf)
        assert w == pytest.approx(0.3025, abs=1e-15)

    def test_one_cell_offset(self):
        h = 0.075
        wf = WeightFunction.six_point_spline(h)
        w = tensor_weight([h, 0.0], [0.0, 0.0], wf)
        assert w == pytest.approx(eval_psi6(1.0) * 0.55, abs=1e-15)

    def test_compact_support(self):
        h = 0.5
        wf = WeightFunction.six_point_spline(h)
        assert tensor_weight([3 * h, 0.1], [0.0, 0.1], wf) == 0.0


class TestBasis:
    def test_sizes(self):
        assert build_basis(2, BasisDegree.LINEAR).size == 3
        assert build_basis(1, BasisDegree.CONSTANT_ONLY).size == 1
        assert build_basis(3, BasisDegree.LINEAR).size == 4

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            build_basis(4, BasisDegree.LINEAR)
        with pytest.raises(ValueError):
            build_basis(2, "Linear")

    def test_shifted_rows(self):
        basis = build_basis(2, BasisDegree.LINEAR)
        sites = np.array([[1.0, 2.0], [1.5, 2.5]])
        rows = basis.rows(sites, [1.0, 2.0])
        assert_allclose(rows[0], [1.0, 1.0])
        assert_allclose(rows[1], [0.0, 0.5])
        assert_allclose(rows[2], [0.0, 0.5])
        assert_allclose(basis.at_eval(), [1.0, 0.0, 0.0])


class TestAssemble:
    def setup_method(self):
        self.h = 0.075
        self.wf = WeightFunction.six_point_spline(self.h)
        self.basis = build_basis(1, BasisDegree.LINEAR)
        self.sites = np.array([[-self.h], [0.0], [self.h]])

    def test_three_point_line(self):
        system = assemble_system(self.sites, [0.0], self.wf, self.basis)
        assert_allclose(system.A, [[1, 1, 1], [-self.h, 0.0, self.h]])
        assert_allclose(system.p, [1.0, 0.0])
        w1 = 26.0 / 120.0
        assert_allclose(system.Wdiag, [w1, 0.55, w1], atol=1e-15)

    def test_distinct_sites_required(self):
        with pytest.raises(ValueError):
            assemble_system([[0.0], [0.0], [1.0]], [0.0], self.wf, self.basis)
        # The repeated site is neither first nor adjacent to its twin, and
        # other sites share each of its coordinates.
        h = self.h
        sites = [[0.0, 0.0], [h, 0.0], [0.0, h], [h, h], [0.0, 0.0]]
        basis2 = build_basis(2, BasisDegree.LINEAR)
        with pytest.raises(ValueError):
            assemble_system(sites, [0.01, 0.01], self.wf, basis2)
        assemble_system(sites[:-1], [0.01, 0.01], self.wf, basis2)

    def test_insufficient_support(self):
        far = np.array([[10.0], [11.0], [12.0]])
        with pytest.raises(InsufficientSupport):
            assemble_system(far, [0.0], self.wf, self.basis)

    def test_too_few_sites(self):
        with pytest.raises(InsufficientSupport):
            assemble_system([[0.0]], [0.0], self.wf, self.basis)


def _uniform_wf():
    return WeightFunction.custom1d(
        1.0, lambda r: np.ones_like(np.asarray(r, dtype=float)), 2.0
    )


class TestClosedForm:
    """Ψ = W Aᵀ (A W Aᵀ)⁻¹ p, as the minimizer solve_generating_qp finds."""

    def test_uniform_weights_least_norm(self):
        basis = build_basis(1, BasisDegree.LINEAR)
        system = assemble_system(
            [[-1.0], [0.0], [1.0]], [0.0], _uniform_wf(), basis
        )
        kw = solve_generating_qp(system)
        assert_allclose(kw.psi, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
        assert kw.source is KernelSource.PROBLEM_B
        assert kw.equality_residual <= 1e-10

    def test_moment_satisfying_weights_pass_through(self):
        # psi6 on an on-center stencil already satisfies both moments,
        # so the minimization returns the raw weights themselves
        h = 0.25
        wf = WeightFunction.six_point_spline(h)
        basis = build_basis(1, BasisDegree.LINEAR)
        sites = h * np.arange(-2.0, 3.0)[:, None]
        system = assemble_system(sites, [0.0], wf, basis)
        kw = solve_generating_qp(system)
        assert_allclose(kw.psi, system.Wdiag, atol=1e-13)

    def test_moment_conditions_on_random_stencils(self):
        npr.seed(13)
        wf = WeightFunction.six_point_spline(1.0)
        basis = build_basis(2, BasisDegree.LINEAR)
        grid = np.array(
            [[i + 0.0, j + 0.0] for i in range(-3, 4) for j in range(-3, 4)]
        )
        for _ in range(20):
            ev = npr.uniform(-0.5, 0.5, size=2)
            system = assemble_system(grid, ev, wf, basis)
            kw = solve_generating_qp(system)
            assert np.max(np.abs(system.A @ kw.psi - system.p)) <= 1e-10


class TestProblemASide:
    def setup_method(self):
        npr.seed(17)
        self.basis = build_basis(2, BasisDegree.LINEAR)
        self.wf = WeightFunction.six_point_spline(1.0)
        self.sites = np.array(
            [[i + 0.0, j + 0.0] for i in range(-2, 3) for j in range(-2, 3)]
        )

    def test_matches_quasi_interpolant(self):
        # Problem A, the weighted least-squares fit of the data, takes the
        # value Ψᵀg at the evaluation point for Problem B's Ψ.
        for _ in range(10):
            ev = npr.uniform(-0.4, 0.4, size=2)
            system = assemble_system(self.sites, ev, self.wf, self.basis)
            data = npr.randn(len(self.sites))
            root = np.sqrt(system.Wdiag)
            c = np.linalg.lstsq(
                root[:, None] * system.A.T, root * data, rcond=None
            )[0]
            psi = solve_generating_qp(system).psi
            assert float(system.p @ c) == pytest.approx(psi @ data, abs=1e-12)
