import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import per_value_profile, tensor_weight

from ibkernel.errors import InsufficientSupport
from ibkernel.ibops import (
    KernelStrategy,
    interpolate,
    make_grid,
    sample_field,
    support_stencil,
)
from ibkernel.kernels import (
    _FEW_OFFSETS,
    BasisDegree,
    KernelWeights,
    WeightFunction,
    WeightKind,
    assemble_system,
    build_basis,
    eval_psi4,
    eval_psi6,
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

    def test_few_offsets_keep_the_bits_of_the_masked_branches(self):
        # Inputs of at most _FEW_OFFSETS values run per element; a long
        # array runs the masked branches. Every value must agree bitwise.
        rng = np.random.default_rng(7)
        edges = np.arange(-3.0, 4.0)
        r = np.concatenate([
            rng.uniform(-3.5, 3.5, 100_000), edges,
            np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            [-0.0, np.nan, np.inf, -np.inf, 1e-300],
        ])
        masked = eval_psi6(r)
        for size in (1, 5, 18, _FEW_OFFSETS):
            few = np.concatenate([eval_psi6(r[i:i + size])
                                  for i in range(0, r.size, size)])
            assert few.tobytes() == masked.tobytes(), size
        assert eval_psi6(r[:6].reshape(2, 3)).tobytes() == masked[:6].tobytes()

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
        # Infinite sizes are refused when built, not later by math.ceil in
        # support_stencil or by make_grid.
        with pytest.raises(ValueError, match="mesh_width"):
            WeightFunction.six_point_spline(np.inf)
        with pytest.raises(ValueError, match="radius_in_cells"):
            WeightFunction.custom1d(0.1, eval_psi6, np.inf)

    def test_tabulated_profile(self):
        wf = WeightFunction.from_table(
            1.0, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], radius_in_cells=1.0
        )
        assert wf.eval1d(0.0) == 1.0
        assert wf.eval1d(0.5) == pytest.approx(0.5)
        assert wf.eval1d(2.0) == 0.0
        assert_allclose(wf.eval1d(np.array([-0.5, 0.25])), [0.5, 0.75])

    def test_table_offsets_must_be_finite_and_increasing(self):
        # np.interp reads unsorted offsets without an error and gives a
        # wrong profile: shuffled ψ6 samples come out 0 everywhere.
        offsets = np.linspace(-3.0, 3.0, 13)
        values = eval_psi6(offsets)
        order = np.random.default_rng(0).permutation(13)
        for bad in ((offsets[order], values[order]),
                    ([-1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]),
                    ([-1.0, np.nan, 1.0], [0.0, 1.0, 0.0]),
                    ([-np.inf, 0.0, 1.0], [0.0, 1.0, 0.0])):
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                WeightFunction.from_table(0.075, *bad, radius_in_cells=3.0)
        wf = WeightFunction.from_table(0.075, offsets, values, 3.0)
        assert_allclose(wf.eval1d(offsets), values, rtol=0, atol=1e-16)

    def test_table_shapes_must_match(self):
        for offsets, values in (([-1.0, 0.0, 1.0], [0.0, 1.0]),
                                ([[-1.0, 0.0, 1.0]], [[0.0, 1.0, 0.0]])):
            with pytest.raises(ValueError, match="equal-length 1D"):
                WeightFunction.from_table(0.075, offsets, values, 3.0)

    def test_custom_profile_is_called_only_inside_its_radius(self):
        seen = []

        def profile(r):
            seen.append(np.array(r, dtype=float))
            return np.ones_like(r)

        wf = WeightFunction.custom1d(1.0, profile, 1.5)
        r = np.array([[-2.0, -1.5, -1.4999], [0.0, 1.5, 7.0]])
        assert_allclose(wf.eval1d(r), [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert wf.eval1d(1.5) == 0.0 and wf.eval1d(-0.25) == 1.0
        assert np.abs(np.concatenate([np.ravel(v) for v in seen])).max() < 1.5

    def test_custom_scalar_profile(self):
        # A profile is an array map. One written for one offset at a time
        # is refused at every entry point, by the error it raises on an
        # array or by eval1d's shape check, and per_value_profile ports it.
        def tent(r):
            return max(0.0, 1.0 - abs(r))

        ported = WeightFunction.custom1d(1.0, per_value_profile(tent), 1.0)
        assert_allclose(ported.eval1d(np.array([0.0, 0.5, 3.0])), [1.0, 0.5, 0.0])
        h, marker = 0.075, np.array([0.01, 0.02])
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], h)
        field = sample_field(grid, lambda c: 1.0)
        markers = np.array([marker, [0.3, -0.2], [-0.41, 0.17]])
        stencil = support_stencil(grid, marker, 2.5)
        basis = build_basis(2, BasisDegree.LINEAR)
        for profile, message in ((lambda r: tent(r / 2.5), "truth value"),
                                 (lambda r: 1.0, "weight profile Custom1D .* one value")):
            wf = WeightFunction.custom1d(h, profile, 2.5)
            strategy = KernelStrategy(wf)
            for build in (lambda: strategy.kernel_for(grid, marker),
                          lambda: interpolate(field, markers, strategy),
                          lambda: assemble_system(stencil.axes, marker, wf, basis),
                          lambda: assemble_system(stencil.sites, marker, wf, basis)):
                with pytest.raises(ValueError, match=message):
                    build()

    def test_custom_profile_is_named_only_when_refused(self):
        # A profile without __name__ is named by its repr, which eval1d
        # reads only to build the message of a refusal.
        class Tent:
            reprs = 0

            def __call__(self, r):
                return np.where(r < 0.5, 1.0 - np.abs(r), -1.0)

            def __repr__(self):
                Tent.reprs += 1
                return "Tent()"

        wf = WeightFunction.custom1d(1.0, Tent(), 1.0)
        assert_allclose(wf.eval1d(np.array([0.0, 0.25, 2.0])), [1.0, 0.75, 0.0])
        assert Tent.reprs == 0
        with pytest.raises(ValueError, match=r"profile Custom1D Tent\(\) gave -1"):
            wf.eval1d(np.array([0.75]))
        assert Tent.reprs == 1


def test_supported_psi_without_support_is_psi():
    kw = KernelWeights(psi=np.array([0.25, 0.0, 0.75]), sites=np.zeros((3, 1)),
                       eval=np.zeros(1), equality_residual=0.0)
    assert kw.supported_psi() is kw.psi


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

    # Assembly checks only its input; the solve refuses too little support.
    def test_insufficient_support(self):
        far = np.array([[10.0], [11.0], [12.0]])
        system = assemble_system(far, [0.0], self.wf, self.basis)
        with pytest.raises(InsufficientSupport):
            solve_generating_qp(system)

    def test_too_few_sites(self):
        system = assemble_system([[0.0]], [0.0], self.wf, self.basis)
        with pytest.raises(InsufficientSupport):
            solve_generating_qp(system)


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
