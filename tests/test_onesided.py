from collections import Counter

import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import kernel_kkt_residuals

from ibkernel.errors import InsufficientSupport, RankDeficientConstraints
from ibkernel.experiments import CircleCaseConfig
from ibkernel.kernels import (
    BasisDegree,
    KernelSource,
    SolveMode,
    WeightFunction,
    assemble_system,
    build_basis,
    eval_psi6,
)
from ibkernel.ibops import KernelStrategy, make_grid, support_stencil
from ibkernel.qpsolve import QPProblem, phase1_feasible, solve_generating_qp
from ibkernel.onesided import (
    KernelBounds,
    SideMask,
    SignedDistance,
    classify_side,
    generate_one_sided_kernel,
    restrict_weights,
)


class TestSignedDistance:
    def test_circle_values(self):
        sd = SignedDistance.circle([0.0, 0.0], 0.5)
        assert sd.evaluator([0.6, 0.0]) == pytest.approx(0.1, abs=1e-15)
        assert sd.evaluator([0.3, 0.0]) == pytest.approx(-0.2, abs=1e-15)
        assert sd.evaluator([0.5, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_evaluate_batch(self):
        sd = SignedDistance.circle([1.0, 1.0], 1.0)
        vals = sd.evaluate([[1.0, 1.0], [3.0, 1.0]])
        assert_allclose(vals, [-1.0, 1.0])

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            SignedDistance.circle([0.0, 0.0], 0.0)

    def test_center_dimension_must_match_sites(self):
        # A one-entry center is not broadcast over both axes, by either
        # the all-sites ``evaluate`` or the per-point evaluator.
        for center in ([0.0], [0.0, 0.0, 0.0]):
            sd = SignedDistance.circle(center, 0.5)
            with pytest.raises(ValueError):
                sd.evaluate([[0.6, 0.0]])
            with pytest.raises(ValueError):
                sd.evaluator([0.6, 0.0])

    def test_custom_evaluator(self):
        # half-plane x > 0.25
        sd = SignedDistance(lambda p: p[0] - 0.25)
        mask = classify_side(sd, [[0.0, 5.0], [0.3, -5.0]])
        assert not mask.plus[0]
        assert mask.plus[1]


def _bench_one_sided_stencils():
    """Support sites of the benchmark's one-sided markers.

    The circle sweep's cases 2-4 share the paper's 720 half-degree markers
    on r = 0.5, h = 0.075; the sphere workload puts 150 markers of a
    rotated Fibonacci lattice on r = 0.5 in [-0.9, 0.9]^3 for seeds 1-3.
    """
    grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
    rad = np.deg2rad(np.arange(720) * 0.5)
    for x in 0.5 * np.stack([np.cos(rad), np.sin(rad)], axis=1):
        yield support_stencil(grid, x, 3.0).sites
    grid = make_grid([(-0.9, 0.9)] * 3, 0.075)
    n = 150
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    lattice = np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, sum(map(ord, "sphere_3d"))])
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        for x in 0.5 * lattice @ (q * np.sign(np.diag(r))).T:
            yield support_stencil(grid, x, 3.0).sites


def _per_point_mask(sd, sites):
    """The side mask from one ``evaluator`` call per site."""
    return classify_side(SignedDistance(sd.evaluator), sites).plus


def test_vectorised_circle_gives_the_per_point_masks():
    circle, sphere = (
        SignedDistance.circle([0.0] * d, 0.5) for d in (2, 3)
    )
    n = 0
    for sites in _bench_one_sided_stencils():
        sd = circle if sites.shape[1] == 2 else sphere
        mask = classify_side(sd, sites).plus
        assert mask.tobytes() == _per_point_mask(sd, sites).tobytes()
        per_point = SignedDistance(sd.evaluator).evaluate(sites)
        assert sd.evaluate(sites).tobytes() == per_point.tobytes()
        n += 1
    assert n == 720 + 3 * 150


@pytest.mark.parametrize("radius", [0.5, 0.3, 0.1])
def test_sites_on_the_circle_go_minus_in_both_paths(radius):
    for d in (2, 3):
        sd = SignedDistance.circle([0.0] * d, radius)
        on = np.vstack([radius * np.eye(d), -radius * np.eye(d)])
        assert not classify_side(sd, on).plus.any()
        assert not _per_point_mask(sd, on).any()


class TestClassify:
    def test_ties_to_minus(self):
        sd = SignedDistance.circle([0.0, 0.0], 0.5)
        mask = classify_side(sd, [[0.6, 0.0], [0.3, 0.0], [0.5, 0.0]])
        assert mask.plus.tolist() == [True, False, False]
        assert mask.n_plus == 1
        assert mask.n_minus == 2
        assert len(mask) == 3

    def test_mask_coercion(self):
        mask = SideMask([1, 0, 1])
        assert mask.plus.dtype == bool
        assert mask.n_plus == 2


class TestKernelBounds:
    def test_valid(self):
        kb = KernelBounds(-0.07, 0.5)
        assert kb.alpha == -0.07 and kb.beta == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            KernelBounds(0.5, -0.07)


def _square_system(eval_point=(0.05, 0.05), h=0.1, half=3):
    wf = WeightFunction.six_point_spline(h)
    basis = build_basis(2, BasisDegree.LINEAR)
    centers = h * (np.arange(-half, half + 1) + 0.5)
    sites = np.array([[x, y] for x in centers for y in centers])
    return assemble_system(sites, eval_point, wf, basis), sites


class TestRestrict:
    def test_all_plus_is_identity(self):
        system, sites = _square_system()
        sd = SignedDistance(lambda p: 1.0)
        restricted = restrict_weights(system, classify_side(sd, sites))
        assert_allclose(restricted.Wdiag, system.Wdiag)
        assert_allclose(restricted.A, system.A)

    def test_all_minus_insufficient(self):
        system, sites = _square_system()
        sd = SignedDistance(lambda p: -1.0)
        restricted = restrict_weights(system, classify_side(sd, sites))
        with pytest.raises(InsufficientSupport):
            solve_generating_qp(restricted)

    def test_collinear_survivors_lose_rank(self):
        system, sites = _square_system()
        # keep the single row of sites through the evaluation point: the
        # y-moment row is then identically zero and the system loses rank,
        # which the solve refuses with or without a box
        mask = SideMask(np.abs(sites[:, 1] - 0.05) < 1e-12)
        assert mask.n_plus >= system.n_basis
        restricted = restrict_weights(system, mask)
        for bounds in (None, (0.0, 0.75), (-0.07, 0.5)):
            with pytest.raises(RankDeficientConstraints):
                solve_generating_qp(restricted, bounds=bounds)

    def test_mask_length_checked(self):
        system, _ = _square_system()
        with pytest.raises(ValueError):
            restrict_weights(system, SideMask(np.ones(3, dtype=bool)))

    def test_minus_weights_zeroed(self):
        system, sites = _square_system()
        sd = SignedDistance(lambda p: p[0])
        mask = classify_side(sd, sites)
        restricted = restrict_weights(system, mask)
        assert np.all(restricted.Wdiag[~mask.plus] == 0.0)
        assert_allclose(restricted.Wdiag[mask.plus], system.Wdiag[mask.plus])


class TestGenerate:
    def setup_method(self):
        self.h = 0.1
        self.wf = WeightFunction.six_point_spline(self.h)
        self.basis = build_basis(2, BasisDegree.LINEAR)
        centers = self.h * (np.arange(-3, 4) + 0.5)
        self.sites = np.array([[x, y] for x in centers for y in centers])

    def test_two_sided_on_center(self):
        # evaluation at a grid node: the raw tensor weights already meet
        # the moment conditions, so the minimizer returns them unchanged
        ev = [0.05, 0.05]
        kw = generate_one_sided_kernel(self.sites, ev, self.wf, self.basis)
        system = assemble_system(self.sites, ev, self.wf, self.basis)
        assert_allclose(kw.psi, system.Wdiag, atol=1e-13)
        assert kw.source is KernelSource.PROBLEM_D
        assert kw.mode is SolveMode.EXACT

    def test_one_sided_zeros_minus_side(self):
        sd = SignedDistance(lambda p: p[0] - 0.02)
        ev = [0.05, 0.05]
        kw = generate_one_sided_kernel(
            self.sites, ev, self.wf, self.basis, sd=sd
        )
        mask = classify_side(sd, self.sites)
        assert np.all(kw.psi[~mask.plus] == 0.0)
        assert np.all(~kw.support[~mask.plus])
        system = assemble_system(self.sites, ev, self.wf, self.basis)
        assert np.max(np.abs(system.A @ kw.psi - system.p)) <= 1e-10

    def test_bounds_respected(self):
        sd = SignedDistance.circle([0.0, 0.0], 0.25)
        kb = KernelBounds(-0.07, 0.5)
        kw = generate_one_sided_kernel(
            self.sites, [0.3, 0.05], self.wf, self.basis, sd=sd, bounds=kb
        )
        live = kw.psi[kw.support]
        assert np.all(live >= kb.alpha - 1e-10)
        assert np.all(live <= kb.beta + 1e-10)
        assert kw.equality_residual <= 1e-10

    def test_tighter_bounds_cost_more(self):
        # the feasible set nests, so the minimum value cannot decrease
        sd = SignedDistance.circle([0.0, 0.0], 0.25)
        ev = [0.3, 0.05]
        system = assemble_system(self.sites, ev, self.wf, self.basis)
        restricted = restrict_weights(system, classify_side(sd, self.sites))
        keep = restricted.Wdiag > 0.0

        def cost(kw):
            live = kw.psi[keep]
            return float(live @ (live / restricted.Wdiag[keep]))

        tight = generate_one_sided_kernel(
            self.sites, ev, self.wf, self.basis, sd=sd,
            bounds=KernelBounds(-0.07, 0.5),
        )
        loose = generate_one_sided_kernel(
            self.sites, ev, self.wf, self.basis, sd=sd,
            bounds=KernelBounds(-0.2, 1.0),
        )
        assert tight.mode is SolveMode.EXACT
        assert loose.mode is SolveMode.EXACT
        assert cost(tight) >= cost(loose) - 1e-12

    def test_bounds_excluding_zero_with_elimination(self):
        sd = SignedDistance(lambda p: p[0] - 0.02)
        with pytest.raises(Exception) as err:
            generate_one_sided_kernel(
                self.sites, [0.05, 0.05], self.wf, self.basis, sd=sd,
                bounds=KernelBounds(0.1, 0.5),
            )
        assert err.typename in ("Infeasible",)

    def test_random_one_sided_moments(self):
        npr.seed(43)
        sd = SignedDistance.circle([0.0, 0.0], 0.3)
        centers = self.h * (np.arange(-7, 8) + 0.5)
        sites = np.array([[x, y] for x in centers for y in centers])
        mask = classify_side(sd, sites)
        for _ in range(10):
            ang = npr.uniform(0, 2 * np.pi)
            ev = 0.3 * np.array([np.cos(ang), np.sin(ang)])
            ev += npr.uniform(-0.01, 0.01, size=2)
            system = assemble_system(sites, ev, self.wf, self.basis)
            kw = generate_one_sided_kernel(
                sites, ev, self.wf, self.basis, sd=sd
            )
            assert np.max(np.abs(system.A @ kw.psi - system.p)) <= 1e-9
            assert np.all(kw.psi[~mask.plus] == 0.0)


def test_sphere_boxes():
    # 20 markers of a Fibonacci lattice on the sphere r = 0.5, each kernel
    # restricted to the outside (as generate_one_sided_kernel does) and
    # solved in both boxes.
    h, n = 0.075, 20
    grid = make_grid([(-0.9, 0.9)] * 3, h)
    wf = WeightFunction.six_point_spline(h)
    basis = build_basis(3, BasisDegree.LINEAR)
    sd = SignedDistance.circle(np.zeros(3), 0.5)
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    markers = 0.5 * np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    for marker in markers:
        sites = support_stencil(grid, marker, wf.radius_in_cells).sites
        mask = classify_side(sd, sites)
        system = restrict_weights(assemble_system(sites, marker, wf, basis), mask)
        keep = system.Wdiag > 1e-14
        for alpha, beta in ((-0.07, 0.5), (0.0, 0.75)):
            kw = solve_generating_qp(system, bounds=KernelBounds(alpha, beta))
            psi = kw.psi
            # Exact, as phase-1 independently finds the box feasible.
            assert kw.mode is SolveMode.EXACT
            problem = QPProblem(
                1.0 / system.Wdiag[keep], system.A[:, keep], system.p,
                lower=alpha, upper=beta,
            )
            assert phase1_feasible(problem).feasible
            assert np.max(np.abs(system.A @ psi - system.p)) <= 1e-10
            assert np.all(psi >= alpha) and np.all(psi <= beta)
            assert np.all(psi[~mask.plus] == 0.0)
            residuals = kernel_kkt_residuals(
                psi[keep], system.Wdiag[keep], system.A[:, keep], alpha, beta
            )
            assert max(residuals) <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
def test_scaled_weight_profile_gives_the_psi6_kernel(scale):
    # Scaling W leaves the kernel unchanged, yet c·ψ6 keeps sites down to
    # ψ6 = 1e-14/c, so W⁻¹ spans more than 1e14. A relative Cholesky pivot
    # floor refused 7 of these two-sided markers at c = 1e2 and 1e4.
    h = 0.075
    grid = make_grid(((-1.0, 1.0), (-1.0, 1.0)), h)
    c = grid.axis_centers(0)[13]
    ang = np.deg2rad(7.5 * np.arange(48))
    circle = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    scaled = WeightFunction.custom1d(h, lambda r: scale * eval_psi6(r), 3.0)
    sd = SignedDistance.circle((0.0, 0.0), 0.5)
    for side, markers, rtol in (
        (None, np.vstack([[c + 0.01 * h, c + 0.3 * h], circle]), 1e-13),
        (sd, circle, 1e-11),
    ):
        ref = KernelStrategy(WeightFunction.six_point_spline(h), signed_distance=side)
        got = KernelStrategy(scaled, signed_distance=side)
        for marker in markers:
            want = ref.kernel_for(grid, marker)[1].psi
            psi = got.kernel_for(grid, marker)[1].psi
            assert np.max(np.abs(psi - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("scale", [1e2, 1e4])
def test_scaled_weight_profile_in_the_case4_box(scale):
    # Case 4 (one-sided, box [0, 0.75]) every 2.5 degrees with c·ψ6 must
    # end in ψ6's modes. The soft fallback once factored the dense
    # W⁻¹ + ρCᵀC with a relative pivot floor and raised NotSPD at 2
    # (c = 1e2) and 48 (c = 1e4) of these markers. Exact kernels do not
    # depend on the scale of W; soft ones do, so they are only held to
    # the box and to zero on the Minus side.
    h = 0.075
    grid = make_grid(((-1.0, 1.0), (-1.0, 1.0)), h)
    ang = np.deg2rad(2.5 * np.arange(144))
    circle = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sd = SignedDistance.circle((0.0, 0.0), 0.5)
    box = KernelBounds(0.0, 0.75)
    ref = KernelStrategy(WeightFunction.six_point_spline(h), signed_distance=sd,
                         bounds=box)
    got = KernelStrategy(
        WeightFunction.custom1d(h, lambda r: scale * eval_psi6(r), 3.0),
        signed_distance=sd, bounds=box,
    )
    modes = Counter()
    for marker in circle:
        try:
            _, want = ref.kernel_for(grid, marker)
        except RankDeficientConstraints:
            with pytest.raises(RankDeficientConstraints):
                got.kernel_for(grid, marker)
            modes["RankDeficientConstraints"] += 1
            continue
        stencil, kw = got.kernel_for(grid, marker)
        assert kw.mode is want.mode
        modes[kw.mode.value] += 1
        if kw.mode is SolveMode.EXACT:
            assert np.max(np.abs(kw.psi - want.psi)) <= 1e-8 * np.max(np.abs(want.psi))
        else:
            assert np.all(kw.psi >= 0.0) and np.all(kw.psi <= 0.75)
            assert np.all(kw.psi[~classify_side(sd, stencil.sites).plus] == 0.0)
    assert modes == {"Exact": 92, "RankDeficientConstraints": 4, "SoftConstraint": 48}


def _circle_kernels(case, unit):
    """kernel_for over a circle case every 2.5 degrees, in lengths scaled by ``unit``."""
    cfg = CircleCaseConfig.for_case(
        case, marker_angles_deg=2.5 * np.arange(144), radius=0.5 * unit,
        mesh_width=0.075 * unit, extents=((-unit, unit), (-unit, unit)),
    )
    grid, strategy = make_grid(cfg.extents, cfg.mesh_width), cfg.strategy()
    return [strategy.kernel_for(grid, m) for m in cfg.marker_positions()]


@pytest.mark.parametrize("unit", [1e-3, 1e3])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_kernels_do_not_depend_on_the_length_unit(case, unit):
    # Radius, mesh width and extents in another unit give the same
    # stencils, every kernel Exact, and Ψ to rounding (at most 1.7e-14 of
    # max|Ψ|). Case 4 is left out: its rank rule reads the Gram matrix and
    # its penalty the residual, both of which carry the length unit.
    for (stencil, kw), (ref_stencil, ref) in zip(_circle_kernels(case, unit),
                                                _circle_kernels(case, 1.0)):
        assert kw.mode is SolveMode.EXACT
        assert np.array_equal(stencil.indices, ref_stencil.indices)
        assert np.max(np.abs(kw.psi - ref.psi)) <= 1e-12 * np.max(np.abs(ref.psi))
