import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import brute_force_box_qp, random_box_problem

from ibkernel.errors import (
    Infeasible,
    InsufficientSupport,
    LengthMismatch,
    MaxIterationsExceeded,
    NotSPD,
)
from ibkernel.kernels import (
    BasisDegree,
    KernelSource,
    KernelSystem,
    SolveMode,
    WeightFunction,
    assemble_system,
    build_basis,
    eval_psi4,
    generating_function_closed_form,
)
from ibkernel.qpsolve import (
    Peskin4Weights,
    QPProblem,
    check_kkt,
    phase1_feasible,
    solve_box_qp,
    solve_eq_qp,
    solve_generating_qp,
    solve_peskin4,
    solve_soft_qp,
)


class TestQPProblem:
    def test_scalar_bounds_broadcast(self):
        p = QPProblem(np.eye(3), np.ones((1, 3)), [1.0], lower=0.0, upper=1.0)
        assert_allclose(p.lower, [0, 0, 0])
        assert_allclose(p.upper, [1, 1, 1])
        assert p.has_bounds

    def test_no_bounds(self):
        p = QPProblem(np.eye(2), np.zeros((0, 2)), [])
        assert not p.has_bounds
        lo, hi = p.bounds()
        assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))

    def test_objective(self):
        p = QPProblem(2.0 * np.eye(2), np.zeros((0, 2)), [], linear=[1.0, -1.0])
        assert p.objective([1.0, 2.0]) == pytest.approx(1 + 4 + 1 - 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            QPProblem(np.ones((2, 3)), np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            QPProblem(np.eye(2), np.ones((1, 3)), [1.0])
        with pytest.raises(ValueError):
            QPProblem(np.eye(2), np.ones((1, 2)), [1.0, 2.0])
        with pytest.raises(ValueError):
            QPProblem(np.eye(2), np.ones((1, 2)), [1.0], linear=[1.0])
        with pytest.raises(ValueError):
            QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=1.0, upper=0.0)
        with pytest.raises(ValueError):
            QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=np.nan)


class TestEqQP:
    def test_least_norm_quarter(self):
        p = QPProblem(np.eye(4), np.ones((1, 4)), [1.0])
        sol = solve_eq_qp(p)
        assert_allclose(sol.x, np.full(4, 0.25), atol=1e-14)
        assert_allclose(sol.multipliers, [0.25], atol=1e-14)
        assert sol.eq_residual <= 1e-14
        assert sol.mode is SolveMode.EXACT
        assert sol.active_set == ()

    def test_rejects_bounds(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=0.0)
        with pytest.raises(ValueError):
            solve_eq_qp(p)

    def test_matches_closed_form_on_stencils(self):
        npr.seed(23)
        wf = WeightFunction.six_point_spline(0.075)
        basis = build_basis(2, BasisDegree.LINEAR)
        centers = 0.075 * (np.arange(-3, 4) + 0.5)
        grid = np.array([[x, y] for x in centers for y in centers])
        for _ in range(20):
            ev = npr.uniform(-0.1, 0.1, size=2)
            system = assemble_system(grid, ev, wf, basis)
            direct = generating_function_closed_form(system)
            via_qp = solve_generating_qp(system)
            assert np.max(np.abs(direct.psi - via_qp.psi)) <= 1e-12
            assert via_qp.source is KernelSource.PROBLEM_B


class TestBoxQP:
    def test_fast_path_interior(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=1.0)
        sol = solve_box_qp(p)
        assert_allclose(sol.x, [0.5, 0.5], atol=1e-14)
        assert sol.active_set == ()
        assert sol.iterations <= 1
        assert sol.mode is SolveMode.EXACT

    def test_upper_bound_pins_first(self):
        p = QPProblem(
            np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=[0.3, 1.0]
        )
        sol = solve_box_qp(p)
        assert_allclose(sol.x, [0.3, 0.7], atol=1e-12)
        assert sol.active_set == (0,)
        assert sol.bound_multipliers[0] == pytest.approx(-0.4, abs=1e-10)
        assert sol.bound_multipliers[1] == pytest.approx(0.0, abs=1e-12)
        report = check_kkt(p, sol)
        assert report.max_residual() <= 1e-10

    def test_bounds_only_clips(self):
        p = QPProblem(
            np.eye(3),
            np.zeros((0, 3)),
            [],
            lower=-1.0,
            upper=1.0,
            linear=[-2.0, 0.5, 0.0],
        )
        sol = solve_box_qp(p)
        assert_allclose(sol.x, [1.0, -0.5, 0.0], atol=1e-12)
        assert sol.active_set == (0,)

    def test_infeasible_raises(self):
        p = QPProblem(
            np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.3
        )
        with pytest.raises(Infeasible) as err:
            solve_box_qp(p)
        assert err.value.violation == pytest.approx(0.4, abs=1e-10)

    def test_iteration_cap(self):
        p = QPProblem(
            np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=[0.3, 1.0]
        )
        with pytest.raises(MaxIterationsExceeded):
            solve_box_qp(p, max_iterations=0)

    def test_matches_enumeration(self):
        npr.seed(31)
        for k in range(15):
            n = int(npr.randint(2, 7))
            p = random_box_problem(n)
            sol = solve_box_qp(p)
            assert sol.mode is SolveMode.EXACT
            ref_x, ref_obj = brute_force_box_qp(p)
            assert ref_x is not None
            assert p.objective(sol.x) <= ref_obj + 1e-8
            assert_allclose(sol.x, ref_x, atol=1e-7)
            assert check_kkt(p, sol).max_residual() <= 1e-8

    def test_requires_bounds(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0])
        with pytest.raises(ValueError):
            solve_box_qp(p)

    @pytest.mark.parametrize("field, value", [
        ("hessian", [[1.0, np.nan], [np.nan, 1.0]]),
        ("hessian", [[1.0, 0.5], [0.0, 1.0]]),
        ("eq_matrix", [[1.0, np.inf]]),
        ("eq_rhs", [np.nan]),
        ("linear", [0.0, np.nan]),
    ])
    def test_rejects_non_finite_or_asymmetric_input(self, field, value):
        data = dict(hessian=np.eye(2), eq_matrix=np.ones((1, 2)), eq_rhs=[1.0],
                    linear=np.zeros(2))
        data[field] = value
        p = QPProblem(**data, lower=0.0, upper=[0.3, 1.0])
        with pytest.raises(ValueError):
            solve_box_qp(p)

    def test_indefinite_hessian_raises_not_spd(self):
        p = QPProblem(
            np.diag([1.0, -1.0]), np.ones((1, 2)), [1.0], lower=0.0, upper=1.0
        )
        with pytest.raises(NotSPD):
            solve_box_qp(p)


class TestPhase1:
    def test_feasible_interior(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=1.0)
        report = phase1_feasible(p)
        assert report.feasible
        assert report.violation <= 1e-12
        assert np.all(report.witness >= 0.0) and np.all(report.witness <= 1.0)

    def test_infeasible_witness_saturates(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.4)
        report = phase1_feasible(p)
        assert not report.feasible
        assert report.violation == pytest.approx(0.2, abs=1e-12)
        assert_allclose(report.witness, [0.4, 0.4], atol=1e-12)

    def test_requires_bounds(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0])
        with pytest.raises(ValueError):
            phase1_feasible(p)


class TestSoftQP:
    def test_saturates_toward_constraint(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.4)
        sol = solve_soft_qp(p)
        assert sol.mode is SolveMode.SOFT_CONSTRAINT
        assert_allclose(sol.x, [0.4, 0.4], atol=1e-6)
        assert sol.eq_residual == pytest.approx(0.2, abs=1e-6)
        # multipliers are the penalty estimate rho (b - Cx)
        assert sol.multipliers[0] == pytest.approx(1e8 * sol.eq_residual, rel=1e-6)

    def test_residual_decreases_with_penalty(self):
        p = QPProblem(
            np.eye(3), np.ones((1, 3)), [1.0], lower=0.0, upper=[0.1, 0.1, 0.4]
        )
        resids = [
            solve_soft_qp(p, penalty=rho).eq_residual for rho in (1e2, 1e5, 1e8)
        ]
        assert resids[0] >= resids[1] >= resids[2]
        # the box caps the sum at 0.6, so the violation floor is 0.4
        assert resids[2] == pytest.approx(0.4, abs=1e-6)

    def test_penalty_validation(self):
        p = QPProblem(np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.4)
        with pytest.raises(ValueError):
            solve_soft_qp(p, penalty=0.0)
        q = QPProblem(np.eye(2), np.ones((1, 2)), [1.0])
        with pytest.raises(ValueError):
            solve_soft_qp(q)


class TestPeskin4:
    def test_matches_analytic_kernel(self):
        npr.seed(37)
        offsets = np.array(Peskin4Weights.OFFSETS, dtype=float)
        for s in npr.uniform(0, 1, size=100):
            got = solve_peskin4([s]).weights[0]
            want = eval_psi4(offsets - s)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_zero_shift(self):
        w = solve_peskin4([0.0]).weights[0]
        assert_allclose(w, [0.25, 0.5, 0.25, 0.0], atol=1e-15)

    def test_half_shift(self):
        w = solve_peskin4([0.5]).weights[0]
        lo = (2 - np.sqrt(2)) / 8
        hi = (2 + np.sqrt(2)) / 8
        assert_allclose(w, [lo, hi, hi, lo], atol=1e-15)

    def test_postulates(self):
        npr.seed(41)
        offsets = np.array(Peskin4Weights.OFFSETS, dtype=float)
        for s in npr.uniform(0, 1, size=50):
            w = solve_peskin4([s]).weights[0]
            assert abs(w[1] + w[3] - 0.5) <= 1e-14
            assert abs(w[0] + w[2] - 0.5) <= 1e-14
            assert abs(np.dot(offsets - s, w)) <= 1e-13
            assert abs(np.dot(w, w) - 3.0 / 8.0) <= 1e-14
            assert np.all(w >= -1e-15)

    def test_continuity_across_cell_edge(self):
        # approaching s = 1 must reproduce the s = 0 pattern shifted by one
        w = solve_peskin4([1.0 - 1e-10]).weights[0]
        assert_allclose(w, [0.0, 0.25, 0.5, 0.25], atol=1e-9)

    def test_tensor(self):
        pw = solve_peskin4([0.3, 0.7])
        assert pw.dimension == 2
        t = pw.tensor()
        assert t.shape == (4, 4)
        assert np.sum(t) == pytest.approx(1.0, abs=1e-13)
        assert np.sum(t * t) == pytest.approx((3.0 / 8.0) ** 2, abs=1e-13)
        t3 = solve_peskin4(0.25, dimension=3).tensor()
        assert t3.shape == (4, 4, 4)
        assert np.sum(t3 * t3) == pytest.approx((3.0 / 8.0) ** 3, abs=1e-13)

    def test_scalar_broadcast(self):
        pw = solve_peskin4(0.4, dimension=3)
        assert pw.weights.shape == (3, 4)
        assert_allclose(pw.weights[0], pw.weights[2])

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_peskin4([-0.1])
        with pytest.raises(ValueError):
            solve_peskin4([1.0])
        with pytest.raises(ValueError):
            solve_peskin4([0.1, 0.2], dimension=3)


class TestCheckKKT:
    def setup_method(self):
        self.p = QPProblem(
            np.eye(2), np.ones((1, 2)), [1.0], lower=0.0, upper=[0.3, 1.0]
        )
        self.sol = solve_box_qp(self.p)

    def test_clean_solution(self):
        report = check_kkt(self.p, self.sol)
        assert report.stationarity <= 1e-10
        assert report.primal <= 1e-12
        assert report.dual <= 1e-12
        assert report.complementarity <= 1e-10

    def test_perturbation_detected(self):
        bad = QPSolutionLike(self.sol, dx=np.array([1e-3, -1e-3]))
        report = check_kkt(self.p, bad)
        assert report.max_residual() > 1e-5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            check_kkt(self.p, QPSolutionLike(self.sol, x=np.zeros(3)))
        with pytest.raises(LengthMismatch):
            check_kkt(self.p, QPSolutionLike(self.sol, multipliers=np.zeros(2)))
        with pytest.raises(LengthMismatch):
            check_kkt(
                self.p, QPSolutionLike(self.sol, bound_multipliers=np.zeros(5))
            )


class QPSolutionLike:
    """Shallow stand-in so tests can corrupt one field of a solution."""

    def __init__(self, sol, dx=None, x=None, multipliers=None,
                 bound_multipliers=None):
        self.x = sol.x + dx if dx is not None else (
            x if x is not None else sol.x
        )
        self.multipliers = (
            multipliers if multipliers is not None else sol.multipliers
        )
        self.bound_multipliers = (
            bound_multipliers if bound_multipliers is not None
            else sol.bound_multipliers
        )
        self.active_set = sol.active_set


def _line_system(wdiag, h=1.0):
    basis = build_basis(1, BasisDegree.LINEAR)
    sites = h * np.arange(-1.0, 2.0)[:, None]
    return KernelSystem(
        A=basis.rows(sites, [0.0]),
        Wdiag=np.asarray(wdiag, dtype=float),
        p=basis.at_eval(),
        eval=np.array([0.0]),
        sites=sites,
    )


class TestGeneratingQP:
    def test_zero_weight_site_eliminated(self):
        system = _line_system([0.5, 0.5, 0.0])
        kw = solve_generating_qp(system)
        assert kw.psi[2] == 0.0
        assert not kw.support[2]
        assert kw.support[0] and kw.support[1]
        # remaining two sites pin the weights: psi0 + psi1 = 1, -psi0 = 0
        assert_allclose(kw.psi, [0.0, 1.0, 0.0], atol=1e-12)

    def test_elimination_with_bounds_excluding_zero(self):
        system = _line_system([0.5, 0.5, 0.0])
        with pytest.raises(Infeasible):
            solve_generating_qp(system, bounds=(0.1, 0.5))

    def test_insufficient_support(self):
        system = _line_system([0.5, 0.0, 0.0])
        with pytest.raises(InsufficientSupport):
            solve_generating_qp(system)

    def test_bounded_solve_modes(self):
        system = _line_system([0.4, 0.8, 0.4])
        wide = solve_generating_qp(system, bounds=(-1.0, 1.0))
        assert wide.mode is SolveMode.EXACT
        assert wide.equality_residual <= 1e-10
        tight = solve_generating_qp(system, bounds=(0.0, 0.3))
        assert tight.mode is SolveMode.SOFT_CONSTRAINT
        assert np.all(tight.psi <= 0.3 + 1e-12)
        assert np.all(tight.psi >= -1e-12)

    def test_bounds_object_or_tuple(self):
        system = _line_system([0.4, 0.8, 0.4])

        class Bounds:
            alpha, beta = -1.0, 1.0

        a = solve_generating_qp(system, bounds=Bounds())
        b = solve_generating_qp(system, bounds=(-1.0, 1.0))
        assert_allclose(a.psi, b.psi, atol=1e-14)
