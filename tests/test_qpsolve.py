import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import (
    augmented_soft_qp,
    brute_force_box_qp,
    closed_form_psi,
    dense_box_qp,
    random_box_problem,
)

from ibkernel import qpsolve
from ibkernel.errors import (
    IBKernelError,
    Infeasible,
    InsufficientSupport,
    LengthMismatch,
    MaxIterationsExceeded,
    NotSPD,
    RankDeficientConstraints,
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
)
from ibkernel.experiments import CircleCaseConfig
from ibkernel.ibops import make_grid, support_stencil
from ibkernel.linalg import DEFAULT_TOLERANCES, solve_kkt
from ibkernel.onesided import SignedDistance, classify_side, restrict_weights
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
        p = QPProblem(np.ones(3), np.ones((1, 3)), [1.0], lower=0.0, upper=1.0)
        assert_allclose(p.lower, [0, 0, 0])
        assert_allclose(p.upper, [1, 1, 1])
        assert p.has_bounds

    def test_no_bounds(self):
        p = QPProblem(np.ones(2), np.zeros((0, 2)), [])
        assert not p.has_bounds
        lo, hi = p.bounds()
        assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))

    def test_objective(self):
        p = QPProblem([2.0, 0.5], np.zeros((0, 2)), [])
        assert p.objective([1.0, 2.0]) == pytest.approx(1 + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            QPProblem(np.ones((2, 3)), np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            QPProblem(np.ones(2), np.ones((1, 3)), [1.0])
        with pytest.raises(ValueError):
            QPProblem(np.ones(2), np.ones((1, 2)), [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D diagonal"):
            QPProblem(np.eye(2), np.ones((1, 2)), [1.0])
        with pytest.raises(ValueError):
            QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=1.0, upper=0.0)
        with pytest.raises(ValueError):
            QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=np.nan)
        with pytest.raises(ValueError):
            QPProblem(np.ones(2), np.ones((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            QPProblem([1.0, np.nan], np.ones((1, 2)), [1.0])


class TestEqQP:
    def test_least_norm_quarter(self):
        p = QPProblem(np.ones(4), np.ones((1, 4)), [1.0])
        sol = solve_eq_qp(p)
        assert_allclose(sol.x, np.full(4, 0.25), atol=1e-14)
        assert_allclose(sol.multipliers, [0.25], atol=1e-14)
        assert sol.eq_residual <= 1e-14
        assert sol.mode is SolveMode.EXACT
        assert sol.active_set == ()

    def test_rejects_bounds(self):
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=0.0)
        with pytest.raises(ValueError):
            solve_eq_qp(p)
        with pytest.raises(ValueError):
            solve_kkt(p)

    def test_matches_closed_form_on_stencils(self):
        npr.seed(23)
        wf = WeightFunction.six_point_spline(0.075)
        basis = build_basis(2, BasisDegree.LINEAR)
        centers = 0.075 * (np.arange(-3, 4) + 0.5)
        grid = np.array([[x, y] for x in centers for y in centers])
        for _ in range(20):
            ev = npr.uniform(-0.1, 0.1, size=2)
            system = assemble_system(grid, ev, wf, basis)
            direct = closed_form_psi(system)
            via_qp = solve_generating_qp(system)
            assert np.max(np.abs(direct - via_qp.psi)) <= 1e-12
            assert via_qp.source is KernelSource.PROBLEM_B


class TestBoxQP:
    def test_fast_path_interior(self):
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=1.0)
        sol = solve_box_qp(p)
        assert_allclose(sol.x, [0.5, 0.5], atol=1e-14)
        assert sol.active_set == ()
        assert sol.iterations <= 1
        assert sol.mode is SolveMode.EXACT

    def test_upper_bound_pins_first(self):
        p = QPProblem(
            np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=[0.3, 1.0]
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
            np.ones(3),
            np.zeros((0, 3)),
            [],
            lower=[0.5, -1.0, -1.0],
            upper=[1.0, -0.5, 1.0],
        )
        sol = solve_box_qp(p)
        assert_allclose(sol.x, [0.5, -0.5, 0.0], atol=1e-12)
        assert sol.active_set == (0, 1)

    def test_infeasible_raises(self):
        p = QPProblem(
            np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.3
        )
        with pytest.raises(Infeasible) as err:
            solve_box_qp(p)
        assert err.value.violation == pytest.approx(0.4, abs=1e-10)

    def test_iteration_cap(self):
        p = QPProblem(
            np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=[0.3, 1.0]
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
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0])
        with pytest.raises(ValueError):
            solve_box_qp(p)

    @pytest.mark.parametrize("field, value", [
        ("hessian", [1.0, np.nan]),
        ("hessian", [[1.0, 0.5], [0.0, 1.0]]),
        ("eq_matrix", [[1.0, np.inf]]),
        ("eq_rhs", [np.nan]),
        ("hessian", [1.0, np.inf]),
    ])
    def test_rejects_non_finite_or_asymmetric_input(self, field, value):
        data = dict(hessian=np.ones(2), eq_matrix=np.ones((1, 2)), eq_rhs=[1.0])
        data[field] = value
        with pytest.raises(ValueError):
            QPProblem(**data, lower=0.0, upper=[0.3, 1.0])

    def test_indefinite_hessian_raises_not_spd(self):
        p = QPProblem(
            [1.0, -1.0], np.ones((1, 2)), [1.0], lower=0.0, upper=1.0
        )
        with pytest.raises(NotSPD):
            solve_box_qp(p)


class TestPhase1:
    def test_feasible_interior(self):
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=1.0)
        report = phase1_feasible(p)
        assert report.feasible
        assert report.violation <= 1e-12
        assert np.all(report.witness >= 0.0) and np.all(report.witness <= 1.0)

    def test_infeasible_witness_saturates(self):
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.4)
        report = phase1_feasible(p)
        assert not report.feasible
        assert report.violation == pytest.approx(0.2, abs=1e-12)
        assert_allclose(report.witness, [0.4, 0.4], atol=1e-12)

    def test_requires_bounds(self):
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0])
        with pytest.raises(ValueError):
            phase1_feasible(p)

    def test_all_fixed_box(self):
        c = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
        fixed = np.array([0.5, 0.3, 0.2])
        for b, feasible in (([1.0, 0.3], True), ([1.0, 0.2], False)):
            p = QPProblem(np.ones(3), c, b, lower=fixed, upper=fixed)
            report = phase1_feasible(p)
            assert_allclose(report.witness, fixed, rtol=0, atol=0)
            assert report.violation == np.max(np.abs(c @ fixed - b))
            assert report.feasible is feasible

    def test_partly_fixed_box(self):
        c = np.ones((1, 3))
        lo, hi = [0.0, 0.5, 0.0], [1.0, 0.5, 1.0]
        for b, feasible in (([1.0], True), ([3.0], False)):
            p = QPProblem(np.ones(3), c, b, lower=lo, upper=hi)
            report = phase1_feasible(p)
            w = report.witness
            assert w[1] == 0.5
            assert np.all(w >= lo) and np.all(w <= hi)
            assert report.violation == np.max(np.abs(c @ w - b))
            assert report.feasible is feasible
        # the free entries reach at most 2, so the sum falls 0.5 short of 3
        assert report.violation == pytest.approx(0.5, abs=1e-12)


class TestSoftQP:
    def test_saturates_toward_constraint(self):
        p = QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=0.4)
        sol = solve_soft_qp(p)
        assert sol.mode is SolveMode.SOFT_CONSTRAINT
        assert_allclose(sol.x, [0.4, 0.4], atol=1e-6)
        assert sol.eq_residual == pytest.approx(0.2, abs=1e-6)
        # multipliers are the penalty estimate rho (b - Cx)
        assert sol.multipliers[0] == pytest.approx(1e8 * sol.eq_residual, rel=1e-6)

    def test_penalty_validation(self):
        p = QPProblem(
            np.ones(3), np.ones((1, 3)), [1.0], lower=0.0, upper=[0.1, 0.1, 0.4]
        )
        # the box caps the sum at 0.6, so the violation floor is 0.4
        assert solve_soft_qp(p).eq_residual == pytest.approx(0.4, abs=1e-6)
        q = QPProblem(np.ones(2), np.ones((1, 2)), [1.0])
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
            solve_peskin4([0.3, np.nan])
        with pytest.raises(ValueError):
            solve_peskin4([0.1, 0.2], dimension=3)


class TestCheckKKT:
    def setup_method(self):
        self.p = QPProblem(
            np.ones(2), np.ones((1, 2)), [1.0], lower=0.0, upper=[0.3, 1.0]
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


def _case4_system(deg):
    """The one-sided moment system of the case-4 circle marker at ``deg``."""
    cfg = CircleCaseConfig.for_case(4, marker_angles_deg=(deg,))
    marker = cfg.marker_positions()[0]
    grid = make_grid(cfg.extents, cfg.mesh_width)
    wf = WeightFunction.six_point_spline(cfg.mesh_width)
    sites = support_stencil(grid, marker, wf.radius_in_cells).sites
    sd = SignedDistance.circle(cfg.center, cfg.radius)
    system = assemble_system(sites, marker, wf, build_basis(2, BasisDegree.LINEAR))
    return restrict_weights(system, classify_side(sd, sites))


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

    @pytest.mark.parametrize(
        "deg, bounds, mode, phase1_calls",
        [(None, (-1.0, 1.0), "Exact", 0),
         (None, (0.0, 0.3), "SoftConstraint", 1),
         (40.0, (0.0, 0.75), "Exact", 0),
         (0.0, (0.0, 0.75), "SoftConstraint", 1)],
    )
    def test_phase1_runs_only_on_an_infeasible_box(
        self, deg, bounds, mode, phase1_calls, monkeypatch
    ):
        # The dual solver runs first; phase-1 only reports the violation
        # once it has raised Infeasible. deg: a case-4 circle marker, or
        # None for the three-site line.
        if deg is None:
            system = _line_system([0.4, 0.8, 0.4])
        else:
            system = _case4_system(deg)
        calls = []

        def counted(problem, tol=DEFAULT_TOLERANCES):
            calls.append(problem)
            return phase1_feasible(problem, tol)

        monkeypatch.setattr(qpsolve, "phase1_feasible", counted)
        kw = solve_generating_qp(system, bounds=bounds)
        assert kw.mode.value == mode
        assert len(calls) == phase1_calls

    def test_rank_refusal_on_an_infeasible_box_goes_soft(self):
        # The weighted Gram is diag(1 + 4e-14, 4e-14), past the rank rule,
        # so the dual solver raises RankDeficientConstraints before it can
        # find that three sites of at most 0.3 cannot sum to 1. Phase-1
        # finds the box empty, so the kernel is soft.
        system = _line_system([2e-14, 1.0, 2e-14])
        problem = QPProblem(1.0 / system.Wdiag, system.A, system.p,
                            lower=0.0, upper=0.3)
        with pytest.raises(RankDeficientConstraints):
            solve_box_qp(problem)
        assert not phase1_feasible(problem).feasible
        kw = solve_generating_qp(system, bounds=(0.0, 0.3))
        assert kw.mode is SolveMode.SOFT_CONSTRAINT
        assert np.all((kw.psi >= 0.0) & (kw.psi <= 0.3))

    @pytest.mark.parametrize("violation, mode", [(0.0, None), (0.4, "SoftConstraint")])
    def test_infeasible_goes_soft_only_past_phase1s_tolerance(
        self, violation, mode, monkeypatch
    ):
        # A box phase-1 finds feasible (violation within tol.feasibility)
        # that the dual solver calls infeasible raises, as it did when
        # phase-1 chose the mode; only a phase-1-infeasible box goes soft.
        def infeasible(problem, tol=DEFAULT_TOLERANCES):
            raise Infeasible("stand-in", violation=violation)

        monkeypatch.setattr(qpsolve, "solve_box_qp", infeasible)
        system = _line_system([0.4, 0.8, 0.4])
        if mode is None:
            with pytest.raises(Infeasible):
                solve_generating_qp(system, bounds=(-1.0, 1.0))
        else:
            kw = solve_generating_qp(system, bounds=(-1.0, 1.0))
            assert kw.mode.value == mode

    @pytest.mark.parametrize("error", [RankDeficientConstraints, MaxIterationsExceeded])
    @pytest.mark.parametrize("bounds, mode", [((-1.0, 1.0), None),
                                              ((0.0, 0.3), "SoftConstraint")])
    def test_other_failures_go_soft_only_where_phase1_finds_the_box_empty(
        self, error, bounds, mode, monkeypatch
    ):
        # Phase-1 judges the box the failed dual solve leaves: [-1, 1] can
        # be met, so the failure is raised; [0, 0.3] cannot, so it is soft.
        def failing(problem, tol=DEFAULT_TOLERANCES):
            raise error("stand-in")

        monkeypatch.setattr(qpsolve, "solve_box_qp", failing)
        system = _line_system([0.4, 0.8, 0.4])
        if mode is None:
            with pytest.raises(error):
                solve_generating_qp(system, bounds=bounds)
        else:
            assert solve_generating_qp(system, bounds=bounds).mode.value == mode

    def test_bounds_object_or_tuple(self):
        system = _line_system([0.4, 0.8, 0.4])

        class Bounds:
            alpha, beta = -1.0, 1.0

        a = solve_generating_qp(system, bounds=Bounds())
        b = solve_generating_qp(system, bounds=(-1.0, 1.0))
        assert_allclose(a.psi, b.psi, atol=1e-14)


# The bounded pipeline, as solve_generating_qp runs it on the vector 1/w,
# against references that treat W⁻¹ as a dense matrix: the dual active set
# with a Cholesky factor (oracles.dense_box_qp) where phase-1 finds the box
# feasible, and the penalty problem with its residual as extra variables
# (oracles.augmented_soft_qp) where it does not.

# Case-4 angles that raise RankDeficientConstraints, and three whose
# multipliers reach 1e10 and more.
RANK_DEFICIENT_DEG = (115.0, 115.5, 125.0, 125.5, 324.5, 325.0, 334.5, 335.0)
ILL_CONDITIONED_DEG = (29.0, 187.5, 225.0)


def _mode_and_solution(solve, problem):
    """(mode or exception class name, solution) of one solve."""
    try:
        sol = solve(problem)
    except IBKernelError as exc:
        return type(exc).__name__, None
    return sol.mode.value, sol


def _diagonal_and_dense(grid, marker, sd, alpha, beta):
    """The solver's (mode, solution) and the dense reference's, for one marker.

    A soft reference has mode SoftConstraint and the solution's x only.
    """
    wf = WeightFunction.six_point_spline(grid.spacing[0])
    basis = build_basis(grid.dimension, BasisDegree.LINEAR)
    sites = support_stencil(grid, marker, wf.radius_in_cells).sites
    system = restrict_weights(
        assemble_system(sites, marker, wf, basis), classify_side(sd, sites)
    )
    keep = system.Wdiag > DEFAULT_TOLERANCES.zero_weight
    problem = QPProblem(
        1.0 / system.Wdiag[keep], system.A[:, keep], system.p,
        lower=alpha, upper=beta,
    )
    if phase1_feasible(problem).feasible:
        return (_mode_and_solution(solve_box_qp, problem),
                _mode_and_solution(dense_box_qp, problem))
    soft = solve_soft_qp(problem)
    return (soft.mode.value, soft), ("SoftConstraint", augmented_soft_qp(problem))


def _assert_same_kernel(diagonal, dense):
    (mode, sol), (dense_mode, dense_sol) = diagonal, dense
    assert mode == dense_mode
    if mode == "SoftConstraint":
        scale = np.max(np.abs(dense_sol))
        assert np.max(np.abs(sol.x - dense_sol)) <= 1e-10 * scale
    elif sol is not None:
        assert sol.active_set == dense_sol.active_set
        scale = np.max(np.abs(dense_sol.x))
        assert np.max(np.abs(sol.x - dense_sol.x)) <= 1e-12 * scale


def _circle_markers(case, angles):
    cfg = CircleCaseConfig.for_case(case, marker_angles_deg=angles)
    sd = SignedDistance.circle(cfg.center, cfg.radius)
    grid = make_grid(cfg.extents, cfg.mesh_width)
    return grid, sd, cfg.bounds, cfg.marker_positions()


def test_diagonal_hessian_matches_dense_on_case3_sweep():
    grid, sd, bounds, markers = _circle_markers(3, 0.5 * np.arange(720))
    for marker in markers:
        diagonal, dense = _diagonal_and_dense(
            grid, marker, sd, bounds.alpha, bounds.beta
        )
        assert diagonal[0] == "Exact"
        _assert_same_kernel(diagonal, dense)


def test_diagonal_hessian_matches_dense_on_case4():
    angles = sorted(
        set(RANK_DEFICIENT_DEG + ILL_CONDITIONED_DEG)
        | set(5.0 * np.arange(72))
    )
    grid, sd, bounds, markers = _circle_markers(4, angles)
    modes = []
    for marker in markers:
        diagonal, dense = _diagonal_and_dense(
            grid, marker, sd, bounds.alpha, bounds.beta
        )
        _assert_same_kernel(diagonal, dense)
        modes.append(diagonal[0])
    for deg, mode in zip(angles, modes):
        if deg in RANK_DEFICIENT_DEG:
            assert mode == "RankDeficientConstraints"
    assert {"Exact", "SoftConstraint"} <= set(modes)


def test_diagonal_hessian_matches_dense_on_sphere_boxes():
    # The sphere benchmark's geometry: 150 markers of a Fibonacci lattice
    # on r = 0.5, 216-site one-sided stencils, every third marker unbounded
    # and the rest split between the two boxes.
    n = 150
    grid = make_grid([(-0.9, 0.9)] * 3, 0.075)
    sd = SignedDistance.circle(np.zeros(3), 0.5)
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    markers = 0.5 * np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    boxes = (None, (-0.07, 0.5), (0.0, 0.75))
    for k, marker in enumerate(markers):
        if boxes[k % 3] is None:
            continue
        diagonal, dense = _diagonal_and_dense(grid, marker, sd, *boxes[k % 3])
        assert diagonal[0] == "Exact"
        _assert_same_kernel(diagonal, dense)


@pytest.mark.parametrize("entry", [0.0, -1.0])
def test_diagonal_hessian_with_a_non_positive_entry_raises_not_spd(entry):
    p = QPProblem([1.0, entry], np.ones((1, 2)), [1.0], lower=0.0, upper=1.0)
    with pytest.raises(NotSPD):
        solve_box_qp(p)
