import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import (
    augmented_soft_qp,
    box_margin,
    bounded_lsq_optimality,
    brute_force_box_qp,
    check_kkt,
    closed_form_psi,
    dense_box_qp,
    farkas_margin,
    objective,
    peskin4_tensor,
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
    KernelSystem,
    Peskin4Weights,
    SolveMode,
    WeightFunction,
    assemble_system,
    build_basis,
    eval_psi4,
    eval_psi6,
    solve_peskin4,
)
from ibkernel.experiments import CircleCaseConfig
from ibkernel.ibops import KernelStrategy, make_grid, support_stencil
from ibkernel.linalg import _FEASIBILITY, _ZERO_WEIGHT, solve_kkt
from ibkernel.onesided import (
    KernelBounds,
    SignedDistance,
    classify_side,
    restrict_weights,
)
from ibkernel.qpsolve import (
    QPProblem,
    phase1_feasible,
    solve_box_qp,
    solve_eq_qp,
    solve_generating_qp,
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
        assert objective(p, [1.0, 2.0]) == pytest.approx(1 + 1)

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
        with pytest.raises(ValueError, match="eq_matrix must be 2-D"):
            QPProblem(np.ones(2), np.ones((1, 1, 2)), [1.0])

    def test_every_problem_is_checked(self):
        # No flag trusts the caller's data: each QPProblem runs the checks
        # above when it is built, and the kernel solve takes only a system
        # and its bounds.
        with pytest.raises(TypeError):
            QPProblem(np.ones(2), np.ones((1, 2)), [1.0], checked=True)
        assert list(inspect.signature(solve_generating_qp).parameters) == [
            "system", "bounds"]


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
        # x₀ + x₁ ≤ 0.6 on the box, so the sum misses 1 by at least 0.4.
        assert err.value.violation == pytest.approx(0.4, abs=1e-10)
        assert farkas_margin(p, err.value.certificate) == pytest.approx(0.4, abs=1e-10)

    def test_iteration_cap(self, monkeypatch):
        # The case-4 box at 40 degrees takes Newton steps from λ₀, so a cap
        # of none stops it.
        p = _case4_box(40.0)
        assert solve_box_qp(p).iterations > 1
        monkeypatch.setattr(qpsolve, "_NEWTON_STEPS", 0)
        with pytest.raises(MaxIterationsExceeded):
            solve_box_qp(p)

    def test_matches_enumeration(self):
        npr.seed(31)
        for k in range(15):
            n = int(npr.randint(2, 7))
            p = random_box_problem(n)
            sol = solve_box_qp(p)
            assert sol.mode is SolveMode.EXACT
            ref_x, ref_obj = brute_force_box_qp(p)
            assert ref_x is not None
            assert objective(p, sol.x) <= ref_obj + 1e-8
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

    def test_no_equality_rows(self):
        # Nothing to meet: the witness is 0 clipped to the box.
        p = QPProblem(np.ones(3), np.zeros((0, 3)), [],
                      lower=[0.2, -1.0, -1.0], upper=[1.0, -0.5, 1.0])
        report = phase1_feasible(p)
        assert report.feasible and report.violation == 0.0
        assert_allclose(report.witness, [0.2, -0.5, 0.0], rtol=0, atol=0)

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
        t = peskin4_tensor(pw)
        assert t.shape == (4, 4)
        assert np.sum(t) == pytest.approx(1.0, abs=1e-13)
        assert np.sum(t * t) == pytest.approx((3.0 / 8.0) ** 2, abs=1e-13)
        t3 = peskin4_tensor(solve_peskin4([0.25, 0.25, 0.25]))
        assert t3.shape == (4, 4, 4)
        assert np.sum(t3 * t3) == pytest.approx((3.0 / 8.0) ** 3, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_peskin4([-0.1])
        with pytest.raises(ValueError):
            solve_peskin4([1.0])
        with pytest.raises(ValueError):
            solve_peskin4([0.3, np.nan])
        with pytest.raises(ValueError, match="one shift in"):
            solve_peskin4([])


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
    """Sites h·(-1, 0, 1), or h·(-2, ..., 2) for five weights, around 0."""
    basis = build_basis(1, BasisDegree.LINEAR)
    sites = h * (np.arange(len(wdiag)) - (len(wdiag) - 1) // 2.0)[:, None]
    return KernelSystem(
        A=basis.rows(sites, [0.0]),
        Wdiag=np.asarray(wdiag, dtype=float),
        p=basis.at_eval(),
        eval=np.array([0.0]),
        sites=sites,
    )


def _case4_system(deg, wf=None):
    """The one-sided moment system of the case-4 circle marker at ``deg``.

    ``wf`` defaults to ψ6 at the case's mesh width.
    """
    cfg = CircleCaseConfig.for_case(4, marker_angles_deg=(deg,))
    marker = cfg.marker_positions()[0]
    grid = make_grid(cfg.extents, cfg.mesh_width)
    wf = wf or WeightFunction.six_point_spline(cfg.mesh_width)
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
        # The box bounds the kept sites only; a cut site stays a structural
        # zero. Cut at both ends, the kept three meet (0.1, 0.5) exactly.
        kw = solve_generating_qp(_line_system([0.0, 0.4, 0.8, 0.4, 0.0]),
                                 bounds=(0.1, 0.5))
        assert kw.mode is SolveMode.EXACT
        assert kw.support.tolist() == [False, True, True, True, False]
        assert kw.psi[0] == kw.psi[4] == 0.0
        assert_allclose(kw.psi, [0.0, 0.25, 0.5, 0.25, 0.0], rtol=0, atol=1e-15)
        # Two kept sites pin Ψ = (0, 1), outside the box: the kernel is soft.
        kw = solve_generating_qp(_line_system([0.5, 0.5, 0.0]), bounds=(0.1, 0.5))
        assert kw.mode is SolveMode.SOFT_CONSTRAINT
        assert kw.psi[2] == 0.0 and not kw.support[2]
        assert np.all((kw.psi[:2] >= 0.1) & (kw.psi[:2] <= 0.5))

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
         (None, (0.0, 0.3), "SoftConstraint", 0),
         (40.0, (0.0, 0.75), "Exact", 0),
         (0.0, (0.0, 0.75), "SoftConstraint", 0)],
    )
    def test_phase1_runs_only_on_an_infeasible_box(
        self, deg, bounds, mode, phase1_calls, monkeypatch
    ):
        # The dual solver runs first. Where it raises Infeasible with a
        # certificate past _FEASIBILITY, the kernel goes soft without
        # phase-1. deg: a case-4 circle marker, or None for the three-site
        # line.
        if deg is None:
            system = _line_system([0.4, 0.8, 0.4])
        else:
            system = _case4_system(deg)
        calls, raised = [], []

        def counted(problem):
            calls.append(problem)
            return phase1_feasible(problem)

        def recorded(problem):
            try:
                return solve_box_qp(problem)
            except Infeasible as exc:
                raised.append((problem, exc))
                raise

        monkeypatch.setattr(qpsolve, "phase1_feasible", counted)
        monkeypatch.setattr(qpsolve, "solve_box_qp", recorded)
        kw = solve_generating_qp(system, bounds=bounds)
        assert kw.mode.value == mode
        assert len(calls) == phase1_calls
        assert len(raised) == (mode == "SoftConstraint")
        for problem, exc in raised:
            assert farkas_margin(problem, exc.certificate) > _FEASIBILITY

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

    @pytest.mark.parametrize("violation, mode", [(0.0, None), (0.4, "SoftConstraint"),
                                                 (None, None)])
    def test_infeasible_goes_soft_only_past_phase1s_tolerance(
        self, violation, mode, monkeypatch
    ):
        # Only a certified violation past _FEASIBILITY sends the kernel
        # soft. Without one (None, or a bound within it) phase-1 judges
        # the box, and [-1, 1] can be met, so Infeasible is raised.
        def infeasible(problem):
            raise Infeasible("stand-in", violation=violation)

        monkeypatch.setattr(qpsolve, "solve_box_qp", infeasible)
        system = _line_system([0.4, 0.8, 0.4])
        if mode is None:
            with pytest.raises(Infeasible):
                solve_generating_qp(system, bounds=(-1.0, 1.0))
        else:
            kw = solve_generating_qp(system, bounds=(-1.0, 1.0))
            assert kw.mode.value == mode

    def test_uncertified_infeasible_box_goes_soft_where_phase1_finds_it_empty(
        self, monkeypatch
    ):
        # An Infeasible whose last step certified nothing leaves the
        # decision to phase-1, which finds [0, 0.3] empty.
        calls = []

        def infeasible(problem):
            raise Infeasible("stand-in")

        def counted(problem):
            calls.append(problem)
            return phase1_feasible(problem)

        monkeypatch.setattr(qpsolve, "solve_box_qp", infeasible)
        monkeypatch.setattr(qpsolve, "phase1_feasible", counted)
        kw = solve_generating_qp(_line_system([0.4, 0.8, 0.4]), bounds=(0.0, 0.3))
        assert kw.mode is SolveMode.SOFT_CONSTRAINT
        assert len(calls) == 1

    @pytest.mark.parametrize("error", [RankDeficientConstraints, MaxIterationsExceeded])
    @pytest.mark.parametrize("bounds, mode", [((-1.0, 1.0), None),
                                              ((0.0, 0.3), "SoftConstraint")])
    def test_other_failures_go_soft_only_where_phase1_finds_the_box_empty(
        self, error, bounds, mode, monkeypatch
    ):
        # Phase-1 judges the box the failed dual solve leaves: [-1, 1] can
        # be met, so the failure is raised; [0, 0.3] cannot, so it is soft.
        def failing(problem):
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
# At two of those the float data fix the kernel on its final active set only
# to about 1e-9 of max|Ψ|: a 60-digit solve on that set puts this solver
# 9.6e-10 and 1.2e-9 from it, and dense_box_qp 2.0e-9 and 6.5e-10. The two
# solvers agree there to 2.9e-9 and 5.7e-10, and to 1e-12 everywhere else.
CONDITION_LIMITED_DEG = (187.5, 225.0)


def _mode_and_solution(solve, problem):
    """(mode or exception class name, solution) of one solve."""
    try:
        sol = solve(problem)
    except IBKernelError as exc:
        return type(exc).__name__, None
    return sol.mode.value, sol


def _bounded_problem(grid, marker, sd, alpha, beta):
    """The bounded problem solve_generating_qp poses for one ψ6 marker,
    one-sided unless ``sd`` is None."""
    wf = WeightFunction.six_point_spline(grid.spacing[0])
    basis = build_basis(grid.dimension, BasisDegree.LINEAR)
    sites = support_stencil(grid, marker, wf.radius_in_cells).sites
    system = assemble_system(sites, marker, wf, basis)
    if sd is not None:
        system = restrict_weights(system, classify_side(sd, sites))
    keep = system.Wdiag > _ZERO_WEIGHT
    return QPProblem(
        1.0 / system.Wdiag[keep], system.A[:, keep], system.p,
        lower=alpha, upper=beta,
    )


def _diagonal_and_dense(grid, marker, sd, alpha, beta):
    """The solver's (mode, solution) and the dense reference's, for one marker.

    A soft reference has mode SoftConstraint and the solution's x only.
    """
    problem = _bounded_problem(grid, marker, sd, alpha, beta)
    if phase1_feasible(problem).feasible:
        return (_mode_and_solution(solve_box_qp, problem),
                _mode_and_solution(dense_box_qp, problem))
    soft = solve_soft_qp(problem)
    return (soft.mode.value, soft), ("SoftConstraint", augmented_soft_qp(problem))


def _assert_same_kernel(diagonal, dense, bound=1e-12):
    """Same mode, and Exact kernels within ``bound`` of max|Ψ|."""
    (mode, sol), (dense_mode, dense_sol) = diagonal, dense
    assert mode == dense_mode
    if mode == "SoftConstraint":
        scale = np.max(np.abs(dense_sol))
        assert np.max(np.abs(sol.x - dense_sol)) <= 1e-10 * scale
    elif sol is not None:
        assert sol.active_set == dense_sol.active_set
        scale = np.max(np.abs(dense_sol.x))
        assert np.max(np.abs(sol.x - dense_sol.x)) <= bound * scale


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
    for deg, marker in zip(angles, markers):
        diagonal, dense = _diagonal_and_dense(
            grid, marker, sd, bounds.alpha, bounds.beta
        )
        _assert_same_kernel(diagonal, dense,
                            5e-9 if deg in CONDITION_LIMITED_DEG else 1e-12)
        modes.append(diagonal[0])
    for deg, mode in zip(angles, modes):
        if deg in RANK_DEFICIENT_DEG:
            assert mode == "RankDeficientConstraints"
    assert {"Exact", "SoftConstraint"} <= set(modes)


def _sphere_markers():
    """The sphere benchmark's geometry: grid, signed distance and 150 markers.

    A Fibonacci lattice on r = 0.5 with h = 0.075, so each one-sided
    stencil holds 216 sites.
    """
    n = 150
    grid = make_grid([(-0.9, 0.9)] * 3, 0.075)
    sd = SignedDistance.circle(np.zeros(3), 0.5)
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    markers = 0.5 * np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    return grid, sd, markers


SPHERE_BOXES = ((-0.07, 0.5), (0.0, 0.75))


def test_unbounded_solve_is_the_working_set_with_nothing_pinned(monkeypatch):
    # solve_kkt and the bounded solver's working sets share one
    # factorization and one refined range-space solve. So under bounds
    # that never bind, where the working set pins nothing, the bounded
    # solver returns bitwise the unbounded x and λ: on the two-sided case-1
    # and one-sided case-2 stencils every 2.5 degrees, and on the 150
    # one-sided sphere stencils. It reuses the factor of every variable
    # and its rank verdict there: no second factor and no second check.
    calls = Counter()
    for name in ("_factor", "_check_rank"):
        def counted(*args, _name=name, _wrapped=getattr(qpsolve, name)):
            calls[_name] += 1
            return _wrapped(*args)
        monkeypatch.setattr(qpsolve, name, counted)
    problems = []
    for case in (1, 2):
        grid, sd, _, markers = _circle_markers(case, 2.5 * np.arange(144))
        problems += [_bounded_problem(grid, marker, sd if case == 2 else None,
                                      -1e9, 1e9) for marker in markers]
    grid, sd, markers = _sphere_markers()
    problems += [_bounded_problem(grid, marker, sd, -1e9, 1e9) for marker in markers]
    assert len(problems) == 2 * 144 + 150
    for problem in problems:
        x, lam = solve_kkt(
            QPProblem(problem.hessian, problem.eq_matrix, problem.eq_rhs))
        sol = solve_box_qp(problem)
        assert sol.active_set == ()
        assert x.tobytes() == sol.x.tobytes()
        assert lam.tobytes() == sol.multipliers.tobytes()
    assert calls == {"_check_rank": len(problems)}


def test_diagonal_hessian_matches_dense_on_sphere_boxes():
    # Every third marker unbounded and the rest split between the two boxes.
    grid, sd, markers = _sphere_markers()
    boxes = (None,) + SPHERE_BOXES
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


def _case4_box(deg):
    """The bounded problem solve_generating_qp poses for the case-4 marker."""
    system = _case4_system(deg)
    keep = system.Wdiag > _ZERO_WEIGHT
    return QPProblem(1.0 / system.Wdiag[keep], system.A[:, keep], system.p,
                     lower=0.0, upper=0.75)


def test_bounded_lsq_is_optimal_on_case4_phase1_and_soft_problems():
    # Phase-1's problem on every box, and the penalty problem as bounded
    # least squares on each box phase-1 finds empty, against the sign
    # conditions on the gradient.
    soft = 0
    for deg in 2.5 * np.arange(144):
        problem = _case4_box(deg)
        lo, hi = problem.bounds()
        c, b = problem.eq_matrix, problem.eq_rhs
        x = qpsolve._bounded_lsq(c, b, lo, hi)
        assert bounded_lsq_optimality(c, b, lo, hi, x) <= 1e-12, deg
        if np.max(np.abs(c @ x - b)) <= _FEASIBILITY:
            continue
        soft += 1
        root = np.sqrt(qpsolve._PENALTY)
        matrix = np.vstack([np.diag(np.sqrt(problem.hessian)), root * c])
        rhs = np.concatenate([np.zeros(problem.n), root * b])
        x = qpsolve._bounded_lsq(matrix, rhs, lo, hi)
        assert bounded_lsq_optimality(matrix, rhs, lo, hi, x) <= 1e-12, deg
    assert soft >= 10


def test_bounded_lsq_is_optimal_on_random_boxes():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m, n = rng.integers(1, 8), rng.integers(1, 10)
        matrix = rng.standard_normal((m, n))
        rhs = 3.0 * rng.standard_normal(m)
        lo, hi = -rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        fixed = rng.random(n) < 0.2
        hi[fixed] = lo[fixed]
        x = qpsolve._bounded_lsq(matrix, rhs, lo, hi)
        assert bounded_lsq_optimality(matrix, rhs, lo, hi, x) <= 1e-12
        assert np.array_equal(x[fixed], lo[fixed])


def test_importing_the_package_does_not_load_scipy_optimize():
    # The bounded least squares imports scipy.optimize on first use only.
    src = str(Path(qpsolve.__file__).resolve().parents[1])
    code = "import sys, ibkernel; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_rank_rule_reads_the_condition_number_on_the_case4_sweep(monkeypatch):
    # Every Gram factor the rank rule sees over the 0.5-degree sweep: its
    # verdict is cond(R)² > 1e13 by numpy's own SVD, and it refuses only
    # the eight optima the solver has always refused.
    seen = []
    check = qpsolve._check_rank

    def recording(r_eq):
        try:
            check(r_eq)
        except RankDeficientConstraints:
            seen.append((r_eq.copy(), True))
            raise
        seen.append((r_eq.copy(), False))

    monkeypatch.setattr(qpsolve, "_check_rank", recording)
    refused = []
    for deg in 0.5 * np.arange(720):
        try:
            solve_box_qp(_case4_box(deg))
        except RankDeficientConstraints:
            refused.append(deg)
        except Infeasible:
            pass
    assert len(seen) > 720
    for r_eq, raised in seen:
        assert raised == (np.linalg.cond(r_eq) ** 2 > 1e13)
    assert refused == list(RANK_DEFICIENT_DEG)


def test_every_empty_case4_box_carries_a_farkas_certificate():
    # Over the 0.5-degree sweep, each Infeasible from the dual solver
    # proves its box empty by a bound that the O(nm) oracle recomputes
    # from the certificate alone. The bound is a lower bound on every
    # point's equality miss, so phase-1's minimizer misses by at least it.
    bounds = []
    for deg in 0.5 * np.arange(720):
        problem = _case4_box(deg)
        try:
            solve_box_qp(problem)
        except Infeasible as exc:
            margin = farkas_margin(problem, exc.certificate)
            assert margin == pytest.approx(exc.violation, rel=1e-9), deg
            assert _FEASIBILITY < margin <= phase1_feasible(problem).violation, deg
            bounds.append(margin)
        except RankDeficientConstraints:
            assert deg in RANK_DEFICIENT_DEG
    assert len(bounds) == 236
    assert min(bounds) > 1e-4


def test_phase1_runs_only_on_the_case4_rank_refusals(monkeypatch):
    calls = []

    def counted(problem):
        calls.append(deg)
        return phase1_feasible(problem)

    monkeypatch.setattr(qpsolve, "phase1_feasible", counted)
    modes = Counter()
    for deg in 0.5 * np.arange(720):
        try:
            kw = solve_generating_qp(_case4_system(deg), bounds=(0.0, 0.75))
        except RankDeficientConstraints:
            modes["RankDeficientConstraints"] += 1
        else:
            modes[kw.mode.value] += 1
    assert calls == list(RANK_DEFICIENT_DEG)
    assert modes == {"Exact": 476, "SoftConstraint": 236,
                     "RankDeficientConstraints": 8}


@pytest.mark.parametrize("scale", [1e-2, 1e2, 1e4])
def test_certified_modes_match_phase1s_under_a_scaled_weight_profile(scale):
    # With c·ψ6 the zero-weight cut keeps other sites, so the boxes and
    # their modes differ from ψ6's; each must still be the mode that
    # phase-1 alone would choose: soft where it finds the box empty, and
    # the dual solver's outcome where it does not.
    wf = WeightFunction.custom1d(0.075, lambda r: scale * eval_psi6(r), 3.0)
    for deg in 2.5 * np.arange(144):
        system = _case4_system(deg, wf)
        keep = system.Wdiag > _ZERO_WEIGHT
        problem = QPProblem(1.0 / system.Wdiag[keep], system.A[:, keep],
                            system.p, lower=0.0, upper=0.75)
        if phase1_feasible(problem).feasible:
            want = _mode_and_solution(solve_box_qp, problem)[0]
        else:
            want = "SoftConstraint"
        try:
            got = solve_generating_qp(system, bounds=(0.0, 0.75)).mode.value
        except IBKernelError as exc:
            got = type(exc).__name__
        assert got == want, deg


def _sweep_boxes(group):
    """Case 3 or case 4 at every 0.5 degrees, or "sphere": 150 markers in each box."""
    if group == "sphere":
        grid, sd, markers = _sphere_markers()
        return [_bounded_problem(grid, marker, sd, *box)
                for box in SPHERE_BOXES for marker in markers]
    grid, sd, bounds, markers = _circle_markers(group, 0.5 * np.arange(720))
    return [_bounded_problem(grid, marker, sd, bounds.alpha, bounds.beta)
            for marker in markers]


def _started_from(start):
    """``solve_box_qp`` started from the multipliers ``start``.

    qpsolve calls ``_solve_tri`` only for λ₀ = R⁻¹R⁻ᵀb (the inner solve
    has trans=1), so standing in for it there replaces λ₀ by ``start``.
    """
    def solve(problem):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qpsolve, "_solve_tri",
                          lambda r, v, trans=0: v if trans else np.array(start, float))
            return solve_box_qp(problem)
    return solve


@pytest.mark.parametrize("group", [3, 4, "sphere"])
def test_any_start_gives_the_hot_starts_kernel(group):
    # The result is the working set on the final free set and pinned
    # values, computed by one fixed sequence, so it does not depend on the
    # path. solve_box_qp's own start (the multipliers λ₀ of the
    # equality-constrained minimizer), λ = 0 and a seeded perturbation of
    # λ₀ all end in the same mode, with bitwise the same kernel.
    rng = np.random.default_rng(7)
    steps = Counter()
    for problem in _sweep_boxes(group):
        lam0 = solve_eq_qp(
            QPProblem(problem.hessian, problem.eq_matrix, problem.eq_rhs)).multipliers
        starts = {"zero": np.zeros(problem.m),
                  "perturbed": lam0 * (1.0 + rng.normal(size=problem.m))}
        hot_mode, hot = _mode_and_solution(solve_box_qp, problem)
        for name, start in starts.items():
            mode, sol = _mode_and_solution(_started_from(start), problem)
            assert mode == hot_mode, name
            if sol is not None:
                assert np.array_equal(sol.x, hot.x), name
                steps[name] += sol.iterations - 1
        if hot is not None:
            steps["hot"] += hot.iterations - 1
    # Newton steps over the Exact boxes from λ₀, against 1,478, 2,053 and
    # 629 from λ = 0.
    assert steps["hot"] == {3: 758, 4: 1577, "sphere": 455}[group]
    assert steps["hot"] < steps["zero"]


def test_soft_case4_kernels_sit_on_their_bounds_and_are_stationary():
    # The augmented dual solve pins each site exactly on its bound, so the
    # KKT audit sees every active bound. Over the 236 soft kernels of the
    # 0.5-degree sweep the stationarity residual stays within 1e-4 of
    # max|Hx|, and Ψ within 1e-10 of max|Ψ| of the dense reference.
    soft = 0
    for deg in 0.5 * np.arange(720):
        problem = _case4_box(deg)
        if _mode_and_solution(solve_box_qp, problem)[0] != "Infeasible":
            continue
        soft += 1
        sol = solve_soft_qp(problem)
        scale = np.max(np.abs(problem.hessian * sol.x))
        assert check_kkt(problem, sol).stationarity <= 1e-4 * scale, deg
        ref = augmented_soft_qp(problem)
        assert np.max(np.abs(sol.x - ref)) <= 1e-10 * np.max(np.abs(ref)), deg
    assert soft == 236


def test_exact_bounded_kernels_meet_their_moments_to_rounding():
    # Every Exact kernel of case 3 and case 4 at 0.5 degrees, and every
    # kernel of the sphere boxes, as kernel_for returns it.
    runs = []
    for case in (3, 4):
        cfg = CircleCaseConfig.for_case(case, marker_angles_deg=0.5 * np.arange(720))
        runs.append((cfg.strategy(), make_grid(cfg.extents, cfg.mesh_width),
                     cfg.marker_positions()))
    grid, sd, markers = _sphere_markers()
    for alpha, beta in SPHERE_BOXES:
        strategy = KernelStrategy(WeightFunction.six_point_spline(0.075),
                                  BasisDegree.LINEAR, sd, KernelBounds(alpha, beta))
        runs.append((strategy, grid, markers))
    exact = 0
    for strategy, grid, markers in runs:
        for marker in markers:
            try:
                _, weights = strategy.kernel_for(grid, marker)
            except RankDeficientConstraints:
                continue
            if weights.mode is SolveMode.EXACT:
                exact += 1
                assert weights.equality_residual <= 1e-14, marker
    assert exact == 720 + 476 + 300


def test_mode_follows_the_sign_of_the_lp_box_margin():
    # The LP margin is computed apart from phase-1 and the dual solver's
    # certificate: the largest t with A·Ψ = p and α + t ≤ Ψ ≤ β − t on the
    # supported sites. Below zero the box holds no kernel, so the mode
    # must be SoftConstraint; above zero it holds a strictly interior
    # one, so the kernel is Exact or refused by the rank rule. Case 3 and
    # case 4 every 2.5 degrees, and the 150 sphere markers in each box.
    runs = [(case, *_circle_markers(case, 2.5 * np.arange(144))) for case in (3, 4)]
    grid, sd, markers = _sphere_markers()
    runs += [("sphere", grid, sd, KernelBounds(*box), markers) for box in SPHERE_BOXES]
    tallies = Counter()
    for group, grid, sd, bounds, markers in runs:
        strategy = KernelStrategy(WeightFunction.six_point_spline(grid.spacing[0]),
                                  BasisDegree.LINEAR, sd, bounds)
        for marker in markers:
            margin = box_margin(
                _bounded_problem(grid, marker, sd, bounds.alpha, bounds.beta))
            assert abs(margin) > 1e-9, (group, marker, margin)
            try:
                mode = strategy.kernel_for(grid, marker)[1].mode.value
            except RankDeficientConstraints:
                mode = "RankDeficientConstraints"
            if margin < 0.0:
                assert mode == "SoftConstraint", (group, marker, margin)
            else:
                assert mode in ("Exact", "RankDeficientConstraints"), (group, marker)
            tallies[group, mode] += 1
    assert tallies == {(3, "Exact"): 144, (4, "Exact"): 92, (4, "SoftConstraint"): 48,
                       (4, "RankDeficientConstraints"): 4, ("sphere", "Exact"): 300}


def test_a_box_excluding_zero_bounds_the_supported_sites_only():
    # A two-sided ψ6 marker on a cell centre reaches 5 of its 6 window
    # cells per axis; the other 11 of the 36 sites carry W = 0 and stay
    # structural zeros, so a lower bound above 0 leaves them out.
    grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
    strategy = KernelStrategy(WeightFunction.six_point_spline(0.075), BasisDegree.LINEAR,
                              None, KernelBounds(1e-6, 1.0))
    _, kw = strategy.kernel_for(grid, [0.0125, 0.0125])
    assert kw.mode is SolveMode.EXACT
    assert kw.equality_residual <= 1e-10
    assert kw.psi.size == 36 and np.count_nonzero(kw.support) == 25
    assert np.all(kw.psi[~kw.support] == 0.0)
    assert kw.supported_psi().min() >= 1e-6


# Case-2 markers at which the box (0.01, 0.75) holds a kernel (positive LP
# margin) but the dual solver raises MaxIterationsExceeded; phase-1 finds
# the box non-empty, so the error is not handed to the soft fallback.
MAX_ITERATIONS_CASE2_DEG = (215.0, 235.0)


def test_case2_box_excluding_zero_follows_the_lp_margin_on_the_support():
    # The case-2 circle every 5 degrees in the box (0.01, 0.75), which
    # excludes 0: Ψ is exactly 0 off the support and inside the box on it,
    # and the mode follows the sign of the LP margin over the supported
    # sites.
    bounds = KernelBounds(0.01, 0.75)
    angles = 5.0 * np.arange(72)
    grid, sd, _, markers = _circle_markers(2, angles)
    strategy = KernelStrategy(WeightFunction.six_point_spline(grid.spacing[0]),
                              BasisDegree.LINEAR, sd, bounds)
    tallies = Counter()
    for deg, marker in zip(angles, markers):
        margin = box_margin(_bounded_problem(grid, marker, sd, bounds.alpha, bounds.beta))
        assert abs(margin) > 1e-9, (deg, margin)
        try:
            _, kw = strategy.kernel_for(grid, marker)
        except MaxIterationsExceeded:
            assert deg in MAX_ITERATIONS_CASE2_DEG and margin > 0.0, deg
            continue
        assert np.all(kw.psi[~kw.support] == 0.0), deg
        psi = kw.supported_psi()
        assert np.all((psi >= bounds.alpha) & (psi <= bounds.beta)), deg
        assert (kw.mode is SolveMode.SOFT_CONSTRAINT) == (margin < 0.0), (deg, margin)
        if kw.mode is SolveMode.EXACT:
            assert kw.equality_residual <= 1e-10, deg
        tallies[kw.mode] += 1
    assert tallies[SolveMode.EXACT] >= 15 and tallies[SolveMode.SOFT_CONSTRAINT] >= 50


def test_case2_box_excluding_zero_converges_past_the_newton_cap(monkeypatch):
    # The case-2 markers that raise MaxIterationsExceeded in the box
    # (0.01, 0.75) do not cycle: most of their Newton steps have 2 free
    # sites for 3 moment rows, so they take the regularized step for
    # dependent rows, and they need 113 (149.5°, 300.5°) and 296 (215°,
    # 235°) working sets. With the cap at 400 each comes back Exact inside
    # the box. 38.5° and 51.5° stay rank refusals at any cap: their Gram
    # at the optimum has condition number 1.7e14.
    bounds = KernelBounds(0.01, 0.75)
    slow, refused = (149.5, 215.0, 235.0, 300.5), (38.5, 51.5)
    grid, sd, _, markers = _circle_markers(2, np.array(slow + refused))
    strategy = KernelStrategy(WeightFunction.six_point_spline(grid.spacing[0]),
                              BasisDegree.LINEAR, sd, bounds)
    for marker in markers[:len(slow)]:
        with pytest.raises(MaxIterationsExceeded):
            strategy.kernel_for(grid, marker)
    monkeypatch.setattr(qpsolve, "_NEWTON_STEPS", 400)
    for deg, marker in zip(slow + refused, markers):
        problem = _bounded_problem(grid, marker, sd, bounds.alpha, bounds.beta)
        assert box_margin(problem) > 0.0, deg
        if deg in refused:
            with pytest.raises(RankDeficientConstraints):
                strategy.kernel_for(grid, marker)
            continue
        _, kw = strategy.kernel_for(grid, marker)
        assert kw.mode is SolveMode.EXACT, deg
        assert kw.equality_residual <= 1e-10, deg
        psi = kw.supported_psi()
        assert np.all((psi >= bounds.alpha) & (psi <= bounds.beta)), deg
        assert solve_box_qp(problem).iterations == {
            149.5: 113, 215.0: 296, 235.0: 296, 300.5: 113}[deg]


@pytest.mark.parametrize("box, angles", [((0.01, 0.75), (151.5, 298.5)),
                                         ((0.0, 0.3), (125.0, 151.5, 298.5, 325.0))])
def test_case2_empty_box_goes_soft_through_phase1(box, angles):
    # The real "uncertified failure, phase-1 finds the box empty" path: at
    # these case-2 markers the dual solver reaches its Newton cap without
    # a certificate, so phase-1 decides the box, finds it empty and the
    # kernel goes soft. The LP margins read -4.9e-3, -2.5e-3 and -3.9e-4,
    # and phase-1's violations 1.2e-2, 3.6e-3 and 6.6e-4.
    grid, sd, _, markers = _circle_markers(2, np.array(angles))
    strategy = KernelStrategy(WeightFunction.six_point_spline(grid.spacing[0]),
                              BasisDegree.LINEAR, sd, KernelBounds(*box))
    for deg, marker in zip(angles, markers):
        problem = _bounded_problem(grid, marker, sd, *box)
        with pytest.raises(MaxIterationsExceeded):
            solve_box_qp(problem)
        assert not phase1_feasible(problem).feasible, deg
        assert box_margin(problem) < 0.0, deg
        _, kw = strategy.kernel_for(grid, marker)
        assert kw.mode is SolveMode.SOFT_CONSTRAINT, deg
        psi = kw.supported_psi()
        assert np.all((psi >= box[0]) & (psi <= box[1])), deg
