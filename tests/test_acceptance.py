"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
pytest -s, and in the failure report otherwise) and asserts the criterion
exactly as stated. Criterion 4 checks that the solve mode agrees with
phase-1 on case 4's [0, 0.75] box, against a box margin computed
independently by linear programming: the paper's four markers are
strictly feasible (margins +1.7e-3 to +7.0e-3) and must finish Exact,
while the marker at 0 deg is infeasible (margin -2.5e-3) and must finish
SoftConstraint with the weights still inside the box.
"""

import time

import numpy as np
import numpy.random as npr
import scipy.optimize
from oracles import brute_force_box_qp, closed_form_psi, random_box_problem

from ibkernel.experiments import (
    CircleCaseConfig,
    run_circle_case,
    validate_moments,
)
from ibkernel.ibops import (
    GridField,
    interpolate,
    make_grid,
    spread,
    support_stencil,
)
from ibkernel.kernels import (
    BasisDegree,
    WeightFunction,
    assemble_system,
    build_basis,
    eval_psi6,
    tensor_weight,
)
from ibkernel.linalg import DEFAULT_TOLERANCES
from ibkernel.onesided import classify_side, restrict_weights
from ibkernel.qpsolve import (
    Peskin4Weights,
    QPProblem,
    phase1_feasible,
    solve_box_qp,
    solve_generating_qp,
    solve_peskin4,
)


def announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_case1_reproduction():
    t0 = time.perf_counter()
    table = run_circle_case(CircleCaseConfig.for_case(1))
    elapsed = time.perf_counter() - t0

    wf = WeightFunction.six_point_spline(0.075)
    diff_inf = 0.0
    for row in table.rows:
        raw = np.array(
            [tensor_weight(s, row.position, wf) for s in row.stencil.sites]
        )
        diff_inf = max(diff_inf, float(np.max(np.abs(row.weights.psi - raw))))

    ok = table.max_rel_error <= 1e-12 and diff_inf <= 1e-10 and elapsed < 1.0
    announce(
        1, ok,
        f"case 1 max rel error {table.max_rel_error:.2e} (<= 1e-12), "
        f"max |psi - psi6| {diff_inf:.2e} (<= 1e-10), runtime {elapsed:.3f}s "
        f"(< 1 s)",
    )
    assert table.max_rel_error <= 1e-12
    assert diff_inf <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_case2_reproduction():
    table = run_circle_case(CircleCaseConfig.for_case(2))
    range_ok = (
        abs(table.psi_min - (-0.3627)) <= 1e-3
        and abs(table.psi_max - 0.9178) <= 1e-3
    )
    ok = table.max_rel_error <= 1e-12 and range_ok
    announce(
        2, ok,
        f"case 2 max rel error {table.max_rel_error:.2e} (<= 1e-12), "
        f"psi range [{table.psi_min:.6f}, {table.psi_max:.6f}] vs "
        f"[-0.3627, 0.9178] +- 1e-3",
    )
    assert table.max_rel_error <= 1e-12
    assert range_ok


def test_criterion_3_case3_reproduction():
    table = run_circle_case(CircleCaseConfig.for_case(3))
    bounds_ok = table.psi_min >= -0.07 - 1e-10 and table.psi_max <= 0.5 + 1e-10
    basis = build_basis(2, BasisDegree.LINEAR)
    first_moment = max(
        float(np.max(validate_moments(row.weights, basis)[1:]))
        for row in table.rows
    )
    ok = bounds_ok and table.max_rel_error <= 1e-8 and first_moment <= 1e-10
    announce(
        3, ok,
        f"case 3 bounds [{table.psi_min:.4f}, {table.psi_max:.4f}] within "
        f"[-0.07, 0.5] to 1e-10, max rel error {table.max_rel_error:.2e} "
        f"(<= 1e-8), first-moment residual {first_moment:.2e} (<= 1e-10)",
    )
    assert bounds_ok
    assert table.max_rel_error <= 1e-8
    assert first_moment <= 1e-10


def _box_margin(problem):
    """Largest t with A·x = p and lower + t <= x <= upper - t, by LP.

    Independent of phase-1: positive means the box holds a strictly
    interior point satisfying the moment conditions, negative means no
    point of the box satisfies them.
    """
    n = problem.n
    lo, hi = problem.bounds()
    eye = np.eye(n)
    ones = np.ones((n, 1))
    result = scipy.optimize.linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.block([[-eye, ones], [eye, ones]]),
        b_ub=np.r_[-lo, hi],
        A_eq=np.hstack([problem.eq_matrix, np.zeros((problem.m, 1))]),
        b_eq=problem.eq_rhs,
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    assert result.status == 0, result.message
    return float(result.x[-1])


def _case4_phase1_reports(marker_angles_deg):
    """Phase-1 report and LP margin of the exact Case 4 subproblem.

    Returns one (angle, report, margin) triple per marker angle.
    """
    cfg = CircleCaseConfig.for_case(4, marker_angles_deg=marker_angles_deg)
    grid = make_grid(cfg.extents, cfg.mesh_width)
    strategy = cfg.strategy()
    basis = build_basis(2, strategy.degree)
    tol = DEFAULT_TOLERANCES
    reports = []
    for deg, pos in zip(cfg.marker_angles_deg, cfg.marker_positions()):
        stencil = support_stencil(
            grid, pos, strategy.weight_function.radius_in_cells
        )
        system = assemble_system(
            stencil.sites, pos, strategy.weight_function, basis, tol
        )
        system = restrict_weights(
            system, classify_side(strategy.signed_distance, stencil.sites), tol
        )
        keep = system.Wdiag > tol.zero_weight
        problem = QPProblem(
            1.0 / system.Wdiag[keep],
            system.A[:, keep],
            system.p,
            lower=cfg.bounds.alpha,
            upper=cfg.bounds.beta,
        )
        reports.append(
            (deg, phase1_feasible(problem, tol), _box_margin(problem))
        )
    return reports


# A marker on the case 4 circle whose [0, 0.75] box cannot meet the moment
# conditions (LP margin -2.5e-3), so the penalty fallback must run there.
CASE4_INFEASIBLE_DEG = 0.0


def test_criterion_4_case4_reproduction():
    table = run_circle_case(CircleCaseConfig.for_case(4))
    bounds_ok = table.psi_min >= -1e-10 and table.psi_max <= 0.75 + 1e-10
    errors_ok = table.max_rel_error <= 1e-5
    no_negatives = all(
        float(np.min(row.weights.psi)) >= -1e-10 for row in table.rows
    )

    # The mode agrees with phase-1: on the paper's four markers the box is
    # strictly feasible by LP (margins 1.7e-3 to 7.0e-3), so phase-1 must
    # agree and every row must finish Exact with the moments met.
    tol = DEFAULT_TOLERANCES
    reports = _case4_phase1_reports([row.marker_deg for row in table.rows])
    paper_ok = all(
        margin > 1e-6
        and rep.feasible
        and row.mode == "Exact"
        and row.eq_residual <= 1e-10
        for (_, rep, margin), row in zip(reports, table.rows)
    )

    # At 0 deg the box is infeasible by LP, so phase-1 must say so and the
    # pipeline must fall back to SoftConstraint: moments missed, box kept.
    soft_table = run_circle_case(
        CircleCaseConfig.for_case(4, marker_angles_deg=(CASE4_INFEASIBLE_DEG,))
    )
    (soft_row,) = soft_table.rows
    ((_, soft_rep, soft_margin),) = _case4_phase1_reports(
        (CASE4_INFEASIBLE_DEG,)
    )
    soft_ok = (
        soft_margin < -1e-6
        and not soft_rep.feasible
        and soft_row.mode == "SoftConstraint"
        and soft_row.eq_residual > tol.feasibility
        and float(np.min(soft_row.weights.psi)) >= -1e-10
        and float(np.max(soft_row.weights.psi)) <= 0.75 + 1e-10
    )

    ok = bounds_ok and errors_ok and no_negatives and paper_ok and soft_ok
    paper_detail = ", ".join(
        f"{deg:g} deg margin {margin:+.2e} {row.mode}"
        for (deg, _, margin), row in zip(reports, table.rows)
    )
    announce(
        4, ok,
        f"case 4 bounds within [0, 0.75] to 1e-10: {bounds_ok}; max rel "
        f"error {table.max_rel_error:.2e} (<= 1e-5): {errors_ok}; no weight "
        f"below -1e-10: {no_negatives}; paper markers feasible and Exact: "
        f"{paper_ok} ({paper_detail}); {CASE4_INFEASIBLE_DEG:g} deg margin "
        f"{soft_margin:+.2e}, mode {soft_row.mode}, eq residual "
        f"{soft_row.eq_residual:.2e}: {soft_ok}",
    )
    assert bounds_ok
    assert errors_ok
    assert no_negatives
    for (deg, rep, margin), row in zip(reports, table.rows):
        assert margin > 1e-6, (deg, margin)
        assert rep.feasible, (deg, rep.violation)
        assert row.mode == "Exact", (deg, row.mode)
        assert row.eq_residual <= 1e-10, (deg, row.eq_residual)
    assert soft_margin < -1e-6
    assert not soft_rep.feasible, soft_rep.violation
    assert soft_row.mode == "SoftConstraint"
    assert soft_row.eq_residual > tol.feasibility
    assert float(np.min(soft_row.weights.psi)) >= -1e-10
    assert float(np.max(soft_row.weights.psi)) <= 0.75 + 1e-10


def test_criterion_5_formulation_equivalence():
    npr.seed(71)
    worst = 0.0
    grid1 = make_grid([-1.0, 1.0], 0.1)
    grid2 = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.1)
    wf = WeightFunction.six_point_spline(0.1)
    for k in range(100):
        if k % 2 == 0:
            grid, d = grid1, 1
        else:
            grid, d = grid2, 2
        basis = build_basis(d, BasisDegree.LINEAR)
        ev = npr.uniform(-0.6, 0.6, size=d)
        stencil = support_stencil(grid, ev, 3.0)
        assert len(stencil) <= 36
        system = assemble_system(stencil.sites, ev, wf, basis)
        a = closed_form_psi(system)
        b = solve_generating_qp(system)
        worst = max(worst, float(np.max(np.abs(a - b.psi))))
    ok = worst <= 1e-12
    announce(
        5, ok,
        f"standard vs constrained-minimization psi on 100 stencils, "
        f"max |diff| {worst:.2e} (<= 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_6_peskin_postulates():
    npr.seed(73)
    offsets = np.array(Peskin4Weights.OFFSETS, dtype=float)
    worst = 0.0
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        s = npr.uniform(0, 1, size=d)
        pw = solve_peskin4(s)
        for ax in range(d):
            w = pw.weights[ax]
            worst = max(worst, abs(w[1] + w[3] - 0.5))
            worst = max(worst, abs(w[0] + w[2] - 0.5))
            worst = max(worst, abs(float((offsets - s[ax]) @ w)))
            worst = max(worst, abs(float(w @ w) - 0.375))
        t = pw.tensor()
        worst = max(worst, abs(float(np.sum(t * t)) - 0.375**d))
    w0 = solve_peskin4([0.0]).weights[0]
    worst = max(worst, float(np.max(np.abs(w0 - [0.25, 0.5, 0.25, 0.0]))))
    w_half = solve_peskin4([0.5]).weights[0]
    lo, hi = (2 - np.sqrt(2)) / 8, (2 + np.sqrt(2)) / 8
    worst = max(worst, float(np.max(np.abs(w_half - [lo, hi, hi, lo]))))
    ok = worst <= 1e-12
    announce(
        6, ok,
        f"four-point postulates over 100 shifts plus s=0, s=0.5 endpoints, "
        f"max residual {worst:.2e} (<= 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_7_active_set_oracle():
    npr.seed(79)
    worst = 0.0
    for _ in range(50):
        n = int(npr.randint(2, 8))
        problem = random_box_problem(n)
        sol = solve_box_qp(problem)
        ref_x, ref_obj = brute_force_box_qp(problem)
        assert ref_x is not None
        worst = max(worst, float(np.max(np.abs(sol.x - ref_x))))
        worst = max(worst, abs(problem.objective(sol.x) - ref_obj))
    ok = worst <= 1e-8
    announce(
        7, ok,
        f"active-set solver vs exhaustive enumeration on 50 instances "
        f"(n <= 10), max deviation {worst:.2e} (<= 1e-8)",
    )
    assert worst <= 1e-8


def test_criterion_8_adjointness():
    npr.seed(83)
    grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
    worst = 0.0
    pairs = 0
    for case in (1, 2, 3, 4):
        strategy = CircleCaseConfig.for_case(case).strategy()
        ang = npr.uniform(0, 2 * np.pi, size=3)
        rad = npr.uniform(0.5, 0.7, size=3)
        markers = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        for _ in range(25):
            u = npr.randn(grid.total_cells)
            f = npr.randn(3)
            lhs = float(spread(f, markers, grid, strategy).values @ u)
            rhs = float(f @ interpolate(GridField(u, grid), markers, strategy))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            pairs += 1
    ok = worst <= 1e-12 and pairs == 100
    announce(
        8, ok,
        f"spread/interpolate adjointness over {pairs} random pairs across "
        f"all four case strategies, max relative gap {worst:.2e} (<= 1e-12)",
    )
    assert pairs == 100
    assert worst <= 1e-12


def test_criterion_9_psi6_identities():
    npr.seed(89)
    offsets = np.arange(-2, 4)
    worst = 0.0
    for s in npr.uniform(0, 1, size=200):
        vals = eval_psi6(offsets - s)
        worst = max(worst, abs(float(np.sum(vals)) - 1.0))
        worst = max(worst, abs(float(np.sum((offsets - s) * vals))))
    ok = worst <= 1e-12
    announce(
        9, ok,
        f"partition-of-unity and first-moment identities over 200 shifts, "
        f"max residual {worst:.2e} (<= 1e-12)",
    )
    assert worst <= 1e-12
