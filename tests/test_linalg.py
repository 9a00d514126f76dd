import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import saddle_solve

from ibkernel.errors import NotSPD, RankDeficientConstraints
from ibkernel.ibops import make_grid, support_stencil
from ibkernel.kernels import (
    BasisDegree,
    WeightFunction,
    assemble_system,
    build_basis,
)
from ibkernel.linalg import (
    DEFAULT_TOLERANCES,
    QPProblem,
    ToleranceSet,
    solve_kkt,
    solve_spd,
)
from ibkernel.onesided import SignedDistance, classify_side, restrict_weights


def test_solve_spd_identity():
    x = solve_spd(np.eye(3), [1.0, 2.0, 3.0])
    assert_allclose(x, [1.0, 2.0, 3.0])


def test_solve_spd_diagonal():
    x = solve_spd([[4.0, 0.0], [0.0, 9.0]], [8.0, 27.0])
    assert_allclose(x, [2.0, 3.0])


def test_solve_spd_dense_2x2():
    # [[2,1],[1,2]] x = (3,3) has the hand solution x = (1,1)
    x = solve_spd([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_solve_spd_rejects_asymmetric():
    with pytest.raises(ValueError):
        solve_spd([[1.0, 2.0], [0.0, 1.0]], [1.0, 1.0])


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotSPD):
        solve_spd([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])


def test_solve_spd_rejects_tiny_pivot():
    a = np.diag([1.0, 1e-16])
    with pytest.raises(NotSPD):
        solve_spd(a, [1.0, 1.0])


def test_solve_spd_random_residuals():
    npr.seed(3)
    for _ in range(25):
        n = npr.randint(1, 21)
        m = npr.randn(n, n)
        a = m.T @ m + n * np.eye(n)
        b = npr.randn(n)
        x = solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_solve_kkt_symmetric_split():
    problem = QPProblem(np.ones(2), [[1.0, 1.0]], [1.0])
    x, lam = solve_kkt(problem)
    assert_allclose(x, [0.5, 0.5], atol=1e-14)
    assert_allclose(lam, [0.5], atol=1e-14)


def test_solve_kkt_inactive_constraint():
    problem = QPProblem(np.ones(2), [[1.0, 0.0]], [0.0])
    x, lam = solve_kkt(problem)
    assert_allclose(x, [0.0, 0.0], atol=1e-15)
    assert_allclose(lam, [0.0], atol=1e-15)


def test_solve_kkt_weighted_diagonal():
    # minimize x1^2/2 + 2 x2^2 with x1 + x2 = 5: x1 = lam, 4 x2 = lam
    problem = QPProblem([1.0, 4.0], [[1.0, 1.0]], [5.0])
    x, lam = solve_kkt(problem)
    assert_allclose(x, [4.0, 1.0], atol=1e-13)
    assert_allclose(lam, [4.0], atol=1e-13)


def test_solve_kkt_no_constraints_matches_spd():
    # Without constraints the minimizer of ½ xᵀHx solves Hx = 0.
    npr.seed(11)
    h = npr.uniform(0.1, 10.0, size=4)
    problem = QPProblem(h, np.zeros((0, 4)), np.zeros(0))
    x, lam = solve_kkt(problem)
    assert lam.shape == (0,)
    assert_allclose(x, solve_spd(np.diag(h), np.zeros(4)), atol=0)


def test_solve_kkt_random_residuals():
    npr.seed(7)
    for _ in range(100):
        n = npr.randint(2, 12)
        m = npr.randint(1, n + 1)
        h = npr.uniform(0.1, 10.0, size=n)
        c = npr.randn(m, n)
        b = npr.randn(m)
        x, lam = solve_kkt(QPProblem(h, c, b))
        stat = np.max(np.abs(h * x - c.T @ lam))
        feas = np.max(np.abs(c @ x - b))
        assert stat <= 1e-10
        assert feas <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_solve_kkt_rank_deficient_rows():
    c = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    problem = QPProblem(np.ones(3), c, [1.0, 2.0])
    with pytest.raises(RankDeficientConstraints):
        solve_kkt(problem)


def test_solve_kkt_solves_ill_conditioned_weighted_rows():
    # Only the last site, with weight 2e-14, carries the second moment row,
    # so W^(1/2)Cᵀ has singular values about 1.7 and 1.4e-7: far from
    # dependent by rank_pivot, though its Gram matrix has condition 1e14.
    # The moments hold to rounding; the weights lose about cond(W^(1/2)Cᵀ)
    # times machine epsilon.
    w = np.array([1.0, 1.0, 1.0, 2e-14])
    c = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    x, _ = solve_kkt(QPProblem(1.0 / w, c, [1.0, 0.25]))
    assert np.max(np.abs(c @ x - [1.0, 0.25])) <= 1e-14
    assert_allclose(x, [0.25, 0.25, 0.25, 0.25], rtol=1e-8)


def test_solve_kkt_indefinite_on_null_space():
    # null space of [1, 0] is e2; H restricted there is -1. The range-space
    # solve factors H itself, so it refuses any indefinite H.
    problem = QPProblem([1.0, -1.0], [[1.0, 0.0]], [1.0])
    with pytest.raises(NotSPD):
        solve_kkt(problem)


def _assert_matches_saddle_solve(h, c, b, rtol=1e-12):
    x, lam = solve_kkt(QPProblem(h, c, b))
    x_ref, lam_ref = saddle_solve(h, c, b)
    assert np.max(np.abs(x - x_ref)) <= rtol * np.max(np.abs(x_ref))
    assert np.max(np.abs(lam - lam_ref)) <= rtol * np.max(np.abs(lam_ref))


def test_solve_kkt_matches_saddle_solve_on_random_problems():
    npr.seed(13)
    for _ in range(50):
        n = npr.randint(2, 12)
        m = npr.randint(1, n + 1)
        h = npr.uniform(0.1, 10.0, size=n)
        _assert_matches_saddle_solve(h, npr.randn(m, n), npr.randn(m))


def test_solve_kkt_square_constraints_fix_x():
    # m = n: C alone fixes x = C⁻¹b, and the QR factor of L⁻¹Cᵀ is square.
    npr.seed(19)
    for n in (1, 2, 4, 9):
        h = npr.uniform(0.1, 10.0, size=n)
        c = npr.randn(n, n) + n * np.eye(n)
        b = npr.randn(n)
        x, lam = solve_kkt(QPProblem(h, c, b))
        assert_allclose(x, np.linalg.solve(c, b), rtol=1e-12, atol=1e-14)
        assert_allclose(lam, np.linalg.solve(c.T, h * x), rtol=1e-12, atol=1e-14)
        _assert_matches_saddle_solve(h, c, b)

@pytest.mark.parametrize("dimension", [2, 3])
def test_solve_kkt_matches_saddle_solve_on_one_sided_stencils(dimension):
    npr.seed(17 + dimension)
    h = 0.075
    grid = make_grid([(-1.0, 1.0)] * dimension, h)
    wf = WeightFunction.six_point_spline(h)
    basis = build_basis(dimension, BasisDegree.LINEAR)
    sd = SignedDistance.circle(np.zeros(dimension), 0.5)
    for _ in range(10):
        direction = npr.randn(dimension)
        marker = 0.5 * direction / np.linalg.norm(direction)
        stencil = support_stencil(grid, marker, wf.radius_in_cells)
        system = assemble_system(stencil.sites, marker, wf, basis)
        system = restrict_weights(system, classify_side(sd, stencil.sites))
        keep = system.Wdiag > DEFAULT_TOLERANCES.zero_weight
        _assert_matches_saddle_solve(
            1.0 / system.Wdiag[keep], system.A[:, keep], system.p
        )


@pytest.mark.parametrize("dimension", [2, 3])
def test_diagonal_solve_kkt_matches_saddle_solve_on_stencils(dimension):
    # W⁻¹ passed as its diagonal, as solve_generating_qp passes it, on
    # two-sided and one-sided stencils.
    npr.seed(17 + dimension)
    h = 0.075
    grid = make_grid([(-1.0, 1.0)] * dimension, h)
    wf = WeightFunction.six_point_spline(h)
    basis = build_basis(dimension, BasisDegree.LINEAR)
    sd = SignedDistance.circle(np.zeros(dimension), 0.5)
    for _ in range(10):
        direction = npr.randn(dimension)
        marker = 0.5 * direction / np.linalg.norm(direction)
        stencil = support_stencil(grid, marker, wf.radius_in_cells)
        two_sided = assemble_system(stencil.sites, marker, wf, basis)
        one_sided = restrict_weights(two_sided, classify_side(sd, stencil.sites))
        for system in (two_sided, one_sided):
            keep = system.Wdiag > DEFAULT_TOLERANCES.zero_weight
            _assert_matches_saddle_solve(
                1.0 / system.Wdiag[keep], system.A[:, keep], system.p, rtol=1e-14
            )


def test_diagonal_hessian_validation():
    c, b = np.ones((1, 3)), [1.0]
    for bad in ([1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError):
            QPProblem(bad, c, b)
    for entry in (0.0, -1.0):
        with pytest.raises(NotSPD):
            solve_kkt(QPProblem([1.0, entry, 1.0], c, b))


def test_diagonal_hessian_has_no_relative_pivot_floor():
    # Entries spanning 1e20 pass (a diagonal has no factorization error),
    # where a Cholesky factorization of the dense form fails the pivot floor.
    h = np.array([1e-6, 1.0, 1e14])
    c = np.array([[1.0, 1.0, 1.0]])
    x, lam = solve_kkt(QPProblem(h, c, [1.0]))
    x_ref, lam_ref = saddle_solve(h, c, [1.0])
    assert_allclose(x, x_ref, rtol=1e-14)
    assert_allclose(lam, lam_ref, rtol=1e-14)
    with pytest.raises(NotSPD):
        solve_spd(np.diag(h), [1.0, 1.0, 1.0])


def test_kkt_system_validation():
    # solve_kkt's input is a QPProblem, which rejects bad data at construction
    with pytest.raises(ValueError):
        QPProblem(np.ones(2), np.ones((3, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="1-D diagonal"):
        QPProblem(np.eye(2), np.ones((1, 2)), [1.0])
    with pytest.raises(ValueError):
        QPProblem(np.ones(2), np.ones((1, 3)), [1.0])
    with pytest.raises(ValueError):
        solve_kkt(QPProblem(np.ones(2), np.ones((1, 2)), [1.0], lower=0.0))


def test_tolerance_set_defaults():
    tol = ToleranceSet()
    assert tol.rank_pivot == 1e-12
    assert tol.zero_weight == 1e-14
    assert tol.feasibility == 1e-9
    assert not hasattr(tol, "spd_pivot")
    assert not hasattr(tol, "residual")
    assert not hasattr(tol, "complementarity")
    assert tol == DEFAULT_TOLERANCES
