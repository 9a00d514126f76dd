import dataclasses
import tracemalloc

import numpy as np
import numpy.random as npr
import pytest
from numpy.testing import assert_allclose
from oracles import (
    flat_index,
    full_scan_stencil,
    lapack_gram_solve,
    per_marker_interpolate,
    per_marker_spread,
    per_value_profile,
    tensor_weight,
)

from ibkernel.errors import (
    DegenerateDomain,
    InsufficientSupport,
    RankDeficientConstraints,
    StencilOutsideDomain,
)
from ibkernel.ibops import (
    GridField,
    KernelStrategy,
    _BATCH_COND_LIMIT,
    _closed_form_batch,
    _solve_grams,
    interpolate,
    make_grid,
    sample_field,
    spread,
    support_stencil,
)
from ibkernel.kernels import (
    BasisDegree,
    WeightFunction,
    build_basis,
    eval_psi4,
    eval_psi6,
)
from ibkernel.linalg import _RANK_PIVOT, _ZERO_WEIGHT
from ibkernel.onesided import KernelBounds, SignedDistance


class TestMakeGrid:
    def test_standard_square(self):
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
        assert grid.counts == (27, 27)
        assert grid.dimension == 2
        centers = grid.axis_centers(0)
        assert centers[0] == pytest.approx(-0.9625, abs=1e-15)
        assert centers[-1] == pytest.approx(0.9875, abs=1e-15)
        assert grid.right_edge[0] == pytest.approx(1.025, abs=1e-15)
        assert grid.total_cells == 729

    def test_two_cells_1d(self):
        grid = make_grid([0.0, 1.0], 0.5)
        assert grid.counts == (2,)
        assert_allclose(grid.axis_centers(0), [0.25, 0.75])

    def test_single_cell(self):
        grid = make_grid([0.0, 1.0], 1.0)
        assert grid.counts == (1,)
        assert_allclose(grid.axis_centers(0), [0.5])

    def test_degenerate(self):
        with pytest.raises(DegenerateDomain):
            make_grid([1.0, 0.0], 0.5)
        with pytest.raises(DegenerateDomain):
            make_grid([0.0, 1.0], 0.0)
        with pytest.raises(DegenerateDomain):
            make_grid([0.0, 0.2], 1.0)
        with pytest.raises(DegenerateDomain):
            make_grid(np.zeros((2, 3)), 0.5)

    def test_centers_c_order(self):
        grid = make_grid([(0.0, 1.0), (0.0, 1.0)], 0.5)
        centers = grid.centers()
        # C-order: second axis varies fastest
        assert_allclose(
            centers,
            [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]],
        )
        assert flat_index(grid, (1, 0)) == 2


class TestSampleField:
    def test_constant_maps(self):
        grid = make_grid([(0.0, 1.0), (0.0, 1.0)], 0.5)
        assert_allclose(sample_field(grid, lambda c: 0.0).values, np.zeros(4))
        assert_allclose(sample_field(grid, lambda c: 1.0).values, np.ones(4))

    def test_linear_map_frozen_value(self):
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
        field = sample_field(grid, lambda c: 10.0 * c[0] + 5.0 * c[1])
        i = flat_index(grid, (14, 13))
        assert i == 391
        center = grid.centers()[i]
        assert_allclose(center, [0.0875, 0.0125], atol=1e-15)
        assert field.values[i] == pytest.approx(0.9375, abs=1e-14)

    def test_nonfinite_rejected(self):
        grid = make_grid([0.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            sample_field(grid, lambda c: np.inf)

    def test_grid_field_count_checked(self):
        grid = make_grid([0.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            GridField(np.zeros(5), grid)


class TestSupportStencil:
    def test_on_center_1d(self):
        # Five cells lie within reach of a cell centre; the window's sixth
        # lies 3 cells off, where ψ6 is 0.
        grid = make_grid([-1.0, 1.0], 0.1)
        ev = grid.axis_centers(0)[10]
        st = support_stencil(grid, [ev], 3.0)
        assert len(st) == 6
        r = (st.sites[:, 0] - ev) / 0.1
        assert np.round(r).astype(int).tolist() == [-2, -1, 0, 1, 2, 3]
        assert eval_psi6(r[-1]) == 0.0

    def test_mid_cell_1d(self):
        grid = make_grid([-1.0, 1.0], 0.1)
        ev = grid.axis_centers(0)[10] + 0.05
        st = support_stencil(grid, [ev], 3.0)
        assert len(st) == 6

    def test_2d_tensor_counts(self):
        # A ψ6 stencil is 6 × 6 on cell centres and faces alike.
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.1)
        c = grid.axis_centers(0)[10]
        for point in ([c, c], [c + 0.05, c + 0.05], [c, c + 0.05]):
            st = support_stencil(grid, point, 3.0)
            assert len(st) == 36 and [len(a) for a in st.axes] == [6, 6]

    def test_indices_point_at_sites(self):
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
        st = support_stencil(grid, [0.1, -0.2], 3.0)
        assert_allclose(grid.centers()[st.indices], st.sites)

    def test_edge_rejected(self):
        grid = make_grid([-1.0, 1.0], 0.1)
        with pytest.raises(StencilOutsideDomain):
            support_stencil(grid, [-0.8], 3.0)
        # exactly at the margin is allowed
        st = support_stencil(grid, [-0.7], 3.0)
        assert len(st) == 6
        # Within the edge fuzz of three cells, but the window needs four.
        with pytest.raises(StencilOutsideDomain):
            support_stencil(make_grid([0.0, 3.0], 1.0), [1.5], 1.5 + 2e-13)

    def test_against_brute_force(self):
        npr.seed(47)
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
        centers = grid.centers()
        for _ in range(100):
            ev = npr.uniform(-0.7, 0.7, size=2)
            st = support_stencil(grid, ev, 3.0)
            member = np.all(np.abs(centers - ev) < 3.0 * 0.075, axis=1)
            assert set(st.indices.tolist()) == set(np.where(member)[0].tolist())
            # tensor-product structure: count factors per axis
            n0 = len(np.unique(st.sites[:, 0]))
            n1 = len(np.unique(st.sites[:, 1]))
            assert len(st) == n0 * n1


# 1D, 2D and 3D grids with per-axis spacings and non-zero origins.
_STENCIL_GRIDS = {
    "1d": make_grid([(-0.3, 1.1)], 0.07),
    "2d": make_grid([(-1.0, 1.0), (0.25, 1.45)], (0.075, 0.05)),
    "3d": make_grid([(-0.3, 1.1), (0.25, 1.45), (-2.0, -0.65)], (0.07, 0.05, 0.09)),
}


@pytest.mark.parametrize("radius", [0.6, 1.5, 1.6, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("name", sorted(_STENCIL_GRIDS))
def test_stencil_matches_full_scan(name, radius):
    """The window against the cells in reach, |c − x| < R·h on every axis,
    which ``full_scan_stencil`` finds by scanning every centre. The window
    is ⌈2R⌉ cells per axis at the grid's own centres; it holds every
    centre in reach by more than rounding, and its other cells lie at or
    beyond the reach. A centre within rounding of the reach on both sides
    of a point can leave one more cell in reach than the window holds;
    ``test_one_marker_chain`` shows that such a cell carries no weight."""
    grid = _STENCIL_GRIDS[name]
    k = int(np.ceil(2 * radius))
    centers = grid.centers()
    rng = npr.default_rng([int(2 * radius), grid.dimension])
    h = np.array(grid.spacing)
    # The closest a point may come to each edge, on every axis at once.
    lo = np.array(grid.origin) + radius * h
    hi = np.array(grid.right_edge) - radius * h
    points = [lo, hi, np.where(rng.random(grid.dimension) < 0.5, lo, hi)]
    points += list(rng.uniform(lo, hi, (40, grid.dimension)))
    for _ in range(20):
        center = []
        for ax in range(grid.dimension):
            c = grid.axis_centers(ax)
            center.append(rng.choice(c[(c >= lo[ax]) & (c + 0.5 * h[ax] <= hi[ax])]))
        center = np.array(center)
        points += [center, center + 0.5 * h, np.nextafter(center, center + h),
                   np.nextafter(center, center - h)]
    for point in points:
        st = support_stencil(grid, point, radius)
        assert st.indices.dtype == np.intp and len(st) == k**grid.dimension
        assert [len(a) for a in st.axes] == [k] * grid.dimension
        assert st.sites.tobytes() == centers[st.indices].tobytes()
        inner = full_scan_stencil(grid, point, radius * (1 - 1e-12))
        assert np.isin(inner.indices, st.indices).all()
        reach = full_scan_stencil(grid, point, radius)
        others = ~np.isin(st.indices, reach.indices)
        offsets = np.abs(st.sites[others] - point) / h
        assert (offsets.max(axis=1, initial=0.0) >= radius * (1 - 1e-12)).all()

    # A millionth of a cell closer to an edge than the margin is refused.
    middle = 0.5 * (lo + hi)
    for ax in range(grid.dimension):
        for edge, step in ((lo, -1e-6), (hi, 1e-6)):
            point = middle.copy()
            point[ax] = edge[ax] + step * h[ax]
            with pytest.raises(StencilOutsideDomain):
                support_stencil(grid, point, radius)
            with pytest.raises(StencilOutsideDomain):
                full_scan_stencil(grid, point, radius)


class TestMarkerSet:
    """A set of markers is an (N, d) array_like of finite positions,
    which interpolate and spread check as ``kernels.as_sites`` does."""

    def test_basic(self):
        grid, strategy = _standard_setup()
        field = sample_field(grid, lambda c: 1.0 + c[0])
        markers = [[0.1, 0.2], [0.3, 0.4]]
        vals = interpolate(field, markers, strategy)
        assert vals.shape == (2,)
        as_array = interpolate(field, np.array(markers), strategy)
        assert vals.tobytes() == as_array.tobytes()
        out = spread([1.0, 2.0], markers, grid, strategy)
        assert out.values.shape == (grid.total_cells,)

    def test_nonfinite_rejected(self):
        # Non-finite coordinates, and a wrong dimension or rank.
        grid, strategy = _standard_setup()
        field = sample_field(grid, lambda c: 1.0)
        for markers in ([[0.0, np.nan]], [[0.1, 0.2], [np.inf, 0.0]],
                        [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]]):
            with pytest.raises(ValueError):
                interpolate(field, markers, strategy)
            with pytest.raises(ValueError):
                spread(np.ones(len(markers)), markers, grid, strategy)


def _standard_setup():
    grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
    strategy = KernelStrategy(WeightFunction.six_point_spline(0.075))
    return grid, strategy


class TestInterpolate:
    def test_constant_field(self):
        grid, strategy = _standard_setup()
        field = sample_field(grid, lambda c: 4.5)
        markers = [[0.4, -0.3], [0.0, 0.0], [-0.55, 0.61]]
        vals = interpolate(field, markers, strategy)
        assert_allclose(vals, 4.5, atol=1e-12)

    def test_linear_field_exact(self):
        grid, strategy = _standard_setup()
        field = sample_field(grid, lambda c: 10.0 * c[0] + 5.0 * c[1])
        markers = np.array([[0.383, -0.321], [0.5, 0.0], [-0.4, -0.6]])
        vals = interpolate(field, markers, strategy)
        exact = 10.0 * markers[:, 0] + 5.0 * markers[:, 1]
        assert np.max(np.abs(vals - exact) / np.abs(exact)) <= 1e-12

    def test_linearity_in_data(self):
        npr.seed(53)
        grid, strategy = _standard_setup()
        u = GridField(npr.randn(grid.total_cells), grid)
        v = GridField(npr.randn(grid.total_cells), grid)
        combo = GridField(2.0 * u.values - 3.0 * v.values, grid)
        markers = [[0.1, 0.2], [-0.3, 0.55]]
        got = interpolate(combo, markers, strategy)
        want = 2.0 * interpolate(u, markers, strategy) - 3.0 * interpolate(
            v, markers, strategy
        )
        assert_allclose(got, want, atol=1e-12)

    def test_marker_outside_margin(self):
        grid, strategy = _standard_setup()
        field = sample_field(grid, lambda c: 0.0)
        with pytest.raises(StencilOutsideDomain):
            interpolate(field, [[0.99, 0.0]], strategy)


class TestSpread:
    def test_zero_values(self):
        grid, strategy = _standard_setup()
        out = spread(np.zeros(2), [[0.1, 0.1], [0.2, -0.2]], grid, strategy)
        assert_allclose(out.values, np.zeros(grid.total_cells))

    def test_single_marker_scatters_psi(self):
        grid, strategy = _standard_setup()
        marker = np.array([0.17, -0.42])
        out = spread([1.0], [marker], grid, strategy)
        stencil, weights = strategy.kernel_for(grid, marker)
        expect = np.zeros(grid.total_cells)
        expect[stencil.indices] = weights.psi
        assert_allclose(out.values, expect, atol=0)

    def test_value_count_checked(self):
        grid, strategy = _standard_setup()
        with pytest.raises(ValueError):
            spread([1.0, 2.0], [[0.1, 0.1]], grid, strategy)

    def test_adjoint_identity(self):
        npr.seed(59)
        grid, strategy = _standard_setup()
        markers = npr.uniform(-0.7, 0.7, size=(4, 2))
        for _ in range(5):
            u = npr.randn(grid.total_cells)
            f = npr.randn(4)
            lhs = float(spread(f, markers, grid, strategy).values @ u)
            rhs = float(f @ interpolate(GridField(u, grid), markers, strategy))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_adjoint_with_one_sided_bounded_strategy(self):
        npr.seed(61)
        grid = make_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.075)
        strategy = KernelStrategy(
            WeightFunction.six_point_spline(0.075),
            signed_distance=SignedDistance.circle([0.0, 0.0], 0.5),
            bounds=KernelBounds(-0.07, 0.5),
        )
        ang = np.deg2rad([40.0, 230.0])
        markers = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        u = npr.randn(grid.total_cells)
        f = npr.randn(2)
        lhs = float(spread(f, markers, grid, strategy).values @ u)
        rhs = float(f @ interpolate(GridField(u, grid), markers, strategy))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# Paired kernels: an interpolate and a spread at the same markers share one
# build of the kernels. Outputs are compared with the per-marker reference
# loops in oracles.py: bitwise wherever the operators build marker by
# marker, and to 1e-12 of the output scale where several two-sided
# unbounded markers are built in one closed-form pass.


def _paired_case(dim, kind):
    """Grid, strategy, markers and a random field and spread values."""
    h = 0.075
    # The 2D grid is the paper's; the 3D one is that of the sphere bench.
    grid = make_grid([(-1.0, 1.0)] * 2 if dim == 2 else [(-0.9, 0.9)] * 3, h)
    sd = None if kind == "two-sided" else SignedDistance.circle([0.0] * dim, 0.5)
    bounds = KernelBounds(0.0, 0.75) if kind == "boxed" else None
    strategy = KernelStrategy(
        WeightFunction.six_point_spline(h), signed_distance=sd, bounds=bounds
    )
    rng = npr.default_rng(dim)
    # Three neighbouring markers share stencil sites, so the order in which
    # spread accumulates shows in the bits (two addends commute).
    if dim == 2:
        # 0 deg is a soft (box-infeasible) marker when boxed.
        ang = np.deg2rad([0.0, 40.0, 40.5, 41.0, 140.0, 230.0, 310.0])
        markers = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        d = rng.standard_normal((3, 3))
        d = np.vstack([d, d[0] + 0.02, d[0] - 0.02])
        markers = 0.5 * d / np.linalg.norm(d, axis=1, keepdims=True)
    field = GridField(rng.standard_normal(grid.total_cells), grid)
    values = rng.uniform(0.5, 2.0, len(markers))
    return grid, strategy, markers, field, values


@pytest.fixture
def builds(monkeypatch):
    """Count kernel builds by wrapping ``KernelStrategy.kernel_for``."""
    calls = []
    original = KernelStrategy.kernel_for

    def counted(self, grid, marker):
        calls.append(self)
        return original(self, grid, marker)

    monkeypatch.setattr(KernelStrategy, "kernel_for", counted)
    return calls


@pytest.mark.parametrize("order", ["interpolate-first", "spread-first"])
@pytest.mark.parametrize("kind", ["two-sided", "one-sided", "boxed"])
@pytest.mark.parametrize("dim", [2, 3])
def test_paired_operators_match_per_marker_reference(dim, kind, order, builds):
    grid, strategy, markers, field, values = _paired_case(dim, kind)
    want_values = per_marker_interpolate(field, markers, strategy)
    want_field = per_marker_spread(values, markers, grid, strategy)
    builds.clear()
    if order == "interpolate-first":
        got_values = interpolate(field, markers, strategy)
        got_field = spread(values, markers, grid, strategy).values
    else:
        got_field = spread(values, markers, grid, strategy).values
        got_values = interpolate(field, markers, strategy)
    if kind == "two-sided":
        # The closed-form pass ran: no marker was built on its own.
        assert builds == []
        assert_allclose(got_values, want_values, rtol=0,
                        atol=1e-12 * np.max(np.abs(want_values)))
        assert_allclose(got_field, want_field, rtol=0,
                        atol=1e-12 * np.max(np.abs(want_field)))
    else:
        assert len(builds) == len(markers)
        assert got_values.tobytes() == want_values.tobytes()
        assert got_field.tobytes() == want_field.tobytes()


@pytest.mark.parametrize("kind", ["two-sided", "one-sided", "boxed"])
@pytest.mark.parametrize("dim", [2, 3])
def test_one_marker_calls_match_per_marker_reference(dim, kind, builds):
    # A one-marker batch is the marker's own kernel, with no gather.
    grid, strategy, markers, field, values = _paired_case(dim, kind)
    for k in range(len(markers)):
        x, v = markers[k:k + 1], values[k:k + 1]
        want_value = per_marker_interpolate(field, x, strategy)
        want_field = per_marker_spread(v, x, grid, strategy)
        builds.clear()
        got_value = interpolate(field, x, strategy)
        got_field = spread(v, x, grid, strategy).values
        assert len(builds) == 1
        assert got_value.tobytes() == want_value.tobytes()
        assert got_field.tobytes() == want_field.tobytes()


# Several two-sided unbounded markers are built in one closed-form pass.
# Each of its kernels is checked against its own ``kernel_for`` build.


def _tiny_tail(r):
    """ψ6 within two cells, then 1e-8 out to three: where two axes reach
    the tail the tensor weight, 1e-16, is below zero_weight."""
    r = np.asarray(r, dtype=float)
    return np.where(np.abs(r) < 2.0, eval_psi6(r), 1e-8)


def _scalar_psi4(r):
    return float(eval_psi4(float(r)))  # float() rejects an array


def _scaled_psi6(r):
    """ψ6 times 1e-4: in 2D and 3D a large share of the stencil's weight
    lies on sites at or below zero_weight, which the solve eliminates."""
    return 1e-4 * eval_psi6(r)


_TABLE = np.linspace(-2.5, 2.5, 21)
_PROFILES = {
    "psi6": WeightFunction.six_point_spline,
    "psi4": WeightFunction.four_point_peskin,
    "custom-array": lambda h: WeightFunction.custom1d(h, _tiny_tail, 3.0),
    "custom-scalar": lambda h: WeightFunction.custom1d(
        h, per_value_profile(_scalar_psi4), 2.0),
    "custom-scaled": lambda h: WeightFunction.custom1d(h, _scaled_psi6, 3.0),
    "table": lambda h: WeightFunction.from_table(
        h, _TABLE, 1.0 - (_TABLE / 2.5) ** 2, 2.5
    ),
}


def _parity_case(dim, wf):
    """A grid with non-zero origin, and markers on cell centers, on cell
    faces (half a cell off) and exactly at the edge margin."""
    h = wf.mesh_width
    grid = make_grid([(0.3, 1.0), (-1.7, -1.05), (2.1, 2.75)][:dim], h)
    o, right = np.array(grid.origin), np.array(grid.right_edge)
    margin = wf.radius_in_cells * h
    markers = np.array([
        o + (np.array([7, 8, 6][:dim]) + 0.5) * h,
        o + (np.array([5, 9, 8][:dim]) + 0.5) * h,
        o + np.array([8, 6, 7][:dim]) * h,
        o + np.array([6, 7, 9][:dim]) * h,
        o + margin,
        right - margin,
        np.where(np.arange(dim) % 2, o + margin, right - margin),
    ])
    return grid, markers


@pytest.mark.parametrize("degree", list(BasisDegree))
@pytest.mark.parametrize("profile", sorted(_PROFILES))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_batch_matches_kernel_for(dim, profile, degree, builds):
    wf = _PROFILES[profile](0.05)
    grid, markers = _parity_case(dim, wf)
    strategy = KernelStrategy(wf, degree=degree)
    indices, psi = strategy._batch("interpolate", grid, markers)
    assert builds == []
    assert indices.flags.c_contiguous and psi.flags.c_contiguous
    basis = build_basis(dim, degree)
    dropped = 0
    for x, got_indices, got in zip(markers, indices, psi):
        stencil = support_stencil(grid, x, wf.radius_in_cells)
        assert got_indices.dtype == stencil.indices.dtype
        assert got_indices.tobytes() == stencil.indices.tobytes()
        _, want = strategy.kernel_for(grid, x)
        assert np.max(np.abs(got - want.psi)) <= 1e-12 * np.max(np.abs(want.psi))
        w = np.array([tensor_weight(site, x, wf) for site in stencil.sites])
        assert np.all(got[w <= _ZERO_WEIGHT] == 0.0)
        dropped += np.count_nonzero((w > 0.0) & (w <= _ZERO_WEIGHT))
        moments = basis.rows(stencil.sites, x) @ got - basis.at_eval()
        assert np.max(np.abs(moments)) <= 1e-12
    if profile in ("custom-array", "custom-scaled") and dim > 1:
        assert dropped > 0


def test_closed_form_batch_on_a_coarser_grid_than_the_profile(builds):
    # ψ6 of width 1e-4 on a grid of spacing (1e-4, 3e-4): along the coarse
    # axis Σφr ≠ 0, and the scaled Gram's condition number ranges over
    # several decades with the marker. Without the condition bound this
    # call's batch read 1.3e-10·max|Ψ| from kernel_for; above it the call
    # builds marker by marker.
    grid = make_grid([(0.0, 0.03), (0.0, 0.09)], (1e-4, 3e-4))
    wf = WeightFunction.six_point_spline(1e-4)
    rng = np.random.default_rng(0)
    markers = np.stack(
        [rng.uniform(0.001, 0.029, 30), rng.uniform(0.003, 0.087, 30)], axis=1
    )
    want = [KernelStrategy(wf).kernel_for(grid, x)[1].psi for x in markers]
    builds.clear()
    _, psi = KernelStrategy(wf)._batch("interpolate", grid, markers)
    for got, ref in zip(psi, want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # Each marker alone (given twice, so the call is a batch) is either
    # taken by the closed-form pass, within 1e-12, or built by kernel_for.
    taken = 0
    for x, ref in zip(markers, want):
        builds.clear()
        _, psi = KernelStrategy(wf)._batch("interpolate", grid, np.stack([x, x]))
        taken += not builds
        assert np.max(np.abs(psi[0] - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert 0 < taken < len(markers)


def _short_run_case(dim, kind):
    """The paired case with two markers moved onto their nearest cell
    centers. The cells 3h from a center lie on the ψ6 support's edge, so
    such a marker has a short run of 5 cells within reach on an axis where
    the others have 6; its window holds 6 all the same."""
    grid, strategy, markers, field, values = _paired_case(dim, kind)
    o, h = np.array(grid.origin), np.array(grid.spacing)
    centers = o + (np.floor((markers[[1, -1]] - o) / h) + 0.5) * h
    markers = np.vstack([markers, centers])
    return grid, strategy, markers, field, np.concatenate([values, values[:2]])


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_batch_with_short_runs(dim, builds):
    grid, strategy, markers, _, _ = _short_run_case(dim, "two-sided")
    indices, psi = strategy._batch("interpolate", grid, markers)
    assert builds == []
    assert indices.shape == psi.shape == (len(markers), 6**dim)
    for x, got_indices, got in zip(markers, indices, psi):
        stencil = support_stencil(grid, x, 3.0)
        assert got_indices.tobytes() == stencil.indices.tobytes()
        _, want = strategy.kernel_for(grid, x)
        assert np.max(np.abs(got - want.psi)) <= 1e-12 * np.max(np.abs(want.psi))


@pytest.mark.parametrize("dim", [2, 3])
def test_unequal_stencil_lengths_match_per_marker_reference(dim, builds):
    # One-sided kernels are built marker by marker. The runs within reach
    # have unequal lengths, the windows do not, so interpolate reduces
    # them all with one stacked product.
    grid, strategy, markers, field, values = _short_run_case(dim, "one-sided")
    reach = {len(full_scan_stencil(grid, x, 3.0)) for x in markers}
    assert len(reach) > 1
    assert {len(support_stencil(grid, x, 3.0)) for x in markers} == {6**dim}
    want_values = per_marker_interpolate(field, markers, strategy)
    want_field = per_marker_spread(values, markers, grid, strategy)
    builds.clear()
    got_values = interpolate(field, markers, strategy)
    got_field = spread(values, markers, grid, strategy).values
    assert len(builds) == len(markers)
    assert got_values.tobytes() == want_values.tobytes()
    assert got_field.tobytes() == want_field.tobytes()


def _scale_case(dim, profile, spacing):
    """A few hundred random markers, every fourth moved onto its nearest
    cell center on some axes, where its runs are short. The anisotropic
    grid's spacings differ from the profile's width."""
    h = 0.05
    wf = _PROFILES[profile](h)
    steps = h * np.array([1.25, 0.8, 1.1] if spacing == "anisotropic" else
                         [1.0, 1.0, 1.0])[:dim]
    grid = make_grid([(0.3, 2.3), (-1.7, 0.3), (2.1, 4.1)][:dim], steps)
    o, right = np.array(grid.origin), np.array(grid.right_edge)
    margin = (wf.radius_in_cells + 1) * steps
    rng = np.random.default_rng([dim, len(profile), len(spacing)])
    markers = rng.uniform(o + margin, right - margin, (300, dim))
    centers = o + (np.floor((markers - o) / steps) + 0.5) * steps
    onto = (np.arange(300) % 4 == 0)[:, None] & (rng.random((300, dim)) < 0.7)
    return grid, wf, np.where(onto, centers, markers)


@pytest.mark.parametrize("spacing", ["equal", "anisotropic"])
@pytest.mark.parametrize("profile", ["psi6", "psi4", "custom-scaled"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_batch_matches_kernel_for_at_scale(
    dim, profile, spacing, builds
):
    # Enough markers per call that a slip in which marker a cut site is
    # booked to shows. The anisotropic spacings keep every marker's scaled
    # Gram well within _BATCH_COND_LIMIT, so the pass takes those too.
    grid, wf, markers = _scale_case(dim, profile, spacing)
    strategy = KernelStrategy(wf)
    indices, psi = strategy._batch("interpolate", grid, markers)
    assert builds == []
    for x, got_indices, got in zip(markers, indices, psi):
        stencil = support_stencil(grid, x, wf.radius_in_cells)
        assert got_indices.tobytes() == stencil.indices.tobytes()
        _, want = strategy.kernel_for(grid, x)
        assert np.max(np.abs(got - want.psi)) <= 1e-12 * np.max(np.abs(want.psi))
        w = 1.0
        for ax in range(dim):
            w = w * wf.eval1d((stencil.sites[:, ax] - x[ax]) / wf.mesh_width)
        assert np.all(got[w <= _ZERO_WEIGHT] == 0.0)


def _gram_stacks(m, count=16):
    """Seeded (m, m, count) Gram stacks by family, each with the verdict
    it is built to get. The families with a ratio sit a decade to either
    side of ``_RANK_PIVOT`` or ``_BATCH_COND_LIMIT``."""
    rng = np.random.default_rng(m)

    def product(low):  # L·Lᵀ of (count, m, m) lower factors, markers last
        return (low @ low.transpose(0, 2, 1)).transpose(1, 2, 0).copy()

    def factors(pivots, spread):
        # Row j of L holds pivot j on its diagonal and ±spread·pivot j to
        # its left, so the factor's pivots are these, to rounding.
        u = np.tril(rng.uniform(-spread, spread, (count, m, m)), -1)
        return pivots[:, :, None] * (u + np.eye(m))

    scales = 10.0 ** rng.uniform(-2.0, 2.0, (count, m))
    spd = product(factors(scales, 0.5))
    q = np.linalg.qr(rng.standard_normal((count, m, m)))[0]
    eig = rng.uniform(0.5, 2.0, (count, m)) * np.where(np.arange(m) == m - 1, -1, 1)
    nan = spd.copy()
    i, j, k = rng.integers(0, m, count), rng.integers(0, m, count), np.arange(count)
    nan[i, j, k] = nan[j, i, k] = np.nan
    stacks = {
        "spd": (spd, True),
        "indefinite": (
            ((q * eig[:, None]) @ q.transpose(0, 2, 1)).transpose(1, 2, 0).copy(),
            False),
        "nan": (nan, False),
        "zero": (np.zeros((m, m, count)), False),
    }
    if m == 1:
        return stacks
    for ratio, verdict in ((10 * _RANK_PIVOT, True), (_RANK_PIVOT / 10, False)):
        pivots = np.ones((count, m))
        pivots[k, rng.integers(0, m, count)] = ratio
        stacks[f"pivot ratio {ratio:g}"] = (product(factors(pivots, 0.3)), verdict)
    for limit, verdict in ((_BATCH_COND_LIMIT / 10, True),
                           (_BATCH_COND_LIMIT * 10, False)):
        # One row of L is e_j plus a left part of norm √(limit − 1): its
        # pivot scaled by G_jj^-½ is limit^-½, and every other row's is 1.
        low = np.tile(np.eye(m), (count, 1, 1))
        row = rng.integers(1, m, count)
        left = rng.standard_normal((count, m)) * (np.arange(m) < row[:, None])
        left *= np.sqrt(limit - 1.0) / np.linalg.norm(left, axis=1, keepdims=True)
        low[k, row] += left
        stacks[f"scaled ratio {limit:g}"] = (product(scales[:, :, None] * low), verdict)
    return stacks


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_unrolled_gram_factor_matches_the_lapack_reference(m):
    stacks = _gram_stacks(m)
    for family, (gram, verdict) in stacks.items():
        want, accepted = lapack_gram_solve(gram)
        assert np.all(accepted == verdict), family
        for k in range(gram.shape[2]):
            got = _solve_grams(gram[..., k:k + 1])
            assert (got is not None) == accepted[k], (family, k)
            if got is not None:
                err = np.max(np.abs(np.ravel(got) - want[:, k]))
                assert err <= 1e-13 * np.max(np.abs(want[:, k])), (family, k)
        # A stack is solved only if every marker in it is accepted.
        mixed = np.concatenate([stacks["spd"][0], gram], axis=2)
        want = np.concatenate([lapack_gram_solve(stacks["spd"][0])[0], want], axis=1)
        got = _solve_grams(mixed)
        assert (got is not None) == verdict, family
        if got is not None:
            assert np.all(np.abs(np.array(got) - want)
                          <= 1e-13 * np.max(np.abs(want), axis=0)), family


def test_closed_form_batch_peak_memory_in_3d():
    # Each axis holds a window of 6 cells, so a 3D ψ6 marker's tensor has
    # 216 entries.
    h = 1.0 / 32
    grid = make_grid([(0.0, 1.0)] * 3, h)
    wf = WeightFunction.six_point_spline(h)
    markers = npr.default_rng(0).uniform(0.2, 0.8, (2000, 3))
    tracemalloc.start()
    try:
        batch = _closed_form_batch(grid, markers, wf, BasisDegree.LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch is not None and batch[1].shape == (len(markers), 216)
    assert peak <= 12e3 * len(markers)


def test_closed_form_batch_on_cell_centres_keeps_216_entries_per_marker(builds):
    # Markers placed at o + (i + ½)·h. For some of them rounding puts the
    # cells 3h away on both sides within reach, 7 on an axis, whose ψ6
    # weights (about 1e-76) are cut; the window holds 6 all the same.
    h = 0.05
    grid = make_grid([(0.3, 2.3), (-1.7, 0.3), (2.1, 4.1)], h)
    o = np.array(grid.origin)
    cells = npr.default_rng(3).integers(5, 35, (200, 3))
    markers = o + (cells + 0.5) * h
    runs = [len(np.unique(full_scan_stencil(grid, x, 3.0).sites[:, ax]))
            for x in markers for ax in range(3)]
    assert max(runs) == 7
    indices, psi = KernelStrategy(WeightFunction.six_point_spline(h))._batch(
        "interpolate", grid, markers)
    assert builds == []
    assert indices.shape == psi.shape == (len(markers), 216)


def _failing_batch(case):
    """Strategy and markers whose marker ``bad`` fails its build.

    edge: a marker inside the edge margin. support: a profile that covers
    one site of a marker on a cell center, two per axis of one on a face.
    rank: a profile that is 1 on |r| < 0.6 and on 1.4 < |r| < 1.6 and 0
    elsewhere. A marker on a face in x and a center in y has its supported
    sites on one line, so its moment rows lose rank; on faces in both axes
    it has 16.
    """
    h = 0.075
    grid = make_grid([(-1.0, 1.0)] * 2, h)
    faces = grid.origin[0] + h * np.array([[12, 14], [15, 11], [13, 13]])
    wf, markers, bad = WeightFunction.six_point_spline(h), faces, 2
    if case == "edge":
        markers = np.vstack([faces[:2], [[0.99, 0.0]], faces[2:]])
    elif case == "support":
        wf = WeightFunction.custom1d(
            h, lambda r: np.maximum(0.0, 1.0 - np.abs(r) / 0.6), 0.6
        )
        markers = np.vstack([faces[:2], grid.centers()[300], faces[2:]])
    else:
        def bands(r):
            r = np.abs(r)
            return ((r < 0.6) | ((r > 1.4) & (r < 1.6))).astype(float)

        wf = WeightFunction.custom1d(h, bands, 1.6)
        line = grid.origin[0] + h * np.array([14, 12.5])
        markers = np.vstack([faces[:2], line, faces[2:]])
    return grid, KernelStrategy(wf), markers, bad


@pytest.mark.parametrize("op", ["I", "S"])
@pytest.mark.parametrize(
    "case, error",
    [("edge", StencilOutsideDomain), ("support", InsufficientSupport),
     ("rank", RankDeficientConstraints)],
)
def test_failing_closed_form_batch_raises_as_the_per_marker_loop(
    case, error, op, builds
):
    grid, strategy, markers, bad = _failing_batch(case)
    field = GridField(np.ones(grid.total_cells), grid)
    values = np.ones(len(markers))
    with pytest.raises(error):
        per_marker_interpolate(field, markers, strategy)
    builds.clear()
    with pytest.raises(error):
        _call(op, grid, strategy, markers, field, values)
    # The marker-by-marker build ran, and stopped at the failing marker.
    assert len(builds) == bad + 1
    assert "_pending" not in vars(strategy)


def _call(op, grid, strategy, markers, field, values):
    if op == "I":
        return interpolate(field, markers, strategy)
    return spread(values, markers, grid, strategy).values


@pytest.mark.parametrize(
    "calls, n_builds",
    [("IS", 1), ("SI", 1), ("ISI", 2), ("IIS", 2), ("SSI", 2), ("ISS", 2),
     ("II", 2), ("SS", 2), ("ISIS", 2)],
)
def test_each_build_serves_one_interpolate_and_one_spread(
    calls, n_builds, builds
):
    grid, strategy, markers, field, values = _paired_case(2, "one-sided")
    want = {
        "I": per_marker_interpolate(field, markers, strategy),
        "S": per_marker_spread(values, markers, grid, strategy),
    }
    builds.clear()
    for op in calls:
        got = _call(op, grid, strategy, markers, field, values)
        assert got.tobytes() == want[op].tobytes()
    assert len(builds) == n_builds * len(markers)


def _moved_by_one_ulp(markers):
    moved = markers.copy()
    moved[-1, 1] = np.nextafter(moved[-1, 1], np.inf)
    return moved


def _changed_in_place(markers):
    markers[0, 0] += 0.01
    return markers


@pytest.mark.parametrize("change", [_moved_by_one_ulp, _changed_in_place])
def test_no_reuse_at_other_marker_bytes(change, builds):
    grid, strategy, markers, field, values = _paired_case(2, "boxed")
    interpolate(field, markers, strategy)
    markers = change(markers)
    want = per_marker_spread(values, markers, grid, strategy)
    builds.clear()
    got = spread(values, markers, grid, strategy).values
    assert len(builds) == len(markers)
    assert got.tobytes() == want.tobytes()


def test_no_reuse_on_a_shifted_grid(builds):
    grid, strategy, markers, field, values = _paired_case(2, "one-sided")
    shifted = dataclasses.replace(grid, origin=(-0.99, -1.0))
    interpolate(field, markers, strategy)
    want = per_marker_spread(values, markers, shifted, strategy)
    builds.clear()
    got = spread(values, markers, shifted, strategy).values
    assert len(builds) == len(markers)
    assert got.tobytes() == want.tobytes()


def test_no_reuse_across_strategies(builds):
    grid, strategy, markers, field, values = _paired_case(2, "one-sided")
    twin = dataclasses.replace(strategy)
    assert twin == strategy
    interpolate(field, markers, strategy)
    builds.clear()
    spread(values, markers, grid, twin)
    assert builds == [twin] * len(markers)
    # The twin's build left the first strategy's batch untouched.
    builds.clear()
    spread(values, markers, grid, strategy)
    assert builds == []


def test_raising_build_leaves_no_batch(builds):
    grid, strategy, markers, field, values = _paired_case(2, "two-sided")
    markers = np.vstack([markers, [[0.99, 0.0]]])
    values = np.append(values, 1.0)
    with pytest.raises(StencilOutsideDomain):
        interpolate(field, markers, strategy)
    assert "_pending" not in vars(strategy)
    builds.clear()
    with pytest.raises(StencilOutsideDomain):
        spread(values, markers, grid, strategy)
    assert len(builds) == len(markers)


def test_zero_markers():
    grid, strategy, _, field, _ = _paired_case(2, "two-sided")
    none = np.empty((0, 2))
    out = interpolate(field, none, strategy)
    assert out.shape == (0,)
    scattered = spread(np.empty(0), none, grid, strategy).values
    assert scattered.tobytes() == np.zeros(grid.total_cells).tobytes()


def test_strategy_is_frozen_and_its_batch_private():
    grid, strategy, markers, field, _ = _paired_case(2, "one-sided")
    fresh = dataclasses.replace(strategy)
    interpolate(field, markers, strategy)
    assert "_pending" in vars(strategy)
    assert strategy == fresh
    assert hash(strategy) == hash(fresh)
    assert repr(strategy) == repr(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        strategy.bounds = KernelBounds(0.0, 1.0)
    assert "_pending" not in vars(dataclasses.replace(strategy))
