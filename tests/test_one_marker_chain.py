"""The one-marker chain against the (N, d) chain, and where it checks its input.

``KernelStrategy.kernel_for`` assembles from the stencil's per-axis windows
(``kernels.SiteAxes``) and lets the side classification and the solve take
the assembled system as checked. ``oracles.site_chain_kernel`` runs the
same layers on (N, d) sites, the cells within reach, with every check in
place; the two must agree to the bit where the window and the cells in
reach coincide, and on the cells in reach otherwise. The error tests pin
the class each public entry point raised before the checks moved.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from oracles import (
    per_marker_interpolate,
    per_marker_spread,
    per_value_profile,
    site_chain_kernel,
)

from ibkernel.errors import IBKernelError, InsufficientSupport, NotSPD
from ibkernel.experiments import CircleCaseConfig
from ibkernel.ibops import (
    KernelStrategy,
    interpolate,
    make_grid,
    sample_field,
    spread,
    support_stencil,
)
from ibkernel.kernels import (
    BasisDegree,
    KernelSystem,
    SiteAxes,
    SolveMode,
    WeightFunction,
    assemble_system,
    build_basis,
    eval_psi6,
)
from ibkernel.onesided import KernelBounds, SignedDistance, generate_one_sided_kernel


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
from ibkernel.qpsolve import solve_generating_qp


def _outcome(build):
    """What a kernel build gives, in bytes, or the class it raises."""
    try:
        stencil, weights = build()
    except IBKernelError as exc:
        return ("raised", type(exc).__name__)
    return (stencil.indices.dtype, stencil.indices.tobytes(), weights.psi.tobytes(),
            weights.mode, np.float64(weights.equality_residual).tobytes())


def _assert_chains_agree(strategy, grid, markers):
    modes = set()
    for marker in markers:
        fast = _outcome(lambda: strategy.kernel_for(grid, marker))
        assert fast == _outcome(lambda: site_chain_kernel(strategy, grid, marker)), marker
        modes.add(fast[-2] if fast[0] != "raised" else fast)
    return modes


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_kernel_for_matches_the_site_chain_on_the_circle_sweep(case):
    cfg = CircleCaseConfig.for_case(case, marker_angles_deg=tuple(np.arange(720) * 0.5))
    grid = make_grid(cfg.extents, cfg.mesh_width)
    modes = _assert_chains_agree(cfg.strategy(), grid, cfg.marker_positions())
    if case == 4:  # every outcome of the sweep is covered
        assert {SolveMode.EXACT, SolveMode.SOFT_CONSTRAINT,
                ("raised", "RankDeficientConstraints")} <= modes


@pytest.mark.parametrize("bounds", [None, (-0.07, 0.5), (0.0, 0.75)])
def test_kernel_for_matches_the_site_chain_on_the_sphere(bounds):
    n, radius, h = 150, 0.5, 0.075
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
    ring = np.sqrt(1.0 - z * z)
    markers = radius * np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    strategy = KernelStrategy(
        WeightFunction.six_point_spline(h), BasisDegree.LINEAR,
        SignedDistance.circle((0.0, 0.0, 0.0), radius),
        None if bounds is None else KernelBounds(*bounds),
    )
    _assert_chains_agree(strategy, make_grid(((-0.9, 0.9),) * 3, h), markers)


def _scalar_only(r):
    return 0.0 if abs(r) >= 2.5 else math.cos(math.pi * r / 5.0) ** 2


PROFILES = {
    "psi6": lambda h: WeightFunction.six_point_spline(h),
    "psi4": lambda h: WeightFunction.four_point_peskin(h),
    "array": lambda h: WeightFunction.custom1d(
        h, lambda r: np.maximum(1.0 - np.abs(r) / 2.5, 0.0) ** 3, 2.5),
    "scalar-only": lambda h: WeightFunction.custom1d(
        h, per_value_profile(_scalar_only), 2.5),
    "table": lambda h: WeightFunction.from_table(
        h, np.linspace(-3.0, 3.0, 13), eval_psi6(np.linspace(-3.0, 3.0, 13)), 3.0),
}


def _markers(grid, radius):
    """A generic point, cell centres, a cell face and the edge margin."""
    o, h = np.array(grid.origin), np.array(grid.spacing)
    margin = o + radius * h  # exactly the support radius from the low edge
    return [
        o + np.array([11.37, 9.81, 10.23])[:grid.dimension] * h,
        *(o + (i + 0.5) * h for i in range(7, 14)),
        o + 10.0 * h,
        np.where(np.arange(grid.dimension) == 0, margin, o + 10.3 * h),
    ]


@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize("spacing", ["equal", "anisotropic"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_and_site_forms_assemble_the_same_system(profile, spacing, d):
    h = (0.075, 0.05, 0.1)[:d] if spacing == "anisotropic" else (0.075,) * d
    grid = make_grid(((-0.9, 0.9),) * d, h)
    wf = PROFILES[profile](0.075)
    runs = set()
    for degree in BasisDegree:
        basis = build_basis(d, degree)
        for x in _markers(grid, wf.radius_in_cells):
            stencil = support_stencil(grid, x, wf.radius_in_cells)
            runs.update(len(a) for a in stencil.axes)
            tensor = assemble_system(stencil.axes, x, wf, basis)
            sites = assemble_system(stencil.sites.copy(), x, wf, basis)
            for name in ("A", "Wdiag", "p", "sites", "eval"):
                got, want = getattr(tensor, name), getattr(sites, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
                assert got.flags.c_contiguous, name
            assert stencil.sites.flags.c_contiguous
    # Every axis is a window of ⌈2R⌉ cells, whatever the marker.
    assert runs == {math.ceil(2 * wf.radius_in_cells)}


def _vanishing(radius):
    """A custom profile that falls smoothly to 0 at ``radius``."""
    def profile(r):
        return (1.0 - (np.asarray(r) / radius) ** 2) ** 2
    return profile


WINDOW_PROFILES = {
    "psi6": WeightFunction.six_point_spline,
    "psi4": WeightFunction.four_point_peskin,
    **{f"custom-{radius}": functools.partial(
        lambda h, radius: WeightFunction.custom1d(h, _vanishing(radius), radius),
        radius=radius) for radius in (0.6, 1.6, 2.5)},
}


def _window_markers(grid, radius):
    """Cell centres and one ulp to either side of them (the cells at the
    reach on both sides then fall within it by rounding, for an integer
    2R), a face, a generic point, and the edge margins. At the upper
    margin the window of a non-integer 2R runs past the last cell and is
    moved back."""
    d = grid.dimension
    o, h, right = np.array(grid.origin), np.array(grid.spacing), np.array(grid.right_edge)
    centre = o + (np.array([9, 10, 11])[:d] + 0.5) * h
    mixed = np.where(np.arange(d) % 2, np.nextafter(centre, np.inf), centre)
    return [centre, np.nextafter(centre, np.inf), np.nextafter(centre, -np.inf), mixed,
            o + 10.0 * h, o + np.array([11.37, 9.81, 10.23])[:d] * h,
            o + radius * h, right - radius * h]


def _window_against_reach(strategy, grid, x):
    """Check ``kernel_for`` on the window against ``site_chain_kernel`` on the
    cells in reach; returns the kernel's mode, or None where both raise."""
    try:
        stencil, kw = strategy.kernel_for(grid, x)
    except IBKernelError as exc:
        with pytest.raises(type(exc)):
            site_chain_kernel(strategy, grid, x)
        return None
    reach, ref = site_chain_kernel(strategy, grid, x)
    at = np.minimum(np.searchsorted(stencil.indices, reach.indices), len(stencil) - 1)
    held = stencil.indices[at] == reach.indices
    # A cell in reach that the window leaves out carries no weight.
    assert not ref.support[~held].any() and not ref.psi[~held].any()
    # The same kernel to the bit on the cells the window holds, and 0 with
    # no support on its other cells: both solves run on the moment columns
    # of the same kept sites.
    assert kw.psi[at[held]].tobytes() == ref.psi[held].tobytes()
    assert np.array_equal(kw.support[at[held]], ref.support[held])
    rest = np.ones(len(stencil), dtype=bool)
    rest[at[held]] = False
    assert not kw.psi[rest].any() and not kw.support[rest].any()
    assert kw.mode == ref.mode
    assert kw.equality_residual == ref.equality_residual
    return kw.mode


@pytest.mark.parametrize("spacing", ["equal", "coarser"])
@pytest.mark.parametrize("profile", list(WINDOW_PROFILES))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_kernel_matches_the_in_reach_chain(d, profile, spacing, builds):
    """The window's kernels are the kernels of the cells in reach.

    On a grid no finer than the profile's width, the window's cells past
    the reach carry weight 0, which the solve eliminates, so ``kernel_for``
    gives the kernel of the cells in reach bit for bit, bounded or not.
    One-marker interpolate and spread are bitwise the per-marker oracles,
    and a batch agrees with ``kernel_for`` to 1e-12.
    """
    wf = WINDOW_PROFILES[profile](0.05)
    steps = 0.05 * (np.array([1.0, 1.25, 1.1]) if spacing == "coarser" else np.ones(3))
    grid = make_grid(((0.3, 1.3), (-1.7, -0.7), (2.1, 3.1))[:d], steps[:d])
    markers = np.array(_window_markers(grid, wf.radius_in_cells))
    k, o, h = math.ceil(2 * wf.radius_in_cells), grid.origin[0], grid.spacing[0]
    start = math.floor((markers[-1, 0] - o) / h - 0.5 - wf.radius_in_cells) + 1
    assert (start > grid.counts[0] - k) == (k != 2 * wf.radius_in_cells)
    degree = BasisDegree.CONSTANT_ONLY if wf.radius_in_cells < 1 else BasisDegree.LINEAR
    field = sample_field(grid, lambda c: 1.0 + c.sum())
    for bounds in (KernelBounds(-0.05, 0.8), None):
        strategy = KernelStrategy(wf, degree, bounds=bounds)
        modes = [_window_against_reach(strategy, grid, x) for x in markers]
        assert set(modes) - {None}
        built = markers[[mode is not None for mode in modes]]
        for x in built[:, None]:
            assert (interpolate(field, x, strategy).tobytes()
                    == per_marker_interpolate(field, x, strategy).tobytes())
            assert (spread([1.5], x, grid, strategy).values.tobytes()
                    == per_marker_spread([1.5], x, grid, strategy).tobytes())
    builds.clear()
    _, psi = strategy._batch("interpolate", grid, built)
    assert builds == [] and psi.shape == (len(built), k**d)
    for x, got in zip(built, psi):
        want = strategy.kernel_for(grid, x)[1].psi
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_GRID = make_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.075)
_MARKER = np.array([0.01, 0.02])


def _bad_profile(value):
    def profile(r):
        return np.where(np.abs(r) < 0.5, value, eval_psi6(r))
    return WeightFunction.custom1d(0.075, profile, 3.0)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
class TestBadProfileValues:
    """A negative, NaN or infinite profile value is refused, not cut or
    reported as a non-SPD Hessian."""

    def test_one_marker(self, value):
        strategy = KernelStrategy(_bad_profile(value))
        field = sample_field(_GRID, lambda c: 1.0)
        for build in (lambda: strategy.kernel_for(_GRID, _MARKER),
                      lambda: interpolate(field, _MARKER[None], strategy),
                      lambda: spread([1.0], _MARKER[None], _GRID, strategy)):
            with pytest.raises(ValueError, match="weight profile Custom1D"):
                build()

    def test_batched(self, value):
        strategy = KernelStrategy(_bad_profile(value))
        markers = np.array([_MARKER, [0.3, -0.2], [-0.41, 0.17]])
        with pytest.raises(ValueError, match="weight profile Custom1D"):
            interpolate(sample_field(_GRID, lambda c: 1.0), markers, strategy)
        with pytest.raises(ValueError, match="weight profile Custom1D"):
            spread(np.ones(3), markers, _GRID, strategy)

    def test_both_forms_of_assembly(self, value):
        stencil = support_stencil(_GRID, _MARKER, 3.0)
        basis = build_basis(2, BasisDegree.LINEAR)
        for sites in (stencil.axes, stencil.sites):
            with pytest.raises(ValueError, match="weight profile Custom1D"):
                assemble_system(sites, _MARKER, _bad_profile(value), basis)


# The error tests below pin what each public entry point raised while every
# layer checked its own input.

_WF = WeightFunction.six_point_spline(0.075)
_BASIS = build_basis(2, BasisDegree.LINEAR)
_AXES = support_stencil(_GRID, _MARKER, 3.0).axes


def _with_axis(k, values):
    axes = list(_AXES)
    axes[k] = np.asarray(values, dtype=float)
    return SiteAxes(axes)


@pytest.mark.parametrize("axes, point", [
    (_with_axis(1, [0.0, np.nan, 0.2]), _MARKER),
    (_with_axis(0, [-np.inf, 0.0, 0.1]), _MARKER),
    (_with_axis(1, [0.0, 0.1, 0.1, 0.2]), _MARKER),
    (SiteAxes(_AXES[:1]), _MARKER),
    (_AXES, [0.01, 0.02, 0.0]),
    (_AXES, [np.nan, 0.02]),
    (_AXES, [0.01, np.inf]),
], ids=["nan-axis", "inf-axis", "repeated", "too-few-axes", "point-dimension",
        "nan-point", "inf-point"])
def test_assembly_errors_match_the_site_form(axes, point):
    """Each tensor input raises what its (N, d) product raises."""
    for sites in (axes, np.array(list(itertools.product(*axes)))):
        with pytest.raises(ValueError):
            assemble_system(sites, point, _WF, _BASIS)


def test_assembly_refuses_decreasing_axes():
    with pytest.raises(ValueError, match="strictly increasing"):
        assemble_system(_with_axis(0, _AXES[0][::-1]), _MARKER, _WF, _BASIS)


def test_assembly_refuses_two_dimensional_axes():
    columns = SiteAxes([axis[:, None] for axis in _AXES])
    with pytest.raises(ValueError, match="site axes must be 1-D"):
        assemble_system(columns, _MARKER, _WF, _BASIS)


# A marker whose every site keeps its weight, and one with cut sites.
_FACE = support_stencil(_GRID, [-0.025, -0.025], 3.0)
_KEPT = assemble_system(_FACE.sites, [-0.025, -0.025], _WF, _BASIS)
_CUT = assemble_system(support_stencil(_GRID, _MARKER, 3.0).sites, _MARKER, _WF, _BASIS)
assert (_KEPT.Wdiag > 1e-14).all() and not (_CUT.Wdiag > 1e-14).all()


def _hand_built(system, **arrays):
    fields = {k: getattr(system, k).copy() for k in ("A", "Wdiag", "p", "eval", "sites")}
    for name, (index, value) in arrays.items():
        fields[name][index] = value
    return KernelSystem(**fields)


@pytest.mark.parametrize("bounds", [None, (-0.5, 1.0)])
@pytest.mark.parametrize("name, index, value, raised", [
    ("A", (1, 4), np.nan, ValueError),
    ("A", (2, 7), np.inf, ValueError),
    ("A", (0, 0), -np.inf, ValueError),
    ("p", 0, np.nan, ValueError),
    ("p", 1, np.inf, ValueError),
    ("p", 2, -np.inf, ValueError),
    ("Wdiag", 5, np.inf, NotSPD),
    # A NaN or negative weight is not above the cut, so its site is
    # eliminated like a weightless one.
    ("Wdiag", 5, np.nan, None),
    ("Wdiag", 5, -np.inf, None),
])
def test_hand_built_system_errors(name, index, value, raised, bounds):
    system = _hand_built(_KEPT, **{name: (index, value)})
    if raised is None:
        kw = solve_generating_qp(system, bounds=bounds)
        assert kw.mode is SolveMode.EXACT and kw.psi[5] == 0.0
    else:
        with pytest.raises(raised):
            solve_generating_qp(system, bounds=bounds)


@pytest.mark.parametrize("system", [
    KernelSystem(_KEPT.A, _KEPT.Wdiag, np.zeros(4), _KEPT.eval, _KEPT.sites),
    KernelSystem(_KEPT.A[:, 1:], _KEPT.Wdiag, _KEPT.p, _KEPT.eval, _KEPT.sites),
    KernelSystem(_CUT.A[:, 1:], _CUT.Wdiag, _CUT.p, _CUT.eval, _CUT.sites),
    KernelSystem(_CUT.A, _CUT.Wdiag[None], _CUT.p, _CUT.eval, _CUT.sites),
], ids=["long-p", "narrow-A", "narrow-A-cut", "2d-W"])
def test_hand_built_system_shape_errors(system):
    """A shape that does not fit is a ValueError, whether a site is cut
    or not, checked before any indexing."""
    for bounds in (None, (-0.5, 1.0)):
        with pytest.raises(ValueError):
            solve_generating_qp(system, bounds=bounds)


@pytest.mark.parametrize("pair", [(np.nan, 1.0), (0.0, np.nan), (1.0, -1.0), (0.5, 0.2)])
def test_bad_bound_pairs(pair):
    """NaN or crossed bounds are a ValueError whether or not a site is
    cut, on a hand-built system and on an assembled one alike."""
    for system, sites, x in ((_KEPT, _FACE.axes, [-0.025, -0.025]),
                             (_CUT, _AXES, _MARKER)):
        with pytest.raises(ValueError):
            solve_generating_qp(system, bounds=pair)
        with pytest.raises(ValueError):
            generate_one_sided_kernel(sites, x, _WF, _BASIS, bounds=pair)


def test_one_sided_bad_bounds_with_no_plus_site():
    sd = SignedDistance.circle((0.0, 0.0), 0.5)
    with pytest.raises(InsufficientSupport):
        generate_one_sided_kernel(_AXES, _MARKER, _WF, _BASIS, sd=sd, bounds=(1.0, -1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entry_points_refuse_a_non_finite_marker(bad):
    strategy = KernelStrategy(_WF)
    field = sample_field(_GRID, lambda c: 1.0)
    marker = np.array([[bad, 0.1]])
    for build in (lambda: strategy.kernel_for(_GRID, marker[0]),
                  lambda: interpolate(field, marker, strategy),
                  lambda: spread([1.0], marker, _GRID, strategy),
                  lambda: interpolate(field, np.vstack([[0.1, 0.1], marker]), strategy)):
        with pytest.raises(ValueError):
            build()
