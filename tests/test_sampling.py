import numpy as np
import pytest

from mixopt import sampling
from mixopt.errors import DomainError, GeometryError, SamplingError
from mixopt.geometry import KNOTS, ChannelDims, ControlPolygon, build_layout, build_spline, eval_spline
from mixopt.sampling import (
    DIM_NAMES,
    CollocationCounts,
    SampleBounds,
    default_slice_stations,
    generate_collocation,
    lhs_sample,
    slice_points,
)


def scalar_eval(coeffs, x):
    """One spline's (value, slope) at x, gathered coefficient by coefficient."""
    seg = np.clip(np.searchsorted(KNOTS, x, side="right") - 1, 0, 3)
    t = x - KNOTS[seg]
    a, b, c, d = (coeffs[seg, k] for k in range(4))
    return a + t * (b + t * (c + t * d)), b + t * (2.0 * c + 3.0 * d * t)


def per_row_baffle_points(coeffs, t, start_x, base, sign, H, samples):
    """Reference for ``geometry.baffle_points``: one spline, one arc-length
    table and one ``np.interp`` per row, in a Python loop."""
    xhat_grid = np.linspace(0.0, 0.5, samples)
    pts = np.zeros((len(t), 2))
    nrm = np.zeros((len(t), 2))
    for i in range(len(t)):
        # the a-coefficients of segments 1..3 are the control heights exactly
        curve = build_spline(ControlPolygon(*coeffs[i, 1:, 0]))
        value, _ = scalar_eval(curve.coeffs, xhat_grid)
        grid = np.stack([start_x + xhat_grid * H, base + sign * H * value], axis=1)
        cumlen = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(grid, axis=0), axis=1))])
        xhat = np.interp(t[i] * cumlen[-1], cumlen, xhat_grid)
        value, slope = scalar_eval(curve.coeffs, xhat)
        scale = 1.0 / np.sqrt(1.0 + slope * slope)
        pts[i] = start_x + xhat * H, base + sign * H * value
        nrm[i] = slope * scale, -sign * scale
    return pts, nrm


def former_slice_points(layout, x_mm, n):
    """Reference for one station of ``sampling.slice_points``: the wall heights
    of that station's own layout, one station at a time."""
    if n < 2:
        raise DomainError("a quadrature slice needs at least 2 points")
    if not (0.0 <= x_mm <= layout.dims.L):
        raise DomainError(f"station x={x_mm} outside the channel [0, {layout.dims.L}]")
    lower = float(layout.lower_wall_y(x_mm))
    upper = float(layout.upper_wall_y(x_mm))
    if upper <= lower:
        raise GeometryError(f"fluid height at x={x_mm} is not positive")
    y = np.linspace(lower, upper, n)
    h = (upper - lower) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return y, w


def per_station_slice_points(dims, cps, x_mm, n):
    """``slice_points`` built from one layout and one ``former_slice_points`` per station."""
    rows = [former_slice_points(build_layout(ControlPolygon(*cp), dims), float(x), n)
            for cp, x in zip(cps, x_mm)]
    return np.array([y for y, _ in rows]), np.array([w for _, w in rows])


def stratum_ids(values, lo, hi, n):
    ids = np.floor((values - lo) / (hi - lo) * n).astype(int)
    return np.clip(ids, 0, n - 1)


def test_lhs_one_sample_per_stratum():
    bounds = SampleBounds()
    n = 128
    pts = lhs_sample(n, bounds, seed=3)
    assert pts.shape == (n, 7)
    for j, name in enumerate(DIM_NAMES):
        lo, hi = getattr(bounds, name)
        ids = stratum_ids(pts[:, j], lo, hi, n)
        assert np.array_equal(np.sort(ids), np.arange(n))


def test_lhs_respects_bounds_and_determinism():
    bounds = SampleBounds(re=(10.0, 12.0), sc=(50.0, 50.0))
    a = lhs_sample(64, bounds, seed=11)
    b = lhs_sample(64, bounds, seed=11)
    assert np.array_equal(a, b)
    c = lhs_sample(64, bounds, seed=12)
    assert not np.array_equal(a, c)
    assert np.all(a[:, 5] >= 10.0) and np.all(a[:, 5] <= 12.0)
    assert np.all(a[:, 6] == 50.0)


def test_lhs_single_sample():
    pts = lhs_sample(1, SampleBounds(), seed=0)
    assert pts.shape == (1, 7)
    assert 0.0 <= pts[0, 0] <= 7.0


def test_lhs_rejects_bad_n():
    with pytest.raises(DomainError):
        lhs_sample(0, SampleBounds())


def test_bounds_validation():
    with pytest.raises(DomainError):
        SampleBounds(x=(3.0, 1.0))
    with pytest.raises(DomainError):
        SampleBounds(cp2=(-0.9, 0.2))
    with pytest.raises(DomainError):
        SampleBounds(sc=(0.0, 10.0))


def make_set(seed=0, interior=400, per_boundary=16, per_slice=16, bounds=None):
    return generate_collocation(
        ChannelDims(),
        bounds or SampleBounds(),
        CollocationCounts(interior=interior, per_boundary=per_boundary, per_slice=per_slice),
        seed=seed,
    )


def test_interior_rows_inside_fluid_and_stratified():
    bounds = SampleBounds()
    n = 10000
    colloc = generate_collocation(ChannelDims(), bounds, CollocationCounts(interior=n), seed=5)
    pts = colloc.interior
    assert pts.shape == (n, 7)
    for j, name in enumerate(DIM_NAMES):
        lo, hi = getattr(bounds, name)
        ids = stratum_ids(pts[:, j], lo, hi, n)
        assert np.array_equal(np.sort(ids), np.arange(n))
    H = 0.3
    for row in pts[::7]:
        layout = build_layout(ControlPolygon(*row[2:5]))
        assert layout.contains(row[0] * H, row[1] * H)


def test_interior_all_rows_contained_small():
    colloc = make_set(seed=9, interior=600)
    H = 0.3
    for row in colloc.interior:
        layout = build_layout(ControlPolygon(*row[2:5]))
        assert layout.contains(row[0] * H, row[1] * H)


def test_pinned_control_points_triggers_no_repair():
    bounds = SampleBounds(cp1=(0.0, 0.0), cp2=(0.0, 0.0), cp3=(0.0, 0.0))
    colloc = make_set(seed=2, interior=500, bounds=bounds)
    assert np.all(colloc.interior[:, 2:5] == 0.0)
    assert np.all(colloc.interior[:, 1] >= 0.0) and np.all(colloc.interior[:, 1] <= 1.0)


def test_collocation_deterministic():
    a = make_set(seed=21)
    b = make_set(seed=21)
    assert np.array_equal(a.interior, b.interior)
    for kind in a.boundary:
        assert np.array_equal(a.boundary[kind].X, b.boundary[kind].X)
        assert np.array_equal(a.boundary[kind].normals, b.boundary[kind].normals)
    for sa, sb in zip(a.slices, b.slices):
        assert np.array_equal(sa.X, sb.X)
    c = make_set(seed=22)
    assert not np.array_equal(a.interior, c.interior)


@pytest.mark.parametrize("seed,per_boundary", [(0, 80), (1, 80), (2, 80), (3, 300), (4, 300)])
def test_collocation_equals_per_row_baffle_reference(monkeypatch, seed, per_boundary):
    dims, bounds = ChannelDims(), SampleBounds()
    counts = CollocationCounts(per_boundary=per_boundary)
    fast = generate_collocation(dims, bounds, counts, seed=seed)
    monkeypatch.setattr(sampling, "baffle_points", per_row_baffle_points)
    monkeypatch.setattr(sampling, "slice_points", per_station_slice_points)
    slow = generate_collocation(dims, bounds, counts, seed=seed)
    assert np.array_equal(fast.interior, slow.interior)
    assert list(fast.boundary) == list(slow.boundary)
    for kind, grp in fast.boundary.items():
        ref = slow.boundary[kind]
        assert np.array_equal(grp.X, ref.X) and np.array_equal(grp.normals, ref.normals)
        assert grp.targets.keys() == ref.targets.keys()
        assert all(np.array_equal(grp.targets[k], ref.targets[k]) for k in grp.targets)
    assert len(fast.slices) == len(slow.slices)
    for a, b in zip(fast.slices, slow.slices):
        assert a.station == b.station and a.target == b.target
        assert np.array_equal(a.X, b.X) and np.array_equal(a.weights, b.weights)


def test_boundary_group_shapes():
    colloc = make_set(seed=1, per_boundary=12)
    sizes = {kind: g.X.shape[0] for kind, g in colloc.boundary.items()}
    assert sizes == {"inlet_top": 12, "inlet_bottom": 12, "wall": 60, "baffle": 24, "outlet": 12}


def test_inlet_rows_on_mouths_with_profile_targets():
    colloc = make_set(seed=4, per_boundary=40)
    top = colloc.boundary["inlet_top"]
    assert np.allclose(top.X[:, 1], 1.0, atol=1e-12)
    assert np.all((top.X[:, 0] >= 0.0) & (top.X[:, 0] <= 1.0))
    xi = top.X[:, 0]
    assert np.allclose(top.targets["v"], -3.0 * xi * (1.0 - xi), atol=1e-12)
    assert np.all(top.targets["c"] == 1.0)
    assert np.all(top.targets["u"] == 0.0)
    assert np.allclose(top.normals, [0.0, 1.0])

    bot = colloc.boundary["inlet_bottom"]
    assert np.allclose(bot.X[:, 1], 0.0, atol=1e-12)
    xi = bot.X[:, 0]
    assert np.allclose(bot.targets["v"], 3.0 * xi * (1.0 - xi), atol=1e-12)
    assert np.all(bot.targets["c"] == 0.0)


def test_inlet_profile_mean_is_half_per_arm():
    width = 1.7
    xi = np.linspace(0.0, 1.0, 20001)
    prof = sampling._inlet_profile(xi, width)
    mean = np.sum(0.5 * (prof[1:] + prof[:-1]) * np.diff(xi))
    assert abs(mean * width - 0.5) < 1e-8


def test_wall_rows_on_walls():
    colloc = make_set(seed=8, per_boundary=30)
    wall = colloc.boundary["wall"]
    for (x, y), n in zip(wall.X[:, :2], wall.normals):
        on_left = abs(x) < 1e-10
        on_top = abs(y - 1.0) < 1e-10 and (1.0 - 1e-10 <= x <= 3.0 + 1e-10 or 3.5 - 1e-10 <= x <= 7.0 + 1e-10)
        on_bottom = abs(y) < 1e-10 and (1.0 - 1e-10 <= x <= 3.5 + 1e-10 or 4.0 - 1e-10 <= x <= 7.0 + 1e-10)
        assert on_left or on_top or on_bottom
        assert abs(np.hypot(*n) - 1.0) < 1e-12


def test_baffle_rows_on_their_curves():
    colloc = make_set(seed=13, per_boundary=50)
    grp = colloc.boundary["baffle"]
    for row, normal in zip(grp.X, grp.normals):
        x, y = row[0], row[1]
        curve = build_spline(ControlPolygon(*row[2:5]))
        if x <= 3.5 + 1e-9 and y > 0.45:
            xhat = np.clip(x - 3.0, 0.0, 0.5)
            value, slope = eval_spline(curve, xhat)
            assert abs(y - (1.0 - value)) < 1e-10
            tangent = np.array([1.0, -slope]) / np.hypot(1.0, slope)
        else:
            xhat = np.clip(x - 3.5, 0.0, 0.5)
            value, slope = eval_spline(curve, xhat)
            assert abs(y - value) < 1e-10
            tangent = np.array([1.0, slope]) / np.hypot(1.0, slope)
        assert abs(np.hypot(*normal) - 1.0) < 1e-12
        assert abs(normal @ tangent) < 1e-12


def test_outlet_rows_at_exit():
    colloc = make_set(seed=3)
    out = colloc.boundary["outlet"]
    assert np.allclose(out.X[:, 0], 7.0, atol=1e-12)
    assert np.allclose(out.normals, [1.0, 0.0])


def test_slice_points_uniform_and_weighted():
    layout = build_layout(ControlPolygon(0.3, 0.1, -0.2))
    y, w = slice_points(ChannelDims(), [[0.3, 0.1, -0.2]], [1.0], 11)
    assert y.shape == w.shape == (1, 11)
    y, w = y[0], w[0]
    lower = layout.lower_wall_y(1.0)
    upper = layout.upper_wall_y(1.0)
    assert abs(y[0] - lower) < 1e-14 and abs(y[-1] - upper) < 1e-14
    assert np.allclose(np.diff(y), (upper - lower) / 10)
    assert abs(w.sum() - (upper - lower)) < 1e-14


def test_slice_points_validation():
    dims, flat = ChannelDims(), [[0.0, 0.0, 0.0]]
    with pytest.raises(DomainError):
        slice_points(dims, flat, [-0.1], 8)
    with pytest.raises(DomainError):
        slice_points(dims, flat, [1.0], 1)
    with pytest.raises(DomainError):
        slice_points(dims, flat * 2, [1.0, np.nan], 8)
    # overlapping baffles close the channel at x = 0.96 mm
    overlap, tall = ChannelDims(d=0.01), [[0.5, 0.5, 0.5]] * 3
    with pytest.raises(GeometryError):
        former_slice_points(build_layout(ControlPolygon(*tall[0]), overlap), 0.96, 8)
    with pytest.raises(GeometryError):
        slice_points(overlap, tall, [0.5, 0.96, 3.0], 8)
    # the first bad station decides the error, as a station-by-station loop would
    with pytest.raises(DomainError):
        slice_points(overlap, tall, [0.5, 3.0, 0.96], 8)


def test_slice_points_equal_per_station_layouts():
    rng = np.random.default_rng(17)
    dims = ChannelDims()
    x_mm = np.concatenate([[0.0, 0.9, 1.05, 1.2, 2.1], rng.uniform(0.0, 2.1, 60), rng.uniform(0.85, 1.25, 60)])
    cps = np.vstack([np.zeros((1, 3)), rng.uniform(-0.5, 0.5, size=(len(x_mm) - 1, 3))])
    for n in (2, 3, 64):
        y, w = slice_points(dims, cps, x_mm, n)
        y_ref, w_ref = per_station_slice_points(dims, cps, x_mm, n)
        assert np.array_equal(y, y_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("seed", range(4))
def test_collocation_slices_equal_per_station_reference(monkeypatch, seed):
    dims = ChannelDims()
    bounds = SampleBounds(cp1=(0.1, 0.5), cp2=(-0.5, -0.2), cp3=(-0.1, 0.3), re=(10.0, 12.0))
    counts = CollocationCounts(interior=200, per_boundary=8, per_slice=17)
    stations = [0.0, 3.05, 3.3, 3.77, 5.5, 7.0]
    fast = generate_collocation(dims, bounds, counts, seed=seed, slice_stations=stations)
    monkeypatch.setattr(sampling, "slice_points", per_station_slice_points)
    slow = generate_collocation(dims, bounds, counts, seed=seed, slice_stations=stations)
    assert [s.station for s in fast.slices] == stations
    for a, b in zip(fast.slices, slow.slices, strict=True):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.weights, b.weights)


def test_default_stations_cover_baffles_and_outlet():
    stations = default_slice_stations(ChannelDims())
    assert len(stations) == 5
    assert abs(stations[0] - 3.0) < 1e-12
    assert abs(stations[3] - 4.0) < 1e-12
    assert abs(stations[4] - 7.0) < 1e-12


def test_slices_carry_unit_target_and_local_height():
    colloc = make_set(seed=6, per_slice=33)
    assert len(colloc.slices) == 5
    for s in colloc.slices:
        assert s.target == 1.0
        assert np.all(s.X[:, 0] == s.station)
        layout = build_layout(ControlPolygon(*s.X[0, 2:5]))
        height = (layout.upper_wall_y(s.station * 0.3) - layout.lower_wall_y(s.station * 0.3)) / 0.3
        assert abs(s.weights.sum() - height) < 1e-12
        assert len({tuple(r) for r in s.X[:, 2:]}) == 1


def test_x_bounds_outside_channel_rejected():
    with pytest.raises(DomainError):
        generate_collocation(ChannelDims(), SampleBounds(x=(0.0, 8.0)), CollocationCounts(interior=10))
