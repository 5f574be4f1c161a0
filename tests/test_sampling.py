import re

import numpy as np
import pytest

from mixopt import geometry, sampling
from mixopt.errors import DomainError, SamplingError
from mixopt.geometry import CHANNEL, ChannelDims, build_spline, contains, wall_heights
from mixopt.sampling import (
    DIM_NAMES,
    CollocationCounts,
    SampleBounds,
    default_slice_stations,
    generate_collocation,
    slice_points,
)
from spline_oracle import eval_spline


def per_row_baffle_points(coeffs, t, start_x, base, sign, samples):
    """Reference for ``geometry.baffle_points``: one spline, one arc-length
    table and one ``np.interp`` per row, in a Python loop."""
    H = CHANNEL.H
    xhat_grid = np.linspace(0.0, 0.5, samples)
    pts = np.zeros((len(t), 2))
    nrm = np.zeros((len(t), 2))
    for i in range(len(t)):
        # the a-coefficients of segments 1..3 are the control heights exactly
        row = build_spline(coeffs[i, 1:, 0])
        value, _ = eval_spline(row, xhat_grid)
        grid = np.stack([start_x + xhat_grid * H, base + sign * H * value], axis=1)
        cumlen = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(grid, axis=0), axis=1))])
        xhat = np.interp(t[i] * cumlen[-1], cumlen, xhat_grid)
        value, slope = eval_spline(row, xhat)
        scale = 1.0 / np.sqrt(1.0 + slope * slope)
        pts[i] = start_x + xhat * H, base + sign * H * value
        nrm[i] = slope * scale, -sign * scale
    return pts, nrm


def walls_at(coeffs, x_mm):
    """(lower, upper) wall y in mm of one design coeffs (4, 4) at one station, by a one-row call."""
    lower, upper = wall_heights(coeffs[None], np.array([[x_mm]]))
    return float(lower[0, 0]), float(upper[0, 0])


def former_slice_points(coeffs, x_mm, n):
    """Reference for one station of ``sampling.slice_points``: the wall heights
    of that station's own design coeffs (4, 4), one station at a time."""
    if n < 2:
        raise DomainError("a quadrature slice needs at least 2 points")
    if not (0.0 <= x_mm <= CHANNEL.L):
        raise DomainError(f"station x={x_mm} outside the channel [0, {CHANNEL.L}]")
    lower, upper = walls_at(coeffs, x_mm)
    y = np.linspace(lower, upper, n)
    h = (upper - lower) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return y, w


def per_station_slice_points(cps, x_mm, n):
    """``slice_points`` built from one spline and one ``former_slice_points`` per station."""
    rows = [former_slice_points(build_spline(cp), float(x), n)
            for cp, x in zip(cps, x_mm)]
    return np.array([y for y, _ in rows]), np.array([w for _, w in rows])


def stratum_ids(values, lo, hi, n):
    ids = np.floor((values - lo) / (hi - lo) * n).astype(int)
    return np.clip(ids, 0, n - 1)


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


def test_interior_rows_inside_fluid():
    n = 10000
    colloc = generate_collocation(ChannelDims(), SampleBounds(), CollocationCounts(interior=n), seed=5)
    pts = colloc.interior
    assert pts.shape == (n, 7)
    H = 0.3
    for row in pts[::7]:
        assert contains(build_spline(row[2:5]), row[0] * H, row[1] * H)


def test_interior_re_and_sc_uniform_over_box():
    # acceptance depends on (x, y, cp1..3) only, so re and sc keep the box's uniform law
    n, bounds = 10000, SampleBounds()
    pts = generate_collocation(ChannelDims(), bounds, CollocationCounts(interior=n), seed=5).interior
    for name in ("re", "sc"):
        lo, hi = getattr(bounds, name)
        cdf = (np.sort(pts[:, DIM_NAMES.index(name)]) - lo) / (hi - lo)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < 1.63 / np.sqrt(n), (name, ks)


def test_interior_all_rows_contained_small():
    colloc = make_set(seed=9, interior=600)
    H = 0.3
    for row in colloc.interior:
        assert contains(build_spline(row[2:5]), row[0] * H, row[1] * H)


def test_pinned_control_points_stay_exact():
    bounds = SampleBounds(cp1=(0.0, 0.0), cp2=(0.0, 0.0), cp3=(0.0, 0.0))
    colloc = make_set(seed=2, interior=500, bounds=bounds)
    assert np.all(colloc.interior[:, 2:5] == 0.0)
    assert np.all(colloc.interior[:, 1] >= 0.0) and np.all(colloc.interior[:, 1] <= 1.0)


PINNED_CPS = {"cp1": (0.5, 0.5), "cp2": (0.5, 0.5), "cp3": (0.5, 0.5)}
# fluid shares of the boxes: 60%, 68% and 27%
BAFFLED_REACH = SampleBounds(x=(3.0, 4.0), **PINNED_CPS)
TALL_CPS = SampleBounds(x=(3.0, 4.0), cp1=(0.3, 0.5), cp2=(0.3, 0.5), cp3=(0.3, 0.5))
UPPER_BAFFLE_GAP = SampleBounds(x=(3.0, 3.5), y=(0.45, 1.0), **PINNED_CPS)


@pytest.mark.parametrize("bounds,n,seed", [
    (BAFFLED_REACH, 3000, 0), (BAFFLED_REACH, 3000, 1), (BAFFLED_REACH, 3000, 2),
    (TALL_CPS, 3000, 0), (UPPER_BAFFLE_GAP, 3000, 0), (UPPER_BAFFLE_GAP, 10, 0),
], ids=["reach-0", "reach-1", "reach-2", "tall-cps", "upper-gap", "upper-gap-n10"])
def test_interior_fills_partly_fluid_bounds(bounds, n, seed):
    pts = generate_collocation(ChannelDims(), bounds, CollocationCounts(interior=n), seed=seed).interior
    assert pts.shape == (n, 7)
    lows, highs = bounds.lows(), bounds.highs()
    assert np.all(pts >= lows) and np.all(pts <= highs)
    pinned = lows == highs
    assert np.all(pts[:, pinned] == lows[pinned])
    H = 0.3
    for row in pts:
        assert contains(build_spline(row[2:5]), row[0] * H, row[1] * H)


@pytest.mark.parametrize("n", [10, 200])
def test_closed_fluid_region_raises(n):
    inside_upper_baffle = SampleBounds(x=(3.25, 3.25), y=(0.9, 1.0), **PINNED_CPS)
    with pytest.raises(SamplingError, match="nearly closed"):
        generate_collocation(ChannelDims(), inside_upper_baffle, CollocationCounts(interior=n))


def slice_designs(colloc):
    return np.array([s.X[0, 2:] for s in colloc.slices])


def test_lhs_one_sample_per_stratum():
    # boundary rows and slice designs stay Latin hypercubes over (cp1..3, re, sc)
    bounds, n, k = SampleBounds(), 128, 12
    colloc = generate_collocation(ChannelDims(), bounds, CollocationCounts(interior=10, per_boundary=n),
                                  seed=3, slice_stations=np.linspace(0.0, 7.0, k))
    top = colloc.boundary["inlet_top"].X[:, 2:]
    designs = slice_designs(colloc)
    assert top.shape == (n, 5) and designs.shape == (k, 5)
    for j, name in enumerate(DIM_NAMES[2:]):
        lo, hi = getattr(bounds, name)
        assert np.array_equal(np.sort(stratum_ids(top[:, j], lo, hi, n)), np.arange(n))
        assert np.array_equal(np.sort(stratum_ids(designs[:, j], lo, hi, k)), np.arange(k))


def boundary_and_slice_rows(colloc):
    return np.vstack([g.X for g in colloc.boundary.values()] + [s.X for s in colloc.slices])


def test_lhs_respects_bounds_and_determinism():
    bounds = SampleBounds(re=(10.0, 12.0), sc=(50.0, 50.0))
    a, b, c = (boundary_and_slice_rows(make_set(seed=s, bounds=bounds)) for s in (11, 11, 12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a[:, 5] >= 10.0) and np.all(a[:, 5] <= 12.0)
    assert np.all(a[:, 6] == 50.0)


def test_lhs_single_sample():
    bounds = SampleBounds()
    colloc = generate_collocation(ChannelDims(), bounds, CollocationCounts(interior=10),
                                  seed=0, slice_stations=[3.0])
    design = slice_designs(colloc)
    assert design.shape == (1, 5)
    assert np.all(design >= bounds.lows()[2:]) and np.all(design <= bounds.highs()[2:])


def test_lhs_rejects_bad_n():
    for counts in ({"interior": 0}, {"per_boundary": 0}, {"per_slice": 1}):
        with pytest.raises(DomainError):
            CollocationCounts(**counts)


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
    monkeypatch.setattr(geometry, "baffle_points", per_row_baffle_points)
    monkeypatch.setattr(sampling, "slice_points", per_station_slice_points)
    slow = generate_collocation(dims, bounds, counts, seed=seed)
    assert np.array_equal(fast.interior, slow.interior)
    assert list(fast.boundary) == list(slow.boundary)
    for kind, grp in fast.boundary.items():
        ref = slow.boundary[kind]
        assert np.array_equal(grp.X, ref.X) and np.array_equal(grp.normals, ref.normals)
    assert len(fast.slices) == len(slow.slices)
    for a, b in zip(fast.slices, slow.slices):
        assert a.station == b.station
        assert np.array_equal(a.X, b.X) and np.array_equal(a.weights, b.weights)


def test_boundary_group_shapes():
    colloc = make_set(seed=1, per_boundary=12)
    sizes = {kind: g.X.shape[0] for kind, g in colloc.boundary.items()}
    assert sizes == {"inlet_top": 12, "inlet_bottom": 12, "wall": 60, "baffle": 24, "outlet": 12}


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
        coeffs = build_spline(row[2:5])
        if x <= 3.5 + 1e-9 and y > 0.45:
            xhat = np.clip(x - 3.0, 0.0, 0.5)
            value, slope = eval_spline(coeffs, xhat)
            assert abs(y - (1.0 - value)) < 1e-10
            tangent = np.array([1.0, -slope]) / np.hypot(1.0, slope)
        else:
            xhat = np.clip(x - 3.5, 0.0, 0.5)
            value, slope = eval_spline(coeffs, xhat)
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
    y, w = slice_points([[0.3, 0.1, -0.2]], [1.0], 11)
    assert y.shape == w.shape == (1, 11)
    y, w = y[0], w[0]
    lower, upper = walls_at(build_spline((0.3, 0.1, -0.2)), 1.0)
    assert abs(y[0] - lower) < 1e-14 and abs(y[-1] - upper) < 1e-14
    assert np.allclose(np.diff(y), (upper - lower) / 10)
    assert abs(w.sum() - (upper - lower)) < 1e-14


def test_slice_points_validation():
    flat = [[0.0, 0.0, 0.0]]
    with pytest.raises(DomainError):
        slice_points(flat, [-0.1], 8)
    with pytest.raises(DomainError):
        slice_points(flat, [1.0], 1)
    with pytest.raises(DomainError):
        slice_points(flat * 2, [1.0, np.nan], 8)
    # the first bad station decides the error, as a station-by-station loop would
    with pytest.raises(DomainError, match="x=3.0 "):
        slice_points(flat * 3, [0.5, 3.0, -0.1], 8)


def test_slice_points_equal_per_station_layouts():
    rng = np.random.default_rng(17)
    x_mm = np.concatenate([[0.0, 0.9, 1.05, 1.2, 2.1], rng.uniform(0.0, 2.1, 60), rng.uniform(0.85, 1.25, 60)])
    cps = np.vstack([np.zeros((1, 3)), rng.uniform(-0.5, 0.5, size=(len(x_mm) - 1, 3))])
    for n in (2, 3, 64):
        y, w = slice_points(cps, x_mm, n)
        y_ref, w_ref = per_station_slice_points(cps, x_mm, n)
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
    stations = default_slice_stations()
    assert len(stations) == 5
    assert abs(stations[0] - 3.0) < 1e-12
    assert abs(stations[3] - 4.0) < 1e-12
    assert abs(stations[4] - 7.0) < 1e-12


def test_slices_span_local_height():
    colloc = make_set(seed=6, per_slice=33)
    assert len(colloc.slices) == 5
    for s in colloc.slices:
        assert np.all(s.X[:, 0] == s.station)
        lower, upper = walls_at(build_spline(s.X[0, 2:5]), s.station * 0.3)
        height = (upper - lower) / 0.3
        assert abs(s.weights.sum() - height) < 1e-12
        assert len({tuple(r) for r in s.X[:, 2:]}) == 1


def test_x_bounds_outside_channel_rejected():
    # x and y are checked when the bounds are built, before anything samples
    for bad, limit in [({"x": (0.0, 8.0)}, "[0, 7]"), ({"x": (-0.1, 2.0)}, "[0, 7]"),
                       ({"y": (0.2, 1.5)}, "[0, 1]"), ({"y": (-0.1, 0.5)}, "[0, 1]")]:
        with pytest.raises(DomainError, match=re.escape(f"{next(iter(bad))} must lie within {limit}")):
            SampleBounds(**bad)
    # the channel's own extent is accepted, and samples
    edges = SampleBounds(x=(0.0, CHANNEL.L / CHANNEL.H), y=(0.0, 1.0))
    generate_collocation(ChannelDims(), edges, CollocationCounts(interior=10), seed=0)
