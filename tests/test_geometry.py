import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixopt.errors import DomainError, GeometryError
from mixopt.geometry import (
    KNOTS,
    ChannelDims,
    ControlPolygon,
    _arc_table,
    _coeffs_batch,
    _interp_rows,
    _surface,
    build_layout,
    build_spline,
    eval_spline,
    polyline_rows,
    unit_normal,
    wall_heights,
)


def dense_spline_solve(heights):
    """Independent natural-cubic construction: one dense 16x16 linear system.

    Unknowns are (a, b, c, d) per segment; equations are interpolation at both
    segment ends, C1 and C2 continuity at interior knots, and zero second
    derivative at the curve ends.
    """
    h = 0.125
    A = np.zeros((16, 16))
    rhs = np.zeros(16)

    def col(i, k):
        return 4 * i + k

    r = 0
    for i in range(4):
        A[r, col(i, 0)] = 1.0
        rhs[r] = heights[i]
        r += 1
    for i in range(4):
        A[r, col(i, 0)] = 1.0
        A[r, col(i, 1)] = h
        A[r, col(i, 2)] = h * h
        A[r, col(i, 3)] = h ** 3
        rhs[r] = heights[i + 1]
        r += 1
    for i in range(3):
        A[r, col(i, 1)] = 1.0
        A[r, col(i, 2)] = 2.0 * h
        A[r, col(i, 3)] = 3.0 * h * h
        A[r, col(i + 1, 1)] = -1.0
        r += 1
    for i in range(3):
        A[r, col(i, 2)] = 2.0
        A[r, col(i, 3)] = 6.0 * h
        A[r, col(i + 1, 2)] = -2.0
        r += 1
    A[r, col(0, 2)] = 2.0
    r += 1
    A[r, col(3, 2)] = 2.0
    A[r, col(3, 3)] = 6.0 * h
    return np.linalg.solve(A, rhs).reshape(4, 4)


def solve_tridiagonal(sub, diag, sup, rhs):
    """General Thomas algorithm for a tridiagonal system; O(n), no pivoting."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - sub[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = sup[i] / denom
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def scalar_thomas_coeffs(cps):
    """Reference coefficients (4, 4) of one polygon: a looped Thomas sweep, one row at a time.

    The batched routine must reproduce it bit for bit; a matrix inverse of the
    same system differs from it in the last bits in most rows.
    """
    h = 0.125
    y = np.array([0.0, *cps, 0.0])
    rhs = 6.0 / (h * h) * (y[2:] - 2.0 * y[1:-1] + y[:-2])
    m = np.concatenate([[0.0], solve_tridiagonal(np.ones(2), np.full(3, 4.0), np.ones(2), rhs), [0.0]])
    a = y[:-1]
    b = (y[1:] - y[:-1]) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = m[:-1] / 2.0
    d = (m[1:] - m[:-1]) / (6.0 * h)
    return np.stack([a, b, c, d], axis=1)


def test_batched_coefficients_equal_scalar_thomas_sweep():
    rng = np.random.default_rng(11)
    cps = np.vstack([rng.uniform(-0.5, 0.5, size=(2000, 3)),
                     [[0.0, 0.0, 0.0], [0.5, -0.5, 0.5], [-0.5, -0.5, -0.5], [1e-17, 0.3, -1e-300]]])
    batch = _coeffs_batch(cps)
    assert batch.shape == (len(cps), 4, 4)
    for row, coeffs in zip(cps, batch):
        assert np.array_equal(coeffs, scalar_thomas_coeffs(row))
    for row in cps[:50]:
        assert np.array_equal(build_spline(ControlPolygon(*row)).coeffs, scalar_thomas_coeffs(row))


def test_interp_rows_matches_np_interp_at_ends_and_table_hits():
    rng = np.random.default_rng(5)
    xp = np.cumsum(rng.uniform(0.1, 2.0, size=(400, 129)), axis=1)
    xp[:, 0] = 0.0
    # the spline abscissae, and a table whose terms are of one size so that
    # any change in the slope's rounding shows
    for fp in (np.linspace(0.0, 0.5, 129), rng.normal(size=129)):
        for t in (np.zeros(400), np.ones(400), rng.random(400)):
            s = t * xp[:, -1]
            expect = [np.interp(si, row, fp) for si, row in zip(s, xp)]
            assert np.array_equal(_interp_rows(s, xp, fp), expect)
        k = rng.integers(0, 129, size=400)
        hits = xp[np.arange(400), k]
        assert np.array_equal(_interp_rows(hits, xp, fp), fp[k])
        shared = xp[0]
        s = np.concatenate([shared, [0.0, shared[-1]], rng.random(300) * shared[-1]])
        assert np.array_equal(_interp_rows(s, shared, fp), np.interp(s, shared, fp))


def test_wall_heights_per_row_equal_each_layouts_walls():
    rng = np.random.default_rng(9)
    dims = ChannelDims()
    cps = rng.uniform(-0.5, 0.5, size=(60, 3))
    x = np.concatenate([rng.uniform(0.8, 1.5, size=55), [0.9, 1.05, 1.2, 1.35, 2.5]])
    lower, upper = wall_heights(dims, _coeffs_batch(cps), x[:, None])
    for i, row in enumerate(cps):
        lay = build_layout(ControlPolygon(*row), dims)
        assert lower[i, 0] == lay.lower_wall_y(x[i])
        assert upper[i, 0] == lay.upper_wall_y(x[i])


def former_baffle_at(curve, t, start_x, base, sign, H, samples=513):
    """Reference for a baffle segment's ``at``: the one-curve arc table a layout
    used to build with its segments, inverted by ``_interp_rows``, then the
    exact curve through ``eval_spline``. Also returns the arc length."""
    xhat_grid = np.linspace(0.0, 0.5, samples)
    _, _, cumlen = _arc_table(curve.coeffs[None], xhat_grid, start_x, base, sign, H)
    cumlen = cumlen[0]
    xhat = _interp_rows(t * float(cumlen[-1]), cumlen, xhat_grid)
    value, slope = eval_spline(curve, xhat)
    return _surface(value, slope, xhat, start_x, base, sign, H), float(cumlen[-1])


def test_segment_at_equals_former_baffle_branch():
    rng = np.random.default_rng(4)
    dims = ChannelDims()
    t = np.concatenate([[0.0, 1.0], rng.random(30)])
    # the former placements: (start x, base y, sign)
    former = {"baffle_upper": (dims.L0, dims.H, -1), "baffle_lower": (dims.L0 + dims.d, 0.0, 1)}
    for cps in [np.zeros(3), *rng.uniform(-0.5, 0.5, size=(50, 3))]:
        lay = build_layout(ControlPolygon(*cps), dims)
        baffles = [seg for seg in lay.segments() if seg.kind == "baffle"]
        assert [seg.name for seg in baffles] == list(former)
        for seg in baffles:
            (pts, nrm), length = former_baffle_at(build_spline(ControlPolygon(*cps)), t, *former[seg.name], dims.H)
            p, n = seg.at(t)
            assert np.array_equal(pts, p) and np.array_equal(nrm, n)
            assert seg.arclength == length


def test_zero_polygon_gives_zero_curve():
    curve = build_spline(ControlPolygon(0.0, 0.0, 0.0))
    assert np.all(curve.coeffs == 0.0)
    value, slope = eval_spline(curve, 0.3)
    assert value == 0.0 and slope == 0.0


def test_coefficients_match_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cps = rng.uniform(-0.5, 0.5, size=3)
        curve = build_spline(ControlPolygon(*cps))
        expected = dense_spline_solve([0.0, *cps, 0.0])
        assert np.max(np.abs(curve.coeffs - expected)) < 1e-9


def test_interpolates_knot_heights():
    cp = ControlPolygon(0.4, -0.2, 0.1)
    curve = build_spline(cp)
    values, _ = eval_spline(curve, KNOTS)
    assert np.allclose(values, cp.heights(), atol=1e-12)


def test_continuity_and_natural_ends():
    curve = build_spline(ControlPolygon(0.31, -0.44, 0.05))
    h = 0.125
    co = curve.coeffs
    for i in range(3):
        left_val = co[i, 0] + co[i, 1] * h + co[i, 2] * h * h + co[i, 3] * h ** 3
        assert abs(left_val - co[i + 1, 0]) < 1e-10
        left_slope = co[i, 1] + 2 * co[i, 2] * h + 3 * co[i, 3] * h * h
        assert abs(left_slope - co[i + 1, 1]) < 1e-10
        left_curv = 2 * co[i, 2] + 6 * co[i, 3] * h
        assert abs(left_curv - 2 * co[i + 1, 2]) < 1e-10
    assert abs(2 * co[0, 2]) < 1e-10
    assert abs(2 * co[3, 2] + 6 * co[3, 3] * h) < 1e-10


def test_eval_outside_domain_rejected():
    curve = build_spline(ControlPolygon(0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        eval_spline(curve, -0.01)
    with pytest.raises(DomainError):
        eval_spline(curve, 0.51)


def test_control_polygon_bounds_checked():
    with pytest.raises(DomainError, match="cp2"):
        ControlPolygon(0.0, 0.7, 0.0)
    with pytest.raises(DomainError, match="cp3"):
        ControlPolygon(0.0, 0.0, -0.51)


def test_normal_known_slopes():
    # slope 0 -> (0, 1); slope 1 -> (-1, 1)/sqrt(2); slope -0.75 -> (0.6, 0.8)
    curve = build_spline(ControlPolygon(0.0, 0.0, 0.0))
    n = unit_normal(curve, 0.2)
    assert np.allclose(n, [0.0, 1.0], atol=1e-15)

    class _Fake:
        coeffs = np.array([[0.0, 1.0, 0.0, 0.0]] * 4)

    n = unit_normal(_Fake(), 0.0)
    assert np.allclose(n, [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], atol=1e-15)

    class _Fake2:
        coeffs = np.array([[0.0, -0.75, 0.0, 0.0]] * 4)

    n = unit_normal(_Fake2(), 0.0)
    assert np.allclose(n, [0.6, 0.8], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    cp1=st.floats(-0.5, 0.5),
    cp2=st.floats(-0.5, 0.5),
    cp3=st.floats(-0.5, 0.5),
    x=st.floats(0.0, 0.5),
)
def test_normal_unit_and_orthogonal(cp1, cp2, cp3, x):
    curve = build_spline(ControlPolygon(cp1, cp2, cp3))
    _, slope = eval_spline(curve, x)
    n = unit_normal(curve, x)
    assert abs(np.hypot(n[0], n[1]) - 1.0) < 1e-12
    tangent = np.array([1.0, slope]) / np.hypot(1.0, slope)
    assert abs(n @ tangent) < 1e-12


def make_layout(cp1=0.0, cp2=0.0, cp3=0.0, **dim_kwargs):
    return build_layout(ControlPolygon(cp1, cp2, cp3), ChannelDims(**dim_kwargs))


def test_straight_channel_walls():
    lay = make_layout()
    x = np.linspace(0.0, 2.1, 40)
    assert np.allclose(lay.upper_wall_y(x), 0.3)
    assert np.allclose(lay.lower_wall_y(x), 0.0)


def test_baffle_walls_follow_curve():
    lay = make_layout(0.3, 0.5, 0.2)
    curve = lay.curve
    xhat = np.array([0.1, 0.25, 0.4])
    value, _ = eval_spline(curve, xhat)
    up = lay.upper_wall_y(0.9 + xhat * 0.3)
    assert np.allclose(up, 0.3 - 0.3 * value, atol=1e-14)
    lo = lay.lower_wall_y(1.05 + xhat * 0.3)
    assert np.allclose(lo, 0.3 * value, atol=1e-14)


def test_negative_heights_carve_cavities():
    lay = make_layout(-0.4, -0.1, -0.3)
    x = 0.9 + 0.25 * 0.3
    assert lay.upper_wall_y(x) > 0.3
    assert lay.lower_wall_y(1.05 + 0.25 * 0.3) < 0.0


def test_contains_basic_regions():
    lay = make_layout(0.3, 0.4, 0.2)
    assert lay.contains(1.8, 0.15)
    assert lay.contains(0.15, 0.45)  # upper arm
    assert lay.contains(0.15, -0.45)  # lower arm
    assert not lay.contains(-0.01, 0.15)
    assert not lay.contains(2.2, 0.15)
    assert not lay.contains(0.5, 0.45)  # above wall, outside arm square
    assert not lay.contains(0.15, 1.8)  # beyond arm end
    pts = np.array([[1.0, 0.1], [0.1, 0.5], [3.0, 0.1]])
    assert make_layout(0.2, -0.2, 0.2).contains(pts[:, 0], pts[:, 1]).tolist() == [True, True, False]


def test_contains_flips_at_baffle_surface():
    lay = make_layout(0.35, 0.5, 0.1)
    eps = 1e-6 * 0.3
    for xhat in (0.12, 0.27, 0.43):
        x = 0.9 + xhat * 0.3
        surface = lay.upper_wall_y(x)
        assert lay.contains(x, surface - eps)
        assert not lay.contains(x, surface + eps)
        x2 = 1.05 + xhat * 0.3
        surface2 = lay.lower_wall_y(x2)
        assert lay.contains(x2, surface2 + eps)
        assert not lay.contains(x2, surface2 - eps)


def test_zero_polygon_baffle_segments_coincide_with_walls():
    lay = make_layout()
    for seg in lay.segments():
        if seg.kind == "baffle":
            ys = seg.at(np.linspace(0.0, 1.0, 513))[0][:, 1]
            assert np.allclose(ys, 0.3) or np.allclose(ys, 0.0)


def test_segment_points_on_wall():
    lay = make_layout(0.25, 0.45, -0.15)
    for seg in lay.segments():
        pts, nrm = seg.at(np.linspace(0.0, 1.0, 17))
        assert np.allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0, atol=1e-12)
        if seg.name == "baffle_upper":
            expect = lay.upper_wall_y(pts[:, 0])
            assert np.max(np.abs(pts[:, 1] - expect)) < 1e-10 * 0.3
        if seg.name == "baffle_lower":
            expect = lay.lower_wall_y(pts[:, 0])
            assert np.max(np.abs(pts[:, 1] - expect)) < 1e-10 * 0.3


def test_segment_arclength_straight_channel():
    lay = make_layout()
    lengths = {seg.name: seg.arclength for seg in lay.segments()}
    assert abs(lengths["inlet_top"] - 0.3) < 1e-12
    assert abs(lengths["outlet"] - 0.3) < 1e-12
    assert abs(lengths["wall_top_a"] - 0.6) < 1e-12
    assert abs(lengths["baffle_upper"] - 0.15) < 1e-12


def test_layout_rejects_bad_dims():
    with pytest.raises(DomainError):
        ChannelDims(H=-0.3)
    with pytest.raises(GeometryError):
        build_layout(ControlPolygon(0.0, 0.0, 0.0), ChannelDims(L=1.0))
    with pytest.raises(GeometryError):
        build_layout(ControlPolygon(0.0, 0.0, 0.0), ChannelDims(l_d=0.2))
    with pytest.raises(GeometryError, match="junction square overlaps the upper baffle"):
        build_layout(ControlPolygon(0.0, 0.0, 0.0), ChannelDims(W=1.0))


def test_polyline_rows_trace_boundary():
    lay = make_layout(0.3, 0.2, 0.1)
    rows = list(polyline_rows(lay, points_per_segment=8))
    assert len(rows) == 8 * len(lay.segments())
    for x, y, kind, nx, ny in rows:
        assert isinstance(kind, str)
        assert abs(np.hypot(nx, ny) - 1.0) < 1e-9
