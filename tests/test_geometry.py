import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixopt.errors import DomainError
from mixopt.geometry import (
    BAFFLE_SAMPLES,
    BAFFLES,
    CHANNEL,
    CP_MAX,
    CP_MIN,
    KNOTS,
    SEGMENTS,
    ChannelDims,
    _coeffs_batch,
    _interp_rows,
    _surface,
    build_spline,
    contains,
    polyline_rows,
    segment_points,
    wall_heights,
)
from spline_oracle import eval_spline, unit_normal


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
        coeffs = build_spline(row)
        assert np.array_equal(coeffs, scalar_thomas_coeffs(row))
        assert coeffs.shape == (4, 4) and not coeffs.flags.writeable


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


def walls_of(coeffs, x):
    """(lower, upper) wall y of one design coeffs (4, 4) at x (m,), by a one-row call."""
    lower, upper = wall_heights(coeffs[None], np.reshape(x, (1, -1)))
    return lower[0], upper[0]


def test_wall_heights_per_row_equal_each_layouts_walls():
    rng = np.random.default_rng(9)
    cps = rng.uniform(-0.5, 0.5, size=(60, 3))
    x = np.concatenate([rng.uniform(0.8, 1.5, size=55), [0.9, 1.05, 1.2, 1.35, 2.5]])
    lower, upper = wall_heights(_coeffs_batch(cps), x[:, None])
    for i, row in enumerate(cps):
        lo, up = walls_of(build_spline(row), [x[i]])
        assert lower[i, 0] == lo[0] and upper[i, 0] == up[0]


def former_baffle_at(coeffs, t, start_x, base, sign, samples=BAFFLE_SAMPLES):
    """Reference for a baffle piece's points: the one-curve arc table a layout
    used to build with its segments, inverted by ``_interp_rows``, then the
    exact curve through the one-curve ``eval_spline``."""
    xhat_grid = np.linspace(0.0, 0.5, samples)
    value, slope = eval_spline(coeffs, xhat_grid)
    grid, _ = _surface(value, slope, xhat_grid, start_x, base, sign)
    cumlen = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(grid, axis=0), axis=1))])
    xhat = _interp_rows(t * float(cumlen[-1]), cumlen, xhat_grid)
    value, slope = eval_spline(coeffs, xhat)
    return _surface(value, slope, xhat, start_x, base, sign)


def baffle_pieces():
    return [(name, piece) for kind, name, piece in SEGMENTS if kind == "baffle"]


def test_segment_at_equals_former_baffle_branch():
    rng = np.random.default_rng(4)
    dims = CHANNEL
    t = np.concatenate([[0.0, 1.0], rng.random(30)])
    # the former placements: (start x, base y, sign)
    former = {"baffle_upper": (dims.L0, dims.H, -1), "baffle_lower": (dims.L0 + dims.d, 0.0, 1)}
    assert [name for name, _ in baffle_pieces()] == list(former)
    for cps in [np.zeros(3), *rng.uniform(-0.5, 0.5, size=(50, 3))]:
        coeffs = build_spline(cps)
        for name, piece in baffle_pieces():
            pts, nrm = former_baffle_at(coeffs, t, *former[name])
            # one design for every t, and the same design repeated per row
            for shaped in (coeffs, np.broadcast_to(coeffs, (len(t), 4, 4))):
                p, n = segment_points(piece, t, shaped, BAFFLE_SAMPLES)
                assert np.array_equal(pts, p) and np.array_equal(nrm, n)


def test_zero_polygon_gives_zero_curve():
    coeffs = build_spline((0.0, 0.0, 0.0))
    assert np.all(coeffs == 0.0)
    value, slope = eval_spline(coeffs, 0.3)
    assert value == 0.0 and slope == 0.0


def test_coefficients_match_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cps = rng.uniform(-0.5, 0.5, size=3)
        expected = dense_spline_solve([0.0, *cps, 0.0])
        assert np.max(np.abs(build_spline(cps) - expected)) < 1e-9


def test_interpolates_knot_heights():
    values, _ = eval_spline(build_spline((0.4, -0.2, 0.1)), KNOTS)
    assert np.allclose(values, [0.0, 0.4, -0.2, 0.1, 0.0], atol=1e-12)


def test_continuity_and_natural_ends():
    co = build_spline((0.31, -0.44, 0.05))
    h = 0.125
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
    coeffs = build_spline((0.1, 0.1, 0.1))
    for bad in (-0.01, 0.51):
        with pytest.raises(DomainError):
            eval_spline(coeffs, bad)
    # arc parameters outside [0, 1] are rejected on straight and baffle pieces alike
    for _, _, piece in SEGMENTS:
        for bad in ([-1e-12], [0.5, 1.0 + 1e-12]):
            with pytest.raises(DomainError, match="arc parameter"):
                segment_points(piece, bad, coeffs, BAFFLE_SAMPLES)


def test_control_polygon_bounds_checked():
    # build_spline is the one check of a control polygon outside a DesignCandidate
    for heights, message in [
        ((0.0, 0.7, 0.0), "cp2=0.7 outside [-0.5, 0.5]"),
        ((0.0, 0.0, -0.51), "cp3=-0.51 outside [-0.5, 0.5]"),
        ([np.nan, 0.0, 0.0], "cp1=nan outside [-0.5, 0.5]"),
        (np.array([0.0, np.inf, 0.0]), "cp2=inf outside [-0.5, 0.5]"),
        ((0.1, 0.2), "expected 3 control heights, got 2"),
        ([0.1, 0.2, 0.3, 0.4], "expected 3 control heights, got 4"),
    ]:
        with pytest.raises(DomainError) as info:
            build_spline(heights)
        assert str(info.value) == message
    # a sequence, an array and an array's row give the same read-only bits
    row = np.array([[0.31, -0.44, 0.05]])[0]
    coeffs = build_spline(row)
    assert not coeffs.flags.writeable
    assert np.array_equal(coeffs, build_spline([0.31, -0.44, 0.05]))
    assert np.array_equal(coeffs, build_spline(iter(row.tolist())))
    assert np.array_equal(coeffs, _coeffs_batch(row[None])[0])


def test_normal_known_slopes():
    # slope 0 -> (0, 1); slope 1 -> (-1, 1)/sqrt(2); slope -0.75 -> (0.6, 0.8)
    assert np.allclose(unit_normal(build_spline((0.0, 0.0, 0.0)), 0.2), [0.0, 1.0], atol=1e-15)
    line = np.array([[0.0, 1.0, 0.0, 0.0]] * 4)
    assert np.allclose(unit_normal(line, 0.0), [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], atol=1e-15)
    assert np.allclose(unit_normal(-0.75 * line, 0.0), [0.6, 0.8], atol=1e-15)
    # a baffle's outward normal is the curve's, turned onto its wall: away
    # from the fluid, downwards on the lower wall and upwards on the upper one
    for sign, expect in ((1, [-0.6, -0.8]), (-1, [-0.6, 0.8])):
        _, normal = _surface(np.zeros(1), np.array([-0.75]), np.zeros(1), 0.0, 0.0, sign)
        assert np.allclose(normal, [expect], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    cp1=st.floats(-0.5, 0.5),
    cp2=st.floats(-0.5, 0.5),
    cp3=st.floats(-0.5, 0.5),
    x=st.floats(0.0, 0.5),
)
def test_normal_unit_and_orthogonal(cp1, cp2, cp3, x):
    coeffs = build_spline((cp1, cp2, cp3))
    _, slope = eval_spline(coeffs, x)
    n = unit_normal(coeffs, x)
    assert abs(np.hypot(n[0], n[1]) - 1.0) < 1e-12
    tangent = np.array([1.0, slope]) / np.hypot(1.0, slope)
    assert abs(n @ tangent) < 1e-12
    # each baffle's normal is the curve's, mirrored onto its wall
    for _, start, base, sign in BAFFLES:
        _, normal = _surface(np.float64(0.0), np.float64(slope), np.float64(x), start, base, sign)
        assert np.allclose(normal, [-n[0], -sign * n[1]], rtol=0.0, atol=1e-15)


def test_straight_channel_walls():
    lower, upper = walls_of(build_spline((0.0, 0.0, 0.0)), np.linspace(0.0, 2.1, 40))
    assert np.allclose(upper, 0.3)
    assert np.allclose(lower, 0.0)


def test_baffle_walls_follow_curve():
    coeffs = build_spline((0.3, 0.5, 0.2))
    xhat = np.array([0.1, 0.25, 0.4])
    value, _ = eval_spline(coeffs, xhat)
    assert np.allclose(walls_of(coeffs, 0.9 + xhat * 0.3)[1], 0.3 - 0.3 * value, atol=1e-14)
    assert np.allclose(walls_of(coeffs, 1.05 + xhat * 0.3)[0], 0.3 * value, atol=1e-14)


def test_negative_heights_carve_cavities():
    coeffs = build_spline((-0.4, -0.1, -0.3))
    assert walls_of(coeffs, [0.9 + 0.25 * 0.3])[1][0] > 0.3
    assert walls_of(coeffs, [1.05 + 0.25 * 0.3])[0][0] < 0.0


def test_contains_basic_regions():
    coeffs = build_spline((0.3, 0.4, 0.2))
    assert contains(coeffs, 1.8, 0.15) is True
    assert contains(coeffs, -0.01, 0.15) is False
    assert not contains(coeffs, 2.2, 0.15)
    assert not contains(coeffs, 0.5, 0.45)  # above the wall
    # the inlet arms beyond their mouths lie outside the solved region
    assert not contains(coeffs, 0.15, 0.45) and not contains(coeffs, 0.15, -0.45)
    pts = np.array([[1.0, 0.1], [0.1, 0.5], [3.0, 0.1]])
    inside = contains(build_spline((0.2, -0.2, 0.2)), pts[:, 0], pts[:, 1])
    assert inside.tolist() == [True, False, False]
    # a grid keeps its shape, and a scalar y broadcasts against it
    grid = np.linspace(0.0, 2.1, 12).reshape(3, 4)
    assert contains(coeffs, grid, 0.15).shape == (3, 4)


def test_contains_flips_at_baffle_surface():
    coeffs = build_spline((0.35, 0.5, 0.1))
    eps = 1e-6 * 0.3
    for xhat in (0.12, 0.27, 0.43):
        x = 0.9 + xhat * 0.3
        surface = walls_of(coeffs, [x])[1][0]
        assert contains(coeffs, x, surface - eps)
        assert not contains(coeffs, x, surface + eps)
        x2 = 1.05 + xhat * 0.3
        surface2 = walls_of(coeffs, [x2])[0][0]
        assert contains(coeffs, x2, surface2 + eps)
        assert not contains(coeffs, x2, surface2 - eps)


def test_zero_polygon_baffle_segments_coincide_with_walls():
    flat = build_spline((0.0, 0.0, 0.0))
    for _, piece in baffle_pieces():
        ys = segment_points(piece, np.linspace(0.0, 1.0, 513), flat, BAFFLE_SAMPLES)[0][:, 1]
        assert np.allclose(ys, piece[2])


def test_segment_points_on_wall():
    coeffs = build_spline((0.25, 0.45, -0.15))
    eps = 1e-6 * 0.3
    for _, name, piece in SEGMENTS:
        pts, nrm = segment_points(piece, np.linspace(0.0, 1.0, 17), coeffs, BAFFLE_SAMPLES)
        assert np.allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0, atol=1e-12)
        lower, upper = walls_of(coeffs, pts[:, 0])
        if name == "baffle_upper":
            assert np.max(np.abs(pts[:, 1] - upper)) < 1e-10 * 0.3
        if name == "baffle_lower":
            assert np.max(np.abs(pts[:, 1] - lower)) < 1e-10 * 0.3
        # normals point out of the solved region, at the inlet mouths too
        inner = pts[1:-1]
        assert np.all(contains(coeffs, *(inner - eps * nrm[1:-1]).T))
        assert not np.any(contains(coeffs, *(inner + eps * nrm[1:-1]).T))


def test_segment_arclength_straight_channel():
    d = CHANNEL
    flat = build_spline((0.0, 0.0, 0.0))
    ends = {}
    for kind, name, piece in SEGMENTS:
        pts, nrm = segment_points(piece, [0.0, 0.5, 1.0], flat, BAFFLE_SAMPLES)
        if kind != "baffle":
            p0, p1, normal = piece
            # a straight piece meets its end points exactly, and its normal is constant
            assert np.array_equal(pts[[0, 2]], [p0, p1])
            assert np.array_equal(nrm, [normal] * 3)
        ends[name] = np.linalg.norm(pts[2] - pts[0])
    lengths = {"inlet_top": d.W, "inlet_bottom": d.W, "wall_left": d.H, "outlet": d.H,
               "wall_top_a": d.L0 - d.W, "wall_bottom_a": d.L0 + d.d - d.W,
               "wall_top_b": d.L - d.L0 - 0.5 * d.H, "wall_bottom_b": d.L - d.L0 - d.d - 0.5 * d.H,
               "baffle_upper": 0.5 * d.H, "baffle_lower": 0.5 * d.H}
    assert ends.keys() == lengths.keys()
    for name, length in lengths.items():
        assert abs(ends[name] - length) < 1e-12, name
    assert abs(ends["wall_top_a"] - 0.6) < 1e-12 and abs(ends["baffle_upper"] - 0.15) < 1e-12


def test_segments_trace_one_closed_boundary():
    """Every piece end meets exactly one other piece's end, for any design."""
    rng = np.random.default_rng(12)
    for cps in [np.zeros(3), *rng.uniform(-0.5, 0.5, size=(5, 3))]:
        coeffs = build_spline(cps)
        ends = np.vstack([segment_points(piece, [0.0, 1.0], coeffs, BAFFLE_SAMPLES)[0]
                          for _, _, piece in SEGMENTS])
        gaps = np.linalg.norm(ends[:, None] - ends[None], axis=-1) + np.eye(len(ends))
        assert np.all(np.sum(gaps < 1e-12, axis=1) == 1)


def test_channel_dims_are_fixed():
    assert ChannelDims() == CHANNEL
    with pytest.raises(TypeError):
        ChannelDims(L=2.4)
    # the baffles sit inside the channel, past the junction square, side by side
    (_, upper_start, _, _), (_, lower_start, _, _) = BAFFLES
    span = 0.5 * CHANNEL.H
    assert CHANNEL.W <= upper_start and upper_start + span <= lower_start
    assert lower_start + span <= CHANNEL.L


def test_fluid_height_at_least_035_h_over_the_control_box():
    """Over its 8 corners, where the spline (linear in the control heights)
    peaks, no x leaves less than 0.35 H of fluid height."""
    corners = np.array([[a, b, c] for a in (CP_MIN, CP_MAX) for b in (CP_MIN, CP_MAX)
                        for c in (CP_MIN, CP_MAX)])
    x = np.linspace(0.0, CHANNEL.L, 20001)
    lower, upper = wall_heights(_coeffs_batch(corners), np.broadcast_to(x, (8, len(x))))
    assert np.min(upper - lower) >= 0.35 * CHANNEL.H


def test_polyline_rows_trace_boundary():
    coeffs = build_spline((0.3, 0.2, 0.1))
    rows = list(polyline_rows(coeffs, points_per_segment=8))
    assert len(rows) == 8 * len(SEGMENTS) == 80
    assert [name for _, _, name, _, _ in rows[::8]] == [name for _, name, _ in SEGMENTS]
    t = np.linspace(0.0, 1.0, 8)
    for i, (_, _, piece) in enumerate(SEGMENTS):
        pts, nrm = segment_points(piece, t, coeffs, BAFFLE_SAMPLES)
        block = rows[8 * i: 8 * (i + 1)]
        assert np.array_equal([[x, y, nx, ny] for x, y, _, nx, ny in block], np.hstack([pts, nrm]))
    for x, y, kind, nx, ny in rows:
        assert isinstance(kind, str)
        assert abs(np.hypot(nx, ny) - 1.0) < 1e-9
