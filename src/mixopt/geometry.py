"""Channel geometry: baffle splines, wall positions, containment, boundary pieces.

The channel is fixed: its lengths, ``CHANNEL``, are millimetres, and only
the baffle shape varies. A design's shape is its spline coefficients, the
(4, 4) array ``build_spline`` returns; batched functions take (n, 4, 4),
one design per row. The spline itself lives in channel-height units
(x in [0, 0.5], heights in [-0.5, 0.5]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

KNOTS = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
KNOT_SPACING = 0.125
CP_MIN = -0.5
CP_MAX = 0.5
BAFFLE_SAMPLES = 513  # arc-length table size of an outline's baffle pieces


def _coeffs_batch(cps: np.ndarray) -> np.ndarray:
    """Spline coefficients (n, 4, 4) for an (n, 3) block of control heights.

    The interior second derivatives solve the natural-spline system
    [[4,1,0],[1,4,1],[0,1,4]] m = rhs by an unrolled Thomas sweep; its
    operation order fixes the coefficients' bits for every row.
    """
    cps = np.atleast_2d(np.asarray(cps, dtype=float))
    n = cps.shape[0]
    h = KNOT_SPACING
    y = np.zeros((n, 5))
    y[:, 1:4] = cps
    rhs = 6.0 / (h * h) * (y[:, 2:] - 2.0 * y[:, 1:-1] + y[:, :-2])
    c0 = 1.0 / 4.0
    c1 = 1.0 / (4.0 - c0)
    d0 = rhs[:, 0] / 4.0
    d1 = (rhs[:, 1] - d0) / (4.0 - c0)
    m = np.zeros((n, 5))
    m[:, 3] = (rhs[:, 2] - d1) / (4.0 - c1)
    m[:, 2] = d1 - c1 * m[:, 3]
    m[:, 1] = d0 - c0 * m[:, 2]
    a = y[:, :-1]
    b = (y[:, 1:] - y[:, :-1]) / h - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    c = m[:, :-1] / 2.0
    d = (m[:, 1:] - m[:, :-1]) / (6.0 * h)
    return np.stack([a, b, c, d], axis=2)


def build_spline(heights) -> np.ndarray:
    """Read-only coefficients (4, 4) of the natural cubic through (knots, [0, cp1, cp2, cp3, 0]).

    ``heights`` is any sequence of the three control heights, each finite and
    in [CP_MIN, CP_MAX]. Row i holds (a, b, c, d) of knot interval i,
    evaluated as a + b*t + c*t^2 + d*t^3 with t = x - knots[i].
    """
    values = [float(v) for v in heights]
    if len(values) != 3:
        raise DomainError(f"expected 3 control heights, got {len(values)}")
    for i, v in enumerate(values, 1):  # NaN fails the range test too
        if not CP_MIN <= v <= CP_MAX:
            raise DomainError(f"cp{i}={v!r} outside [{CP_MIN}, {CP_MAX}]")
    coeffs = _coeffs_batch(values)[0]
    coeffs.setflags(write=False)
    return coeffs


def _eval_batch(coeffs: np.ndarray, x: np.ndarray):
    """Evaluate row i's spline coeffs[i] (n, 4, 4) at x[i] (n, m); returns (value, slope)."""
    seg = np.clip(np.searchsorted(KNOTS, x, side="right") - 1, 0, 3)
    t = x - KNOTS[seg]
    a, b, c, d = np.moveaxis(coeffs[np.arange(len(coeffs))[:, None], seg], -1, 0)
    value = a + t * (b + t * (c + t * d))
    slope = b + t * (2.0 * c + 3.0 * d * t)
    return value, slope


@dataclass(frozen=True)
class ChannelDims:
    """The channel's dimensions in millimetres; there is one channel, ``CHANNEL``.

    Each baffle spans 0.5*H in x (the spline's parametric width) and rises
    H * s(xhat) from its wall; ``BAFFLES`` says where each starts.
    """

    L: float = field(default=2.1, init=False)
    L0: float = field(default=0.9, init=False)
    L1: float = field(default=1.3, init=False)
    H: float = field(default=0.3, init=False)
    W: float = field(default=0.3, init=False)
    d: float = field(default=0.15, init=False)


CHANNEL = ChannelDims()

# (wall, start x, base y, sign) of each baffle in mm, the upper one first.
# The upper baffle hangs from y = H starting at x = L0, the lower one stands
# on y = 0 starting at L0 + d. A baffle's wetted surface sits at
# ``base + sign * H * s(xhat)`` over x = start + xhat * H, xhat in [0, 0.5].
BAFFLES = (("upper", CHANNEL.L0, CHANNEL.H, -1), ("lower", CHANNEL.L0 + CHANNEL.d, 0.0, 1))


def wall_heights(coeffs: np.ndarray, x_mm: np.ndarray):
    """(lower, upper) fluid-boundary y in mm at x_mm (n, m), row i shaped by coeffs[i] (n, 4, 4).

    Each wall follows its baffle's surface over the baffle and is flat elsewhere.
    """
    H = CHANNEL.H
    walls = {}
    for wall, start, base, sign in BAFFLES:
        on = (x_mm >= start) & (x_mm <= start + 0.5 * H)
        value, _ = _eval_batch(coeffs, np.clip((x_mm - start) / H, 0.0, 0.5))
        walls[wall] = np.where(on, base + sign * H * value, base)
    return walls["lower"], walls["upper"]


def contains(coeffs: np.ndarray, x, y):
    """True where (x, y) in mm lies in the fluid of the design coeffs (4, 4).

    The fluid is the channel minus its baffles, which carve cavities where the
    control heights are negative, plus the inlet arms of length ``CHANNEL.L1``
    above and below x in [0, W]; ``SEGMENTS`` bounds only the arms' mouths.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    d = CHANNEL
    lower, upper = (wall.reshape(x.shape) for wall in wall_heights(coeffs[None], x.reshape(1, -1)))
    in_channel = (x >= 0.0) & (x <= d.L) & (y >= lower) & (y <= upper)
    in_arms = (x >= 0.0) & (x <= d.W) & (
        ((y >= d.H) & (y <= d.H + d.L1))
        | ((y >= -d.L1) & (y <= 0.0))
    )
    result = in_channel | in_arms
    return result if result.shape else bool(result)


def _surface(value, slope, xhat, start_x, base, sign):
    """Baffle wall points and outward normals (..., 2) at spline abscissae xhat.

    The wetted surface sits at ``base + sign * H * s(xhat)``; the normal is
    (s', 1) rotated onto the wall, pointing away from the fluid.
    """
    H = CHANNEL.H
    scale = 1.0 / np.sqrt(1.0 + slope * slope)
    points = np.stack([start_x + xhat * H, base + sign * H * value], axis=-1)
    return points, np.stack([slope * scale, -sign * scale], axis=-1)


def _interp_rows(s: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(s[i], xp[i], fp)`` for every row i, with its bits.

    xp is (n, m) or one shared (m,) table, strictly increasing from xp[..., 0] <= s.
    """
    xp = np.broadcast_to(xp, (len(s), len(fp)))
    j = np.clip(np.count_nonzero(xp <= s[:, None], axis=1) - 1, 0, len(fp) - 2)
    rows = np.arange(len(s))
    x0, x1 = xp[rows, j], xp[rows, j + 1]
    slope = (fp[j + 1] - fp[j]) / (x1 - x0)
    return np.where(s >= xp[:, -1], fp[-1], slope * (s - x0) + fp[j])


def baffle_points(coeffs, t, start_x, base, sign, samples):
    """Points and outward normals (n, 2) at arc parameters t (n,) on row i's baffle coeffs[i].

    coeffs is (n, 4, 4), or (1, 4, 4) for one design shared by every t.
    Arc length is tabulated at ``samples`` abscissae only to invert t; the
    points then come from the exact curve, so they sit on it to roundoff.
    """
    xhat_grid = np.linspace(0.0, 0.5, samples)
    grid = np.broadcast_to(xhat_grid, (len(coeffs), samples))
    table, _ = _surface(*_eval_batch(coeffs, grid), grid, start_x, base, sign)
    seg = np.linalg.norm(np.diff(table, axis=-2), axis=-1)
    cumlen = np.concatenate([np.zeros((len(coeffs), 1)), np.cumsum(seg, axis=-1)], axis=-1)
    xhat = _interp_rows(t * cumlen[:, -1], cumlen, xhat_grid)
    value, slope = _eval_batch(coeffs, xhat[:, None])
    return _surface(value[:, 0], slope[:, 0], xhat, start_x, base, sign)


# (kind, name, piece) of the solved region's boundary, in tracing order. A
# straight piece is (start point, end point, outward normal) in mm; a baffle
# piece is its ``BAFFLES`` row, shaped by each design's spline.
_H, _W, _L = CHANNEL.H, CHANNEL.W, CHANNEL.L
_UP, _LO = (start for _, start, _, _ in BAFFLES)
SEGMENTS = (
    ("inlet_top", "inlet_top", ((0.0, _H), (_W, _H), (0.0, 1.0))),
    ("inlet_bottom", "inlet_bottom", ((0.0, 0.0), (_W, 0.0), (0.0, -1.0))),
    ("wall", "wall_left", ((0.0, 0.0), (0.0, _H), (-1.0, 0.0))),
    ("wall", "wall_top_a", ((_W, _H), (_UP, _H), (0.0, 1.0))),
    ("baffle", "baffle_upper", BAFFLES[0]),
    ("wall", "wall_top_b", ((_UP + 0.5 * _H, _H), (_L, _H), (0.0, 1.0))),
    ("wall", "wall_bottom_a", ((_W, 0.0), (_LO, 0.0), (0.0, -1.0))),
    ("baffle", "baffle_lower", BAFFLES[1]),
    ("wall", "wall_bottom_b", ((_LO + 0.5 * _H, 0.0), (_L, 0.0), (0.0, -1.0))),
    ("outlet", "outlet", ((_L, 0.0), (_L, _H), (1.0, 0.0))),
)


def segment_points(piece, t, coeffs, samples):
    """Points and outward normals (n, 2) at arc parameters t (n,) in [0, 1] along one piece.

    A baffle piece is placed by ``baffle_points`` with coeffs (n, 4, 4) per
    row, or (4, 4) for one design, and ``samples`` arc-length abscissae; a
    straight piece interpolates its end points and ignores both.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise DomainError("arc parameter outside [0, 1]")
    if piece in BAFFLES:
        return baffle_points(np.reshape(coeffs, (-1, 4, 4)), t, *piece[1:], samples)
    p0, p1, normal = piece
    length = np.linalg.norm(np.subtract(p1, p0))
    points = [np.interp(t * length, (0.0, length), ends) for ends in zip(p0, p1)]
    return np.stack(points, axis=1), np.tile(normal, (len(t), 1))


def polyline_rows(coeffs: np.ndarray, points_per_segment: int = 64):
    """Yield (x_mm, y_mm, segment name, n_x, n_y) rows tracing the boundary of the design coeffs (4, 4)."""
    t = np.linspace(0.0, 1.0, points_per_segment)
    for _, name, piece in SEGMENTS:
        pts, nrm = segment_points(piece, t, coeffs, BAFFLE_SAMPLES)
        for (x, y), (nx, ny) in zip(pts, nrm):
            yield x, y, name, nx, ny
