"""Channel geometry: spline baffle curves, wall positions, containment, boundary segments.

The channel is fixed: its lengths, ``CHANNEL``, are millimetres, and only
the baffle shape varies. The spline itself lives in channel-height units
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
BAFFLE_SAMPLES = 513  # arc-length table size of a layout's baffle segments

@dataclass(frozen=True)
class ControlPolygon:
    """Heights of the three free spline control points, in channel heights."""

    cp1: float
    cp2: float
    cp3: float

    def __post_init__(self):
        for name in ("cp1", "cp2", "cp3"):
            v = getattr(self, name)
            if not np.isfinite(v) or not (CP_MIN <= v <= CP_MAX):
                raise DomainError(f"{name}={v!r} outside [{CP_MIN}, {CP_MAX}]")

    @classmethod
    def from_iterable(cls, values) -> "ControlPolygon":
        vals = [float(v) for v in values]
        if len(vals) != 3:
            raise DomainError(f"expected 3 control heights, got {len(vals)}")
        return cls(*vals)

    def heights(self) -> np.ndarray:
        """Full knot-height vector including the pinned endpoints."""
        return np.array([0.0, self.cp1, self.cp2, self.cp3, 0.0])

    def as_array(self) -> np.ndarray:
        return np.array([self.cp1, self.cp2, self.cp3])


@dataclass(frozen=True)
class SplineCurve:
    """Natural cubic interpolant on the fixed knots.

    ``coeffs[i]`` holds (a, b, c, d) for segment i, evaluated as
    a + b*t + c*t^2 + d*t^3 with t = x - knots[i].
    """

    coeffs: np.ndarray


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


def build_spline(cp: ControlPolygon) -> SplineCurve:
    """Natural cubic through (knots, [0, cp1, cp2, cp3, 0])."""
    coeffs = _coeffs_batch(cp.as_array())[0]
    coeffs.setflags(write=False)
    return SplineCurve(coeffs=coeffs)


def _segment_index(x: np.ndarray) -> np.ndarray:
    return np.clip(np.searchsorted(KNOTS, x, side="right") - 1, 0, 3)


def _eval_batch(coeffs: np.ndarray, x: np.ndarray):
    """Evaluate row i's spline coeffs[i] (n, 4, 4) at x[i] (n, m); returns (value, slope)."""
    seg = _segment_index(x)
    t = x - KNOTS[seg]
    a, b, c, d = np.moveaxis(coeffs[np.arange(len(coeffs))[:, None], seg], -1, 0)
    value = a + t * (b + t * (c + t * d))
    slope = b + t * (2.0 * c + 3.0 * d * t)
    return value, slope


def eval_spline(curve: SplineCurve, x):
    """Evaluate the curve; returns (value, slope), shaped like ``x``.

    Raises DomainError for x outside [0, 0.5].
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < KNOTS[0]) or np.any(xa > KNOTS[-1]):
        raise DomainError(f"spline argument outside [{KNOTS[0]}, {KNOTS[-1]}]")
    value, slope = _eval_batch(curve.coeffs[None], xa.reshape(1, -1))
    if np.isscalar(x):
        return float(value[0, 0]), float(slope[0, 0])
    return value.reshape(xa.shape), slope.reshape(xa.shape)


def unit_normal(curve: SplineCurve, x):
    """Unit normal (-s', 1)/sqrt(1 + s'^2) to the curve at x; shape (..., 2)."""
    _, slope = eval_spline(curve, x)
    slope = np.asarray(slope, dtype=float)
    scale = 1.0 / np.sqrt(1.0 + slope * slope)
    return np.stack([-slope * scale, np.broadcast_to(scale, slope.shape)], axis=-1)


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


def _surface(value, slope, xhat, start_x, base, sign, H):
    """Baffle wall points and outward normals (..., 2) at spline abscissae xhat.

    The wetted surface sits at ``base + sign * H * s(xhat)``; the normal is
    (s', 1) rotated onto the wall, pointing away from the fluid.
    """
    scale = 1.0 / np.sqrt(1.0 + slope * slope)
    points = np.stack([start_x + xhat * H, base + sign * H * value], axis=-1)
    return points, np.stack([slope * scale, -sign * scale], axis=-1)


def _arc_table(coeffs, xhat, start_x, base, sign, H):
    """Surface points, normals and cumulative arc length per row of coeffs at xhat (m,)."""
    xhat = np.broadcast_to(xhat, (len(coeffs), len(xhat)))
    value, slope = _eval_batch(coeffs, xhat)
    points, normals = _surface(value, slope, xhat, start_x, base, sign, H)
    seg = np.linalg.norm(np.diff(points, axis=-2), axis=-1)
    cumlen = np.concatenate([np.zeros((len(coeffs), 1)), np.cumsum(seg, axis=-1)], axis=-1)
    return points, normals, cumlen


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


def baffle_points(coeffs, t, start_x, base, sign, H, samples):
    """Points and outward normals (n, 2) at arc parameters t (n,) on row i's baffle coeffs[i].

    Arc length is tabulated at ``samples`` abscissae only to invert t; the
    points then come from the exact curve, so they sit on it to roundoff.
    """
    xhat_grid = np.linspace(0.0, 0.5, samples)
    _, _, cumlen = _arc_table(coeffs, xhat_grid, start_x, base, sign, H)
    xhat = _interp_rows(t * cumlen[:, -1], cumlen, xhat_grid)
    value, slope = _eval_batch(coeffs, xhat[:, None])
    return _surface(value[:, 0], slope[:, 0], xhat, start_x, base, sign, H)


@dataclass(frozen=True)
class BoundarySegment:
    """A boundary piece with an arc-length parameterization t in [0, 1].

    Straight pieces interpolate their end points exactly. A baffle piece keeps
    its spline coefficients and its placement; ``at`` hands them to
    ``baffle_points`` with BAFFLE_SAMPLES abscissae.
    """

    kind: str
    name: str
    points: np.ndarray | None = None
    normals: np.ndarray | None = None
    cumlen: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    start_x: float = 0.0
    base_y: float = 0.0
    sign: int = 0
    height: float = 0.0

    def _placement(self):
        return self.start_x, self.base_y, self.sign, self.height

    @property
    def arclength(self) -> float:
        if self.coeffs is None:
            return float(self.cumlen[-1])
        xhat = np.linspace(0.0, 0.5, BAFFLE_SAMPLES)
        return float(_arc_table(self.coeffs[None], xhat, *self._placement())[2][0, -1])

    def at(self, t):
        """Map arc parameters t in [0, 1] to ((n, 2) points, (n, 2) normals)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise DomainError("arc parameter outside [0, 1]")
        if self.coeffs is not None:
            return baffle_points(self.coeffs[None], t, *self._placement(), samples=BAFFLE_SAMPLES)
        s = t * self.arclength
        x = np.interp(s, self.cumlen, self.points[:, 0])
        y = np.interp(s, self.cumlen, self.points[:, 1])
        nx = np.interp(s, self.cumlen, self.normals[:, 0])
        ny = np.interp(s, self.cumlen, self.normals[:, 1])
        norm = np.hypot(nx, ny)
        return np.stack([x, y], axis=1), np.stack([nx / norm, ny / norm], axis=1)


def _line_segment(kind, name, p0, p1, normal, samples=2) -> BoundarySegment:
    t = np.linspace(0.0, 1.0, samples)
    pts = np.outer(1.0 - t, p0) + np.outer(t, p1)
    nrm = np.tile(np.asarray(normal, dtype=float), (samples, 1))
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return BoundarySegment(kind=kind, name=name, points=pts, normals=nrm, cumlen=cum)


@dataclass(frozen=True)
class ChannelLayout:
    """Immutable channel instance: control polygon, baffle curve, inlet arms.

    The two baffles of ``BAFFLES`` share one spline curve. Positive control
    heights protrude into the channel; negative ones carve cavities into the
    walls. Inlet arms of length ``CHANNEL.L1`` attach above and below the
    junction square x in [0, W]; they count as fluid for containment and
    their mouths (y = H and y = 0) carry the inlet boundary segments.
    """

    cp: ControlPolygon
    curve: SplineCurve

    def _walls(self, x):
        x = np.asarray(x, dtype=float)
        lower, upper = wall_heights(self.curve.coeffs[None], x.reshape(1, -1))
        return lower.reshape(x.shape), upper.reshape(x.shape)

    def upper_wall_y(self, x):
        """y of the upper fluid boundary at x (mm); vectorized."""
        y = self._walls(x)[1]
        return y if y.shape else float(y)

    def lower_wall_y(self, x):
        """y of the lower fluid boundary at x (mm); vectorized."""
        y = self._walls(x)[0]
        return y if y.shape else float(y)

    def contains(self, x, y) -> np.ndarray:
        """True where (x, y) in mm lies in the fluid (channel minus baffles, plus arms)."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        d = CHANNEL
        lower, upper = self._walls(x)
        in_channel = (x >= 0.0) & (x <= d.L) & (y >= lower) & (y <= upper)
        in_arms = (x >= 0.0) & (x <= d.W) & (
            ((y >= d.H) & (y <= d.H + d.L1))
            | ((y >= -d.L1) & (y <= 0.0))
        )
        result = in_channel | in_arms
        return result if result.shape else bool(result)

    def segments(self) -> list:
        """Boundary segments of the solved (rectangular channel) region.

        Inlets sit at the arm mouths; the arms themselves only participate in
        containment, not in the boundary set.
        """
        d = CHANNEL
        up, lo = (BoundarySegment("baffle", f"baffle_{wall}", coeffs=self.curve.coeffs, start_x=start,
                                  base_y=base, sign=sign, height=d.H)
                  for wall, start, base, sign in BAFFLES)
        span = 0.5 * d.H
        segs = [
            _line_segment("inlet_top", "inlet_top", (0.0, d.H), (d.W, d.H), (0.0, 1.0)),
            _line_segment("inlet_bottom", "inlet_bottom", (0.0, 0.0), (d.W, 0.0), (0.0, -1.0)),
            _line_segment("wall", "wall_left", (0.0, 0.0), (0.0, d.H), (-1.0, 0.0)),
            _line_segment("wall", "wall_top_a", (d.W, d.H), (up.start_x, d.H), (0.0, 1.0)),
            up,
            _line_segment("wall", "wall_top_b", (up.start_x + span, d.H), (d.L, d.H), (0.0, 1.0)),
            _line_segment("wall", "wall_bottom_a", (d.W, 0.0), (lo.start_x, 0.0), (0.0, -1.0)),
            lo,
            _line_segment("wall", "wall_bottom_b", (lo.start_x + span, 0.0), (d.L, 0.0), (0.0, -1.0)),
            _line_segment("outlet", "outlet", (d.L, 0.0), (d.L, d.H), (1.0, 0.0)),
        ]
        return segs


def build_layout(cp: ControlPolygon) -> ChannelLayout:
    """Construct the channel layout for one control polygon."""
    return ChannelLayout(cp=cp, curve=build_spline(cp))


def polyline_rows(layout: ChannelLayout, points_per_segment: int = 64):
    """Yield (x_mm, y_mm, segment_kind, n_x, n_y) rows tracing the boundary."""
    t = np.linspace(0.0, 1.0, points_per_segment)
    for seg in layout.segments():
        pts, nrm = seg.at(t)
        for (x, y), (nx, ny) in zip(pts, nrm):
            yield x, y, seg.name, nx, ny
