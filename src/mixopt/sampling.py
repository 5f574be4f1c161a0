"""Latin hypercube collocation over space and design parameters.

Rows are ordered (x, y, cp1, cp2, cp3, re, sc); x and y are dimensionless
channel coordinates (lengths over H). Interior points live in the channel
rectangle; inlet boundary rows sit on the arm mouths.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, SamplingError
from .geometry import (
    CP_MAX,
    CP_MIN,
    ChannelDims,
    ControlPolygon,
    _coeffs_batch,
    baffle_placements,
    baffle_points,
    build_layout,
    build_spline,  # noqa: F401  (unused here; the benchmark tracer wraps sampling.build_spline)
    wall_heights,
)

log = logging.getLogger(__name__)

DIM_NAMES = ("x", "y", "cp1", "cp2", "cp3", "re", "sc")


@dataclass(frozen=True)
class SampleBounds:
    """Per-dimension (low, high) ranges. low == high pins a dimension."""

    x: tuple = (0.0, 7.0)
    y: tuple = (0.0, 1.0)
    cp1: tuple = (CP_MIN, CP_MAX)
    cp2: tuple = (CP_MIN, CP_MAX)
    cp3: tuple = (CP_MIN, CP_MAX)
    re: tuple = (5.0, 40.0)
    sc: tuple = (1.0, 100.0)

    def __post_init__(self):
        for name in DIM_NAMES:
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise DomainError(f"bounds for {name} must satisfy lo <= hi, got ({lo}, {hi})")
        for name in ("cp1", "cp2", "cp3"):
            lo, hi = getattr(self, name)
            if lo < CP_MIN or hi > CP_MAX:
                raise DomainError(f"bounds for {name} must lie within [{CP_MIN}, {CP_MAX}]")
        for name in ("re", "sc"):
            lo, _ = getattr(self, name)
            if lo <= 0:
                raise DomainError(f"{name} must be positive")

    def lows(self) -> np.ndarray:
        return np.array([getattr(self, n)[0] for n in DIM_NAMES])

    def highs(self) -> np.ndarray:
        return np.array([getattr(self, n)[1] for n in DIM_NAMES])

    def pairs(self) -> list:
        return [tuple(getattr(self, n)) for n in DIM_NAMES]


@dataclass(frozen=True)
class CollocationCounts:
    interior: int = 3000
    per_boundary: int = 80
    per_slice: int = 64

    def __post_init__(self):
        if self.interior < 1 or self.per_boundary < 1 or self.per_slice < 2:
            raise DomainError("collocation counts must be positive (per_slice >= 2)")


@dataclass(frozen=True)
class BoundaryGroup:
    """All boundary rows of one condition kind, concatenated across segments."""

    kind: str
    X: np.ndarray
    normals: np.ndarray
    targets: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PenaltySlice:
    """A cross-channel quadrature line carrying a mass-flow target."""

    station: float
    X: np.ndarray
    weights: np.ndarray
    target: float


@dataclass(frozen=True)
class CollocationSet:
    interior: np.ndarray
    boundary: dict
    slices: tuple


def _lhs_matrix(rng: np.random.Generator, n: int, lows, highs) -> np.ndarray:
    """One-sample-per-stratum LHS; returns strata ids and uniforms too."""
    k = len(lows)
    strata = np.column_stack([rng.permutation(n) for _ in range(k)])
    u = rng.random((n, k))
    pts = lows + (strata + u) / n * (highs - lows)
    return pts, strata, u


def lhs_sample(n: int, bounds: SampleBounds, seed=None) -> np.ndarray:
    """Plain 7-D Latin hypercube sample, no geometry filtering."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts, _, _ = _lhs_matrix(rng, n, bounds.lows(), bounds.highs())
    return pts


def _inside_rect(dims: ChannelDims, pts: np.ndarray) -> np.ndarray:
    """Vectorized fluid-rectangle test for dimensionless (x, y, cp...) rows."""
    x = pts[:, 0] * dims.H
    y = pts[:, 1] * dims.H
    lower, upper = wall_heights(dims, _coeffs_batch(pts[:, 2:5]), x[:, None])
    return (x >= 0.0) & (x <= dims.L) & (y >= lower[:, 0]) & (y <= upper[:, 0])


def _repair_interior(rng, n, bounds, dims, max_rounds=300):
    """LHS over the channel rectangle with geometric rejection repair.

    Invalid rows are first redrawn within their strata; rows that stay blocked
    trade x/y strata with other rows (a swap keeps every per-dimension
    marginal exactly one-per-stratum).
    """
    lows, highs = bounds.lows(), bounds.highs()
    span7 = highs - lows
    pts, strata, u = _lhs_matrix(rng, n, lows, highs)
    ok = _inside_rect(dims, pts)
    rejected = int(np.count_nonzero(~ok))
    if n >= 100 and rejected > 0.99 * n:
        raise SamplingError(f"{rejected}/{n} interior samples rejected; fluid region nearly closed")

    def refresh(rows):
        pts[rows] = lows + (strata[rows] + u[rows]) / n * span7
        ok[rows] = _inside_rect(dims, pts[rows])

    for round_no in range(max_rounds):
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            if rejected:
                log.debug("interior repair: %d initial rejections healed in %d rounds", rejected, round_no)
            return pts
        for _ in range(3):
            u[bad] = rng.random((bad.size, 7))
            refresh(bad)
            bad = bad[~ok[bad]]
            if bad.size == 0:
                break
        if bad.size == 0:
            continue
        # swap x (even rounds) or y (odd rounds) strata within a pool of bad
        # rows padded with random good rows, then redraw uniforms
        dim = round_no % 2
        pool = bad
        good = np.flatnonzero(ok)
        if good.size:
            extra = rng.choice(good, size=min(good.size, max(bad.size, 8)), replace=False)
            pool = np.concatenate([bad, extra])
        perm = rng.permutation(pool.size)
        strata[pool, dim] = strata[pool[perm], dim]
        u[pool] = rng.random((pool.size, 7))
        refresh(pool)
    raise SamplingError(f"interior repair did not converge after {max_rounds} rounds")


def _inlet_profile(xi: np.ndarray, width: float) -> np.ndarray:
    """Parabolic inflow speed across one arm mouth; per-arm mean 0.5/width."""
    mean = 0.5 / width
    return 6.0 * mean * xi * (1.0 - xi)


def _boundary_group_rows(rng, seg, n, bounds, dims):
    """Rows for one boundary segment: 6-D LHS over (t, cp1..3, re, sc)."""
    lows = np.concatenate([[0.0], bounds.lows()[2:]])
    highs = np.concatenate([[1.0], bounds.highs()[2:]])
    design, _, _ = _lhs_matrix(rng, n, lows, highs)
    t = design[:, 0]
    H = dims.H
    if seg.kind == "baffle":
        pts, nrm = baffle_points(_coeffs_batch(design[:, 1:4]), t, seg.start_x, seg.base_y,
                                 seg.sign, H, samples=129)
    else:
        pts, nrm = seg.at(t)
    X = np.column_stack([pts[:, 0] / H, pts[:, 1] / H, design[:, 1:]])
    targets = {}
    if seg.kind in ("inlet_top", "inlet_bottom"):
        width = dims.W / H
        xi = np.clip(X[:, 0] / width, 0.0, 1.0)
        speed = _inlet_profile(xi, width)
        sign = -1.0 if seg.kind == "inlet_top" else 1.0
        targets = {
            "u": np.zeros(n),
            "v": sign * speed,
            "c": np.full(n, 1.0 if seg.kind == "inlet_top" else 0.0),
        }
    return X, nrm, targets


def slice_points(dims: ChannelDims, cps: np.ndarray, x_mm, n: int):
    """n uniformly spaced points spanning the local fluid height at each station.

    Station i sits at x_mm[i] (k,) in the channel shaped by control heights
    cps[i] (k, 3). Returns (y values in mm, trapezoid weights in mm), each
    (k, n); a row's weights sum to its local fluid height.
    """
    if n < 2:
        raise DomainError("a quadrature slice needs at least 2 points")
    x_mm = np.asarray(x_mm, dtype=float)
    lower, upper = (wall[:, 0] for wall in wall_heights(dims, _coeffs_batch(cps), x_mm[:, None]))
    outside = ~((x_mm >= 0.0) & (x_mm <= dims.L))
    bad = np.flatnonzero(outside | (upper <= lower))
    if bad.size:
        i = bad[0]
        if outside[i]:
            raise DomainError(f"station x={x_mm[i]} outside the channel [0, {dims.L}]")
        raise GeometryError(f"fluid height at x={x_mm[i]} is not positive")
    y = np.linspace(lower, upper, n, axis=-1)
    h = (upper - lower) / (n - 1)
    w = np.repeat(h[:, None], n, axis=1)
    w[:, [0, -1]] = 0.5 * h[:, None]
    return y, w


def default_slice_stations(dims: ChannelDims) -> list:
    """Four stations across the baffled reach plus the outlet (dimensionless)."""
    (_, first, _, _), (_, last, _, _) = baffle_placements(dims)
    return [*np.linspace(first / dims.H, (last + 0.5 * dims.H) / dims.H, 4), dims.L / dims.H]


def generate_collocation(dims: ChannelDims, bounds: SampleBounds, counts: CollocationCounts,
                         seed=None, slice_stations=None) -> CollocationSet:
    """Full training point set: interior LHS, per-segment boundary LHS, penalty slices."""
    H = dims.H
    if bounds.x[0] < 0.0 or bounds.x[1] > dims.L / H + 1e-12:
        raise DomainError(f"x bounds must lie within [0, {dims.L / H}]")
    if bounds.y[0] < 0.0 or bounds.y[1] > 1.0:
        raise DomainError("y bounds must lie within [0, 1]")
    rng = np.random.default_rng(seed)

    interior = _repair_interior(rng, counts.interior, bounds, dims)

    canonical = build_layout(ControlPolygon(0.0, 0.0, 0.0), dims)
    parts: dict = {}
    for seg in canonical.segments():
        parts.setdefault(seg.kind, []).append(
            _boundary_group_rows(rng, seg, counts.per_boundary, bounds, dims))
    groups = {}
    for kind, rows in parts.items():
        Xs, normals, targets = zip(*rows)
        groups[kind] = BoundaryGroup(
            kind=kind,
            X=np.concatenate(Xs),
            normals=np.concatenate(normals),
            targets={k: np.concatenate([tg[k] for tg in targets]) for k in targets[0]},
        )

    stations = default_slice_stations(dims) if slice_stations is None else list(slice_stations)
    slices = []
    if stations:
        lows5, highs5 = bounds.lows()[2:], bounds.highs()[2:]
        designs, _, _ = _lhs_matrix(rng, len(stations), lows5, highs5)
        m = counts.per_slice
        y_mm, w_mm = slice_points(dims, designs[:, :3], np.asarray(stations) * H, m)
        for station, design, y, w in zip(stations, designs, y_mm, w_mm):
            X = np.column_stack([
                np.full(m, station),
                y / H,
                np.tile(design, (m, 1)),
            ])
            slices.append(PenaltySlice(station=float(station), X=X, weights=w / H, target=1.0))

    return CollocationSet(interior=interior, boundary=groups, slices=tuple(slices))
