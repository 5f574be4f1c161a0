"""Collocation rows over space, design and physics: uniform interior, LHS boundaries and slices.

Rows are ordered (x, y, cp1, cp2, cp3, re, sc), as ``DIM_NAMES`` names
them; x and y are dimensionless channel coordinates (lengths over H).
Interior points live in the fluid; each boundary group's rows sit on the
segments of its kind, with their outward normals; each penalty slice spans
the fluid across one station, with its quadrature weights. This module only
says where the points are: what holds at them is ``physics``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SamplingError, check_int, check_ints, check_real
from .geometry import (
    BAFFLES,
    CHANNEL,
    CP_MAX,
    CP_MIN,
    SEGMENTS,
    ChannelDims,
    _coeffs_batch,
    build_spline,  # noqa: F401  (unused here; the benchmark tracer wraps sampling.build_spline)
    segment_points,
    wall_heights,
)

DIM_NAMES = ("x", "y", "cp1", "cp2", "cp3", "re", "sc")
# (low, high, above): both ends of a dimension's bounds lie in [low, high], or (low, high]
_LIMITS = dict(x=(0.0, CHANNEL.L / CHANNEL.H, False), y=(0.0, 1.0, False),
               cp1=(CP_MIN, CP_MAX, False), cp2=(CP_MIN, CP_MAX, False), cp3=(CP_MIN, CP_MAX, False),
               re=(0.0, np.inf, True), sc=(0.0, np.inf, True))


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
            lo, hi = (check_real(f"bounds for {name}", v, *_LIMITS[name]) for v in getattr(self, name))
            if lo > hi:
                raise DomainError(f"bounds for {name} must satisfy lo <= hi, got ({lo}, {hi})")

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
        check_ints(self, interior=1, per_boundary=1, per_slice=2)


@dataclass(frozen=True)
class BoundaryGroup:
    """All boundary rows of one condition kind, concatenated across segments."""

    kind: str
    X: np.ndarray
    normals: np.ndarray


@dataclass(frozen=True)
class PenaltySlice:
    """A cross-channel quadrature line: the rows and their trapezoid weights."""

    station: float
    X: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class CollocationSet:
    interior: np.ndarray
    boundary: dict
    slices: tuple


def _lhs_matrix(rng: np.random.Generator, n: int, lows, highs) -> np.ndarray:
    """One-sample-per-stratum Latin hypercube over the (lows, highs) box."""
    k = len(lows)
    strata = np.column_stack([rng.permutation(n) for _ in range(k)])
    u = rng.random((n, k))
    return lows + (strata + u) / n * (highs - lows)


def _inside_rect(pts: np.ndarray) -> np.ndarray:
    """Vectorized fluid-rectangle test for dimensionless (x, y, cp...) rows."""
    x = pts[:, 0] * CHANNEL.H
    y = pts[:, 1] * CHANNEL.H
    lower, upper = wall_heights(_coeffs_batch(pts[:, 2:5]), x[:, None])
    return (x >= 0.0) & (x <= CHANNEL.L) & (y >= lower[:, 0]) & (y <= upper[:, 0])


def _uniform_interior(rng, n, bounds):
    """n rows drawn uniformly over the bounds box that lie in the fluid, in draw order.

    Rejected rows are redrawn: each later round draws the shortfall scaled by
    the acceptance seen so far.
    """
    lows, span = bounds.lows(), bounds.highs() - bounds.lows()
    kept, drawn, accepted, m = [], 0, 0, n
    while accepted < n:
        pts = lows + rng.random((m, 7)) * span
        kept.append(pts[_inside_rect(pts)])
        drawn += m
        accepted += len(kept[-1])
        if drawn >= 100 and accepted <= 0.01 * drawn:
            raise SamplingError(
                f"{accepted}/{drawn} interior samples accepted; fluid region nearly closed")
        # with nothing accepted yet, scale as if one row had been
        m = int(np.ceil((n - accepted) * drawn / max(accepted, 1)))
    return np.concatenate(kept)[:n]


def _boundary_group_rows(rng, kind, piece, n, bounds):
    """Rows and outward normals for one boundary piece: 6-D LHS over (t, cp1..3, re, sc)."""
    lows = np.concatenate([[0.0], bounds.lows()[2:]])
    highs = np.concatenate([[1.0], bounds.highs()[2:]])
    design = _lhs_matrix(rng, n, lows, highs)
    coeffs = _coeffs_batch(design[:, 1:4]) if kind == "baffle" else None
    pts, nrm = segment_points(piece, design[:, 0], coeffs, samples=129)
    H = CHANNEL.H
    X = np.column_stack([pts[:, 0] / H, pts[:, 1] / H, design[:, 1:]])
    return X, nrm


def slice_points(cps: np.ndarray, x_mm, n: int):
    """n uniformly spaced points spanning the local fluid height at each station.

    Station i sits at x_mm[i] (k,) in the channel shaped by control heights
    cps[i] (k, 3). Returns (y values in mm, trapezoid weights in mm), each
    (k, n); a row's weights sum to its local fluid height. That height is at
    least 0.35 H: the two baffles span disjoint x ranges, and the spline,
    linear in the control heights, peaks at a corner of the control box at
    0.65.
    """
    check_int("points per slice", n, 2)
    x_mm = np.asarray(x_mm, dtype=float)
    outside = np.flatnonzero(~((x_mm >= 0.0) & (x_mm <= CHANNEL.L)))
    if outside.size:
        raise DomainError(f"station x={x_mm[outside[0]]} outside the channel [0, {CHANNEL.L}]")
    lower, upper = (wall[:, 0] for wall in wall_heights(_coeffs_batch(cps), x_mm[:, None]))
    y = np.linspace(lower, upper, n, axis=-1)
    h = (upper - lower) / (n - 1)
    w = np.repeat(h[:, None], n, axis=1)
    w[:, [0, -1]] = 0.5 * h[:, None]
    return y, w


def default_slice_stations() -> list:
    """Four stations across the baffled reach plus the outlet (dimensionless)."""
    (_, first, _, _), (_, last, _, _) = BAFFLES
    H = CHANNEL.H
    return [*np.linspace(first / H, (last + 0.5 * H) / H, 4), CHANNEL.L / H]


def generate_collocation(dims: ChannelDims, bounds: SampleBounds, counts: CollocationCounts,
                         seed=None, slice_stations=None) -> CollocationSet:
    """Full training point set: uniform interior, per-segment boundary LHS, penalty slices.

    ``dims`` is not read: the channel is always ``CHANNEL``. The argument
    stays for callers that pass ``ChannelDims()`` positionally.
    """
    H = CHANNEL.H
    rng = np.random.default_rng(seed)

    interior = _uniform_interior(rng, counts.interior, bounds)

    parts: dict = {}
    for kind, _, piece in SEGMENTS:
        parts.setdefault(kind, []).append(
            _boundary_group_rows(rng, kind, piece, counts.per_boundary, bounds))
    groups = {}
    for kind, rows in parts.items():
        Xs, normals = zip(*rows)
        groups[kind] = BoundaryGroup(kind=kind, X=np.concatenate(Xs), normals=np.concatenate(normals))

    stations = default_slice_stations() if slice_stations is None else list(slice_stations)
    slices = []
    if stations:
        lows5, highs5 = bounds.lows()[2:], bounds.highs()[2:]
        designs = _lhs_matrix(rng, len(stations), lows5, highs5)
        m = counts.per_slice
        y_mm, w_mm = slice_points(designs[:, :3], np.asarray(stations) * H, m)
        for station, design, y, w in zip(stations, designs, y_mm, w_mm):
            X = np.column_stack([
                np.full(m, station),
                y / H,
                np.tile(design, (m, 1)),
            ])
            slices.append(PenaltySlice(station=float(station), X=X, weights=w / H))

    return CollocationSet(interior=interior, boundary=groups, slices=tuple(slices))
