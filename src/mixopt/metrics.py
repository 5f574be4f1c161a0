"""Mixing quality, pumping cost, and the efficiency ratio used as reward.

The mixing index is 1 for a perfectly mixed outlet (c* = 0.5 everywhere) and
0 for fully segregated streams; the efficiency divides the mixing gain by
the cube root of the pressure-cost gain, both relative to the flat-wall
baseline at the same (Re, Sc).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jsonout
from .diffnet import ParameterSet, forward
from .errors import DomainError
from .geometry import CP_MAX, CP_MIN, ChannelDims, ControlPolygon
from .sampling import SampleBounds

log = logging.getLogger(__name__)

RE_MIN, RE_MAX = 5.0, 40.0
# corners of the (cp1, cp2, cp3, re) design box
DESIGN_LO = np.array([CP_MIN, CP_MIN, CP_MIN, RE_MIN])
DESIGN_HI = np.array([CP_MAX, CP_MAX, CP_MAX, RE_MAX])


@dataclass(frozen=True)
class DesignCandidate:
    """One candidate design: three control heights plus the Reynolds number."""

    cp1: float
    cp2: float
    cp3: float
    re: float

    def __post_init__(self):
        # NaN fails every comparison, so the range tests also reject it
        for name in ("cp1", "cp2", "cp3"):
            v = getattr(self, name)
            if not (CP_MIN <= v <= CP_MAX):
                raise DomainError(f"{name}={v!r} outside [{CP_MIN}, {CP_MAX}]")
        if not (RE_MIN <= self.re <= RE_MAX):
            raise DomainError(f"re={self.re!r} outside [{RE_MIN}, {RE_MAX}]")

    @property
    def polygon(self) -> ControlPolygon:
        return ControlPolygon(self.cp1, self.cp2, self.cp3)

    def as_array(self) -> np.ndarray:
        return np.array([self.cp1, self.cp2, self.cp3, self.re])


def check_schmidt(sc) -> None:
    """Raise DomainError unless the Schmidt number is finite and positive."""
    if not 0.0 < sc < math.inf:
        raise DomainError(f"Schmidt number {sc!r} must be finite and positive")


def _mean(x: np.ndarray) -> float:
    # np.mean's own sum and divide, without its dispatch
    return float(np.add.reduce(x, axis=None) / x.size)


def mixing_index(c) -> float:
    """1 - rms deviation of c from the perfect-mix value 0.5, scaled by 0.5."""
    c = np.asarray(c, dtype=np.float64)
    if c.size == 0:
        raise DomainError("mixing_index needs at least one sample")
    if not np.isfinite(c).all():
        raise DomainError("mixing_index input must be finite")
    d = c - 0.5
    d /= 0.5
    d *= d
    return 1.0 - math.sqrt(_mean(d))


def pressure_cost(p) -> float:
    """Mean inlet pressure; the outlet boundary pins p* = 0 as the reference."""
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise DomainError("pressure_cost needs at least one sample")
    if not np.isfinite(p).all():
        raise DomainError("pressure_cost input must be finite")
    return _mean(p)


def _check_guards(cp: float, mi0: float, cp0: float) -> None:
    """The efficiency ratio's guards: cp, cp0 and mi0 finite and positive."""
    if not (0.0 < cp < math.inf and 0.0 < cp0 < math.inf):
        raise DomainError(f"pressure costs must be finite and positive, got cp={cp!r}, cp0={cp0!r}")
    if not 0.0 < mi0 < math.inf:
        raise DomainError(f"baseline mixing index must be finite and positive, got {mi0!r}")


def mixing_efficiency(mi: float, cp: float, mi0: float, cp0: float) -> float:
    """Relative mixing gain per cube root of relative pumping cost."""
    _check_guards(cp, mi0, cp0)
    return (mi / mi0) / ((cp / cp0) ** (1.0 / 3.0))


def _clamp_concentration(c: np.ndarray) -> np.ndarray:
    clipped = np.maximum(c, 0.0)
    np.minimum(clipped, 1.0, out=clipped)
    if log.isEnabledFor(logging.DEBUG):
        n_out = int(np.count_nonzero(clipped != c))
        if n_out:
            log.debug("clamped %d of %d outlet concentration samples into [0, 1]", n_out, c.size)
    return clipped


@lru_cache(maxsize=16)
def _sample_grids(n: int, dims: ChannelDims | None) -> tuple:
    """Read-only network inputs for the outlet line (n rows) and the two
    inlet mouths (2n rows, upper mouth first). The spatial columns are
    filled in; the five design columns are zero."""
    if n < 1:
        raise DomainError("n must be >= 1")
    dims = dims or ChannelDims()
    outlet = np.zeros((n, 7))
    outlet[:, 0] = dims.L / dims.H
    outlet[:, 1] = np.linspace(0.0, 1.0, n)
    inlet = np.zeros((2 * n, 7))
    inlet[:, 0] = np.tile(np.linspace(0.0, dims.W / dims.H, n), 2)
    inlet[:n, 1] = 1.0
    for grid in (outlet, inlet):
        grid.flags.writeable = False
    return outlet, inlet


def _design_rows(grid: np.ndarray, design: DesignCandidate, sc: float) -> np.ndarray:
    X = grid.copy()
    X[:, 2:] = (design.cp1, design.cp2, design.cp3, design.re, sc)
    return X


def outlet_concentration(params: ParameterSet, design: DesignCandidate, sc: float,
                         n: int = 101, dims: ChannelDims | None = None) -> np.ndarray:
    """c* along the outlet, clamped to [0, 1]."""
    X = _design_rows(_sample_grids(n, dims)[0], design, sc)
    return _clamp_concentration(forward(params, X)[:, 6])


def inlet_pressure(params: ParameterSet, design: DesignCandidate, sc: float,
                   n: int = 101, dims: ChannelDims | None = None) -> np.ndarray:
    """p* sampled across both inlet mouths."""
    X = _design_rows(_sample_grids(n, dims)[1], design, sc)
    return forward(params, X)[:, 2]


@dataclass
class MixingReport:
    """Metrics for one design next to its flat-wall baseline.

    cp is the mean dimensionless inlet pressure; it stands in for the
    pressure drop because the outlet pins p* = 0.
    """

    mi: float
    cp: float
    mi0: float
    cp0: float
    me: float
    n: int
    sc: float
    design: DesignCandidate
    note: str = "cp proxies the inlet-outlet pressure drop (outlet p* = 0)"

    def to_json(self) -> str:
        d = self.design
        payload = {
            "mi": self.mi, "cp": self.cp, "mi0": self.mi0, "cp0": self.cp0,
            "me": self.me, "n": self.n, "sc": self.sc,
            "design": {"cp1": d.cp1, "cp2": d.cp2, "cp3": d.cp3, "re": d.re},
            "note": self.note,
        }
        return jsonout.dumps(payload)


@dataclass(frozen=True)
class BaselineTable:
    """MI and Cp of the flat-wall design on a (Re, Sc) grid, with bilinear lookup."""

    re_values: np.ndarray
    sc_values: np.ndarray
    mi0: np.ndarray
    cp0: np.ndarray

    def lookup(self, re: float, sc: float):
        """Bilinear interpolation; off-grid queries clamp to the hull."""
        re = min(max(float(re), float(self.re_values[0])), float(self.re_values[-1]))
        sc = min(max(float(sc), float(self.sc_values[0])), float(self.sc_values[-1]))
        i = min(max(int(np.searchsorted(self.re_values, re)) - 1, 0), len(self.re_values) - 2)
        j = min(max(int(np.searchsorted(self.sc_values, sc)) - 1, 0), len(self.sc_values) - 2)
        r0, r1 = self.re_values[i], self.re_values[i + 1]
        s0, s1 = self.sc_values[j], self.sc_values[j + 1]
        tr = 0.0 if r1 == r0 else (re - r0) / (r1 - r0)
        ts = 0.0 if s1 == s0 else (sc - s0) / (s1 - s0)

        def blend(grid):
            return ((1 - tr) * (1 - ts) * grid[i, j] + tr * (1 - ts) * grid[i + 1, j]
                    + (1 - tr) * ts * grid[i, j + 1] + tr * ts * grid[i + 1, j + 1])

        return float(blend(self.mi0)), float(blend(self.cp0))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "sc", "mi0", "cp0"])
            for i, re in enumerate(self.re_values):
                for j, sc in enumerate(self.sc_values):
                    writer.writerow([repr(float(re)), repr(float(sc)),
                                     repr(float(self.mi0[i, j])), repr(float(self.cp0[i, j]))])

    @classmethod
    def from_csv(cls, path) -> "BaselineTable":
        with open(path) as fh:
            rows = [(float(r["re"]), float(r["sc"]), float(r["mi0"]), float(r["cp0"]))
                    for r in csv.DictReader(fh)]
        if not rows:
            raise DomainError("baseline table file is empty")
        for row in rows:
            if not all(map(math.isfinite, row)):
                raise DomainError(f"baseline table row {row!r} holds a non-finite value")
        res = sorted({r[0] for r in rows})
        scs = sorted({r[1] for r in rows})
        mi0 = np.full((len(res), len(scs)), np.nan)
        cp0 = np.full((len(res), len(scs)), np.nan)
        for re, sc, mi, cp in rows:
            i = res.index(re)
            j = scs.index(sc)
            mi0[i, j] = mi
            cp0[i, j] = cp
        if np.any(np.isnan(mi0)) or np.any(np.isnan(cp0)):
            raise DomainError("baseline table is not a complete grid")
        return cls(re_values=np.array(res), sc_values=np.array(scs), mi0=mi0, cp0=cp0)


def baseline_table(params: ParameterSet, re_values=None, sc_values=None, n: int = 101,
                   dims: ChannelDims | None = None) -> BaselineTable:
    """Evaluate the flat-wall design on a (Re, Sc) grid."""
    bounds = SampleBounds()
    re_values = np.asarray(re_values if re_values is not None
                           else np.linspace(bounds.re[0], bounds.re[1], 8), dtype=np.float64)
    sc_values = np.asarray(sc_values if sc_values is not None
                           else np.linspace(bounds.sc[0], bounds.sc[1], 8), dtype=np.float64)
    if len(re_values) < 2 or len(sc_values) < 2:
        raise DomainError("baseline grid needs at least 2 points per axis")
    mi0 = np.zeros((len(re_values), len(sc_values)))
    cp0 = np.zeros_like(mi0)
    for i, re in enumerate(re_values):
        for j, sc in enumerate(sc_values):
            mi0[i, j], cp0[i, j] = _flat_wall(params, float(re), float(sc), n, dims)
    return BaselineTable(re_values=re_values, sc_values=sc_values, mi0=mi0, cp0=cp0)


def _flat_wall(params: ParameterSet, re: float, sc: float, n: int, dims: ChannelDims | None):
    """(mi0, cp0) of the flat-wall design, evaluated directly."""
    flat = DesignCandidate(0.0, 0.0, 0.0, re)
    mi0 = mixing_index(outlet_concentration(params, flat, sc, n=n, dims=dims))
    cp0 = pressure_cost(inlet_pressure(params, flat, sc, n=n, dims=dims))
    return mi0, cp0


def compute_mixing_report(params: ParameterSet, design: DesignCandidate, sc: float,
                          baseline: BaselineTable | None = None, n: int = 101,
                          dims: ChannelDims | None = None) -> MixingReport:
    """Metrics for one design; the baseline defaults to a direct flat-wall
    evaluation at the same (Re, Sc) and checkpoint.

    The inlet pass and the efficiency guards come first, so a design with a
    non-positive pressure cost is rejected without its outlet pass.
    """
    check_schmidt(sc)
    cp = pressure_cost(inlet_pressure(params, design, sc, n=n, dims=dims))
    if baseline is None:
        mi0, cp0 = _flat_wall(params, design.re, sc, n, dims)
    else:
        mi0, cp0 = baseline.lookup(design.re, sc)
    _check_guards(cp, mi0, cp0)
    mi = mixing_index(outlet_concentration(params, design, sc, n=n, dims=dims))
    me = mixing_efficiency(mi, cp, mi0, cp0)
    return MixingReport(mi=mi, cp=cp, mi0=mi0, cp0=cp0, me=me, n=n, sc=sc, design=design)
