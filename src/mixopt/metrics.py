"""Mixing quality, pumping cost, and the efficiency ratio used as reward.

The mixing index is 1 for a perfectly mixed outlet (c* = 0.5 everywhere) and
0 for fully segregated streams; the efficiency divides the mixing gain by
the cube root of the pressure-cost gain, both relative to the flat-wall
baseline at the same (Re, Sc).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .diffnet import ParameterSet, forward
from .errors import DomainError, check_real
from .geometry import CHANNEL, CP_MAX, CP_MIN
from .physics import FIELD_INDEX
from .sampling import DIM_NAMES

RE_MIN, RE_MAX = 5.0, 40.0
# corners of the (cp1, cp2, cp3, re) design box
DESIGN_LO = np.array([CP_MIN, CP_MIN, CP_MIN, RE_MIN])
DESIGN_HI = np.array([CP_MAX, CP_MAX, CP_MAX, RE_MAX])
# every score samples the outlet line at OUTLET_SAMPLES equispaced points,
# which resolve a steep mixing layer, and each inlet mouth at the 8
# Gauss-Legendre nodes, where the pressure is smooth; each pass fits one
# diffnet.ROW_BLOCK. The flat-wall baseline grid is BASELINE_GRID x BASELINE_GRID
OUTLET_SAMPLES = 101
BASELINE_GRID = 8
# the positive half of the 8-point Gauss-Legendre rule on [-1, 1]: nodes and
# weights (Abramowitz & Stegun, Table 25.4), symmetric about 0
_GAUSS_NODES = (0.1834346424956498049394761, 0.5255324099163289858177390,
                0.7966664774136267395915539, 0.9602898564975362316835609)
_GAUSS_WEIGHTS = (0.3626837833783619829651504, 0.3137066458778872873379622,
                  0.2223810344533744705443560, 0.1012285362903762591525314)


class DesignCandidate(namedtuple("DesignCandidate", "cp1 cp2 cp3 re")):
    """One candidate design: three control heights plus the Reynolds number.

    An immutable (cp1, cp2, cp3, re) tuple, equal and hashed by value. Every
    way of making one checks each field against its box: the constructor,
    ``_make`` and ``_replace`` (which goes through ``_make``), and unpickling.
    A tuple costs a policy query less to build than a frozen dataclass.
    """

    __slots__ = ()

    def __new__(cls, cp1, cp2, cp3, re):
        # NaN fails every comparison, so the range tests also reject it
        if not (CP_MIN <= cp1 <= CP_MAX and CP_MIN <= cp2 <= CP_MAX and CP_MIN <= cp3 <= CP_MAX
                and RE_MIN <= re <= RE_MAX):
            for name, v in (("cp1", cp1), ("cp2", cp2), ("cp3", cp3)):
                if not (CP_MIN <= v <= CP_MAX):
                    raise DomainError(f"{name}={v!r} outside [{CP_MIN}, {CP_MAX}]")
            raise DomainError(f"re={re!r} outside [{RE_MIN}, {RE_MAX}]")
        return tuple.__new__(cls, (cp1, cp2, cp3, re))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def check_schmidt(sc) -> None:
    """Raise DomainError unless the Schmidt number is finite and positive."""
    check_real("Schmidt number", sc, 0.0, above=True)


def _weighted_mean(x, w, name: str) -> float:
    """sum(w x) / sum(w) over finite samples and one weight each.

    ``np.add.reduce`` is numpy's own pairwise sum, so a score's bits do not
    depend on the BLAS kernel, and unit weights give ``np.mean``'s bits.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.size == 0:
        raise DomainError(f"{name} needs at least one sample")
    if x.shape != w.shape:
        raise DomainError(f"{name} needs one weight per sample, got {w.shape} for {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} input must be finite")
    return float(np.add.reduce(w * x, axis=None) / np.add.reduce(w, axis=None))


def mixing_index(c, weights) -> float:
    """1 - rms deviation of c from the perfect-mix value 0.5, scaled by 0.5;
    the mean square weighs each sample by its entry of ``weights``."""
    d = np.asarray(c, dtype=np.float64) - 0.5
    d /= 0.5
    d *= d
    return 1.0 - math.sqrt(_weighted_mean(d, weights, "mixing_index"))


def pressure_cost(p, weights) -> float:
    """Mean inlet pressure, each sample weighed by its entry of ``weights``;
    the outlet boundary pins p* = 0 as the reference."""
    return _weighted_mean(p, weights, "pressure_cost")


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
    return clipped


def _sample_grids() -> tuple:
    """Read-only network inputs and weights for the outlet line and the two
    inlet mouths (upper mouth first). The spatial columns are filled in; the
    five design columns are zero.

    The outlet's OUTLET_SAMPLES equispaced rows take the trapezoid rule's
    weights, half on each end row. Each mouth takes the Gauss-Legendre nodes
    mapped onto [0, W/H]; their weights, which sum to 2 on [-1, 1], are
    scaled by 1/4, so each mouth weighs one half. Each set of weights sums
    to 1.
    """
    n = OUTLET_SAMPLES
    outlet = np.zeros((n, 7))
    outlet[:, 0] = CHANNEL.L / CHANNEL.H
    outlet[:, 1] = np.linspace(0.0, 1.0, n)
    outlet_w = np.full(n, 1.0 / (n - 1))
    outlet_w[[0, -1]] *= 0.5
    t = np.array([-v for v in reversed(_GAUSS_NODES)] + list(_GAUSS_NODES))
    w = np.array(list(reversed(_GAUSS_WEIGHTS)) + list(_GAUSS_WEIGHTS))
    m = len(t)
    inlet = np.zeros((2 * m, 7))
    inlet[:, 0] = np.tile(0.5 * (CHANNEL.W / CHANNEL.H) * (1.0 + t), 2)
    inlet[:m, 1] = 1.0
    inlet_w = np.tile(0.25 * w, 2)
    for arr in (outlet, outlet_w, inlet, inlet_w):
        arr.flags.writeable = False
    return outlet, outlet_w, inlet, inlet_w


OUTLET_ROWS, OUTLET_WEIGHTS, INLET_ROWS, INLET_WEIGHTS = _sample_grids()


def _design_rows(grid: np.ndarray, design, sc: float) -> np.ndarray:
    """``grid`` with its five design columns set to a (cp1, cp2, cp3, re)
    sequence and sc."""
    X = grid.copy()
    X[:, 2:] = (*design, sc)
    return X


def outlet_concentration(params: ParameterSet, design: DesignCandidate, sc: float) -> np.ndarray:
    """c* at the outlet's equispaced rows, clamped to [0, 1]."""
    X = _design_rows(OUTLET_ROWS, design, sc)
    return _clamp_concentration(forward(params, X)[:, FIELD_INDEX["c"]])


def inlet_pressure(params: ParameterSet, design: DesignCandidate, sc: float) -> np.ndarray:
    """p* at the Gauss-Legendre nodes of both inlet mouths, upper mouth first."""
    X = _design_rows(INLET_ROWS, design, sc)
    return forward(params, X)[:, FIELD_INDEX["p"]]


@dataclass
class MixingReport:
    """Metrics for one design next to its flat-wall baseline.

    cp is the mean dimensionless inlet pressure over both mouths; it stands
    in for the pressure drop because the outlet pins p* = 0.
    """

    mi: float
    cp: float
    mi0: float
    cp0: float
    me: float
    sc: float
    design: DesignCandidate


@dataclass(frozen=True)
class BaselineTable:
    """MI and Cp of the flat-wall design on a (Re, Sc) grid, with bilinear lookup.

    The arrays are read-only copies of the ones passed in. ``lookup`` reads
    Python-float copies of them, made here once, and gives the bits the
    float64 arithmetic on the arrays would.
    """

    re_values: np.ndarray
    sc_values: np.ndarray
    mi0: np.ndarray
    cp0: np.ndarray
    _floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("re_values", "sc_values", "mi0", "cp0"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_floats", (self.re_values.tolist(), self.sc_values.tolist(),
                                             self.mi0.tolist(), self.cp0.tolist()))

    def lookup(self, re: float, sc: float):
        """Bilinear interpolation; off-grid queries clamp to the hull."""
        res, scs, mi0, cp0 = self._floats
        re = min(max(float(re), res[0]), res[-1])
        sc = min(max(float(sc), scs[0]), scs[-1])
        i = min(max(bisect_left(res, re) - 1, 0), len(res) - 2)
        j = min(max(bisect_left(scs, sc) - 1, 0), len(scs) - 2)
        r0, r1 = res[i], res[i + 1]
        s0, s1 = scs[j], scs[j + 1]
        tr = 0.0 if r1 == r0 else (re - r0) / (r1 - r0)
        ts = 0.0 if s1 == s0 else (sc - s0) / (s1 - s0)
        w00, w10 = (1 - tr) * (1 - ts), tr * (1 - ts)
        w01, w11 = (1 - tr) * ts, tr * ts
        return (w00 * mi0[i][j] + w10 * mi0[i + 1][j] + w01 * mi0[i][j + 1] + w11 * mi0[i + 1][j + 1],
                w00 * cp0[i][j] + w10 * cp0[i + 1][j] + w01 * cp0[i][j + 1] + w11 * cp0[i + 1][j + 1])


def baseline_table(params: ParameterSet) -> BaselineTable:
    """Evaluate the flat-wall design on a BASELINE_GRID x BASELINE_GRID (Re, Sc)
    grid spanning the ranges the network was trained on: center +- halfspan
    of its input normalization for the Re and Sc inputs."""
    if params.spec.input_dim != 7:
        raise DomainError(f"a field network takes 7 inputs, this one takes {params.spec.input_dim}")
    norm = params.norm
    re_values, sc_values = (np.linspace(norm.center[k] - norm.halfspan[k],
                                        norm.center[k] + norm.halfspan[k], BASELINE_GRID)
                            for k in (DIM_NAMES.index("re"), DIM_NAMES.index("sc")))
    mi0 = np.zeros((BASELINE_GRID, BASELINE_GRID))
    cp0 = np.zeros_like(mi0)
    for i, re in enumerate(re_values):
        for j, sc in enumerate(sc_values):
            mi0[i, j], cp0[i, j] = _flat_wall(params, float(re), float(sc))
    return BaselineTable(re_values=re_values, sc_values=sc_values, mi0=mi0, cp0=cp0)


def _flat_wall(params: ParameterSet, re: float, sc: float):
    """(mi0, cp0) of the flat-wall design at any positive Re, evaluated directly.

    The baseline grid spans a checkpoint's own Re range, which may leave the
    design box, so the flat wall is a plain (cp1, cp2, cp3, re) tuple here,
    not a DesignCandidate.
    """
    flat = (0.0, 0.0, 0.0, re)
    mi0 = mixing_index(outlet_concentration(params, flat, sc), OUTLET_WEIGHTS)
    cp0 = pressure_cost(inlet_pressure(params, flat, sc), INLET_WEIGHTS)
    return mi0, cp0


def compute_mixing_report(params: ParameterSet, design: DesignCandidate, sc: float,
                          baseline: BaselineTable | None = None) -> MixingReport:
    """Metrics for one design; the baseline defaults to a direct flat-wall
    evaluation at the same (Re, Sc) and checkpoint.

    The inlet pass and the efficiency guards come first, so a design with a
    non-positive pressure cost is rejected without its outlet pass.
    """
    check_schmidt(sc)
    cp = pressure_cost(inlet_pressure(params, design, sc), INLET_WEIGHTS)
    if baseline is None:
        mi0, cp0 = _flat_wall(params, design.re, sc)
    else:
        mi0, cp0 = baseline.lookup(design.re, sc)
    _check_guards(cp, mi0, cp0)
    mi = mixing_index(outlet_concentration(params, design, sc), OUTLET_WEIGHTS)
    me = mixing_efficiency(mi, cp, mi0, cp0)
    return MixingReport(mi=mi, cp=cp, mi0=mi0, cp0=cp0, me=me, sc=sc, design=design)
