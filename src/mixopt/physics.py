"""The field network's outputs, the conditions on them, and the training loss.

The field network predicts nine outputs per point, named in column order by
``FIELD_INDEX``; stresses and species fluxes are outputs in their own right,
so every residual below needs only first derivatives of network outputs.
This module is the one place that knows what each column means and what
holds on each boundary: the interior residuals, the inlet profile and
concentrations, the wall, baffle and outlet conditions, and the unit flux
through every cross-section. ``sampling`` only says where the points are.

Each residual, the mass-flow penalty and the loss assembly are written once
against indexing, ``.sum()``, ``** 2`` and arithmetic, which numpy arrays
and tape nodes both provide. ``loss_node`` runs the assembly on the nodes
``net_apply`` returns, for the gradient; ``total_loss`` runs it on the
arrays of the value-only passes ``forward_jac`` and ``forward``, which keep
no reverse caches, and gets the same bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields as dc_fields
from functools import reduce

import numpy as np

from . import jsonout
from .diffnet import forward, forward_jac, net_apply
from .diffnet.tape import Node
from .errors import DomainError
from .geometry import CHANNEL
from .sampling import DIM_NAMES, CollocationSet

FIELD_INDEX = {"u": 0, "v": 1, "p": 2, "txx": 3, "tyy": 4, "txy": 5, "c": 6, "jx": 7, "jy": 8}
X_COLUMN, RE_COLUMN, SC_COLUMN = (DIM_NAMES.index(name) for name in ("x", "re", "sc"))

RESIDUAL_NAMES = (
    "continuity",
    "momentum_x",
    "momentum_y",
    "stress_xx",
    "stress_yy",
    "stress_xy",
    "transport",
    "flux_x",
    "flux_y",
)

# (sign of v into the channel, concentration) at each arm mouth
INLETS = {"inlet_top": (-1.0, 1.0), "inlet_bottom": (1.0, 0.0)}
# dimensionless flux through every cross-section: the two arms' 0.5 each
FLUX_TARGET = 1.0


def _as_positive(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be positive and finite")
    return arr


def pde_residuals(out, jac, re, sc) -> dict:
    """The nine interior residuals; zero identically for an exact solution.

    ``out`` (n, 9) holds the fields and ``jac`` (n, 9, 2) their x and y
    derivatives, as arrays or tape nodes. re and sc may be scalars or per-row
    arrays; they are data, never differentiated. A non-finite field gives
    non-finite residuals, so the training loss comes out NaN and the run
    aborts instead of raising.
    """
    re = _as_positive("re", re)
    sc = _as_positive("sc", sc)
    # one pick per column, bound here: a pick at each use would add tape
    # nodes, and with them another order of the cotangent sums
    k = FIELD_INDEX
    u, v, p = out[:, k["u"]], out[:, k["v"]], out[:, k["p"]]
    txx, tyy, txy = out[:, k["txx"]], out[:, k["tyy"]], out[:, k["txy"]]
    jx, jy = out[:, k["jx"]], out[:, k["jy"]]
    ux, uy = jac[:, k["u"], 0], jac[:, k["u"], 1]
    vx, vy = jac[:, k["v"], 0], jac[:, k["v"], 1]
    txx_x, tyy_y = jac[:, k["txx"], 0], jac[:, k["tyy"], 1]
    txy_x, txy_y = jac[:, k["txy"], 0], jac[:, k["txy"], 1]
    cx, cy = jac[:, k["c"], 0], jac[:, k["c"], 1]
    jx_x, jy_y = jac[:, k["jx"], 0], jac[:, k["jy"], 1]
    two_over_re = 2.0 / re
    one_over_re = 1.0 / re
    one_over_pe = 1.0 / (re * sc)
    return {
        "continuity": ux + vy,
        "momentum_x": u * ux + v * uy - txx_x - txy_y,
        "momentum_y": u * vx + v * vy - txy_x - tyy_y,
        "stress_xx": -p + two_over_re * ux - txx,
        "stress_yy": -p + two_over_re * vy - tyy,
        "stress_xy": one_over_re * (uy + vx) - txy,
        "transport": u * cx + v * cy + one_over_pe * (jx_x + jy_y),
        "flux_x": jx + cx,
        "flux_y": jy + cy,
    }


def inlet_speed(x) -> np.ndarray:
    """Parabolic inflow speed across an arm mouth at x (lengths over H).

    The mouth spans x in [0, W/H]; the mean speed over it is 0.5 / (W/H), so
    each arm carries half of the unit flux.
    """
    width = CHANNEL.W / CHANNEL.H
    xi = np.clip(x / width, 0.0, 1.0)
    mean = 0.5 / width
    return 6.0 * mean * xi * (1.0 - xi)


def boundary_residuals(out, kind: str, X, normals) -> list:
    """Residual list for one boundary family, from the fields ``out`` at rows ``X``.

    Inlets pin u to 0, v to the inflow profile at the rows' x (into the
    channel) and c to the arm's concentration, 1 at the top and 0 at the
    bottom; walls and baffles enforce no slip plus zero normal species flux;
    the outlet pins pressure and the streamwise flux component.
    """
    k = FIELD_INDEX
    if kind in INLETS:
        sign, c_in = INLETS[kind]
        v_in = sign * inlet_speed(X[:, X_COLUMN])
        return [out[:, k["u"]], out[:, k["v"]] - v_in, out[:, k["c"]] - c_in]
    if kind in ("wall", "baffle"):
        normals = np.asarray(normals, dtype=np.float64)
        return [out[:, k["u"]], out[:, k["v"]],
                out[:, k["jx"]] * normals[:, 0] + out[:, k["jy"]] * normals[:, 1]]
    if kind == "outlet":
        return [out[:, k["p"]], out[:, k["jx"]]]
    raise DomainError(f"unknown boundary kind {kind!r}")


def massflow_penalty(u_values, weights, target: float):
    """Squared defect of the quadrature flux against its target."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size < 2:
        raise DomainError("a flux slice needs at least 2 quadrature points")
    if u_values.size != weights.size:
        raise DomainError("velocity and weight lengths differ")
    # d * d, not d ** 2: numpy squares a float64 scalar with pow, which is one
    # ulp off for some inputs; on a node, mul's cotangent equals square's
    d = (u_values * weights).sum() - target
    return d * d


@dataclass(frozen=True)
class LossWeights:
    """Per-family weights in the total training loss."""

    pde: float = 1.0
    inlet_top: float = 10.0
    inlet_bottom: float = 10.0
    wall: float = 10.0
    baffle: float = 10.0
    outlet: float = 10.0
    massflow: float = 10.0

    def __post_init__(self):
        vals = self.as_dict()
        for name, v in vals.items():
            if not np.isfinite(v) or v < 0:
                raise DomainError(f"loss weight {name} must be finite and >= 0")
        if all(v == 0.0 for v in vals.values()):
            raise DomainError("at least one loss weight must be positive")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


@dataclass
class LossReport:
    """Per-family mean squares and the weighted total, as plain floats."""

    total: float
    families: dict
    step: int | None = None

    def to_json(self) -> str:
        payload = {"step": self.step, "total": self.total, **self.families}
        return jsonout.dumps(payload)


def _assemble(colloc: CollocationSet, evaluate, weights: LossWeights):
    """The weighted loss and its families, as (total, {family: value}).

    ``evaluate(X, need_jac) -> (out, jac)`` evaluates the network: tape nodes
    for ``loss_node``, arrays for ``total_loss``; the arithmetic is the same.
    Each family value is the plain mean of squared residuals over all its
    rows and components, so with a single nonzero unit weight the total
    equals that family's mean square.
    """
    wdict = weights.as_dict()
    families = {}

    interior = colloc.interior
    if interior is not None and len(interior):
        out, jac = evaluate(interior, True)
        residuals = pde_residuals(out, jac, interior[:, RE_COLUMN], interior[:, SC_COLUMN])
        acc = reduce(operator.add, [(residuals[name] ** 2).sum() for name in RESIDUAL_NAMES])
        families["pde"] = acc * (1.0 / (len(RESIDUAL_NAMES) * len(interior)))

    # one value-only pass: the boundary kinds (sorted), then the slices
    groups = [(kind, colloc.boundary[kind]) for kind in sorted(colloc.boundary)
              if len(colloc.boundary[kind].X)]
    value_rows = [group.X for _, group in groups] + [sl.X for sl in colloc.slices]
    if value_rows:
        out, _ = evaluate(np.concatenate(value_rows), False)
    start = 0
    for kind, group in groups:
        rows = slice(start, start + len(group.X))
        start = rows.stop
        residuals = boundary_residuals(out[rows], kind, group.X, group.normals)
        acc = reduce(operator.add, [(r ** 2).sum() for r in residuals])
        families[kind] = acc * (1.0 / (len(residuals) * len(group.X)))

    if colloc.slices:
        terms = []
        for sl in colloc.slices:
            rows = slice(start, start + len(sl.X))
            start = rows.stop
            terms.append(massflow_penalty(out[rows, FIELD_INDEX["u"]], sl.weights, FLUX_TARGET))
        families["massflow"] = reduce(operator.add, terms) * (1.0 / len(colloc.slices))

    terms = [value * wdict[name] for name, value in families.items() if wdict[name] != 0.0]
    if not terms:
        raise DomainError("no loss terms: empty collocation set or all weights zero")
    return reduce(operator.add, terms), families


def loss_node(colloc: CollocationSet, param_leaf: Node, template, weights: LossWeights | None = None):
    """Assemble the weighted loss as a tape node; returns (node, LossReport)."""

    def evaluate(X, need_jac):
        return net_apply(param_leaf, template, X, need_jac=need_jac)

    total, families = _assemble(colloc, evaluate, weights or LossWeights())
    report = LossReport(
        total=float(total.value),
        families={k: float(v.value) for k, v in families.items()},
    )
    return total, report


def total_loss(colloc: CollocationSet, params, weights: LossWeights | None = None) -> LossReport:
    """The training loss from value-only passes: ``loss_node``'s report, bit
    for bit, without a graph or any reverse cache."""

    def evaluate(X, need_jac):
        return forward_jac(params, X) if need_jac else (forward(params, X), None)

    total, families = _assemble(colloc, evaluate, weights or LossWeights())
    return LossReport(total=float(total), families={k: float(v) for k, v in families.items()})
