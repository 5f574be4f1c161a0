"""Dimensionless first-order flow/transport residuals and the training loss.

The field network predicts nine outputs per point; stresses and species
fluxes are outputs in their own right, so every residual below needs only
first derivatives of network outputs. Each residual, the mass-flow penalty
and the loss assembly are written once against indexing, ``.sum()``,
``** 2`` and arithmetic, which numpy arrays and tape nodes both provide.
``loss_node`` runs the assembly on the nodes ``net_apply`` returns, for the
gradient; ``total_loss`` runs it on the arrays of the value-only passes
``forward_jac`` and ``forward``, which keep no reverse caches, and gets the
same bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields as dc_fields
from functools import reduce

import numpy as np

from . import jsonout
from .diffnet import forward, forward_jac, net_apply
from .diffnet.tape import Node
from .errors import DomainError, NumericalError
from .sampling import CollocationSet

FIELD_INDEX = {"u": 0, "v": 1, "p": 2, "txx": 3, "tyy": 4, "txy": 5, "c": 6, "jx": 7, "jy": 8}

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


@dataclass
class FieldSample:
    """Nine field values at a batch of points, plus their spatial derivatives.

    Derivative attributes stay None when the sample was built without a
    jacobian (boundary evaluation only needs values).
    """

    u: object
    v: object
    p: object
    txx: object
    tyy: object
    txy: object
    c: object
    jx: object
    jy: object
    ux: object = None
    uy: object = None
    vx: object = None
    vy: object = None
    px: object = None
    py: object = None
    txx_x: object = None
    txx_y: object = None
    tyy_x: object = None
    tyy_y: object = None
    txy_x: object = None
    txy_y: object = None
    cx: object = None
    cy: object = None
    jx_x: object = None
    jx_y: object = None
    jy_x: object = None
    jy_y: object = None

    @classmethod
    def from_net(cls, out, jac=None, rows=slice(None)) -> "FieldSample":
        """Fields of the given rows of a network output (jacobian: all rows)."""
        values = {name: out[rows, idx] for name, idx in FIELD_INDEX.items()}
        grads = {}
        if jac is not None:
            for name, idx in FIELD_INDEX.items():
                gx = jac[:, idx, 0]
                gy = jac[:, idx, 1]
                if len(name) == 1:
                    grads[f"{name}x"] = gx
                    grads[f"{name}y"] = gy
                else:
                    grads[f"{name}_x"] = gx
                    grads[f"{name}_y"] = gy
        return cls(**values, **grads)

    def _check_finite(self):
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if v is not None and not np.all(np.isfinite(v)):
                raise NumericalError(f"non-finite field value in {f.name}")


def _as_positive(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be positive and finite")
    return arr


def pde_residuals(s: FieldSample, re, sc) -> dict:
    """The nine interior residuals; zero identically for an exact solution.

    re and sc may be scalars or per-row arrays; they are data, never
    differentiated. A non-finite field value raises NumericalError.
    """
    s._check_finite()
    return _pde_residuals(s, re, sc)


def _pde_residuals(s: FieldSample, re, sc) -> dict:
    """pde_residuals without the finite check: the training loss lets a
    non-finite field through to a NaN total, which aborts the run."""
    re = _as_positive("re", re)
    sc = _as_positive("sc", sc)
    if s.ux is None:
        raise DomainError("pde_residuals needs a sample built with spatial derivatives")
    two_over_re = 2.0 / re
    one_over_re = 1.0 / re
    one_over_pe = 1.0 / (re * sc)
    return {
        "continuity": s.ux + s.vy,
        "momentum_x": s.u * s.ux + s.v * s.uy - s.txx_x - s.txy_y,
        "momentum_y": s.u * s.vx + s.v * s.vy - s.txy_x - s.tyy_y,
        "stress_xx": -s.p + two_over_re * s.ux - s.txx,
        "stress_yy": -s.p + two_over_re * s.vy - s.tyy,
        "stress_xy": one_over_re * (s.uy + s.vx) - s.txy,
        "transport": s.u * s.cx + s.v * s.cy + one_over_pe * (s.jx_x + s.jy_y),
        "flux_x": s.jx + s.cx,
        "flux_y": s.jy + s.cy,
    }


def boundary_residuals(s: FieldSample, kind: str, normals=None, targets=None) -> list:
    """Residual list for one boundary family.

    Inlets pin (u, v, c) to their profile targets; walls and baffles enforce
    no slip plus zero normal species flux; the outlet pins pressure and the
    streamwise flux component.
    """
    targets = targets or {}
    if kind in ("inlet_top", "inlet_bottom"):
        for key in ("u", "v", "c"):
            if key not in targets:
                raise DomainError(f"{kind} targets must include {key!r}")
        return [s.u - targets["u"], s.v - targets["v"], s.c - targets["c"]]
    if kind in ("wall", "baffle"):
        if normals is None:
            raise DomainError(f"{kind} residuals need outward normals")
        normals = np.asarray(normals, dtype=np.float64)
        return [s.u, s.v, s.jx * normals[:, 0] + s.jy * normals[:, 1]]
    if kind == "outlet":
        return [s.p, s.jx]
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
        sample = FieldSample.from_net(out, jac)
        residuals = _pde_residuals(sample, interior[:, 5], interior[:, 6])
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
        sample = FieldSample.from_net(out, rows=rows)
        residuals = boundary_residuals(sample, kind, group.normals, group.targets)
        acc = reduce(operator.add, [(r ** 2).sum() for r in residuals])
        families[kind] = acc * (1.0 / (len(residuals) * len(group.X)))

    if colloc.slices:
        terms = []
        for sl in colloc.slices:
            rows = slice(start, start + len(sl.X))
            start = rows.stop
            terms.append(massflow_penalty(out[rows, FIELD_INDEX["u"]], sl.weights, sl.target))
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
