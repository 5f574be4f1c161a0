"""The field network's outputs, the conditions on them, and the training loss.

The field network predicts nine outputs per point, named in column order by
``FIELD_INDEX``; stresses and species fluxes are outputs in their own right,
so every residual below needs only first derivatives of network outputs.
This module is the one place that knows what each column means and what
holds on each boundary: the interior residuals, the inlet profile and
concentrations, the wall, baffle and outlet conditions, and the unit flux
through every cross-section. ``sampling`` only says where the points are.

Each residual and the mass-flow penalty are written once against indexing,
``.sum()``, ``** 2`` and arithmetic, which numpy arrays and tape nodes both
provide (the tests run them on nodes as the gradient's oracle). The loss is
assembled once, in ``_loss``, on arrays: the interior streams through the
network one row block at a time (``map_blocks``), and with a gradient each
block's cotangents of (outputs, jacobian) are formed in closed form and
pulled back at once, so only one block's reverse cache is alive; the
boundary and slice rows share one stacked pass. ``loss_node`` hands the
summed gradient to the tape as a one-node graph; ``total_loss`` runs the
same assembly without it and gets the same bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields as dc_fields
from functools import reduce

import numpy as np

from .diffnet import forward, forward_vjp, map_blocks
from .diffnet import net_apply  # noqa: F401  (unused here; the benchmark tracer wraps physics.net_apply)
from .diffnet.tape import Node
from .errors import DomainError, check_real
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


def _flux_defect(u_values, weights, target: float):
    """Quadrature flux of u through one slice minus its target."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size < 2:
        raise DomainError("a flux slice needs at least 2 quadrature points")
    if u_values.size != weights.size:
        raise DomainError("velocity and weight lengths differ")
    return (u_values * weights).sum() - target


def massflow_penalty(u_values, weights, target: float):
    """Squared defect of the quadrature flux against its target."""
    # d * d, not d ** 2: numpy squares a float64 scalar with pow, which is one
    # ulp off for some inputs; on a node, mul's cotangent equals square's
    d = _flux_defect(u_values, weights, target)
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
            check_real(f"loss weight {name}", v, 0.0)
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


def _pde_cotangents(out, jac, residuals, g, re, sc):
    """Cotangents of one interior block's ``(out, jac)`` for a loss whose
    every squared residual sum has cotangent ``g``.

    Each residual r carries ``g * (2 r)``, and these are pulled back through
    ``pde_residuals``' arithmetic by hand. Where a column feeds several
    residuals, its shares are added in ``RESIDUAL_NAMES`` order and each
    product keeps its operand order: the order the tape's reverse sweep
    used, so the gradient keeps the tape's bits. Columns no residual reads
    get zero.
    """
    k = FIELD_INDEX
    cont, mx, my, sxx, syy, sxy, tr, fx, fy = (g * (2.0 * residuals[name]) for name in RESIDUAL_NAMES)
    u, v = out[:, k["u"]], out[:, k["v"]]
    ux, uy = jac[:, k["u"], 0], jac[:, k["u"], 1]
    vx, vy = jac[:, k["v"], 0], jac[:, k["v"], 1]
    cx, cy = jac[:, k["c"], 0], jac[:, k["c"], 1]
    two_over_re = 2.0 / re
    one_over_re = 1.0 / re
    one_over_pe = 1.0 / (re * sc)
    gy = np.zeros_like(out)
    gy[:, k["u"]] = mx * ux + my * vx + tr * cx
    gy[:, k["v"]] = mx * uy + my * vy + tr * cy
    gy[:, k["p"]] = -sxx - syy
    gy[:, k["txx"]] = -sxx
    gy[:, k["tyy"]] = -syy
    gy[:, k["txy"]] = -sxy
    gy[:, k["jx"]] = fx
    gy[:, k["jy"]] = fy
    gjac = np.zeros_like(jac)
    shear = sxy * one_over_re
    gjac[:, k["u"], 0] = cont + mx * u + sxx * two_over_re
    gjac[:, k["u"], 1] = mx * v + shear
    gjac[:, k["v"], 0] = my * u + shear
    gjac[:, k["v"], 1] = cont + my * v + syy * two_over_re
    gjac[:, k["txx"], 0] = -mx
    gjac[:, k["txy"], 1] = -mx
    gjac[:, k["txy"], 0] = -my
    gjac[:, k["tyy"], 1] = -my
    gjac[:, k["c"], 0] = tr * u + fx
    gjac[:, k["c"], 1] = tr * v + fy
    gjac[:, k["jx"], 0] = gjac[:, k["jy"], 1] = tr * one_over_pe
    return gy, gjac


def _boundary_cotangents(gy, kind: str, residuals, normals, g) -> None:
    """Write into ``gy`` (one group's rows) the cotangents of its fields for
    a loss whose every squared residual sum has cotangent ``g``; the
    columns are ``boundary_residuals``' own, one residual each."""
    k = FIELD_INDEX
    shares = [g * (2.0 * r) for r in residuals]
    if kind in INLETS:
        gy[:, k["u"]], gy[:, k["v"]], gy[:, k["c"]] = shares
    elif kind == "outlet":
        gy[:, k["p"]], gy[:, k["jx"]] = shares
    else:
        gy[:, k["u"]], gy[:, k["v"]], flux = shares
        normals = np.asarray(normals, dtype=np.float64)
        gy[:, k["jx"]] = flux * normals[:, 0]
        gy[:, k["jy"]] = flux * normals[:, 1]


def _pde_family(params, X, weight: float, grad: bool):
    """The pde family's value and, with ``grad``, its weighted gradient.

    Each row block runs the tangent pass, writes its squared residuals into
    one (9, n) buffer and, with ``grad``, pulls its cotangents back at once,
    so only one block's reverse cache is alive at a time. Each buffer row is
    summed whole at the end, as the unblocked sums were; the block
    gradients are added in block order, as ``forward_vjp`` adds them.
    """
    re, sc = X[:, RE_COLUMN], X[:, SC_COLUMN]
    squares = np.empty((len(RESIDUAL_NAMES), len(X)))
    scale = 1.0 / squares.size
    g = weight * scale

    def block(rows, out, jac, pullback):
        residuals = pde_residuals(out, jac, re[rows], sc[rows])
        for row, name in zip(squares, RESIDUAL_NAMES):
            np.multiply(residuals[name], residuals[name], out=row[rows])
        if grad:
            return pullback(*_pde_cotangents(out, jac, residuals, g, re[rows], sc[rows]))

    grads = map_blocks(params, X, True, block)
    value = reduce(operator.add, [row.sum() for row in squares]) * scale
    return value, reduce(operator.iadd, grads) if grad else None


def _loss(colloc: CollocationSet, params, weights: LossWeights, grad: bool):
    """The weighted loss, its families and, with ``grad``, its gradient
    with respect to ``params.flat`` (else None), as (total, families, gradient).

    Each family value is the plain mean of squared residuals over all its
    rows and components, so with a single nonzero unit weight the total
    equals that family's mean square. A family of weight 0 is reported but
    adds no gradient. The interior runs block by block (``_pde_family``);
    the boundary kinds (sorted) and the slices share one stacked value pass,
    since each slice's flux needs all of its rows.
    """
    wdict = weights.as_dict()
    families = {}
    parts = []

    interior = colloc.interior
    if interior is not None and len(interior):
        families["pde"], g = _pde_family(params, interior, wdict["pde"],
                                         grad and wdict["pde"] != 0.0)
        if g is not None:
            parts.append(g)

    groups = [(kind, colloc.boundary[kind]) for kind in sorted(colloc.boundary)
              if len(colloc.boundary[kind].X)]
    value_rows = [group.X for _, group in groups] + [sl.X for sl in colloc.slices]
    value_families = [kind for kind, _ in groups] + (["massflow"] if colloc.slices else [])
    value_grad = grad and any(wdict[name] != 0.0 for name in value_families)
    if value_grad:
        out, _, vjp = forward_vjp(params, np.concatenate(value_rows))
        gy = np.zeros_like(out)
    elif value_rows:
        out = forward(params, np.concatenate(value_rows))
    start = 0
    for kind, group in groups:
        rows = slice(start, start + len(group.X))
        start = rows.stop
        residuals = boundary_residuals(out[rows], kind, group.X, group.normals)
        scale = 1.0 / (len(residuals) * len(group.X))
        families[kind] = reduce(operator.add, [(r ** 2).sum() for r in residuals]) * scale
        if value_grad and wdict[kind] != 0.0:
            _boundary_cotangents(gy[rows], kind, residuals, group.normals, wdict[kind] * scale)

    if colloc.slices:
        scale = 1.0 / len(colloc.slices)
        g = wdict["massflow"] * scale
        terms = []
        for sl in colloc.slices:
            rows = slice(start, start + len(sl.X))
            start = rows.stop
            d = _flux_defect(out[rows, FIELD_INDEX["u"]], sl.weights, FLUX_TARGET)
            terms.append(d * d)  # massflow_penalty, keeping d for the cotangent
            if value_grad and g != 0.0:
                # d * d sends g * d to each factor
                gd = g * d
                gy[rows, FIELD_INDEX["u"]] = (gd + gd) * sl.weights
        families["massflow"] = reduce(operator.add, terms) * scale

    terms = [value * wdict[name] for name, value in families.items() if wdict[name] != 0.0]
    if not terms:
        raise DomainError("no loss terms: empty collocation set or all weights zero")
    if value_grad:
        parts.append(vjp(gy))
    return reduce(operator.add, terms), families, reduce(operator.add, parts) if grad else None


def loss_node(colloc: CollocationSet, param_leaf: Node, template, weights: LossWeights | None = None):
    """The weighted loss at ``param_leaf``'s value as a tape node, and its
    LossReport; returns (node, report).

    The gradient is formed here, in closed form, and the node's one pullback
    returns it, so ``param_gradient(node, param_leaf)`` is a one-node sweep.
    ``template`` gives the architecture and the input normalization.
    """
    params = template.with_flat(param_leaf.value)
    total, families, gradient = _loss(colloc, params, weights or LossWeights(), grad=True)
    report = LossReport(total=float(total), families={k: float(v) for k, v in families.items()})
    return Node(total, (param_leaf,), (lambda g: g * gradient,)), report


def total_loss(colloc: CollocationSet, params, weights: LossWeights | None = None) -> LossReport:
    """The training loss without a gradient: ``loss_node``'s report, bit for
    bit, keeping no reverse cache past its row block."""
    total, families, _ = _loss(colloc, params, weights or LossWeights(), grad=False)
    return LossReport(total=float(total), families={k: float(v) for k, v in families.items()})
