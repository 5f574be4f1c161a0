"""The training loss assembled on the autodiff tape: the oracle for
``physics.loss_node``'s closed-form gradient and for the reports of
``loss_node`` and ``total_loss``, which must match it bit for bit.

``assemble`` runs physics' own residuals and penalty on the tape nodes
``net_apply`` returns: one node pair for the whole interior and one node
for the stacked boundary and slice rows. The reverse sweep of
``tape.gradient`` then fixes the order in which every cotangent is summed.
"""

import operator
from functools import reduce

import numpy as np

from mixopt import physics
from mixopt.diffnet import net_apply
from mixopt.diffnet.tape import gradient, leaf
from mixopt.errors import DomainError
from mixopt.physics import (
    FIELD_INDEX,
    RE_COLUMN,
    RESIDUAL_NAMES,
    SC_COLUMN,
    LossReport,
    LossWeights,
    boundary_residuals,
    massflow_penalty,
    pde_residuals,
)


def assemble(colloc, param_leaf, template, weights):
    """The weighted loss and its families as tape nodes: (total, {family: node})."""
    wdict = weights.as_dict()
    families = {}

    interior = colloc.interior
    if interior is not None and len(interior):
        out, jac = net_apply(param_leaf, template, interior, need_jac=True)
        residuals = pde_residuals(out, jac, interior[:, RE_COLUMN], interior[:, SC_COLUMN])
        acc = reduce(operator.add, [(residuals[name] ** 2).sum() for name in RESIDUAL_NAMES])
        families["pde"] = acc * (1.0 / (len(RESIDUAL_NAMES) * len(interior)))

    # one value-only pass: the boundary kinds (sorted), then the slices
    groups = [(kind, colloc.boundary[kind]) for kind in sorted(colloc.boundary)
              if len(colloc.boundary[kind].X)]
    value_rows = [group.X for _, group in groups] + [sl.X for sl in colloc.slices]
    if value_rows:
        out, _ = net_apply(param_leaf, template, np.concatenate(value_rows), need_jac=False)
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
            # read at call time: a test may patch the target
            terms.append(massflow_penalty(out[rows, FIELD_INDEX["u"]], sl.weights,
                                          physics.FLUX_TARGET))
        families["massflow"] = reduce(operator.add, terms) * (1.0 / len(colloc.slices))

    terms = [value * wdict[name] for name, value in families.items() if wdict[name] != 0.0]
    if not terms:
        raise DomainError("no loss terms: empty collocation set or all weights zero")
    return reduce(operator.add, terms), families


def tape_loss(colloc, param_leaf, template, weights=None):
    """The loss as a tape node over ``net_apply`` nodes, and its LossReport."""
    total, families = assemble(colloc, param_leaf, template, weights or LossWeights())
    report = LossReport(total=float(total.value),
                        families={k: float(v.value) for k, v in families.items()})
    return total, report


def tape_report(colloc, params, weights=None) -> LossReport:
    return tape_loss(colloc, leaf(params.flat), params, weights)[1]


def tape_gradient(colloc, params, weights=None):
    """The oracle's (gradient, LossReport) at ``params``."""
    param_leaf = leaf(params.flat)
    node, report = tape_loss(colloc, param_leaf, params, weights)
    return gradient(node, param_leaf), report
