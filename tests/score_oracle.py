"""A design's score on dense lines, apart from the package's quadrature.

Each line (the outlet, and each inlet mouth) is sampled at ``DENSE``
equispaced points and integrated with the trapezoid rule, whose error falls
as the square of the spacing. The rows are assembled here, and the lines are
reduced with ``np.trapezoid``, so nothing is shared with ``metrics``' row
grids, weights or reductions but the network pass itself. It is the oracle
for the accuracy of ``metrics.compute_mixing_report``'s 16-row inlet and
101-row outlet rules.
"""

import math

import numpy as np

from mixopt.diffnet import forward
from mixopt.geometry import CHANNEL
from mixopt.physics import FIELD_INDEX

DENSE = 4001


def _line(params, x, y, design, sc) -> np.ndarray:
    """The network's outputs along one line of (x, y) points."""
    n = len(x)
    X = np.column_stack([
        x, y, np.tile([design[0], design[1], design[2]], (n, 1)),
        np.full(n, design[3]), np.full(n, sc),
    ])
    return forward(params, X)


def _trapezoid_mean(f, s) -> float:
    return float(np.trapezoid(f, s) / (s[-1] - s[0]))


def dense_scores(params, design, sc, n=DENSE) -> tuple:
    """(mi, cp) of a (cp1, cp2, cp3, re) sequence on n points per line: the
    mixing index of the clamped outlet concentration, and the mean inlet
    pressure with each mouth weighing one half."""
    y = np.linspace(0.0, 1.0, n)
    c = np.clip(_line(params, np.full(n, CHANNEL.L / CHANNEL.H), y, design, sc)[:, FIELD_INDEX["c"]],
                0.0, 1.0)
    mi = 1.0 - math.sqrt(_trapezoid_mean(((c - 0.5) / 0.5) ** 2, y))
    x = np.linspace(0.0, CHANNEL.W / CHANNEL.H, n)
    cp = 0.5 * sum(_trapezoid_mean(_line(params, x, np.full(n, mouth), design, sc)[:, FIELD_INDEX["p"]], x)
                   for mouth in (1.0, 0.0))
    return mi, cp


def dense_efficiency(params, design, sc, n=DENSE):
    """ME of a design against the flat wall at its (Re, Sc), both on dense
    lines; None where a pressure cost or the baseline mixing index is not
    positive, as the package's guards would reject it."""
    mi, cp = dense_scores(params, design, sc, n)
    mi0, cp0 = dense_scores(params, (0.0, 0.0, 0.0, design[3]), sc, n)
    if not (cp > 0.0 and cp0 > 0.0 and mi0 > 0.0):
        return None
    return (mi / mi0) / ((cp / cp0) ** (1.0 / 3.0))
