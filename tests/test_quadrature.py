"""The accuracy of a design score's quadrature, against references outside it.

A score integrates two lines: the outlet concentration, on 101 equispaced
rows with trapezoid weights, and the inlet pressure, at 8 Gauss-Legendre
nodes per mouth. These tests bound each rule's error: on the pinned
surrogate against the dense trapezoid scorer of ``score_oracle``, on a
synthetic mixing layer against its closed-form integral, and on polynomials
the Gauss rule must integrate exactly.
"""

import math
import os

import numpy as np

from mixopt import metrics
from mixopt.diffnet import load_params
from mixopt.errors import DomainError
from mixopt.geometry import CHANNEL
from mixopt.metrics import DESIGN_HI, DESIGN_LO, DesignCandidate, compute_mixing_report, mixing_index

from score_oracle import dense_efficiency

SURROGATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "field_surrogate.ckpt")

# Relative ME error against the 4001-point dense scorer on the pinned
# surrogate. The rule measures 2.5e-6 median and 1.0e-5 max on the 258 pairs
# below; the pairs and the surrogate are fixed, so only rounding can move the
# max, and twice it leaves room for that. The equal-weight rule on 101 + 202
# rows erred by up to 2.8e-2 on the same pairs.
ME_REL_TOL = 2e-5
# Absolute mixing-index error of the 101-row outlet rule on an erf mixing
# layer of width 0.02. The trapezoid rule measures 2.3e-12 there, since the
# profile is flat at both walls; equal weights on the same rows err by 1.6e-4.
ERF_LAYER_TOL = 1e-10
MOUTH = CHANNEL.W / CHANNEL.H
GAUSS_NODES = 8


def test_pinned_surrogate_scores_within_the_stated_error_of_dense_lines():
    params, _ = load_params(SURROGATE)
    rng = np.random.default_rng(11)
    errors = []
    for _ in range(300):
        design = DesignCandidate(*rng.uniform(DESIGN_LO, DESIGN_HI).tolist())
        sc = float(np.exp(rng.uniform(0.0, math.log(100.0))))
        try:
            me = compute_mixing_report(params, design, sc).me
        except DomainError:
            continue
        ref = dense_efficiency(params, design, sc)
        assert ref is not None, f"the dense lines reject {design} at Sc {sc}, the rule does not"
        errors.append(abs(me - ref) / abs(ref))
    assert len(errors) >= 250  # 258 pairs pass the guards
    assert max(errors) <= ME_REL_TOL, f"max relative ME error {max(errors):.3g}"


def erf_layer_mixing_index(delta: float, y0: float) -> float:
    """The exact mixing index of c = (1 + erf((y - y0) / delta)) / 2 on [0, 1],
    from the antiderivative of erf(s)^2."""
    def F(s):
        e = math.erf(s)
        return s * e * e + 2.0 / math.sqrt(math.pi) * math.exp(-s * s) * e \
            - math.sqrt(2.0 / math.pi) * math.erf(math.sqrt(2.0) * s)

    return 1.0 - math.sqrt(delta * (F((1.0 - y0) / delta) - F(-y0 / delta)))


def test_outlet_rule_resolves_a_steep_mixing_layer():
    delta = 0.02
    y = metrics.OUTLET_ROWS[:, 1]
    # the interface on a row, off a row, and off center
    for y0 in (0.5, 0.5031, 0.37):
        c = np.array([0.5 * (1.0 + math.erf((v - y0) / delta)) for v in y.tolist()])
        exact = erf_layer_mixing_index(delta, y0)
        assert abs(mixing_index(c, metrics.OUTLET_WEIGHTS) - exact) <= ERF_LAYER_TOL
        # the equal-weight rule misses the bound by six orders of magnitude
        assert abs(mixing_index(c, np.ones_like(c)) - exact) > 1e-4


def test_outlet_weights_are_the_trapezoid_rule():
    w = metrics.OUTLET_WEIGHTS
    assert w.shape == (metrics.OUTLET_SAMPLES,)
    assert np.array_equal(metrics.OUTLET_ROWS[:, 1], np.linspace(0.0, 1.0, metrics.OUTLET_SAMPLES))
    assert w[0] == w[-1] == 0.5 * w[1] and np.all(w[1:-1] == w[1])
    assert abs(float(np.sum(w)) - 1.0) <= 1e-15


def test_inlet_rule_integrates_degree_15_exactly_inside_each_mouth():
    rows, w = metrics.INLET_ROWS, metrics.INLET_WEIGHTS
    assert rows.shape == (2 * GAUSS_NODES, 7) and w.shape == (2 * GAUSS_NODES,)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-15
    for k, mouth_y in enumerate((1.0, 0.0)):  # upper mouth first
        part = slice(k * GAUSS_NODES, (k + 1) * GAUSS_NODES)
        x, wm = rows[part, 0], w[part]
        assert np.all(rows[part, 1] == mouth_y)
        assert np.all((x > 0.0) & (x < MOUTH))
        assert abs(float(np.sum(wm)) - 0.5) <= 1e-15  # each mouth weighs one half
        for degree in range(2 * GAUSS_NODES):
            exact = MOUTH ** degree / (degree + 1)  # the mean of x^degree over the mouth
            assert abs(2.0 * float(np.sum(wm * x ** degree)) - exact) <= 4e-16, degree
        # one degree more is past the rule's reach: it errs by 3.6e-10
        degree = 2 * GAUSS_NODES
        assert abs(2.0 * float(np.sum(wm * x ** degree)) - MOUTH ** degree / (degree + 1)) > 1e-12
    # the literal nodes and weights are numpy's Gauss-Legendre rule, to rounding
    t, wt = np.polynomial.legendre.leggauss(GAUSS_NODES)
    assert np.allclose(rows[:GAUSS_NODES, 0], 0.5 * MOUTH * (1.0 + t), rtol=0.0, atol=1e-15)
    assert np.allclose(w[:GAUSS_NODES], 0.25 * wt, rtol=0.0, atol=1e-15)
