"""``physics.loss_node``'s closed-form gradient against the tape oracle, bit
for bit, over seeds, weights, network widths and row counts."""

import numpy as np
import pytest

from mixopt.diffnet import InputNorm, NetworkSpec, init_params, param_gradient
from mixopt.diffnet.tape import leaf
from mixopt.diffnet.network import ROW_BLOCK
from mixopt.geometry import ChannelDims
from mixopt.physics import LossWeights, loss_node, total_loss
from mixopt.pinn_train import TrainConfig, train
from mixopt.sampling import CollocationCounts, CollocationSet, SampleBounds, generate_collocation
from tape_oracle import tape_gradient

NORM = InputNorm.from_bounds(SampleBounds().pairs())


def closed_form(colloc, params, weights=None):
    param_leaf = leaf(params.flat)
    node, report = loss_node(colloc, param_leaf, params, weights)
    return param_gradient(node, param_leaf), report


def assert_same(colloc, params, weights=None, equal_nan=False):
    got, report = closed_form(colloc, params, weights)
    want, ref = tape_gradient(colloc, params, weights)
    assert np.array_equal(got, want, equal_nan=equal_nan)
    value_only = total_loss(colloc, params, weights)
    for r in (report, value_only):
        assert np.array_equal(r.total, ref.total, equal_nan=equal_nan)
        assert list(r.families) == list(ref.families)
        for name, value in ref.families.items():
            assert np.array_equal(r.families[name], value, equal_nan=equal_nan), name


def minibatch(seed, counts=CollocationCounts(), rows=1024):
    colloc = generate_collocation(ChannelDims(), SampleBounds(), counts, seed=seed)
    idx = np.random.default_rng(seed).permutation(len(colloc.interior))[:rows]
    return CollocationSet(interior=colloc.interior[idx], boundary=colloc.boundary,
                          slices=colloc.slices)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_is_the_tape_oracles_on_the_default_net(seed):
    params = init_params(NetworkSpec(), norm=NORM, seed=60 + seed)
    assert_same(minibatch(seed), params)


@pytest.mark.parametrize("weights", [
    LossWeights(pde=0.5, wall=3.0, massflow=0.0),
    LossWeights(pde=0.0, inlet_top=2.5, outlet=0.0),  # no interior pullback at all
    LossWeights(pde=1.0, inlet_top=0, inlet_bottom=0, wall=0, baffle=0, outlet=0, massflow=0),
])
def test_gradient_is_the_tape_oracles_under_other_weights(weights):
    params = init_params(NetworkSpec(), norm=NORM, seed=70)
    assert_same(minibatch(3), params, weights)


@pytest.mark.parametrize("hidden", [(8, 8), (16, 16)])
@pytest.mark.parametrize("seed", [4, 5])
def test_gradient_is_the_tape_oracles_on_narrow_nets(hidden, seed):
    params = init_params(NetworkSpec(hidden=hidden), norm=NORM, seed=seed)
    assert_same(minibatch(seed), params)


def test_gradient_is_the_tape_oracles_over_a_partial_last_block():
    assert 300 % ROW_BLOCK
    colloc = minibatch(6, CollocationCounts(interior=300, per_boundary=30, per_slice=16), rows=300)
    assert len(colloc.interior) == 300
    params = init_params(NetworkSpec(hidden=(16, 16)), norm=NORM, seed=8)
    assert_same(colloc, params)


def test_a_nan_row_gives_the_oracles_nan_gradient_and_aborts_training():
    colloc = minibatch(7, CollocationCounts(interior=400, per_boundary=20, per_slice=8), rows=300)
    interior = colloc.interior.copy()
    interior[250, 0] = np.nan  # a row of the second block
    poisoned = CollocationSet(interior=interior, boundary=colloc.boundary, slices=colloc.slices)
    params = init_params(NetworkSpec(hidden=(8, 8)), norm=NORM, seed=9)
    assert_same(poisoned, params, equal_nan=True)
    assert np.isnan(closed_form(poisoned, params)[1].total)

    cfg = TrainConfig(steps=3, seed=1, hidden=(8, 8), counts=CollocationCounts(interior=300))
    trained, history = train(cfg, colloc=poisoned)
    assert history.aborted_at == 1
    assert np.all(np.isfinite(trained.flat))
