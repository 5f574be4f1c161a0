import json
import os
import struct

import numpy as np
import pytest

from mixopt.diffnet import (
    AdamState,
    InputNorm,
    NetworkSpec,
    ParameterSet,
    adam_step,
    adam_update,
    checkpoint,
    forward,
    forward_vjp,
    init_adam,
    init_params,
    load_params,
    net_apply,
    param_gradient,
    save_params,
    tape,
)
from mixopt.diffnet import adam, network
from mixopt.errors import CheckpointError, DomainError, NumericalError


# ---------------------------------------------------------------- tape ops


def fd_scalar(fn, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
        it.iternext()
    return g


@pytest.mark.parametrize(
    "build",
    [
        lambda a: tape.square(a * 2.0 + 1.0).sum() * (1.0 / a.size),
        lambda a: tape.nsum(tape.nsum(tape.square(a), axis=1)) * 0.25,
        lambda a: (a[:, 1] * (a[:, 0] + 4.0)).sum(),
        lambda a: tape.nsum((2.0 - a) * (a + 3.0)),
        lambda a: (-a + a * a * 0.5).sum() * (1.0 / a.size),
        lambda a: (a[1:3, 0] * a[0, 2]).sum() + a[-1].sum(),
        lambda a: (a[:, 1:] ** 2).sum() * (1.0 / a.size),
    ],
)
def test_tape_ops_match_finite_differences(build):
    rng = np.random.default_rng(99)
    x = rng.uniform(-1.0, 1.0, size=(4, 3))
    a = tape.leaf(x)
    root = build(a)
    got = tape.gradient(root, a)
    want = fd_scalar(lambda v: float(build(tape.leaf(v)).value), x)
    assert np.max(np.abs(got - want)) < 1e-7


def test_tape_mean_axis_gradient():
    a = tape.leaf(np.ones((3, 5)))
    root = tape.nsum(tape.nsum(a, axis=0) * (1.0 / 3.0))
    g = tape.gradient(root, a)
    assert np.allclose(g, 1.0 / 3.0)


def test_tape_broadcasting_gradients():
    a = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tape.leaf(np.array([10.0, 20.0]))
    root = tape.nsum(a * b)
    ga, gb = tape.gradient(root, a), tape.gradient(root, b)
    assert np.allclose(ga, [[10.0, 20.0], [10.0, 20.0]])
    assert np.allclose(gb, [4.0, 6.0])


@pytest.mark.parametrize("idx", [np.array([0, 0]), [1, 2], (slice(None), np.array([1, 1])),
                                 True, (0, None), Ellipsis])
def test_node_indexing_rejects_array_and_other_indices(idx):
    """A repeated array index would drop all but one cotangent in the scatter."""
    a = tape.leaf(np.arange(12.0).reshape(4, 3))
    with pytest.raises(DomainError):
        a[idx]


def test_gradient_requires_scalar_root():
    a = tape.leaf(np.ones(3))
    with pytest.raises(DomainError):
        tape.gradient(a * 2.0, a)


def test_gradient_of_unrelated_leaf_is_zero():
    a = tape.leaf(np.ones(3))
    b = tape.leaf(np.ones(3))
    g = tape.gradient(tape.nsum(a), b)
    assert np.all(g == 0.0)


def test_unsupported_primitives_fail_at_construction():
    a = tape.leaf(np.ones(3))
    with pytest.raises(TypeError):
        np.sin(a)
    with pytest.raises(TypeError):
        a @ np.ones(3)
    with pytest.raises(DomainError):
        a ** 3


# ---------------------------------------------------------------- network


# tanh is the only activation; the parameter keeps these tests' ids
only_tanh = pytest.mark.parametrize("activation", ["tanh"])


def make_params(input_dim=7, output_dim=9, hidden=(6, 5), seed=0, norm=None):
    spec = NetworkSpec(input_dim=input_dim, output_dim=output_dim, hidden=hidden)
    return init_params(spec, norm=norm, seed=seed)


def test_spec_validation_and_param_count():
    spec = NetworkSpec(input_dim=3, output_dim=2, hidden=(4,))
    assert spec.param_count == 3 * 4 + 4 + 4 * 2 + 2
    with pytest.raises(DomainError):
        NetworkSpec(hidden=(0,))
    spec = NetworkSpec(input_dim=np.int64(3), hidden=(np.int64(4),))
    assert spec.hidden == (4,) and type(spec.hidden[0]) is int


@pytest.mark.parametrize("bad", [8.7, 8.0, True, 0, -1, "8", None])
@pytest.mark.parametrize("name", ["input_dim", "output_dim", "hidden"])
def test_spec_widths_and_dims_take_integers_from_one(name, bad):
    kwargs = {"hidden": (4, bad)} if name == "hidden" else {name: bad}
    with pytest.raises(DomainError, match="must be"):
        NetworkSpec(**kwargs)


def test_init_deterministic_zero_bias_unit_fan_in_variance():
    spec = NetworkSpec(input_dim=50, output_dim=40, hidden=(300,))
    a = init_params(spec, seed=5)
    b = init_params(spec, seed=5)
    assert np.array_equal(a.flat, b.flat)
    (W0, _, b0), (W1, _, b1) = a.table()
    assert np.all(b0 == 0.0) and np.all(b1 == 0.0)
    assert np.max(np.abs(W0)) <= np.sqrt(3.0 / 50)
    assert abs(W0.var() - 1.0 / 50) < 0.15 / 50
    assert abs(W1.var() - 1.0 / 300) < 0.15 / 300


def test_forward_matches_hand_computation():
    spec = NetworkSpec(input_dim=2, output_dim=1, hidden=(2,))
    flat = np.array([0.5, -1.0, 2.0, 0.25, 0.1, -0.2, 1.5, -0.5, 0.3], dtype=np.float64)
    params = ParameterSet(spec=spec, norm=InputNorm.identity(2), flat=flat)
    X = np.array([[0.4, -0.7], [1.0, 2.0]])
    W0 = flat[:4].reshape(2, 2)
    b0 = flat[4:6]
    W1 = flat[6:8].reshape(1, 2)
    b1 = flat[8:]
    want = np.tanh(X @ W0.T + b0) @ W1.T + b1
    assert np.allclose(forward(params, X), want, atol=1e-15)


def test_forward_applies_input_normalization():
    norm = InputNorm.from_bounds([(0.0, 7.0), (0.0, 1.0)])
    spec = NetworkSpec(input_dim=2, output_dim=1, hidden=(3,))
    params = init_params(spec, norm=norm, seed=1)
    ident = ParameterSet(spec=spec, norm=InputNorm.identity(2), flat=params.flat)
    X = np.array([[3.5, 0.5]])  # normalizes to the origin
    assert np.allclose(forward(params, X), forward(ident, np.zeros((1, 2))))


def test_pinned_dimension_is_ignored():
    norm = InputNorm.from_bounds([(0.0, 2.0), (5.0, 5.0)])
    params = make_params(input_dim=2, output_dim=3, hidden=(4,), seed=3, norm=norm)
    X1 = np.array([[1.0, 5.0]])
    X2 = np.array([[1.0, 99.0]])
    assert np.allclose(forward(params, X1), forward(params, X2))
    _, jac, _ = forward_vjp(params, X1, need_jac=True)
    assert np.all(jac[:, :, 1] == 0.0)


def test_batch_permutation_equivariance():
    params = make_params(seed=7)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 7))
    perm = rng.permutation(12)
    out = forward(params, X)
    _, jac, _ = forward_vjp(params, X, need_jac=True)
    assert np.allclose(out[perm], forward(params, X[perm]), atol=1e-14)
    assert np.allclose(jac[perm], forward_vjp(params, X[perm], need_jac=True)[1], atol=1e-14)


@only_tanh
def test_forward_and_tape_path_return_identical_bits(activation):
    norm = InputNorm.from_bounds([(0.0, 7.0), (0.0, 1.0), (-0.5, 0.5), (-0.5, 0.5),
                                  (-0.5, 0.5), (5.0, 40.0), (1.0, 100.0)])
    spec = NetworkSpec(hidden=(16, 12, 8))
    params = init_params(spec, norm=norm, seed=21)
    X = np.random.default_rng(4).uniform(-3.0, 50.0, size=(37, 7))
    X_before = X.copy()
    out = forward(params, X)
    assert np.array_equal(X, X_before)  # forward works on its own copy
    via_tape, _ = net_apply(tape.leaf(params.flat), params, X, need_jac=False)
    assert np.array_equal(out, via_tape.value)
    assert np.array_equal(out, forward_vjp(params, X, need_jac=True)[0])
    assert np.array_equal(X, X_before)

    # the arithmetic itself is pinned: multiply by the reciprocal half-span,
    # then h @ Wt + b and tanh, layer by layer, where Wt is a row-major copy
    # of W.T
    h = (X - norm.center) * (1.0 / norm.halfspan)
    table = params.table()
    for W, _, b in table[:-1]:
        h = np.tanh(h @ W.T.copy() + b)
    W, _, b = table[-1]
    assert np.array_equal(out, h @ W.T.copy() + b)


def test_input_norm_reciprocal_is_fixed_at_construction():
    norm = InputNorm.from_bounds([(0.0, 4.0), (3.0, 3.0)])
    assert np.array_equal(norm.inv_halfspan, [0.5, 0.0])
    with pytest.raises(ValueError):
        norm.inv_halfspan[0] = 1.0


def test_input_norm_is_a_read_only_copy():
    norm = InputNorm.from_bounds([(0.0, 2.0)])
    for arr in (norm.center, norm.halfspan):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 4.0
    assert norm.apply(np.array([[2.0]]))[0, 0] == 1.0
    center, halfspan = np.array([1.0]), np.array([1.0])
    copied = InputNorm(center=center, halfspan=halfspan)
    halfspan[0] = 4.0  # the caller's arrays stay its own
    assert center.flags.writeable and copied.halfspan[0] == 1.0


@pytest.mark.parametrize("center, halfspan, match", [
    (np.zeros(7), np.ones(1), "one length"),
    (np.zeros((2, 1)), np.ones((2, 1)), "1-D"),
    ([0.0, np.nan], [1.0, 1.0], "finite"),
    ([0.0, 0.0], [1.0, np.inf], "finite"),
    ([0.0, 0.0], [1.0, -1.0], ">= 0"),
    (["abc", 0.0], [1.0, 1.0], "numbers"),
])
def test_input_norm_rejects_bad_center_or_halfspan(center, halfspan, match):
    with pytest.raises(DomainError, match=match):
        InputNorm(center=center, halfspan=halfspan)


def rel_linf(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def test_spatial_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    norm = InputNorm.from_bounds([(0.0, 7.0), (0.0, 1.0), (-0.5, 0.5), (-0.5, 0.5),
                                  (-0.5, 0.5), (5.0, 40.0), (1.0, 100.0)])
    for trial in range(5):
        params = make_params(hidden=(8, 6), seed=trial, norm=norm)
        X = np.column_stack([
            rng.uniform(0, 7, 4), rng.uniform(0, 1, 4),
            rng.uniform(-0.5, 0.5, (4, 3)), rng.uniform(5, 40, 4), rng.uniform(1, 100, 4),
        ])
        _, jac, _ = forward_vjp(params, X, need_jac=True)
        h = 1e-5
        for d in range(2):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, d] += h
            Xm[:, d] -= h
            fd = (forward(params, Xp) - forward(params, Xm)) / (2.0 * h)
            assert rel_linf(jac[:, :, d], fd) < 1e-5


def composite_loss_value(params, X):
    """Numpy-only twin of composite_loss_node, for FD cross-checks."""
    out, jac, _ = forward_vjp(params, X, need_jac=True)
    return float(np.mean(out ** 2) + np.mean(jac ** 2) + np.mean(out[:, 0] * jac[:, 1, 0]))


def composite_loss_node(leaf_node, template, X):
    out, jac = net_apply(leaf_node, template, X, need_jac=True)
    cross = out[:, 0] * jac[:, 1, 0]
    return ((out ** 2).sum() * (1.0 / out.size) + (jac ** 2).sum() * (1.0 / jac.size)
            + cross.sum() * (1.0 / cross.size))


def test_param_gradient_matches_central_differences():
    norm = InputNorm.from_bounds([(0.0, 7.0), (0.0, 1.0), (-0.5, 0.5), (-0.5, 0.5),
                                  (-0.5, 0.5), (5.0, 40.0), (1.0, 100.0)])
    rng = np.random.default_rng(3)
    params = make_params(hidden=(5, 4), seed=11, norm=norm)
    X = np.column_stack([
        rng.uniform(0, 7, 3), rng.uniform(0, 1, 3),
        rng.uniform(-0.5, 0.5, (3, 3)), rng.uniform(5, 40, 3), rng.uniform(1, 100, 3),
    ])
    leaf_node = tape.leaf(params.flat)
    root = composite_loss_node(leaf_node, params, X)
    got = param_gradient(root, leaf_node)
    assert abs(float(root.value) - composite_loss_value(params, X)) < 1e-12

    h = 1e-6
    want = np.zeros_like(params.flat)
    for i in range(params.flat.size):
        fp = params.flat.copy()
        fp[i] += h
        fm = params.flat.copy()
        fm[i] -= h
        want[i] = (composite_loss_value(params.with_flat(fp), X)
                   - composite_loss_value(params.with_flat(fm), X)) / (2.0 * h)
    assert rel_linf(got, want) < 1e-5


FIELD_NORM = [(0.0, 7.0), (0.0, 1.0), (-0.5, 0.5), (-0.5, 0.5),
              (-0.5, 0.5), (5.0, 40.0), (1.0, 100.0)]


def field_rows(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(0, 7, n), rng.uniform(0, 1, n),
        rng.uniform(-0.5, 0.5, (n, 3)), rng.uniform(5, 40, n), rng.uniform(1, 100, n),
    ])


def broadcast_bias_forward(params, X):
    """Per row block, h @ Wt + b with numpy's broadcast bias add, where Wt
    is a row-major copy of W.T."""
    table = params.table()
    outs = []
    for s in network._row_blocks(len(X)):
        h = params.norm.apply(X[s])
        for W, _, b in table[:-1]:
            h = np.tanh(h @ W.T.copy() + b)
        W, _, b = table[-1]
        outs.append(h @ W.T.copy() + b)
    return np.concatenate(outs)


@only_tanh
def test_forward_and_tape_path_agree_over_several_row_blocks(activation):
    spec = NetworkSpec(hidden=(32, 32))
    params = init_params(spec, norm=InputNorm.from_bounds(FIELD_NORM), seed=8)
    X = field_rows(700, seed=1)
    assert len(network._row_blocks(len(X))) > 2
    out = forward(params, X)
    via_tape, jac = net_apply(tape.leaf(params.flat), params, X, need_jac=True)
    assert np.array_equal(out, via_tape.value)
    # each block alone gives the same bits as its rows of the full pass
    for s in network._row_blocks(len(X)):
        assert np.array_equal(out[s], forward(params, X[s]))
    assert jac.value.shape == (700, 9, 2)
    # forward's tiled bias adds give the broadcast add's bits at every size,
    # one row to several blocks, a partial last block included
    for n in (1, 101, 202, 208, 209, 700):
        X = field_rows(n, seed=n)
        assert np.array_equal(forward(params, X), broadcast_bias_forward(params, X))


ONE_ROW_NETS = {
    "field": (NetworkSpec(hidden=(32, 32)), FIELD_NORM),
    "actor": (NetworkSpec(input_dim=1, output_dim=8, hidden=(32, 32)), [(1.0, 100.0)]),
    "critic": (NetworkSpec(input_dim=1, output_dim=1, hidden=(32, 32)), [(1.0, 100.0)]),
    # one input whose center and half-span are neither 0 nor 1; the linear
    # net has no hidden layer, so its one row runs as a 2-D block
    "shifted": (NetworkSpec(input_dim=1, output_dim=3, hidden=(16,)), [(-3.7, 0.9)]),
    "linear": (NetworkSpec(input_dim=1, output_dim=3, hidden=()), [(-3.7, 0.9)]),
}


@pytest.mark.parametrize("net", sorted(ONE_ROW_NETS))
def test_one_row_forward_returns_the_two_d_passes_bits(net):
    # forward runs a single row of a one-input net with a hidden layer on
    # 1-D vectors, its first layer as a scalar times a vector; the field and
    # linear nets' rows, every other pass, and the broadcast-bias reference
    # run it as a 2-D one-row block
    spec, bounds = ONE_ROW_NETS[net]
    params = init_params(spec, norm=InputNorm.from_bounds(bounds), seed=len(net))
    if net == "linear":  # -0.0 biases, whose sign a zero product added to 0.0 would lose
        flat = params.flat.copy()
        flat[-spec.output_dim:] = -0.0
        params = params.with_flat(flat)
    rng = np.random.default_rng(3)
    if net == "field":
        rows = field_rows(40, seed=3)
    elif net in ("actor", "critic"):  # extrapolated Schmidt numbers included
        rows = rng.uniform(0.5, 200.0, (40, 1))
    else:  # well outside the bounds on both sides
        rows = rng.uniform(-12.0, 9.0, (40, 1))
    if spec.input_dim == 1:  # the center, where the first layer's products are zeros
        rows = np.concatenate([params.norm.center[None], rows])
    for i in range(len(rows)):
        X = rows[i:i + 1]
        X_before = X.copy()
        out = forward(params, X)
        assert out.shape == (1, spec.output_dim)
        assert np.array_equal(X, X_before)
        assert out.tobytes() == broadcast_bias_forward(params, X).tobytes()
        assert out.tobytes() == forward_vjp(params, X)[0].tobytes()
        if net == "field":  # the spatial tangents need (x, y) inputs
            assert np.array_equal(out, forward_vjp(params, X, need_jac=True)[0])
    if spec.input_dim == 1 and spec.hidden:  # a one-row pass on 1-D vectors tiles no biases
        assert params._tiles is None


@pytest.mark.parametrize("bad", [np.zeros(7), np.zeros((1, 6)), np.zeros((1, 8)), np.zeros((2, 6)),
                                 np.zeros((1, 1, 7)), [[0.0] * 6]])
def test_forward_rejects_inputs_of_the_wrong_shape(bad):
    params = make_params(seed=2)
    with pytest.raises(DomainError, match="expected input shape"):
        forward(params, bad)


def test_forward_of_no_rows_has_the_output_width():
    params = make_params(seed=2)
    assert forward(params, np.zeros((0, 7))).shape == (0, 9)


def _jac_and_gradient(params, X):
    leaf_node = tape.leaf(params.flat)
    root = composite_loss_node(leaf_node, params, X)
    return forward_vjp(params, X, need_jac=True)[1], param_gradient(root, leaf_node)


@only_tanh
def test_row_blocks_match_a_single_block_reference(activation, monkeypatch):
    spec = NetworkSpec(hidden=(32, 32))
    params = init_params(spec, norm=InputNorm.from_bounds(FIELD_NORM), seed=9)
    X = field_rows(700, seed=2)
    jac, grad = _jac_and_gradient(params, X)
    monkeypatch.setattr(network, "ROW_BLOCK", 10 ** 6)
    assert len(network._row_blocks(len(X))) == 1
    ref_jac, ref_grad = _jac_and_gradient(params, X)
    assert np.max(np.abs(jac - ref_jac)) <= 1e-12 * np.max(np.abs(ref_jac))
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_row_blocks_cover_every_row_once():
    block = network.ROW_BLOCK
    for n in (0, 1, block - 1, block, block + 1, 3 * block, 3 * block + 5):
        rows = network._row_blocks(n)
        covered = np.concatenate([np.arange(n)[s] for s in rows])
        assert np.array_equal(covered, np.arange(n))
        assert all(s.stop - s.start <= block for s in rows)
    assert len(network._row_blocks(202)) == 1  # a design score's inlet pass


def test_weight_table_is_built_once_and_read_only():
    params = make_params(seed=4)
    table = params.table()
    assert params.table() is table
    assert len(table) == len(params.spec.layer_shapes)
    for (W, Wt, b), ((wr, wc), (bn,)) in zip(table, params.spec.layer_shapes):
        assert W.shape == (wr, wc) and b.shape == (bn,)
        assert np.shares_memory(W, params.flat) and np.shares_memory(b, params.flat)
        assert np.array_equal(Wt, W.T) and Wt.flags.c_contiguous
        assert not np.shares_memory(Wt, params.flat)
    # read-only from construction, before any pass has run
    for target in (params.flat, table[-1][0], table[-1][1], table[-1][2]):
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 1.0
    # new weights make a new set with a table of its own
    flat = params.flat.copy()
    flat[-params.spec.output_dim:] = 2.0
    fresh = params.with_flat(flat)
    assert fresh.table() is not table and np.all(fresh.table()[-1][2] == 2.0)
    X = np.zeros((1, params.spec.input_dim))
    assert np.all(forward(fresh, X) != forward(params, X))


def test_with_flat_copies_its_argument():
    params = make_params(seed=5)
    assert not np.shares_memory(params.flat, params.with_flat(params.flat).flat)
    flat = params.flat.copy()
    p = params.with_flat(flat)
    flat[0] += 1.0  # the caller's array stays writable and the set does not see it
    assert p.flat[0] == params.flat[0] and flat.flags.writeable


def test_a_weight_taken_before_another_sets_pass_cannot_be_written():
    params = make_params(seed=6)
    p = params.with_flat(params.flat.copy())
    W = p.table()[-1][0]
    q = p.with_flat(p.flat)
    X = np.zeros((3, params.spec.input_dim))
    before = forward(q, X)
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0] += 1.0
    assert np.array_equal(forward(q, X), before) and np.array_equal(q.flat, p.flat)


@pytest.mark.parametrize("first_pass", ["forward", "forward_vjp", "net_apply"])
def test_weight_transposes_are_read_only_copies_of_the_first_pass_weights(first_pass):
    params = make_params(seed=6)
    flat = params.flat.copy()
    out, hidden = params.spec.output_dim, params.spec.hidden[-1]
    flat[-out * (hidden + 1):-out] = 0.25  # the output layer's W
    params = params.with_flat(flat)
    X = np.zeros((3, params.spec.input_dim))
    if first_pass == "net_apply":
        leaf_value = flat.copy()
        net_apply(tape.leaf(leaf_value), params, X, need_jac=True)
        assert leaf_value.flags.writeable  # the tape's set runs on a copy of the leaf
    else:
        getattr(network, first_pass)(params, X)
    table = params.table()
    for W, Wt, b in table:
        assert np.array_equal(Wt, W.T) and Wt.dtype == np.float64
        assert Wt.flags.c_contiguous and not np.shares_memory(Wt, params.flat)
        with pytest.raises(ValueError, match="read-only"):
            Wt[0, 0] = 1.0
    assert np.all(table[-1][1] == 0.25)
    # only forward tiles the biases; the tiles are built once per set
    assert (params._tiles is not None) == (first_pass == "forward")
    tiles = params.bias_tiles()
    for (_, Wt, b), tile in zip(table, tiles):
        assert tile.shape == (network.ROW_BLOCK, Wt.shape[1]) and np.all(tile == b)
        assert not tile.flags.writeable
    forward_vjp(params, X)
    forward(params, X)
    assert params.table() is table and params.bias_tiles() is tiles


@pytest.mark.parametrize("spec", [NetworkSpec(), NetworkSpec(input_dim=1, output_dim=8, hidden=(32, 32))],
                         ids=["field", "actor"])
@pytest.mark.parametrize("n", [1, 101, 202, 208, 209, 700])
def test_every_pass_returns_the_same_bits(spec, n):
    rng = np.random.default_rng(n)
    if spec.input_dim == 7:
        norm, X = InputNorm.from_bounds(FIELD_NORM), field_rows(n, seed=n)
    else:
        norm, X = InputNorm.from_bounds([(1.0, 100.0)]), rng.uniform(1.0, 100.0, (n, 1))
    params = init_params(spec, norm=norm, seed=n)
    out = forward(params, X)
    outs = [forward_vjp(params, X)[0], net_apply(tape.leaf(params.flat), params, X)[0].value]
    if spec.input_dim == 7:  # the spatial tangents need (x, y) inputs
        vjp_out, jac, _ = forward_vjp(params, X, need_jac=True)
        tape_out, tape_jac = net_apply(tape.leaf(params.flat), params, X, need_jac=True)
        outs += [vjp_out, tape_out.value]
        assert np.array_equal(tape_jac.value, jac)
    for got in outs:
        assert np.array_equal(got, out)


@only_tanh
@pytest.mark.parametrize("need_jac", [False, True])
def test_forward_vjp_equals_net_apply_and_param_gradient(activation, need_jac):
    spec = NetworkSpec(hidden=(16, 12))
    params = init_params(spec, norm=InputNorm.from_bounds(FIELD_NORM), seed=13)
    X = field_rows(300, seed=5)  # two row blocks
    rng = np.random.default_rng(6)
    gy = rng.normal(size=(300, 9))
    gjac = rng.normal(size=(300, 9, 2)) if need_jac else None

    out, jac, vjp = forward_vjp(params, X, need_jac=need_jac)
    leaf_node = tape.leaf(params.flat)
    out_node, jac_node = net_apply(leaf_node, params, X, need_jac=need_jac)
    assert np.array_equal(out, out_node.value)
    root = tape.nsum(out_node * gy)
    if need_jac:
        assert np.array_equal(jac, jac_node.value)
        root = root + tape.nsum(jac_node * gjac)
    else:
        assert jac is None and jac_node is None
    assert np.array_equal(vjp(gy, gjac), param_gradient(root, leaf_node))


def _block_loop_reference(params, X, need_jac):
    """Outputs, jacobian and pullback of the ``map_blocks`` loop: the blocks'
    arrays stacked in row order and their pullbacks summed in block order."""
    blocks = network.map_blocks(params, X, need_jac, lambda *block: block)
    out = np.concatenate([b[1] for b in blocks])
    jac = np.concatenate([b[2] for b in blocks]) if need_jac else None

    def vjp(gy, gjac=None):
        total = None
        for rows, _, _, pullback in blocks:
            g = pullback(gy[rows], None if gjac is None else gjac[rows])
            if total is None:
                total = g
            else:
                total += g
        return total

    return out, jac, vjp


@pytest.mark.parametrize("n", [1, 64, 208, 209])
@pytest.mark.parametrize("net,need_jac", [("actor", False), ("actor", True),
                                          ("field", False), ("field", True)])
def test_one_block_pullback_equals_the_block_loop(net, need_jac, n, monkeypatch):
    if net == "field":
        spec, norm, X = NetworkSpec(), InputNorm.from_bounds(FIELD_NORM), field_rows(n, seed=n)
    else:  # the actor's widths; the spatial tangents need two inputs
        dim = 2 if need_jac else 1
        spec = NetworkSpec(input_dim=dim, output_dim=8, hidden=(32, 32))
        norm = InputNorm.from_bounds([(1.0, 100.0)] * dim)
        X = np.random.default_rng(n).uniform(1.0, 100.0, (n, dim))
    params = init_params(spec, norm=norm, seed=n)
    rng = np.random.default_rng(n + 1)
    gy = rng.normal(size=(n, spec.output_dim))
    gjac = rng.normal(size=(n, spec.output_dim, 2))
    ref_out, ref_jac, ref_vjp = _block_loop_reference(params, X, need_jac)

    blocks = []
    loop = network.map_blocks
    monkeypatch.setattr(network, "map_blocks", lambda *a: blocks.append(1) or loop(*a))
    out, jac, vjp = forward_vjp(params, X, need_jac=need_jac)
    assert len(blocks) == (n > network.ROW_BLOCK)  # one block runs without the loop
    assert np.array_equal(out, ref_out)
    assert (jac is None) if not need_jac else np.array_equal(jac, ref_jac)
    assert np.array_equal(vjp(gy), ref_vjp(gy))
    assert np.array_equal(vjp(None), ref_vjp(np.zeros_like(ref_out)))
    if need_jac:
        assert np.array_equal(vjp(gy, gjac), ref_vjp(gy, gjac))


@only_tanh
def test_forward_vjp_jacobian_is_the_tape_paths_outputs_and_jacobian(activation):
    spec = NetworkSpec(hidden=(32, 32))
    params = init_params(spec, norm=InputNorm.from_bounds(FIELD_NORM), seed=14)
    X = field_rows(700, seed=7)
    assert len(network._row_blocks(len(X))) == 4
    X_before = X.copy()
    out, jac, _ = forward_vjp(params, X, need_jac=True)
    assert np.array_equal(X, X_before)
    assert out.shape == (700, 9) and jac.shape == (700, 9, 2)
    assert np.array_equal(out, forward(params, X))
    # the outputs and jacobians the block loop hands each block's caller, stacked
    blocks = network.map_blocks(params, X, True, lambda rows, o, j, pullback: (o, j))
    assert np.array_equal(out, np.concatenate([o for o, _ in blocks]))
    assert np.array_equal(jac, np.concatenate([j for _, j in blocks]))
    one_out, one_jac, _ = forward_vjp(params, X[:50], need_jac=True)  # one block, no loop
    [(ref_out, ref_jac)] = network.map_blocks(params, X[:50], True, lambda rows, o, j, pullback: (o, j))
    assert np.array_equal(one_out, ref_out) and np.array_equal(one_jac, ref_jac)


def test_net_apply_without_jacobian_gradients():
    params = make_params(input_dim=3, output_dim=2, hidden=(4,), seed=2)
    X = np.random.default_rng(1).normal(size=(5, 3))
    leaf_node = tape.leaf(params.flat)
    out, _ = net_apply(leaf_node, params, X, need_jac=False)
    root = ((out - 0.3) ** 2).sum() * (1.0 / out.size)
    got = param_gradient(root, leaf_node)

    def value(flat):
        return float(np.mean((forward(params.with_flat(flat), X) - 0.3) ** 2))

    want = fd_scalar(value, params.flat.copy(), h=1e-6)
    assert rel_linf(got, want) < 1e-6


# ---------------------------------------------------------------- adam


def test_adam_first_step_is_signed_lr():
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    grad = np.linspace(-2.0, 3.0, params.flat.size)
    grad[grad == 0.0] = 0.5
    state = init_adam(params.flat.size, lr=0.01)
    new, state2 = adam_step(params, grad, state)
    assert state2.step == 1
    delta = new.flat - params.flat
    assert np.allclose(delta, -0.01 * np.sign(grad), atol=1e-6)


def test_adam_pure_and_deterministic():
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    grad = np.full(params.flat.size, 0.25)
    state = init_adam(params.flat.size, lr=0.05)
    a1, s1 = adam_step(params, grad, state)
    a2, s2 = adam_step(params, grad, state)
    assert np.array_equal(a1.flat, a2.flat)
    assert np.array_equal(s1.m, s2.m) and s1.step == s2.step
    assert np.all(state.m == 0.0)  # inputs untouched


def test_adam_matches_textbook_reference_bit_for_bit():
    params = make_params(input_dim=2, output_dim=3, hidden=(5,), seed=1)
    assert (adam.BETA1, adam.BETA2, adam.EPS) == (0.9, 0.999, 1e-8)
    state = init_adam(params.flat.size, lr=0.02)
    flat, m, v = params.flat.copy(), np.zeros(params.flat.size), np.zeros(params.flat.size)
    rng = np.random.default_rng(8)
    for t in range(1, 8):
        grad = rng.normal(size=params.flat.size) * 10.0 ** rng.uniform(-3, 1)
        params, state = adam_step(params, grad, state)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        flat = flat - 0.02 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(params.flat, flat)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.step == t


def test_adam_refuses_non_finite_gradient():
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    grad = np.zeros(params.flat.size)
    grad[3] = np.nan
    with pytest.raises(NumericalError):
        adam_step(params, grad, init_adam(params.flat.size))


def test_adam_validates_shapes_and_hyperparameters():
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    with pytest.raises(DomainError):
        adam_step(params, np.zeros(3), init_adam(params.flat.size))
    with pytest.raises(DomainError):
        init_adam(10, lr=-1.0)
    with pytest.raises(DomainError):
        adam_update(np.zeros(4), np.zeros(3), init_adam(4))


@pytest.mark.parametrize("lr", [
    np.full(9, 1e-3), np.full(11, 1e-3), np.full((2, 5), 1e-3),
    np.array([1e-3] * 9 + [0.0]), np.array([1e-3] * 9 + [-1e-3]),
    np.array([1e-3] * 9 + [np.nan]), np.array([1e-3] * 9 + [np.inf]),
], ids=["short", "long", "two_d", "zero", "negative", "nan", "inf"])
def test_adam_rejects_a_bad_learning_rate_vector(lr):
    with pytest.raises(DomainError):
        init_adam(10, lr=lr)


def test_adam_learning_rate_vector_is_a_read_only_copy():
    lr = np.full(10, 1e-3)
    state = init_adam(10, lr=lr)
    lr[0] = 5.0
    assert np.all(state.lr == 1e-3) and not state.lr.flags.writeable
    assert init_adam(10, lr=0.5).lr == 0.5


def test_adam_accepts_a_zero_dimensional_learning_rate_and_refuses_a_bool():
    assert init_adam(10, lr=np.array(0.5)).lr == 0.5
    with pytest.raises(DomainError, match=r"^Adam learning rate must be a real number, got True$"):
        init_adam(10, lr=True)


def test_adam_per_entry_learning_rates_step_each_part_with_its_own_bits():
    """One state over a ‖ b with rates (ra, rb) gives the bits of two states."""
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=7), rng.normal(size=5)
    flat = np.concatenate([a, b])
    state = init_adam(12, lr=np.array([0.03] * 7 + [2e-4] * 5))
    sa, sb = init_adam(7, lr=0.03), init_adam(5, lr=2e-4)
    for _ in range(6):
        ga, gb = rng.normal(size=7), rng.normal(size=5) * 1e-3
        flat, state = adam_update(flat, np.concatenate([ga, gb]), state)
        a, sa = adam_update(a, ga, sa)
        b, sb = adam_update(b, gb, sb)
        assert np.array_equal(flat, np.concatenate([a, b]))
        assert np.array_equal(state.m, np.concatenate([sa.m, sb.m]))
        assert np.array_equal(state.v, np.concatenate([sa.v, sb.v]))


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_bit_exact(tmp_path):
    norm = InputNorm.from_bounds([(0.0, 7.0)] * 7)
    params = make_params(seed=123, norm=norm)
    path = tmp_path / "net.ckpt"
    save_params(params, path, role="field", seed=123)
    loaded, header = load_params(path)
    assert np.array_equal(loaded.flat, params.flat)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert loaded.spec == params.spec
    assert np.array_equal(loaded.norm.center, params.norm.center)
    assert header["role"] == "field" and header["seed"] == 123


def test_checkpoint_rejects_corruption(tmp_path):
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    path = tmp_path / "net.ckpt"
    save_params(params, path)

    data = path.read_bytes()
    (tmp_path / "magic.ckpt").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "magic.ckpt")

    (tmp_path / "short.ckpt").write_bytes(data[:-8])
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "short.ckpt")

    (tmp_path / "header.ckpt").write_bytes(data[:20] + b"\x00" + data[21:])
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "header.ckpt")

    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_params(tmp_path / "missing.ckpt")
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_params(tmp_path)


def test_checkpoint_save_failure_keeps_old_file(tmp_path, monkeypatch):
    old = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    new = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=1)
    path = tmp_path / "net.ckpt"
    save_params(old, path)
    before = path.read_bytes()

    def fail_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(checkpoint.os, "replace", fail_replace)
    with pytest.raises(OSError, match="disk went away"):
        save_params(new, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]

    monkeypatch.undo()
    save_params(new, path)
    assert np.array_equal(load_params(path)[0].flat, new.flat)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]


def test_checkpoint_fsyncs_a_sibling_file_then_replaces(tmp_path, monkeypatch):
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    calls = []
    real_fsync, real_replace = checkpoint.os.fsync, checkpoint.os.replace

    def fsync(fd):
        calls.append(("fsync",))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint.os, "replace", replace)
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    assert [c[0] for c in calls] == ["fsync", "replace"]
    src, dst = calls[1][1], calls[1][2]
    assert os.path.dirname(src) == str(tmp_path) and dst == str(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_payload(tmp_path, bad):
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    flat = params.flat.copy()
    flat[3] = bad
    path = tmp_path / "net.ckpt"
    save_params(params.with_flat(flat), path)
    with pytest.raises(CheckpointError, match="non-finite"):
        load_params(path)


def _with_header(data, edit):
    """Checkpoint bytes whose JSON header has been passed through ``edit``."""
    n = struct.unpack("<Q", data[8:16])[0]
    header = json.loads(data[16:16 + n])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + n:]


@pytest.mark.parametrize("activation", ["softplus", None])
def test_checkpoint_rejects_any_activation_but_tanh(tmp_path, activation):
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    path = tmp_path / "net.ckpt"
    save_params(params, path)

    def edit(header):
        if activation is None:
            del header["spec"]["activation"]
        else:
            header["spec"]["activation"] = activation

    path.write_bytes(_with_header(path.read_bytes(), edit))
    with pytest.raises(CheckpointError, match="activation"):
        load_params(path)


@pytest.mark.parametrize("key, value", [("hidden", [2.0]), ("hidden", [True, 2]),
                                        ("input_dim", 2.0), ("output_dim", True)])
def test_checkpoint_rejects_a_non_integer_width(tmp_path, key, value):
    params = make_params(input_dim=2, output_dim=1, hidden=(2,), seed=0)
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    path.write_bytes(_with_header(path.read_bytes(),
                                  lambda header: header["spec"].update({key: value})))
    with pytest.raises(CheckpointError, match="must be an integer"):
        load_params(path)


@pytest.mark.parametrize("saved, expected", [("critic", "actor"), ("actor", "field")])
def test_checkpoint_rejects_another_role(tmp_path, saved, expected):
    params = make_params(input_dim=1, output_dim=1, hidden=(2,), seed=0)
    path = tmp_path / "net.ckpt"
    save_params(params, path, role=saved)
    with pytest.raises(CheckpointError, match=f"role '{saved}', expected '{expected}'"):
        load_params(path, role=expected)
    for role in (None, saved):
        assert np.array_equal(load_params(path, role=role)[0].flat, params.flat)
    save_params(params, path)  # a header naming no role passes every check
    assert np.array_equal(load_params(path, role=expected)[0].flat, params.flat)


SURROGATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "field_surrogate.ckpt")


def test_pinned_surrogate_saves_back_to_its_own_bytes(tmp_path):
    params, header = load_params(SURROGATE)
    again = tmp_path / "again.ckpt"
    save_params(params, again, role=header["role"], seed=header["seed"])
    with open(SURROGATE, "rb") as fh:
        assert again.read_bytes() == fh.read()


@pytest.mark.parametrize("halfspan", [
    lambda h: [-h[0]] + h[1:],  # a negated span mirrors its input axis
    lambda h: h[:1],  # one entry for seven inputs
    lambda h: ["abc"] + h[1:],
])
def test_checkpoint_rejects_a_bad_input_normalization(tmp_path, halfspan):
    path = tmp_path / "bad.ckpt"
    with open(SURROGATE, "rb") as fh:
        data = fh.read()
    path.write_bytes(_with_header(data, lambda header: header["norm"].update(
        halfspan=halfspan(header["norm"]["halfspan"]))))
    with pytest.raises(CheckpointError, match="invalid spec"):
        load_params(path)


@pytest.mark.parametrize("count", ["abc", 3.7, True])
def test_checkpoint_rejects_a_param_count_that_is_not_an_integer(tmp_path, count):
    """Before, "abc" escaped as a bare ValueError, 3.7 was truncated to 3
    and true read as 1."""
    path = tmp_path / "bad.ckpt"
    with open(SURROGATE, "rb") as fh:
        data = fh.read()
    path.write_bytes(_with_header(data, lambda header: header.update(param_count=count)))
    with pytest.raises(CheckpointError, match="param_count must be an integer"):
        load_params(path)
