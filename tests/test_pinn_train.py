import csv
import re
import tracemalloc

import numpy as np
import pytest

from mixopt import cli, pinn_train
from mixopt.diffnet import InputNorm, NetworkSpec, adam_step, init_adam, init_params, param_gradient
from mixopt.diffnet.tape import leaf
from mixopt.errors import CheckpointError, DomainError
from mixopt.geometry import ChannelDims
from mixopt.physics import loss_node
from mixopt.pinn_train import (
    TrainConfig,
    evaluate_fields,
    load_checkpoint,
    save_checkpoint,
    train,
)
from mixopt.sampling import CollocationCounts, CollocationSet, SampleBounds, generate_collocation
from tape_oracle import tape_loss, tape_report


def tiny_config(**kwargs):
    base = dict(
        steps=40,
        batch_size=32,
        learning_rate=1e-3,
        seed=7,
        hidden=(8, 8),
        counts=CollocationCounts(interior=120, per_boundary=8, per_slice=8),
        log_interval=5,
    )
    base.update(kwargs)
    return TrainConfig(**base)


def test_zero_steps_returns_init():
    cfg = tiny_config(steps=0)
    params, history = train(cfg)
    assert history.initial.total == history.final.total
    assert history.reports == []
    assert np.all(np.isfinite(params.flat))


def test_each_step_calls_the_traced_names_once(monkeypatch):
    # the traced benchmark wraps these module names and divides their span
    # totals by the step count
    calls = {}
    for name in ("loss_node", "param_gradient", "adam_step"):
        original = getattr(pinn_train, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pinn_train, name, counting)
    _, history = train(tiny_config(steps=3))
    assert history.aborted_at is None and history.final.step == 3
    assert calls == {"loss_node": 3, "param_gradient": 3, "adam_step": 3}


def test_training_reduces_minibatch_loss():
    params, history = train(tiny_config(steps=150))
    assert history.final.total < history.initial.total
    assert history.aborted_at is None


def test_training_deterministic():
    p1, h1 = train(tiny_config())
    p2, h2 = train(tiny_config())
    assert np.array_equal(p1.flat, p2.flat)
    assert h1.final.total == h2.final.total
    assert [r.total for r in h1.reports] == [r.total for r in h2.reports]


def test_training_seed_changes_outcome():
    p1, _ = train(tiny_config())
    p2, _ = train(tiny_config(seed=8))
    assert not np.array_equal(p1.flat, p2.flat)


def test_abort_on_non_finite_loss_returns_finite_params():
    from mixopt.geometry import ChannelDims
    from mixopt.sampling import BoundaryGroup, CollocationSet, generate_collocation

    cfg = tiny_config(steps=30)
    colloc = generate_collocation(ChannelDims(), cfg.bounds, cfg.counts, seed=0)
    top = colloc.boundary["inlet_top"]
    # a NaN x makes both the row's fields and its inflow profile NaN
    poisoned_X = top.X.copy()
    poisoned_X[0, 0] = np.nan
    boundary = dict(colloc.boundary)
    boundary["inlet_top"] = BoundaryGroup(kind="inlet_top", X=poisoned_X, normals=top.normals)
    poisoned = CollocationSet(interior=colloc.interior, boundary=boundary, slices=colloc.slices)
    params, history = train(cfg, colloc=poisoned)
    assert history.aborted_at == 1
    assert np.all(np.isfinite(params.flat))
    assert history.reports == []


def test_non_finite_network_output_aborts_without_raising():
    """A NaN input row gives NaN outputs; the loss must come out NaN, not raise."""
    from mixopt.sampling import CollocationSet, generate_collocation

    cfg = tiny_config(steps=5)
    colloc = generate_collocation(ChannelDims(), cfg.bounds, cfg.counts, seed=0)
    interior = colloc.interior.copy()
    interior[0, 0] = np.nan
    poisoned = CollocationSet(interior=interior, boundary=colloc.boundary, slices=colloc.slices)
    params, history = train(cfg, colloc=poisoned)
    assert history.aborted_at is not None
    assert np.all(np.isfinite(params.flat))
    assert np.isnan(history.initial.total)


def test_config_validation():
    with pytest.raises(DomainError):
        tiny_config(steps=-1)
    with pytest.raises(DomainError):
        tiny_config(learning_rate=0.0)
    for value in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match="learning_rate"):
            tiny_config(learning_rate=value)


def test_periodic_checkpoints_need_a_directory():
    for directory in (None, ""):
        with pytest.raises(DomainError, match="checkpoint_dir"):
            tiny_config(checkpoint_interval=4, checkpoint_dir=directory)
    tiny_config(checkpoint_interval=0)  # no periodic checkpoint, no directory needed


def test_slice_stations_are_kept_as_floats():
    assert tiny_config(slice_stations=[3, np.float64(1.5), 7.0]).slice_stations == (3.0, 1.5, 7.0)
    assert tiny_config(slice_stations=np.array([2.0])).slice_stations == (2.0,)
    # the far end is the outlet station the defaults use
    top = ChannelDims().L / ChannelDims().H
    assert tiny_config(slice_stations=(0.0, top)).slice_stations == (0.0, top)
    for bad in (["a"], [[1.0]], 5, "3", [True], [np.nan], [np.inf], [-1e-9], [top + 1e-9]):
        with pytest.raises(DomainError, match="slice_stations"):
            tiny_config(slice_stations=bad)


def test_empty_slice_stations_train_without_slices():
    cfg = tiny_config(steps=0, slice_stations=[])
    assert cfg.slice_stations == ()
    colloc = generate_collocation(ChannelDims(), cfg.bounds, cfg.counts, seed=0, slice_stations=cfg.slice_stations)
    assert colloc.slices == ()
    _, history = train(cfg)
    assert np.isfinite(history.final.total)


def test_checkpoint_dir_must_be_a_string():
    for bad in (5, b"dir", ["dir"]):
        with pytest.raises(DomainError, match="checkpoint_dir"):
            tiny_config(checkpoint_dir=bad)


def test_checkpoint_wrappers_round_trip(tmp_path):
    params, _ = train(tiny_config(steps=5))
    path = tmp_path / "field.ckpt"
    save_checkpoint(params, path, seed=7)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.flat, params.flat)
    assert loaded.spec == params.spec
    with pytest.raises(CheckpointError):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"nope")
        load_checkpoint(bad)


def test_save_checkpoint_makes_no_directory(tmp_path):
    params, _ = train(tiny_config(steps=0))
    with pytest.raises(FileNotFoundError):
        save_checkpoint(params, tmp_path / "missing" / "field.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_periodic_checkpoints_written(tmp_path):
    cfg = tiny_config(steps=10, checkpoint_interval=4, checkpoint_dir=str(tmp_path))
    train(cfg)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "final.ckpt" in names
    assert "step_0000004.ckpt" in names and "step_0000008.ckpt" in names


def test_evaluate_fields_masks_baffle_solid():
    params, _ = train(tiny_config(steps=2))
    table = evaluate_fields(params, (0.5, 0.5, 0.5), re=10.0, sc=10.0, grid=(71, 21))
    assert table.u.shape == (21, 71)
    assert table.mask.any() and not table.mask.all()
    # the upper baffle region (x* in [3, 3.5], y* near 1) is solid
    ix = np.searchsorted(table.x, 3.25)
    iy = np.searchsorted(table.y, 0.95)
    assert not table.mask[iy, ix]
    assert table.mask[2, 2]
    assert np.all(np.isfinite(table.u))
    assert np.allclose(table.speed, np.hypot(table.u, table.v))


def test_evaluate_fields_validation():
    params, _ = train(tiny_config(steps=1))
    with pytest.raises(DomainError):
        evaluate_fields(params, (0.0, 0.0, 0.0), re=-1.0, sc=10.0)
    with pytest.raises(DomainError):
        evaluate_fields(params, (0.9, 0.0, 0.0), re=10.0, sc=10.0)
    for bad_re, bad_sc, message in ((np.inf, 10.0, "re must lie within (0, inf), got inf"),
                                    (np.nan, 10.0, "re must lie within (0, inf), got nan"),
                                    (10.0, np.inf, "sc must lie within (0, inf), got inf"),
                                    (10.0, np.nan, "sc must lie within (0, inf), got nan")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            evaluate_fields(params, (0.0, 0.0, 0.0), re=bad_re, sc=bad_sc)


def test_field_table_csv_round_trip(tmp_path):
    params, _ = train(tiny_config(steps=1))
    table = evaluate_fields(params, (0.1, -0.2, 0.3), re=12.0, sc=30.0, grid=(9, 5))
    path = tmp_path / "fields.csv"
    cli._write_fields(path, table)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 * 5
    probe = rows[13]
    ix = 13 % 9
    iy = 13 // 9
    assert abs(float(probe["u"]) - table.u[iy, ix]) < 1e-8
    assert probe["inside"] in ("0", "1")


def graph_keeping_train(cfg, colloc):
    """The training loop on the tape oracle: the full-set loss is the oracle's
    report, each step's gradient is the oracle graph's reverse sweep, and
    each step's graph stays referenced until the next step has built its own."""
    root = np.random.SeedSequence(cfg.seed)
    _, ss_init, ss_batch = root.spawn(3)
    spec = NetworkSpec(input_dim=7, output_dim=9, hidden=cfg.hidden)
    params = init_params(spec, norm=InputNorm.from_bounds(cfg.bounds.pairs()), seed=ss_init)
    state = init_adam(params.flat.size, lr=cfg.learning_rate)
    initial = tape_report(colloc, params, cfg.weights)
    rng = np.random.default_rng(ss_batch)
    n = len(colloc.interior)
    batch = cfg.batch_size if 0 < cfg.batch_size < n else n
    perm = rng.permutation(n)
    cursor = 0
    reports = []
    for step in range(1, cfg.steps + 1):
        if cursor + batch > n:
            perm = rng.permutation(n)
            cursor = 0
        idx = perm[cursor:cursor + batch]
        cursor += batch
        sub = CollocationSet(interior=colloc.interior[idx], boundary=colloc.boundary,
                             slices=colloc.slices)
        param_leaf = leaf(params.flat)
        node, report = tape_loss(sub, param_leaf, params, cfg.weights)
        params, state = adam_step(params, param_gradient(node, param_leaf), state)
        if step % cfg.log_interval == 0 or step == cfg.steps:
            reports.append(report)
    final = tape_report(colloc, params, cfg.weights)
    return params, [initial, *reports, final]


def test_seeded_training_reproduces_the_graph_keeping_loop_bit_for_bit():
    cfg = TrainConfig(steps=30, seed=5, log_interval=1)
    colloc = generate_collocation(ChannelDims(), cfg.bounds, cfg.counts, seed=9)
    params, history = train(cfg, colloc)
    ref_params, ref_reports = graph_keeping_train(cfg, colloc)
    assert params.flat.tobytes() == ref_params.flat.tobytes()
    got = [history.initial, *history.reports, history.final]
    assert len(got) == len(ref_reports) == 32
    for r, ref in zip(got, ref_reports):
        assert r.total == ref.total and r.families == ref.families


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_holds_one_step_graph_at_a_time():
    """A loss-plus-gradient step peaks below a third of the tape oracle's
    step on the same minibatch, since one row block's reverse cache is alive
    at a time, and six training steps peak near one step."""
    cfg = TrainConfig(steps=6, seed=4)
    colloc = generate_collocation(ChannelDims(), cfg.bounds, cfg.counts, seed=10)
    sub = CollocationSet(interior=colloc.interior[:cfg.batch_size], boundary=colloc.boundary,
                         slices=colloc.slices)
    params = init_params(NetworkSpec(), norm=InputNorm.from_bounds(cfg.bounds.pairs()), seed=4)

    def one_step(loss):
        param_leaf = leaf(params.flat)
        node, _ = loss(sub, param_leaf, params, cfg.weights)
        param_gradient(node, param_leaf)

    step_peak = traced_peak(lambda: one_step(loss_node))
    oracle_peak = traced_peak(lambda: one_step(tape_loss))
    assert step_peak < oracle_peak / 3, (step_peak, oracle_peak)
    train_peak = traced_peak(lambda: train(cfg, colloc))
    assert train_peak <= 1.3 * step_peak, (train_peak, step_peak)
