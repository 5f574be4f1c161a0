"""Fast self-tests of the benchmark harness: spans nest and time correctly,
and every output check trips on a corrupted output.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pipeline  # noqa: E402
from mixopt.diffnet import InputNorm, NetworkSpec, init_params, load_params, save_params  # noqa: E402
from mixopt.ga import GAConfig, run_ga  # noqa: E402
from mixopt.geometry import ChannelDims  # noqa: E402
from mixopt.metrics import RE_MAX, RE_MIN, DesignCandidate  # noqa: E402
from mixopt.physics import LossReport  # noqa: E402
from mixopt.pinn_train import TrainHistory  # noqa: E402
from mixopt.rl import PPOConfig, QuadraticEnv, init_actor  # noqa: E402
from mixopt.sampling import CollocationCounts, SampleBounds, generate_collocation  # noqa: E402
from gauge import NOMINAL, NOMINAL_CALL, Gauge, Window, probing, rescale_block  # noqa: E402
from pipeline import CheckFailed  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def ticking_clock():
    """A clock that advances by one unit per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


# ------------------------------------------------------------------ spans


def test_spans_nest_and_self_time_excludes_children():
    tr = Tracer(clock=ticking_clock())
    with tr.span("root"):              # start 0
        with tr.span("a"):             # start 1
            with tr.span("a1"):        # 2..3
                pass
        with tr.span("b", rows=7):     # (a ends 4) b 5..6
            pass
    # root ends 7
    names = [s.name for s in tr.spans]
    assert names == ["root", "a", "a1", "b"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert [s.duration for s in tr.spans] == [7.0, 3.0, 1.0, 1.0]
    assert tr.self_times() == [3.0, 2.0, 1.0, 1.0]
    assert tr.spans[3].attrs == {"rows": 7}
    assert tr.named("a1", parent="a") == [2]
    assert tr.named("b", parent="a") == []
    assert tr.child_index() == {0: [1, 3], 1: [2]}


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=ticking_clock())
    with pytest.raises(ValueError):
        with tr.span("outer"):
            raise ValueError
    with tr.span("next"):
        pass
    assert tr.spans[0].end == 1.0
    assert tr.spans[1].parent is None


def test_instrument_wraps_module_names_and_restores_them():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tr = Tracer()
    patches = [(mod, "outer", "outer", None),
               (mod, "inner", "inner", lambda x: {"x": x})]
    with instrument(tr, patches):
        assert mod.outer(3) == 8
    assert mod.inner is original
    assert [s.name for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1].parent == 0
    assert tr.spans[1].attrs == {"x": 3}


def test_trace_patches_name_existing_attributes():
    for module, attr, _, _ in pipeline.trace_patches():
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


# ------------------------------------------------------------------ gauge


class FixedGauge:
    def __init__(self, seconds):
        self.seconds = iter(seconds)

    def time(self, kind):
        return next(self.seconds)


def test_window_rescales_by_nominal_over_mean_sample():
    w = Window(FixedGauge([0.001, 0.003]), "score")
    w.probe()
    w.probe()
    assert w.spent == pytest.approx(0.004)
    assert w.factor() == pytest.approx(NOMINAL["score"] / 0.002)
    rec = pipeline.Recorder(traced=False)
    rec.add_interval("x", 1.004, w)
    assert rec.times["x.raw"] == [pytest.approx(1.0)]
    assert rec.times["x"] == [pytest.approx(NOMINAL["score"] / 0.002)]


def test_window_without_gauge_keeps_raw_time():
    w = Window(None, "train")
    w.probe()
    assert (w.spent, w.factor()) == (0, 1.0)


def test_probing_samples_every_nth_call_and_restores():
    mod = types.SimpleNamespace(step=lambda x: x * 2)
    original = mod.step
    w = Window(FixedGauge([0.5] * 10), "train")
    with probing(mod, "step", 3, w):
        assert [mod.step(i) for i in range(7)] == [0, 2, 4, 6, 8, 10, 12]
    assert mod.step is original
    assert w.samples == [0.5, 0.5]


def test_gauge_kernels_run():
    g = Gauge()
    assert all(g.time(kind) > 0 for kind in NOMINAL)
    g.call()


def test_block_rescaled_by_the_same_statistic_of_the_reference_calls():
    lat = np.arange(1.0, 1001.0)
    at_nominal = np.where(lat >= 990, NOMINAL_CALL["p99"], NOMINAL_CALL["p50"])
    out = rescale_block(lat, at_nominal)
    for name, q in (("p50", 0.5), ("p99", 0.99)):
        raw, scaled = out[name]
        assert raw == np.quantile(lat, q)
        assert scaled == pytest.approx(raw)
        assert rescale_block(lat, 2.0 * at_nominal)[name][1] == pytest.approx(raw / 2.0)


# ------------------------------------------------------------------ checks


def _history(initial, final, aborted_at=None, step=5):
    return TrainHistory(initial=LossReport(total=initial, families={}), reports=[],
                        final=LossReport(total=final, families={}, step=step),
                        aborted_at=aborted_at)


def test_training_check_trips():
    pipeline.check_training(_history(3.0, 1.0), steps=5)
    for bad in (_history(3.0, 1.0, aborted_at=2), _history(3.0, 3.5),
                _history(3.0, float("nan")), _history(3.0, 1.0, step=4)):
        with pytest.raises(CheckFailed):
            pipeline.check_training(bad, steps=5)


@pytest.fixture(scope="module")
def tiny_field():
    colloc = generate_collocation(ChannelDims(), SampleBounds(),
                                  CollocationCounts(interior=48, per_boundary=3, per_slice=4),
                                  seed=1, slice_stations=[2.0])
    spec = NetworkSpec(input_dim=7, output_dim=9, hidden=(8, 8))
    params = init_params(spec, norm=InputNorm.from_bounds(SampleBounds().pairs()), seed=2)
    return colloc, params


def test_gradient_check_passes_and_trips_on_a_corrupted_gradient(tiny_field):
    colloc, params = tiny_field
    err = pipeline.check_gradient(colloc, params, seed=3)
    assert err < 1e-6
    scaled = lambda node, p: 1.001 * pipeline.param_gradient(node, p)  # noqa: E731
    with pytest.raises(CheckFailed):
        pipeline.check_gradient(colloc, params, seed=3, grad_fn=scaled)


def test_ga_check_trips():
    env, cfg, sc = QuadraticEnv(), GAConfig(population=6, generations=3, seed=4), 40.0
    result = run_ga(env, sc, cfg)
    pipeline.check_ga(result, cfg, env, sc)
    worse = list(result.best_per_generation)
    worse[-1] = worse[0] - 1.0
    for bad in (dataclasses.replace(result, evaluations=result.evaluations - 1),
                dataclasses.replace(result, best_per_generation=worse),
                dataclasses.replace(result, best_fitness=result.best_fitness + 1e-9)):
        with pytest.raises(CheckFailed):
            pipeline.check_ga(bad, cfg, env, sc)


def test_synthetic_check_trips_when_ppo_does_not_learn():
    learnt = np.linspace(0.0, 0.95, pipeline.SYNTH_EPISODES)
    assert pipeline.check_synthetic(learnt) == pytest.approx(learnt[-pipeline.PPO_TAIL:].mean())
    skipped = learnt.copy()
    skipped[3] = np.nan
    for bad in (learnt[::-1], 0.5 * learnt, skipped):
        with pytest.raises(CheckFailed):
            pipeline.check_synthetic(bad)


def test_round_trip_check_trips(tmp_path):
    actor = init_actor(PPOConfig(), seed=5)
    path = tmp_path / "actor.ckpt"
    save_params(actor, path, role="actor")
    loaded, header = load_params(path)
    pipeline.check_round_trip(actor, loaded, header)
    flat = loaded.flat.copy()
    flat[7] = np.nextafter(flat[7], np.inf)
    with pytest.raises(CheckFailed):
        pipeline.check_round_trip(actor, loaded.with_flat(flat), header)
    with pytest.raises(CheckFailed):
        pipeline.check_round_trip(actor, loaded, {**header, "role": "field"})


def test_query_check_trips_on_unrepeatable_designs(monkeypatch):
    actor = init_actor(PPOConfig(), seed=6)
    pipeline.check_queries(actor, [2.0, 50.0, 99.0])
    calls = itertools.count()
    monkeypatch.setattr(pipeline, "query_policy",
                        lambda a, sc: DesignCandidate(0.0, 0.0, 0.0, 5.0 + next(calls) % 7))
    with pytest.raises(CheckFailed):
        pipeline.check_queries(actor, [2.0, 50.0, 99.0])


def test_set_up_rejects_a_surrogate_that_does_not_match_its_hash(tmp_path, monkeypatch):
    copy = tmp_path / "field.ckpt"
    shutil.copy(pipeline.SURROGATE, copy)
    shutil.copy(pipeline.SURROGATE + ".sha256", str(copy) + ".sha256")
    data = bytearray(copy.read_bytes())
    data[-1] ^= 1
    copy.write_bytes(bytes(data))
    monkeypatch.setattr(pipeline, "SURROGATE", str(copy))
    with pytest.raises(CheckFailed, match="sha256"):
        pipeline.set_up(0, pipeline.Recorder(traced=False))


def test_pinned_surrogate_matches_its_hash():
    assert pipeline.sha256_of(pipeline.SURROGATE) == pipeline.pinned_digest()


# ------------------------------------------------------------------ failure accounting


class HoleyEnv(QuadraticEnv):
    """Non-finite on the lower half of the Re range, like a degenerate flow."""

    def evaluate(self, design, sc):
        if design.re < 0.5 * (RE_MIN + RE_MAX):
            return float("nan")
        return super().evaluate(design, sc)


def test_counts_come_from_core_repetitions_only(monkeypatch):
    small = functools.partial(GAConfig, population=8, generations=4)
    monkeypatch.setattr(pipeline, "GAConfig", small)
    monkeypatch.setattr(pipeline, "PinnEnv", lambda field, baseline: HoleyEnv())
    stage = pipeline.GAStage(types.SimpleNamespace(field=None, baseline=None), seed=1)
    rec = pipeline.Recorder(traced=False)
    stage.rep(0, rec, False, core=True)
    cfg = small()
    assert rec.attempted == cfg.population + cfg.generations * (cfg.population - cfg.elitism)
    assert 0 < rec.failed == stage.nonfinite < rec.attempted
    core = (rec.attempted, rec.failed)
    for r in (1, 2):
        stage.rep(r, rec, False, core=False)
    assert (rec.attempted, rec.failed) == core
    assert sum(rec.times["ga.evals"]) == 3 * core[0]


# ------------------------------------------------------------------ inputs and entry point


def test_derived_seeds_are_fixed_per_stream_and_repetition():
    assert pipeline.derived_seed(3, "ga", 1) == pipeline.derived_seed(3, "ga", 1)
    seeds = {pipeline.derived_seed(3, s, r) for s in ("train", "ga", "ppo") for r in range(3)}
    assert len(seeds) == 9
    assert pipeline.derived_seed(3, "ga") != pipeline.derived_seed(4, "ga")


def test_sweep_puts_one_schmidt_number_in_each_stratum():
    sc = pipeline.sweep(7, 2 * pipeline.GA_CORE)
    k = pipeline.GA_CORE
    width = (pipeline.SC_HI - pipeline.SC_LO) / k
    for block in sc.reshape(2, k):
        assert sorted(((block - pipeline.SC_LO) // width).astype(int)) == list(range(k))
    assert np.array_equal(sc, pipeline.sweep(7, 2 * k))


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    shutil.copy(os.path.join(HERE, "run.py"), bench / "run.py")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ga_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
