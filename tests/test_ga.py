import os

import numpy as np
import pytest

from mixopt import rl
from mixopt.diffnet import load_params
from mixopt.errors import DomainError
from mixopt.ga import (
    GAConfig,
    _sample_counts,
    compare_timing,
    run_ga,
)
from mixopt.metrics import DESIGN_HI, DESIGN_LO, baseline_table, compute_mixing_report
from mixopt.rl import PinnEnv, PPOConfig, QuadraticEnv, init_actor

from fitting import linear_r2


SURROGATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "field_surrogate.ckpt")


class RecordingEnv:
    """Wraps an environment and keeps every design it was asked to score,
    and every score it gave."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []
        self.rewards = []

    def evaluate(self, design, sc):
        self.seen.append(design)
        self.rewards.append(self.inner.evaluate(design, sc))
        return self.rewards[-1]


class DirectEnv:
    """PinnEnv without its memo: every call runs the scorer."""

    def __init__(self, params, baseline):
        self.params = params
        self.baseline = baseline

    def evaluate(self, design, sc):
        try:
            return compute_mixing_report(self.params, design, sc, baseline=self.baseline).me
        except DomainError:
            return float("nan")


def small_cfg(**kw):
    base = dict(population=8, generations=5, seed=0)
    base.update(kw)
    return GAConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        GAConfig(population=1)
    with pytest.raises(DomainError):
        GAConfig(crossover_rate=1.5)
    with pytest.raises(DomainError):
        GAConfig(mutation_rate=-0.1)
    with pytest.raises(DomainError):
        GAConfig(elitism=33, population=32)
    with pytest.raises(DomainError):
        GAConfig(tournament=0)
    for name in ("mutation_scale", "blend_alpha"):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError, match=name):
                GAConfig(**{name: value})
    GAConfig(elitism=32, population=32)  # degenerate all-elite config is legal


def test_same_seed_same_result():
    env = QuadraticEnv()
    r1 = run_ga(env, 20.0, small_cfg(seed=5))
    r2 = run_ga(env, 20.0, small_cfg(seed=5))
    assert r1.best == r2.best
    assert r1.best_fitness == r2.best_fitness
    assert r1.evaluations == r2.evaluations
    assert r1.best_per_generation == r2.best_per_generation


def test_every_candidate_within_bounds():
    env = RecordingEnv(QuadraticEnv())
    run_ga(env, 50.0, small_cfg(generations=10, mutation_rate=0.8, mutation_scale=0.5))
    assert len(env.seen) > 8
    for d in env.seen:
        g = d.as_array()
        assert np.all(g >= DESIGN_LO) and np.all(g <= DESIGN_HI)


def test_best_fitness_monotone_under_elitism():
    res = run_ga(QuadraticEnv(), 70.0, small_cfg(generations=20))
    h = np.array(res.best_per_generation)
    assert len(h) == 21
    assert np.all(np.diff(h) >= 0)


def test_quadratic_convergence():
    res = run_ga(QuadraticEnv(), 33.0, GAConfig(seed=0))
    assert res.best_fitness >= 1.0 - 1e-3
    assert res.evaluations == 32 + 60 * 30


def test_all_elite_population_is_fixed_point():
    env = RecordingEnv(QuadraticEnv())
    cfg = small_cfg(population=6, elitism=6, crossover_rate=0.0, mutation_rate=0.0,
                    generations=4)
    res = run_ga(env, 10.0, cfg)
    # only the initial population is ever evaluated
    assert res.evaluations == 6
    assert len(env.seen) == 6
    assert res.best_per_generation == [res.best_fitness] * 5


class HalfBrokenEnv:
    """nan fitness whenever cp1 is positive."""

    def __init__(self):
        self.inner = QuadraticEnv()

    def evaluate(self, design, sc):
        if design.cp1 > 0:
            return float("nan")
        return self.inner.evaluate(design, sc)


def test_non_finite_fitness_demoted_not_fatal():
    res = run_ga(HalfBrokenEnv(), 90.0, small_cfg(generations=10))
    assert np.isfinite(res.best_fitness)
    assert res.best.cp1 <= 0


@pytest.mark.parametrize("sc", [np.nan, -5.0, 0.0, np.inf])
def test_run_ga_rejects_bad_schmidt_number_before_scoring(sc):
    # before, Sc nan returned best_fitness -inf and the others finite fitness
    env = RecordingEnv(QuadraticEnv())
    with pytest.raises(DomainError, match="Schmidt number"):
        run_ga(env, sc, small_cfg())
    assert env.seen == []


def test_linear_r2_exact_line():
    xs = np.arange(10.0)
    assert linear_r2(xs, 3.0 * xs + 1.0) == pytest.approx(1.0, abs=1e-12)


def test_linear_r2_penalizes_curvature():
    xs = np.arange(10.0)
    assert linear_r2(xs, xs ** 3) < 0.95


def test_linear_r2_constant_and_short():
    assert linear_r2([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 1.0
    with pytest.raises(DomainError):
        linear_r2([1.0], [2.0])


def test_sample_counts_double_then_cap():
    assert _sample_counts(8) == [1, 2, 4, 8]
    assert _sample_counts(6) == [1, 2, 4, 6]
    assert _sample_counts(1) == [1]


def test_compare_timing_structure():
    env = QuadraticEnv()
    actor = init_actor(PPOConfig(actor_hidden=(8,)), seed=0)
    cfg = small_cfg(population=6, generations=3)
    table = compare_timing(env, [10.0, 30.0, 60.0, 90.0], cfg, actor, repeats=1)
    assert table.m == [1, 2, 4]
    assert len(table.ga_seconds) == len(table.rl_seconds) == len(table.ga_fitness_mean) == 3
    # cumulative GA cost strictly grows with the sample count
    assert table.ga_seconds[0] < table.ga_seconds[1] < table.ga_seconds[2]
    assert all(t > 0 for t in table.rl_seconds)


def test_compare_timing_times_its_reruns_in_rounds_and_keeps_the_best():
    sc_values = [10.0, 30.0, 60.0]
    cfg = small_cfg(population=6, generations=3)
    calls = []

    class ScEnv(QuadraticEnv):
        def evaluate(self, design, sc):
            calls.append(sc)
            return super().evaluate(design, sc)

    table = compare_timing(ScEnv(), sc_values, cfg, init_actor(PPOConfig(actor_hidden=(8,)), seed=0),
                           repeats=2)
    per_run = 6 + 3 * (6 - cfg.elitism)
    assert calls[::per_run] == sc_values * 2
    best = max(run_ga(QuadraticEnv(), 10.0, small_cfg(population=6, generations=3, seed=r)).best_fitness
               for r in range(2))
    assert table.ga_fitness_mean[0] == best


def test_compare_timing_rejects_empty():
    with pytest.raises(DomainError):
        compare_timing(QuadraticEnv(), [], small_cfg(), init_actor(PPOConfig(), seed=0))
    with pytest.raises(DomainError, match="repeats"):
        compare_timing(QuadraticEnv(), [10.0], small_cfg(), init_actor(PPOConfig(), seed=0),
                       repeats=0)


def test_memoized_scores_give_the_direct_scorers_ga_run_bit_for_bit(monkeypatch):
    # on the pinned surrogate, PinnEnv's memo answers every repeated
    # (design, sc) of a default run; nothing the GA returns may move
    params, _ = load_params(SURROGATE)
    table = baseline_table(params)
    calls = []

    def counting(params, design, sc, baseline=None):
        calls.append((design, sc))
        return compute_mixing_report(params, design, sc, baseline=baseline)

    monkeypatch.setattr(rl, "compute_mixing_report", counting)
    sc, cfg = 37.0, GAConfig(seed=4)
    memo, direct = RecordingEnv(PinnEnv(params, table)), RecordingEnv(DirectEnv(params, table))
    got, want = run_ga(memo, sc, cfg), run_ga(direct, sc, cfg)
    assert np.array(memo.rewards).tobytes() == np.array(direct.rewards).tobytes()
    assert got.best == want.best
    assert np.float64(got.best_fitness).tobytes() == np.float64(want.best_fitness).tobytes()
    assert np.array(got.best_per_generation).tobytes() == np.array(want.best_per_generation).tobytes()
    # one network scoring per distinct design, fewer than the evaluations reported
    assert got.evaluations == len(memo.seen) == 32 + 60 * 30
    assert len(calls) == len(set(calls)) == len(set(memo.seen)) < got.evaluations
    # a fresh score of the reported best carries its bits
    rescored = compute_mixing_report(params, got.best, sc, baseline=table).me
    assert np.float64(rescored).tobytes() == np.float64(got.best_fitness).tobytes()
