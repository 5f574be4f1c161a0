"""The benchmark's workloads: set-up, three stages, output checks and metrics.

Every run executes the whole pipeline a user runs, in one process with one
caller (a closed loop: each call starts when the previous one returned):

* ``train``: Adam steps of ``pinn_train.train`` on the default collocation
  set and the default 64x4 field net, batch 1024.
* ``ga``: ``ga.run_ga`` with the default ``GAConfig`` at the Schmidt numbers
  of a seeded sweep, scored on the pinned field surrogate.
* ``ppo``: ``rl.train_agent`` on the same surrogate for a fixed episode
  count and an actor checkpoint round trip, then ``rl.train_agent`` on the
  package's synthetic ``QuadraticEnv``, whose rewards are always finite, so
  the PPO update runs; blocks of single-Sc policy queries run between all
  repetitions.

The first repetitions of each stage, its *core*, are fixed work: the
quality metrics (final loss, best fitness, tail rewards) and the attempted
and failed counts come from the core alone, so they do not depend on how
fast the machine is. The workload named on the command line sets which
stage gets most of the measuring time, and so most of the samples.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from mixopt import geometry, metrics, physics, pinn_train, rl, sampling
from mixopt.diffnet import load_params, param_gradient, save_params
from mixopt.diffnet.tape import leaf
from mixopt.ga import GAConfig, run_ga
from mixopt.metrics import RE_MAX, RE_MIN, baseline_table
from mixopt.physics import loss_node, total_loss
from mixopt.pinn_train import TrainConfig, train
from mixopt.rl import (SC_HI, SC_LO, PinnEnv, PPOConfig, QuadraticEnv, query_policy,
                       train_agent)
from mixopt.sampling import CollocationSet, generate_collocation

from gauge import Gauge, Window, probing, rescale_block
from tracing import Tracer, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
SURROGATE = os.path.join(HERE, "data", "field_surrogate.ckpt")

WORKLOADS = {"field_train": "train", "ga_sweep": "ga", "ppo_policy": "ppo"}

SETUP_REPS = 11
TRAIN_STEPS = 160         # Adam steps per pinn_train.train call
TRAIN_CORE = 2            # train calls in every run
GA_CORE = 2               # GA runs in every run
PPO_EPISODES = 24         # episodes per rl.train_agent call
PPO_CORE = 2              # train_agent calls in every run
PPO_TAIL = 8              # last episodes whose scored rows give ppo.tail_reward
SYNTH_EPISODES = 64       # episodes per rl.train_agent call on QuadraticEnv
SYNTH_FLOOR = 0.75        # least mean reward of the last PPO_TAIL synthetic episodes
QUERY_BLOCK = 1000        # policy queries per block; ten lie beyond the p99
QUERY_BLOCKS = 4          # query blocks after each repetition of any stage
PRIMARY_SHARE = 0.5       # share of the run the workload's own stage gets
FD_ROWS = 256             # interior rows in the gradient-check minibatch
GAUGE_STEPS = 8           # training steps per gauge sample
GAUGE_SCORES = 32         # design scores per gauge sample

_STREAMS = ("collocation", "train", "sweep", "ga", "ppo", "queries", "fd", "synthetic")


def derived_seed(seed: int, stream: str, rep: int = 0) -> int:
    """A 32-bit seed for one input stream, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, _STREAMS.index(stream), rep]).generate_state(1)[0])


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class CountingEnv:
    """The surrogate environment as the optimizers see it: keeps every score
    and takes a gauge sample after every ``GAUGE_SCORES`` of them."""

    def __init__(self, env, window: Window):
        self.env = env
        self.window = window
        self.rewards: list[float] = []

    @property
    def scores(self) -> int:
        return len(self.rewards)

    @property
    def nonfinite(self) -> int:
        return sum(1 for r in self.rewards if not math.isfinite(r))

    def evaluate(self, design, sc: float) -> float:
        r = self.env.evaluate(design, sc)
        self.rewards.append(r)
        if len(self.rewards) % GAUGE_SCORES == 0:
            self.window.probe()
        return r


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pinned_digest() -> str:
    with open(SURROGATE + ".sha256") as fh:
        return fh.read().split()[0]


def _apply_rows(param_leaf, template, X, *args, **kwargs) -> dict:
    return {"rows": len(X)}


def _forward_rows(params, X) -> dict:
    return {"rows": len(X)}


def trace_patches():
    """Where the traced run takes its spans: the names the package's own
    callers resolve at call time."""
    return [
        (geometry, "build_spline", "geometry.build_spline", None),
        (sampling, "build_spline", "geometry.build_spline", None),
        (pinn_train, "total_loss", "physics.total_loss", None),
        (pinn_train, "loss_node", "physics.loss_node", None),
        (physics, "net_apply", "diffnet.net_apply", _apply_rows),
        (pinn_train, "param_gradient", "diffnet.param_gradient", None),
        (pinn_train, "adam_step", "diffnet.adam_step", None),
        (metrics, "forward", "diffnet.forward", _forward_rows),
        (rl, "compute_mixing_report", "metrics.score", None),
        (rl, "rollout", "rl.rollout", None),
        (rl, "gradient", "diffnet.gradient", None),
        (rl, "forward", "diffnet.forward", _forward_rows),
    ]


class Recorder:
    """Timings and counts of one run; spans when traced, gauge samples when not."""

    def __init__(self, traced: bool):
        self.tracer = Tracer() if traced else None
        self.gauge = None if traced else Gauge()
        self.times: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.traced_reps: dict[str, list] = {}

    def add(self, name: str, value: float) -> None:
        self.times.setdefault(name, []).append(value)

    def count(self, attempted: int, failed: int) -> None:
        """Operations of a core repetition: the top-level counts are fixed
        work, the same however many repetitions fit into the run."""
        self.attempted += attempted
        self.failed += failed

    def window(self, kind: str) -> Window:
        return Window(self.gauge, kind)

    def add_interval(self, name: str, raw: float, window: Window) -> None:
        """Record an interval whose gauge samples were taken inside it:
        the samples' own time comes off, then the rescaling applies."""
        seconds = raw - window.spent
        self.add(name + ".raw", seconds)
        self.add(name, seconds * window.factor())

    def span(self, name: str, active: bool, **attrs):
        if active and self.tracer is not None:
            return self.tracer.span(name, **attrs)
        return nullcontext()

    def instrumented(self, active: bool):
        if active and self.tracer is not None:
            return instrument(self.tracer, trace_patches())
        return nullcontext()


@dataclass
class Inputs:
    colloc: CollocationSet
    field: object
    baseline: object


def set_up(seed: int, rec: Recorder) -> Inputs:
    """Collocation set, verified surrogate and its flat-wall baseline table,
    built ``SETUP_REPS`` times; every build must give the same inputs."""
    built = None
    traced = rec.tracer is not None
    for _ in range(SETUP_REPS):
        window = rec.window("score")
        window.probe()
        t0 = time.perf_counter()
        with rec.instrumented(traced):
            with rec.span("sampling.generate_collocation", traced):
                colloc = generate_collocation(geometry.ChannelDims(), sampling.SampleBounds(),
                                              sampling.CollocationCounts(),
                                              seed=derived_seed(seed, "collocation"))
            check(sha256_of(SURROGATE) == pinned_digest(),
                  "field surrogate does not match its pinned sha256")
            with rec.span("diffnet.checkpoint_load", traced):
                field_params, header = load_params(SURROGATE)
            with rec.span("metrics.baseline_table", traced):
                table = baseline_table(field_params)
        dt = time.perf_counter() - t0
        window.probe()
        rec.add("setup.raw", dt)
        rec.add("setup", dt * window.factor())
        check(header.get("role") == "field", "pinned surrogate is not a field checkpoint")
        if built is None:
            built = Inputs(colloc, field_params, table)
        else:
            check(np.array_equal(colloc.interior, built.colloc.interior)
                  and np.array_equal(table.mi0, built.baseline.mi0)
                  and np.array_equal(table.cp0, built.baseline.cp0),
                  "set-up is not reproducible")
    return built


# ------------------------------------------------------------------ train


def check_gradient(colloc: CollocationSet, params, seed: int, rel_tol: float = 1e-6,
                   grad_fn=param_gradient) -> float:
    """Central finite difference of the loss along a random unit direction
    against the reverse-mode directional derivative; returns the relative error."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(colloc.interior), size=min(FD_ROWS, len(colloc.interior)), replace=False)
    sub = CollocationSet(interior=colloc.interior[idx], boundary=colloc.boundary,
                         slices=colloc.slices)
    p_leaf = leaf(params.flat)
    node, _ = loss_node(sub, p_leaf, params)
    direction = rng.normal(size=params.flat.size)
    direction /= np.linalg.norm(direction)
    exact = float(np.dot(grad_fn(node, p_leaf), direction))
    h = 1e-5
    plus = total_loss(sub, params.with_flat(params.flat + h * direction)).total
    minus = total_loss(sub, params.with_flat(params.flat - h * direction)).total
    approx = (plus - minus) / (2.0 * h)
    err = abs(approx - exact) / max(abs(exact), 1e-12)
    check(err <= rel_tol, f"param_gradient disagrees with finite differences (rel err {err:.3g})")
    return err


def check_training(history, steps: int) -> None:
    check(history.aborted_at is None, f"training aborted at step {history.aborted_at}")
    final, initial = history.final.total, history.initial.total
    check(math.isfinite(final), "final training loss is not finite")
    check(final < initial, f"final loss {final:.6g} is not below the initial {initial:.6g}")
    check(history.final.step == steps, "final loss report is not at the last step")


@dataclass
class TrainStage:
    inputs: Inputs
    seed: int
    final_losses: list = field(default_factory=list)
    last_params: object = None

    def rep(self, r: int, rec: Recorder, traced: bool, core: bool) -> None:
        cfg = TrainConfig(steps=TRAIN_STEPS, seed=derived_seed(self.seed, "train", r))
        window = rec.window("train")
        gauged = probing(pinn_train, "adam_step", GAUGE_STEPS, window) if rec.gauge else nullcontext()
        t0 = time.perf_counter()
        with gauged, rec.instrumented(traced), rec.span("pinn_train.train", traced, steps=cfg.steps):
            params, history = train(cfg, self.inputs.colloc)
        rec.add_interval("train.s", time.perf_counter() - t0, window)
        done = history.aborted_at if history.aborted_at is not None else cfg.steps
        rec.add("train.steps", done)
        check_training(history, cfg.steps)
        if core:
            rec.count(done, int(history.aborted_at is not None))
            self.final_losses.append(history.final.total)
        self.last_params = params


# ------------------------------------------------------------------ ga


def sweep(seed: int, n: int) -> np.ndarray:
    """Schmidt numbers, one per equal-width stratum of [SC_LO, SC_HI] per block
    of ``GA_CORE``, so every run covers the range the same way."""
    rng = np.random.default_rng(derived_seed(seed, "sweep"))
    k = GA_CORE
    out = []
    while len(out) < n:
        u = rng.random(k)
        out.extend(SC_LO + (np.arange(k) + u) / k * (SC_HI - SC_LO))
    return np.array(out[:n])


def check_ga(result, cfg: GAConfig, env, sc: float) -> None:
    expected = cfg.population + cfg.generations * (cfg.population - cfg.elitism)
    check(result.evaluations == expected,
          f"GA reports {result.evaluations} evaluations, expected {expected}")
    best = np.asarray(result.best_per_generation)
    check(len(best) == cfg.generations + 1 and np.all(np.diff(best) >= 0),
          "GA best-per-generation is not non-decreasing")
    check(math.isfinite(result.best_fitness), "GA best fitness is not finite")
    rescored = env.evaluate(result.best, sc)
    check(rescored == result.best_fitness,
          f"re-scoring the GA best gives {rescored!r}, reported {result.best_fitness!r}")


@dataclass
class GAStage:
    inputs: Inputs
    seed: int
    best: list = field(default_factory=list)
    nonfinite: int = 0

    def rep(self, r: int, rec: Recorder, traced: bool, core: bool) -> None:
        sc = float(sweep(self.seed, r + 1)[r])
        cfg = GAConfig(seed=derived_seed(self.seed, "ga", r))
        base = PinnEnv(self.inputs.field, self.inputs.baseline)
        window = rec.window("score")
        env = CountingEnv(base, window)
        t0 = time.perf_counter()
        with rec.instrumented(traced), rec.span("ga.run_ga", traced, sc=sc):
            result = run_ga(env, sc, cfg)
        rec.add_interval("ga.run_s", time.perf_counter() - t0, window)
        rec.add("ga.evals", result.evaluations)
        check(env.scores == result.evaluations, "GA scored a different number of designs "
              "than it reports")
        check_ga(result, cfg, base, sc)
        if core:
            rec.count(env.scores, env.nonfinite)
            self.best.append(result.best_fitness)
            self.nonfinite += env.nonfinite


# ------------------------------------------------------------------ ppo


def check_queries(actor, sc_values) -> None:
    designs = [query_policy(actor, float(sc)) for sc in sc_values]
    for d in designs:
        cps = np.array([d.cp1, d.cp2, d.cp3])
        check(bool(np.all((cps >= geometry.CP_MIN) & (cps <= geometry.CP_MAX)))
              and RE_MIN <= d.re <= RE_MAX, f"queried design {d} lies outside the bounds")
    again = [query_policy(actor, float(sc)) for sc in sc_values]
    check(again == designs, "repeated policy queries give different designs")


def check_round_trip(actor, loaded, header) -> None:
    check(header.get("role") == "actor", "actor checkpoint lost its role")
    check(loaded.spec == actor.spec
          and loaded.flat.tobytes() == actor.flat.tobytes()
          and loaded.norm.center.tobytes() == actor.norm.center.tobytes()
          and loaded.norm.halfspan.tobytes() == actor.norm.halfspan.tobytes(),
          "actor checkpoint round trip is not bit-exact")


def check_synthetic(rewards) -> float:
    """PPO on ``QuadraticEnv`` must learn; returns the mean reward of the
    last ``PPO_TAIL`` episodes."""
    rewards = np.asarray(rewards)
    check(bool(np.all(np.isfinite(rewards))), "synthetic PPO skipped an episode")
    head, tail = float(rewards[:PPO_TAIL].mean()), float(rewards[-PPO_TAIL:].mean())
    check(tail > head and tail >= SYNTH_FLOOR,
          f"synthetic PPO tail reward {tail:.4g} (first episodes {head:.4g}, floor {SYNTH_FLOOR})")
    return tail


@dataclass
class PPOStage:
    inputs: Inputs
    seed: int
    workdir: str
    tail_rewards: list = field(default_factory=list)
    synth_tails: list = field(default_factory=list)
    nonfinite: int = 0
    skipped: int = 0
    actor: object = None
    blocks: int = 0

    @staticmethod
    def _agent(env, cfg, name: str, window: Window, rec: Recorder, traced: bool):
        """One timed ``train_agent`` call; its span notes how many episodes
        reached the PPO update, the rest were skipped."""
        t0 = time.perf_counter()
        with rec.instrumented(traced), rec.span(name, traced) as span:
            actor, _, history = train_agent(env, cfg)
        rec.add_interval(name, time.perf_counter() - t0, window)
        check(len(history.mean_rewards) == cfg.episodes,
              f"reward history holds {len(history.mean_rewards)} episodes, ran {cfg.episodes}")
        skipped = int(np.count_nonzero(~np.isfinite(history.mean_rewards)))
        if span is not None:
            span.attrs.update(episodes=cfg.episodes, updated=cfg.episodes - skipped)
        return actor, history, skipped

    def rep(self, r: int, rec: Recorder, traced: bool, core: bool) -> None:
        cfg = PPOConfig(episodes=PPO_EPISODES, seed=derived_seed(self.seed, "ppo", r))
        window = rec.window("score")
        env = CountingEnv(PinnEnv(self.inputs.field, self.inputs.baseline), window)
        actor, _, skipped = self._agent(env, cfg, "rl.train_agent", window, rec, traced)
        rec.add("rl.train_agent.episodes", cfg.episodes)

        path = os.path.join(self.workdir, "actor.ckpt")
        with rec.instrumented(traced):
            with rec.span("diffnet.checkpoint_save", traced):
                save_params(actor, path, role="actor", seed=cfg.seed)
            with rec.span("diffnet.checkpoint_load", traced):
                loaded, header = load_params(path)
        check_round_trip(actor, loaded, header)
        self.actor = loaded

        # the update path: every reward is finite, so every episode trains
        synth_cfg = PPOConfig(episodes=SYNTH_EPISODES, seed=derived_seed(self.seed, "synthetic", r))
        synth_window = rec.window("query")
        synth_env = CountingEnv(QuadraticEnv(), synth_window)
        _, synth, synth_skipped = self._agent(synth_env, synth_cfg, "rl.train_agent.synthetic",
                                              synth_window, rec, traced)
        rec.add("rl.train_agent.synthetic.episodes", synth_cfg.episodes)
        tail = check_synthetic(synth.mean_rewards)
        if core:
            rec.count(env.scores + cfg.episodes + synth_env.scores + synth_cfg.episodes,
                      env.nonfinite + skipped + synth_env.nonfinite + synth_skipped)
            self.tail_rewards.extend(env.rewards[-PPO_TAIL * cfg.batch_size:])
            self.synth_tails.append(tail)
            self.nonfinite += env.nonfinite
            self.skipped += skipped

    def query_block(self, rec: Recorder, traced: bool) -> None:
        """``QUERY_BLOCK`` closed-loop single-Sc queries of the latest actor,
        each followed by one ``Gauge.call`` when gauged (see gauge.py)."""
        rng = np.random.default_rng(derived_seed(self.seed, "queries", self.blocks))
        self.blocks += 1
        sc_values = rng.uniform(SC_LO, SC_HI, QUERY_BLOCK)
        latencies = np.empty(QUERY_BLOCK)
        reference = np.empty(QUERY_BLOCK)
        gauge_call = rec.gauge.call if rec.gauge else None
        clock = time.perf_counter_ns
        with rec.instrumented(traced):
            for i, sc in enumerate(sc_values):
                t = clock()
                with rec.span("rl.query_policy", traced):
                    query_policy(self.actor, float(sc))
                latencies[i] = clock() - t
                if gauge_call is not None:
                    t = clock()
                    gauge_call()
                    reference[i] = clock() - t
        latencies /= 1e3
        if gauge_call is not None:
            for name, (raw, scaled) in rescale_block(latencies, reference / 1e3).items():
                rec.add(f"query.{name}.raw", raw)
                rec.add(f"query.{name}", scaled)
        check_queries(self.actor, sc_values[:8])


STAGE_CORE = {"train": TRAIN_CORE, "ga": GA_CORE, "ppo": PPO_CORE}


def run(workload: str, seed: int, seconds: float, rec: Recorder, workdir: str):
    """One benchmark run into ``rec``; returns (stages, inputs).

    Stages take turns, one repetition at a time: next is always the stage
    furthest below its share of the time so far (``PRIMARY_SHARE`` for the
    workload's own stage, the rest split evenly), and ``QUERY_BLOCKS``
    blocks of policy queries follow every repetition once an actor exists.
    Every workload runs every stage because each must report every
    end-to-end metric. The run ends once ``seconds`` have passed and every
    stage has done its core.

    In a traced run every other repetition of each stage is traced (the
    first one is), so the same run also measures the tracing overhead.
    """
    traced = rec.tracer is not None
    inputs = set_up(seed, rec)
    stages = {"train": TrainStage(inputs, seed), "ga": GAStage(inputs, seed),
              "ppo": PPOStage(inputs, seed, workdir)}
    primary = WORKLOADS[workload]
    share = {n: PRIMARY_SHARE if n == primary else (1 - PRIMARY_SHARE) / (len(stages) - 1)
             for n in stages}
    need = {n: max(STAGE_CORE[n], 2) if traced else STAGE_CORE[n] for n in stages}
    reps = {n: 0 for n in stages}
    used = {n: 0.0 for n in stages}

    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        todo = [n for n in stages if reps[n] < need[n]]
        if over and not todo:
            break
        pool = todo if over else list(stages)
        name = min(pool, key=lambda n: used[n] / share[n])
        r = reps[name]
        on = traced and r % 2 == 0
        t0 = time.perf_counter()
        stages[name].rep(r, rec, on, core=r < STAGE_CORE[name])
        dt = time.perf_counter() - t0
        used[name] += dt
        reps[name] = r + 1
        if traced:
            rec.traced_reps.setdefault(name, []).append((on, dt))
        if stages["ppo"].actor is not None:
            for _ in range(QUERY_BLOCKS):
                stages["ppo"].query_block(rec, on)
    check_gradient(inputs.colloc, stages["train"].last_params, derived_seed(seed, "fd"))
    return stages, inputs

