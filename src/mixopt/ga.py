"""Real-valued genetic algorithm baseline and the optimizer-scaling harness.

The GA optimizes one Schmidt number per run, so its cost grows with the
number of queries; a trained policy answers each query with one forward
pass. compare_timing measures both so the scaling shapes can be compared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, check_int, check_ints, check_real
from .metrics import DESIGN_HI, DESIGN_LO, DesignCandidate, check_schmidt
from .rl import query_policy

TOURNAMENT = 3  # contenders drawn per parent selection
BLEND_ALPHA = 0.5  # BLX-alpha: a child may land this fraction of the parents' gap outside it


@dataclass(frozen=True)
class GAConfig:
    """Invented defaults; every knob is free."""

    population: int = 32
    generations: int = 60
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    mutation_scale: float = 0.1
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        check_ints(self, population=2, generations=0, elitism=0, seed=0)
        check_real("crossover_rate", self.crossover_rate, 0.0, 1.0)
        check_real("mutation_rate", self.mutation_rate, 0.0, 1.0)
        check_real("mutation_scale", self.mutation_scale, 0.0)
        # elitism == population is allowed: it freezes the population, which
        # is the degenerate fixed-point configuration
        if self.elitism > self.population:
            raise DomainError("elitism must lie in [0, population]")


@dataclass
class GAResult:
    """``evaluations`` counts the designs the GA proposed for scoring,
    repeats included, whether or not the environment recomputed them."""

    best: DesignCandidate
    best_fitness: float
    evaluations: int
    wall_time: float
    best_per_generation: list = field(default_factory=list)


def _evaluate(env, genomes: np.ndarray, sc: float) -> np.ndarray:
    out = np.empty(len(genomes))
    for i, g in enumerate(genomes.tolist()):
        r = env.evaluate(DesignCandidate(*g), sc)
        if not math.isfinite(r):
            r = -math.inf  # a failed score ranks below every finite one
        out[i] = r
    return out


def _tournament(fitness: np.ndarray, rng) -> int:
    contenders = rng.integers(0, len(fitness), size=TOURNAMENT)
    return int(contenders[np.argmax(fitness[contenders])])


def _blend(p1: np.ndarray, p2: np.ndarray, rng) -> np.ndarray:
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    d = hi - lo
    return rng.uniform(lo - BLEND_ALPHA * d, hi + BLEND_ALPHA * d)


def run_ga(env, sc: float, cfg: GAConfig) -> GAResult:
    """Tournament selection, blend crossover, Gaussian mutation, elitism."""
    check_schmidt(sc)
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    span = DESIGN_HI - DESIGN_LO
    pop = rng.uniform(DESIGN_LO, DESIGN_HI, size=(cfg.population, 4))
    fitness = _evaluate(env, pop, sc)
    evaluations = cfg.population
    best_idx = int(np.argmax(fitness))
    best_genome = pop[best_idx].copy()
    best_fitness = float(fitness[best_idx])
    history = [best_fitness]

    for _ in range(cfg.generations):
        order = np.argsort(-fitness)
        elites = pop[order[:cfg.elitism]].copy()
        elite_fitness = fitness[order[:cfg.elitism]].copy()
        n_children = cfg.population - cfg.elitism
        children = np.empty((n_children, 4))
        for i in range(n_children):
            p1 = pop[_tournament(fitness, rng)]
            if rng.random() < cfg.crossover_rate:
                p2 = pop[_tournament(fitness, rng)]
                child = _blend(p1, p2, rng)
            else:
                child = p1.copy()
            mask = rng.random(4) < cfg.mutation_rate
            kick = rng.normal(0.0, cfg.mutation_scale * span)
            child = np.where(mask, child + kick, child)
            children[i] = np.clip(child, DESIGN_LO, DESIGN_HI)
        child_fitness = _evaluate(env, children, sc)
        evaluations += n_children
        pop = np.vstack([elites, children])
        fitness = np.concatenate([elite_fitness, child_fitness])
        gen_best = int(np.argmax(fitness))
        if fitness[gen_best] > best_fitness:
            best_fitness = float(fitness[gen_best])
            best_genome = pop[gen_best].copy()
        history.append(best_fitness)

    best = DesignCandidate(*best_genome.tolist())
    return GAResult(best=best, best_fitness=best_fitness, evaluations=evaluations,
                    wall_time=time.perf_counter() - t0, best_per_generation=history)


@dataclass
class ScalingTable:
    """Cumulative optimizer cost versus number of Schmidt-number queries."""

    m: list
    ga_seconds: list
    rl_seconds: list
    ga_fitness_mean: list


def _sample_counts(n: int) -> list:
    ms = []
    m = 1
    while m < n:
        ms.append(m)
        m *= 2
    ms.append(n)
    return ms


def compare_timing(env, sc_values, cfg: GAConfig, actor, repeats: int = 3) -> ScalingTable:
    """Cumulative GA wall time vs cumulative policy-query time per sample count.

    Each Schmidt number gets one GA run (timed as the median of ``repeats``
    re-runs with distinct seeds) and one policy query; query timing loops are
    also repeated and the median is kept, after a warmup pass. The GA re-runs
    go in rounds over the Schmidt numbers, so a slow spell of the host lands
    on one re-run of several numbers, which their medians drop, rather than
    on most re-runs of one.
    """
    sc_values = [float(s) for s in sc_values]
    if not sc_values:
        raise DomainError("need at least one Schmidt number")
    check_int("repeats", repeats, 1)
    for sc in sc_values[:2]:
        query_policy(actor, sc)  # warmup, which also refuses a wrong-shape actor before any GA run
    durations = [[] for _ in sc_values]
    ga_fitness = [-math.inf] * len(sc_values)
    for r in range(repeats):
        for i, sc in enumerate(sc_values):
            run = run_ga(env, sc, replace(cfg, seed=cfg.seed + 1000 * i + r))
            durations[i].append(run.wall_time)
            ga_fitness[i] = max(ga_fitness[i], run.best_fitness)
    ga_times = [float(np.median(d)) for d in durations]

    ms = _sample_counts(len(sc_values))
    rl_cumulative = []
    for m in ms:
        durations = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for sc in sc_values[:m]:
                query_policy(actor, sc)
            durations.append(time.perf_counter() - t0)
        rl_cumulative.append(float(np.median(durations)))

    return ScalingTable(
        m=ms,
        ga_seconds=[float(np.sum(ga_times[:m])) for m in ms],
        rl_seconds=rl_cumulative,
        ga_fitness_mean=[float(np.mean(ga_fitness[:m])) for m in ms],
    )
