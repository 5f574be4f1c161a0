"""Real-valued genetic algorithm baseline and the optimizer-scaling harness.

The GA optimizes one Schmidt number per run, so its cost grows with the
number of queries; a trained policy answers each query with one forward
pass. compare_timing measures both so the scaling shapes can be compared.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .metrics import DESIGN_HI, DESIGN_LO, DesignCandidate, check_schmidt
from .rl import query_policy

log = logging.getLogger(__name__)

GENE_LO, GENE_HI = DESIGN_LO, DESIGN_HI
GENE_RANGE = GENE_HI - GENE_LO


@dataclass(frozen=True)
class GAConfig:
    """Invented defaults; every knob is free."""

    population: int = 32
    generations: int = 60
    tournament: int = 3
    crossover_rate: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float = 0.2
    mutation_scale: float = 0.1
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise DomainError("population must be >= 2")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise DomainError("rates must lie in [0, 1]")
        # elitism == population is allowed: it freezes the population, which
        # is the degenerate fixed-point configuration
        if not (0 <= self.elitism <= self.population):
            raise DomainError("elitism must lie in [0, population]")
        if self.tournament < 1 or self.generations < 0:
            raise DomainError("tournament >= 1 and generations >= 0 required")
        for name in ("mutation_scale", "blend_alpha"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass
class GAResult:
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
            # the environment has already reported why; one line per design
            log.debug("non-finite fitness for genome %s at sc=%s; assigning -inf", g, sc)
            r = -math.inf
        out[i] = r
    return out


def _tournament(fitness: np.ndarray, k: int, rng) -> int:
    contenders = rng.integers(0, len(fitness), size=k)
    return int(contenders[np.argmax(fitness[contenders])])


def _blend(p1: np.ndarray, p2: np.ndarray, alpha: float, rng) -> np.ndarray:
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    d = hi - lo
    return rng.uniform(lo - alpha * d, hi + alpha * d)


def run_ga(env, sc: float, cfg: GAConfig) -> GAResult:
    """Tournament selection, blend crossover, Gaussian mutation, elitism."""
    check_schmidt(sc)
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    pop = rng.uniform(GENE_LO, GENE_HI, size=(cfg.population, 4))
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
            p1 = pop[_tournament(fitness, cfg.tournament, rng)]
            if rng.random() < cfg.crossover_rate:
                p2 = pop[_tournament(fitness, cfg.tournament, rng)]
                child = _blend(p1, p2, cfg.blend_alpha, rng)
            else:
                child = p1.copy()
            mask = rng.random(4) < cfg.mutation_rate
            kick = rng.normal(0.0, cfg.mutation_scale * GENE_RANGE)
            child = np.where(mask, child + kick, child)
            children[i] = np.clip(child, GENE_LO, GENE_HI)
        child_fitness = _evaluate(env, children, sc) if n_children else np.empty(0)
        evaluations += n_children
        pop = np.vstack([elites, children]) if n_children else elites
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "ga_cumulative_seconds", "rl_cumulative_seconds",
                             "ga_best_fitness_mean"])
            for row in zip(self.m, self.ga_seconds, self.rl_seconds, self.ga_fitness_mean):
                writer.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                                 repr(float(row[3]))])

    @classmethod
    def from_csv(cls, path) -> "ScalingTable":
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise DomainError("scaling table file is empty")
        return cls(m=[int(r["m"]) for r in rows],
                   ga_seconds=[float(r["ga_cumulative_seconds"]) for r in rows],
                   rl_seconds=[float(r["rl_cumulative_seconds"]) for r in rows],
                   ga_fitness_mean=[float(r["ga_best_fitness_mean"]) for r in rows])


def linear_r2(xs, ys) -> float:
    """Coefficient of determination of the least-squares line through (xs, ys)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2:
        raise DomainError("need at least 2 points for a linear fit")
    coeffs = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coeffs, xs)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    if ss_tot == 0.0:
        return 1.0
    return float(1.0 - np.sum(resid ** 2) / ss_tot)


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
    also repeated and the median is kept, after a warmup pass.
    """
    sc_values = [float(s) for s in sc_values]
    if not sc_values:
        raise DomainError("need at least one Schmidt number")
    if repeats < 1:
        raise DomainError(f"repeats={repeats} must be at least 1")
    ga_times = []
    ga_fitness = []
    for i, sc in enumerate(sc_values):
        durations = []
        result = None
        for r in range(repeats):
            run = run_ga(env, sc, replace(cfg, seed=cfg.seed + 1000 * i + r))
            durations.append(run.wall_time)
            if result is None or run.best_fitness > result.best_fitness:
                result = run
        ga_times.append(float(np.median(durations)))
        ga_fitness.append(result.best_fitness)

    for sc in sc_values[:2]:
        query_policy(actor, sc)  # warmup
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
