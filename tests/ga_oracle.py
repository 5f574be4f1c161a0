"""The GA's breeding loop on numpy arrays, with array-parameter draws.

``ga.run_ga`` forms each child on Python floats from scalar-parameter
draws. This is the loop it replaced: a tournament by ``np.argmax``, blend
crossover by ``rng.uniform(low, high)`` on arrays, a Gaussian kick by
``rng.normal(0.0, scale)`` with an array scale, and ``np.clip``. For any
config and seed, ``run_ga`` must propose the same designs, in the same
order and with the same bits, and report the same results.
"""

import math
import time

import numpy as np

from mixopt.ga import BLEND_ALPHA, TOURNAMENT, GAResult
from mixopt.metrics import DESIGN_HI, DESIGN_LO, DesignCandidate, check_schmidt


def _evaluate(env, genomes: np.ndarray, sc: float) -> np.ndarray:
    out = np.empty(len(genomes))
    for i, g in enumerate(genomes.tolist()):
        r = env.evaluate(DesignCandidate(*g), sc)
        if not math.isfinite(r):
            r = -math.inf
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


def run_ga(env, sc: float, cfg) -> GAResult:
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
