"""PPO agent mapping the Schmidt number to an optimal design.

One-step contextual bandit: each episode draws a batch of Schmidt numbers,
the Gaussian policy proposes (cp1, cp2, cp3, Re) actions, the environment
scores them, and a clipped-surrogate update follows. Nothing is
bootstrapped, so there is no discount factor. A synthetic quadratic-bowl
environment with a known optimum serves as the test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .diffnet import (
    InputNorm,
    NetworkSpec,
    ParameterSet,
    adam_update,
    forward,
    forward_vjp,
    init_adam,
    init_params,
)
from .errors import DomainError, check_int, check_ints, check_real, check_widths
from .metrics import DESIGN_HI, DESIGN_LO, BaselineTable, DesignCandidate, check_schmidt, compute_mixing_report

SC_LO, SC_HI = 1.0, 100.0
ACTION_DIM = 4
LOG_2PI = float(np.log(2.0 * np.pi))

# raw actions live in [-1, 1]^4; affine map to the physical boxes
_ACTION_CENTER = 0.5 * (DESIGN_LO + DESIGN_HI)
_ACTION_HALFSPAN = 0.5 * (DESIGN_HI - DESIGN_LO)


@dataclass(frozen=True)
class PPOConfig:
    """Clipped-surrogate hyperparameters."""

    clip_eps: float = 0.2
    epochs: int = 10
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    episodes: int = 100
    entropy_coef: float = 0.01
    seed: int = 0
    actor_hidden: tuple = (32, 32)
    critic_hidden: tuple = (32, 32)

    def __post_init__(self):
        # advantages are standardized per batch, which takes two rows
        check_ints(self, epochs=1, batch_size=2, episodes=0, seed=0)
        check_widths(self, "actor_hidden", "critic_hidden")
        for name in ("clip_eps", "actor_lr", "critic_lr"):
            check_real(name, getattr(self, name), 0.0, above=True)
        check_real("entropy_coef", self.entropy_coef, 0.0)


@dataclass
class Batch:
    """One episode's rollout."""

    states: np.ndarray
    actions: np.ndarray
    logp: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray


@dataclass
class RewardHistory:
    """Per-episode mean rewards; aborted episodes hold nan."""

    mean_rewards: list = field(default_factory=list)

    def append(self, value: float) -> None:
        self.mean_rewards.append(float(value))

    def smoothed(self, window: int = 50) -> np.ndarray:
        """Trailing arithmetic mean, window truncated at the start, nan-aware."""
        check_int("window", window, 1)  # a window of 0 averages nothing
        r = np.asarray(self.mean_rewards, dtype=np.float64)
        out = np.full(r.size, np.nan)
        for i in range(r.size):
            chunk = r[max(0, i - window + 1):i + 1]
            good = chunk[np.isfinite(chunk)]
            if good.size:
                out[i] = good.mean()
        return out

    def tail_mean(self, n: int = 20) -> float:
        """Mean of the finite rewards among the last n episodes (nan if none)."""
        check_int("n", n, 1)  # r[-0:] is all of r
        r = np.asarray(self.mean_rewards, dtype=np.float64)
        good = r[-n:][np.isfinite(r[-n:])]
        return float(good.mean()) if good.size else float("nan")


def _state_norm() -> InputNorm:
    return InputNorm.from_bounds([(SC_LO, SC_HI)])


def init_actor(cfg: PPOConfig, seed=None) -> ParameterSet:
    """Fresh actor; log-std head biases start at ln(0.5) for exploration."""
    spec = NetworkSpec(input_dim=1, output_dim=2 * ACTION_DIM, hidden=cfg.actor_hidden)
    params = init_params(spec, norm=_state_norm(), seed=seed)
    flat = params.flat.copy()
    flat[-ACTION_DIM:] = np.log(0.5)  # the output bias's log-std half ends the vector
    return params.with_flat(flat)


def init_critic(cfg: PPOConfig, seed=None) -> ParameterSet:
    spec = NetworkSpec(input_dim=1, output_dim=1, hidden=cfg.critic_hidden)
    return init_params(spec, norm=_state_norm(), seed=seed)


def policy_forward(actor: ParameterSet, states) -> tuple:
    """(mu, sigma), each (batch, 4); sigma = exp(log-std head)."""
    states = np.asarray(states, dtype=np.float64).reshape(-1, 1)
    out = forward(actor, states)
    return out[:, :ACTION_DIM], np.exp(out[:, ACTION_DIM:])


def gaussian_logp(actions, mu, sigma) -> np.ndarray:
    """Diagonal-Gaussian log density summed over the action dimensions."""
    z = (actions - mu) / sigma
    return np.sum(-0.5 * z * z - np.log(sigma) - 0.5 * LOG_2PI, axis=1)


def sample_actions(mu, sigma, rng) -> tuple:
    """Independent normal draws per dimension and their log densities."""
    actions = rng.normal(mu, sigma)
    return actions, gaussian_logp(actions, mu, sigma)


def _scale_actions(raw: np.ndarray) -> np.ndarray:
    """Clip raw actions to [-1, 1] and map them affinely onto the physical
    bounds, elementwise over any leading shape; nan stays nan.

    ``np.minimum(np.maximum(...))`` gives ``np.clip``'s bits with about 1 us
    less per-call overhead. Rollouts map their whole batch here; one row
    goes through ``_scale_row``."""
    return _ACTION_CENTER + _ACTION_HALFSPAN * np.minimum(np.maximum(raw, -1.0), 1.0)


# _scale_actions' center and half-span as Python floats, for _scale_row
_ROW_CENTER = tuple(_ACTION_CENTER.tolist())
_ROW_HALFSPAN = tuple(_ACTION_HALFSPAN.tolist())


def _scale_row(means) -> DesignCandidate:
    """``_scale_actions`` on one row of ACTION_DIM Python floats, as a design.

    Each entry takes the same operations in the same operand order, so the
    bits agree. The clip is a conditional expression, which costs less than
    a ``min(max(...))`` pair of builtin calls; it keeps a nan, and a -0.0,
    as np.maximum and np.minimum do, and DesignCandidate then rejects the
    nan. Scalar arithmetic skips four array passes' per-call overhead,
    which every policy query pays.
    """
    m1, m2, m3, m4 = means
    (c1, c2, c3, c4), (h1, h2, h3, h4) = _ROW_CENTER, _ROW_HALFSPAN
    return DesignCandidate(c1 + h1 * (1.0 if m1 > 1.0 else -1.0 if m1 < -1.0 else m1),
                           c2 + h2 * (1.0 if m2 > 1.0 else -1.0 if m2 < -1.0 else m2),
                           c3 + h3 * (1.0 if m3 > 1.0 else -1.0 if m3 < -1.0 else m3),
                           c4 + h4 * (1.0 if m4 > 1.0 else -1.0 if m4 < -1.0 else m4))


def compute_advantages(rewards, values, eps: float = 1e-8) -> np.ndarray:
    """Standardized one-step advantages r - V."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise DomainError("rewards and values must have equal length")
    if rewards.size < 2:
        raise DomainError("need at least 2 samples to standardize advantages")
    adv = rewards - values
    return (adv - adv.mean()) / (adv.std() + eps)


def _clipped_surrogate(old_logp, new_logp, advantages, clip_eps: float) -> tuple:
    """Per-row ratio r, surrogate min(r A, clip(r) A) and its slope in r.

    The slope is A where the unclipped term is the minimum, ties included
    (every r inside the clip interval ties), and 0 where the clipped term is
    strictly smaller. ``np.minimum(np.maximum(...))`` gives ``np.clip``'s
    bits with less per-call overhead, which every PPO epoch pays.
    """
    ratio = np.exp(new_logp - old_logp)
    unclipped = ratio * advantages
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip_eps), 1.0 + clip_eps) * advantages
    return ratio, np.minimum(unclipped, clipped), advantages * (unclipped <= clipped)


def gradient(actor: ParameterSet, critic: ParameterSet, batch: Batch, cfg: PPOConfig) -> tuple:
    """(actor, critic) flat gradients of the negated PPO objective -L_total.

    The cotangents of -L_total with respect to the actor's (mu, log-std)
    outputs and the critic's value output are formed in closed form and
    pulled back through each network's fused reverse pass. Every operation
    is the one a reverse sweep over the objective's graph would perform, in
    the same order, so the gradients carry the same bits as tape autodiff.
    """
    states = batch.states.reshape(-1, 1)
    n = len(states)
    out, _, actor_vjp = forward_vjp(actor, states)
    mu, log_sigma = out[:, :ACTION_DIM], out[:, ACTION_DIM:]
    sigma = np.exp(log_sigma)
    diff = batch.actions - mu
    z = diff / sigma
    new_logp = np.sum(z * z * (-0.5) - log_sigma - 0.5 * LOG_2PI, axis=1)
    ratio, _, slope = _clipped_surrogate(batch.logp, new_logp, batch.advantages, cfg.clip_eps)
    inv_n = 1.0 / n  # each mean over the rows is a sum times 1/n
    g_entropy = -cfg.entropy_coef * inv_n  # d(-L_total)/d(a row's entropy term)
    g_logp = ((-inv_n * slope) * ratio)[:, None]
    g_z = (g_logp * (-0.5)) * (2.0 * z)
    g_sigma = (-g_z * diff) / (sigma * sigma)
    g_log_sigma = -g_logp + g_sigma * sigma + g_entropy
    g_out = np.concatenate([-(g_z / sigma), g_log_sigma], axis=1)

    v, _, critic_vjp = forward_vjp(critic, states)
    g_v = inv_n * (2.0 * (v[:, 0] - batch.rewards))
    return actor_vjp(g_out), critic_vjp(g_v[:, None])


class QuadraticEnv:
    """Synthetic oracle: reward 1 - |a - a*(Sc)|^2 in normalized action
    coordinates, with a smooth known optimum inside the bounds.

    The optimum and the normalized design are formed on Python floats, which
    skips numpy's per-call overhead on every reward a synthetic rollout
    scores; ``math.cos`` and ``math.sin`` return numpy's bits on every input
    ``tests/test_rl.py`` checks, so the rewards keep the array formula's.
    """

    @staticmethod
    def _optimum(sc) -> tuple:
        s = (sc - SC_LO) / (SC_HI - SC_LO)
        return (0.6 * math.cos(math.pi * s), 0.6 * math.sin(math.pi * s),
                0.5 * (2.0 * s - 1.0), 0.5 * math.sin(2.0 * math.pi * s))

    def evaluate(self, design: DesignCandidate, sc: float) -> float:
        """``1 - |a - a*|^2``, with a the design mapped back through
        ``_scale_row``'s affine map to [-1, 1]^4 and a* the optimum at sc,
        entry by entry in the array formula's operations and operand order.
        The squared norm stays ``np.dot`` on the 4-vector: a sequential sum
        rounds differently from the BLAS dot."""
        a1, a2, a3, a4 = design
        o1, o2, o3, o4 = self._optimum(sc)
        (c1, c2, c3, c4), (h1, h2, h3, h4) = _ROW_CENTER, _ROW_HALFSPAN
        diff = np.array([(a1 - c1) / h1 - o1, (a2 - c2) / h2 - o2,
                         (a3 - c3) / h3 - o3, (a4 - c4) / h4 - o4])
        return float(1.0 - np.dot(diff, diff))


# holds a whole default GA run (1832 scores), about 0.7 MB when full
_MEMO_SIZE = 2048


def _score_memo(params: ParameterSet, baseline: BaselineTable | None):
    """A bounded memo of ``compute_mixing_report(...).me`` keyed by
    (design, sc); a guard failure is kept as nan.

    The closure holds params and baseline, never the env that owns it, so
    reference counting alone frees a dropped env and its memo. A design
    is keyed by value, and a -0.0 control height scores the bits of 0.0.
    """

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def score(design: DesignCandidate, sc: float) -> float:
        try:
            report = compute_mixing_report(params, design, sc, baseline=baseline)
        except DomainError:
            return float("nan")
        return report.me

    return score


@dataclass(frozen=True, eq=False)
class PinnEnv:
    """Scores designs with the mixing efficiency of a trained field network.

    A baseline of None scores against a direct flat-wall evaluation at each
    design's (Re, Sc). Degenerate-flow guard failures (nonpositive pressure
    cost or baseline) come back as nan, so the caller can count or skip the
    design instead of dying.

    A (design, sc) is scored once while it stays among the ``_MEMO_SIZE``
    most recently used; a repeat returns the same bits.
    ``params`` and ``baseline`` cannot be rebound, so the memo cannot go
    stale.
    """

    params: ParameterSet
    baseline: BaselineTable | None
    _score: object = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_score", _score_memo(self.params, self.baseline))

    def evaluate(self, design: DesignCandidate, sc: float) -> float:
        return self._score(design, sc)


def rollout(env, actor: ParameterSet, critic: ParameterSet, cfg: PPOConfig, rng) -> Batch:
    """Sample one episode batch and score it; advantages already standardized."""
    states = rng.uniform(SC_LO, SC_HI, cfg.batch_size)
    mu, sigma = policy_forward(actor, states)
    actions, logp = sample_actions(mu, sigma, rng)
    designs = [DesignCandidate(*row) for row in _scale_actions(actions).tolist()]
    rewards = np.array([env.evaluate(d, sc) for d, sc in zip(designs, states.tolist())])
    values = forward(critic, states.reshape(-1, 1))[:, 0]
    advantages = (compute_advantages(rewards, values)
                  if np.all(np.isfinite(rewards)) else np.full(cfg.batch_size, np.nan))
    return Batch(states=states, actions=actions, logp=logp, rewards=rewards, advantages=advantages)


def train_agent(env, cfg: PPOConfig):
    """Run E one-step episodes of PPO; returns (actor, critic, history).

    An episode whose rewards come back non-finite is skipped and recorded as
    nan in the history; training continues with the next episode.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(2 + cfg.episodes)
    actor = init_actor(cfg, seed=seeds[0])
    critic = init_critic(cfg, seed=seeds[1])
    # one agent vector theta = actor.flat ‖ critic.flat and one Adam state
    # whose learning rate is actor_lr on the actor's entries and critic_lr
    # on the critic's; Adam is elementwise, so this steps each network with
    # the bits of its own optimizer
    split = actor.flat.size
    theta = np.concatenate([actor.flat, critic.flat])
    lr = np.full(theta.size, cfg.critic_lr)
    lr[:split] = cfg.actor_lr
    opt = init_adam(theta.size, lr=lr)
    history = RewardHistory()

    for ep in range(cfg.episodes):
        rng = np.random.default_rng(seeds[2 + ep])
        batch = rollout(env, actor, critic, cfg, rng)
        if not np.all(np.isfinite(batch.rewards)):
            history.append(np.nan)
            continue
        for _ in range(cfg.epochs):
            g_actor, g_critic = gradient(actor, critic, batch, cfg)
            theta, opt = adam_update(theta, np.concatenate([g_actor, g_critic]), opt)
            actor = ParameterSet(actor.spec, actor.norm, theta[:split])
            critic = ParameterSet(critic.spec, critic.norm, theta[split:])
        history.append(batch.rewards.mean())
    return actor, critic, history


def query_policy(actor: ParameterSet, sc: float) -> DesignCandidate:
    """Deterministic greedy design: the policy mean, scaled to bounds; a
    Schmidt number outside the trained range [SC_LO, SC_HI] extrapolates.
    The actor must map one input to a mean and a log-std per action."""
    spec = actor.spec
    if spec.input_dim != 1 or spec.output_dim != 2 * ACTION_DIM:
        raise DomainError(f"an actor maps 1 input to {2 * ACTION_DIM} outputs, "
                          f"got {spec.input_dim} -> {spec.output_dim}")
    if not (SC_LO <= sc <= SC_HI):
        check_schmidt(sc)
    return _scale_row(forward(actor, [[sc]])[0, :ACTION_DIM].tolist())
