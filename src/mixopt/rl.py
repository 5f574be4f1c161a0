"""PPO agent mapping the Schmidt number to an optimal design.

One-step contextual bandit: each episode draws a batch of Schmidt numbers,
the Gaussian policy proposes (cp1, cp2, cp3, Re) actions, the environment
scores them, and a clipped-surrogate update follows. The discount factor
sits in the config for completeness but no bootstrapping happens, so it is
never used. A synthetic quadratic-bowl environment with a known optimum
serves as the test oracle.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diffnet import (
    InputNorm,
    NetworkSpec,
    ParameterSet,
    adam_step,
    forward,
    forward_vjp,
    init_adam,
    init_params,
)
from .errors import DomainError
from .metrics import DESIGN_HI, DESIGN_LO, BaselineTable, DesignCandidate, check_schmidt, compute_mixing_report

log = logging.getLogger(__name__)

SC_LO, SC_HI = 1.0, 100.0
ACTION_DIM = 4
LOG_2PI = float(np.log(2.0 * np.pi))

# raw actions live in [-1, 1]^4; affine map to the physical boxes
_ACTION_CENTER = 0.5 * (DESIGN_LO + DESIGN_HI)
_ACTION_HALFSPAN = 0.5 * (DESIGN_HI - DESIGN_LO)


@dataclass(frozen=True)
class PPOConfig:
    """Clipped-surrogate hyperparameters. gamma is kept for completeness but
    plays no role in the one-step advantage."""

    gamma: float = 0.99
    clip_eps: float = 0.2
    epochs: int = 10
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    episodes: int = 100
    value_coef: float = 1.0
    entropy_coef: float = 0.01
    seed: int = 0
    actor_hidden: tuple = (32, 32)
    critic_hidden: tuple = (32, 32)
    sampled_entropy: bool = False

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise DomainError("gamma must be in (0, 1]")
        if not self.clip_eps > 0:
            raise DomainError("clip_eps must be positive")
        if self.epochs < 1 or self.episodes < 0:
            raise DomainError("epochs must be >= 1 and episodes >= 0")
        if self.batch_size < 2:
            raise DomainError("batch_size must be >= 2: advantages are standardized per batch")
        for name in ("actor_lr", "critic_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value!r}")
        for name in ("value_coef", "entropy_coef"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass
class Batch:
    """One episode's rollout."""

    states: np.ndarray
    actions: np.ndarray
    logp: np.ndarray
    designs: list
    rewards: np.ndarray
    values: np.ndarray
    advantages: np.ndarray


def _check_window(name: str, value: int) -> None:
    # r[-0:] is all of r, and a window of 0 averages nothing
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value!r}")


@dataclass
class RewardHistory:
    """Per-episode mean rewards; aborted episodes hold nan."""

    mean_rewards: list = field(default_factory=list)

    def append(self, value: float) -> None:
        self.mean_rewards.append(float(value))

    def smoothed(self, window: int = 50) -> np.ndarray:
        """Trailing arithmetic mean, window truncated at the start, nan-aware."""
        _check_window("window", window)
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
        _check_window("n", n)
        r = np.asarray(self.mean_rewards, dtype=np.float64)
        good = r[-n:][np.isfinite(r[-n:])]
        return float(good.mean()) if good.size else float("nan")

    def to_csv(self, path) -> None:
        smooth = self.smoothed()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "mean_reward", "smoothed_reward"])
            for i, (r, s) in enumerate(zip(self.mean_rewards, smooth)):
                writer.writerow([i, repr(float(r)), repr(float(s))])


def actor_spec(cfg: PPOConfig) -> NetworkSpec:
    return NetworkSpec(input_dim=1, output_dim=2 * ACTION_DIM, hidden=cfg.actor_hidden)


def critic_spec(cfg: PPOConfig) -> NetworkSpec:
    return NetworkSpec(input_dim=1, output_dim=1, hidden=cfg.critic_hidden)


def _state_norm() -> InputNorm:
    return InputNorm.from_bounds([(SC_LO, SC_HI)])


def init_actor(cfg: PPOConfig, seed=None) -> ParameterSet:
    """Fresh actor; log-std head biases start at ln(0.5) for exploration."""
    params = init_params(actor_spec(cfg), norm=_state_norm(), seed=seed)
    tweaked = params.with_flat(params.flat.copy())
    _, b = tweaked.views()[-1]
    b[ACTION_DIM:] = np.log(0.5)
    return tweaked


def init_critic(cfg: PPOConfig, seed=None) -> ParameterSet:
    return init_params(critic_spec(cfg), norm=_state_norm(), seed=seed)


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
    bounds, elementwise over any leading shape."""
    return _ACTION_CENTER + _ACTION_HALFSPAN * np.clip(raw, -1.0, 1.0)


def scale_action(raw) -> DesignCandidate:
    """Clip to [-1, 1], then map affinely onto the physical bounds."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (ACTION_DIM,):
        raise DomainError(f"expected a {ACTION_DIM}-vector, got shape {raw.shape}")
    return DesignCandidate(*_scale_actions(raw).tolist())


def normalize_design(design: DesignCandidate) -> np.ndarray:
    """Inverse of scale_action's affine map, back to [-1, 1]^4."""
    return (design.as_array() - _ACTION_CENTER) / _ACTION_HALFSPAN


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
    strictly smaller.
    """
    ratio = np.exp(new_logp - old_logp)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    return ratio, np.minimum(unclipped, clipped), advantages * (unclipped <= clipped)


def ppo_losses(old_logp, new_logp, advantages, rewards, values, cfg: PPOConfig,
               log_sigma=None) -> tuple:
    """(L_clip, L_vf, entropy, L_total) on plain arrays.

    L_total = L_clip - c1 L_vf + c2 H is the maximized objective. Entropy is
    the closed-form Gaussian value when log_sigma is given and the sampled
    -log pi estimator otherwise (or when cfg.sampled_entropy is set).
    """
    old_logp = np.asarray(old_logp, dtype=np.float64)
    new_logp = np.asarray(new_logp, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    _, surrogate, _ = _clipped_surrogate(old_logp, new_logp, advantages, cfg.clip_eps)
    l_clip = float(np.mean(surrogate))
    l_vf = float(np.mean((np.asarray(values) - np.asarray(rewards)) ** 2))
    if log_sigma is not None and not cfg.sampled_entropy:
        entropy = float(np.mean(np.sum(0.5 * (1.0 + LOG_2PI) + np.asarray(log_sigma), axis=1)))
    else:
        entropy = float(np.mean(-new_logp))
    total = l_clip - cfg.value_coef * l_vf + cfg.entropy_coef * entropy
    return l_clip, l_vf, entropy, total


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
    g_logp = (-inv_n * slope) * ratio
    if cfg.sampled_entropy:
        g_logp = g_logp - g_entropy
    g_logp = g_logp[:, None]
    g_z = (g_logp * (-0.5)) * (2.0 * z)
    g_sigma = (-g_z * diff) / (sigma * sigma)
    g_log_sigma = -g_logp + g_sigma * sigma
    if not cfg.sampled_entropy:
        g_log_sigma = g_log_sigma + g_entropy
    g_out = np.concatenate([-(g_z / sigma), g_log_sigma], axis=1)

    v, _, critic_vjp = forward_vjp(critic, states)
    g_v = (cfg.value_coef * inv_n) * (2.0 * (v[:, 0] - batch.rewards))
    return actor_vjp(g_out), critic_vjp(g_v[:, None])


class QuadraticEnv:
    """Synthetic oracle: reward 1 - |a - a*(Sc)|^2 in normalized action
    coordinates, with a smooth known optimum inside the bounds."""

    def optimum_normalized(self, sc: float) -> np.ndarray:
        s = (sc - SC_LO) / (SC_HI - SC_LO)
        return np.array([
            0.6 * np.cos(np.pi * s),
            0.6 * np.sin(np.pi * s),
            0.5 * (2.0 * s - 1.0),
            0.5 * np.sin(2.0 * np.pi * s),
        ])

    def optimum(self, sc: float) -> DesignCandidate:
        return scale_action(self.optimum_normalized(sc))

    def evaluate(self, design: DesignCandidate, sc: float) -> float:
        diff = normalize_design(design) - self.optimum_normalized(sc)
        return float(1.0 - np.dot(diff, diff))


class PinnEnv:
    """Scores designs with the mixing efficiency of a trained field network.

    Degenerate-flow guard failures (nonpositive pressure cost or baseline)
    come back as nan so the caller can skip the episode instead of dying.
    """

    def __init__(self, params: ParameterSet, baseline: BaselineTable, n: int = 101):
        self.params = params
        self.baseline = baseline
        self.n = n

    def evaluate(self, design: DesignCandidate, sc: float) -> float:
        try:
            report = compute_mixing_report(self.params, design, sc,
                                           baseline=self.baseline, n=self.n)
        except DomainError as exc:
            log.warning("degenerate evaluation at %s sc=%s: %s", design, sc, exc)
            return float("nan")
        return report.me


def rollout(env, actor: ParameterSet, critic: ParameterSet, cfg: PPOConfig, rng) -> Batch:
    """Sample one episode batch and score it; advantages already standardized."""
    states = rng.uniform(SC_LO, SC_HI, cfg.batch_size)
    mu, sigma = policy_forward(actor, states)
    actions, logp = sample_actions(mu, sigma, rng)
    designs = [DesignCandidate(*row) for row in _scale_actions(actions).tolist()]
    rewards = np.array([env.evaluate(d, float(sc)) for d, sc in zip(designs, states)])
    values = forward(critic, states.reshape(-1, 1))[:, 0]
    advantages = (compute_advantages(rewards, values)
                  if np.all(np.isfinite(rewards)) else np.full(cfg.batch_size, np.nan))
    return Batch(states=states, actions=actions, logp=logp, designs=designs,
                 rewards=rewards, values=values, advantages=advantages)


def train_agent(env, cfg: PPOConfig, actor: ParameterSet | None = None,
                critic: ParameterSet | None = None):
    """Run E one-step episodes of PPO; returns (actor, critic, history).

    An episode whose rewards come back non-finite is logged and skipped;
    training continues with the next episode.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(2 + cfg.episodes)
    if actor is None:
        actor = init_actor(cfg, seed=seeds[0])
    if critic is None:
        critic = init_critic(cfg, seed=seeds[1])
    actor_opt = init_adam(actor.flat.size, lr=cfg.actor_lr)
    critic_opt = init_adam(critic.flat.size, lr=cfg.critic_lr)
    history = RewardHistory()

    for ep in range(cfg.episodes):
        rng = np.random.default_rng(seeds[2 + ep])
        batch = rollout(env, actor, critic, cfg, rng)
        if not np.all(np.isfinite(batch.rewards)):
            log.warning("episode %d returned non-finite rewards; skipping update", ep)
            history.append(np.nan)
            continue
        for _ in range(cfg.epochs):
            g_actor, g_critic = gradient(actor, critic, batch, cfg)
            actor, actor_opt = adam_step(actor, g_actor, actor_opt)
            critic, critic_opt = adam_step(critic, g_critic, critic_opt)
        history.append(batch.rewards.mean())
    return actor, critic, history


def query_policy(actor: ParameterSet, sc: float) -> DesignCandidate:
    """Deterministic greedy design: the policy mean, scaled to bounds."""
    if not (SC_LO <= sc <= SC_HI):
        check_schmidt(sc)
        warnings.warn(f"Sc={sc} outside the trained range [{SC_LO}, {SC_HI}]; extrapolating")
    out = forward(actor, [[sc]])
    return scale_action(out[0, :ACTION_DIM])
