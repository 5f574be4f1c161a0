"""The agent's objective and the synthetic landscape's optimum on plain arrays.

The package never evaluates these itself. ``rl.gradient`` forms the PPO
objective's cotangents in closed form, and ``ppo_losses`` is that objective,
the oracle the gradient is checked against. ``normalize_design`` inverts
``rl.scale_action``, and ``quadratic_optimum`` and
``quadratic_optimum_normalized`` give ``rl.QuadraticEnv``'s known optimum as
a design and in normalized action coordinates. Each uses the package's own
constants and row helpers, so it carries the bits the package would.
"""

import numpy as np

from mixopt.metrics import DesignCandidate
from mixopt.rl import (
    _ACTION_CENTER,
    _ACTION_HALFSPAN,
    LOG_2PI,
    PPOConfig,
    QuadraticEnv,
    _clipped_surrogate,
    _scale_row,
)


def normalize_design(design: DesignCandidate) -> np.ndarray:
    """Inverse of scale_action's affine map, back to [-1, 1]^4."""
    return (design.as_array() - _ACTION_CENTER) / _ACTION_HALFSPAN


def quadratic_optimum_normalized(sc: float) -> np.ndarray:
    """QuadraticEnv's optimum at sc, in normalized action coordinates."""
    return np.array(QuadraticEnv._optimum(sc))


def quadratic_optimum(sc: float) -> DesignCandidate:
    """QuadraticEnv's optimum at sc, as a design."""
    return _scale_row(QuadraticEnv._optimum(sc))


def ppo_losses(old_logp, new_logp, advantages, rewards, values, cfg: PPOConfig,
               log_sigma) -> tuple:
    """(L_clip, L_vf, entropy, L_total) on plain arrays.

    L_total = L_clip - L_vf + c H is the maximized objective, with H the
    closed-form entropy of the diagonal Gaussian whose log-stds are log_sigma.
    L_vf carries no coefficient: the critic shares no parameters with the
    actor, and Adam's step does not change when a gradient is rescaled.
    """
    old_logp = np.asarray(old_logp, dtype=np.float64)
    new_logp = np.asarray(new_logp, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    _, surrogate, _ = _clipped_surrogate(old_logp, new_logp, advantages, cfg.clip_eps)
    l_clip = float(np.mean(surrogate))
    l_vf = float(np.mean((np.asarray(values) - np.asarray(rewards)) ** 2))
    entropy = float(np.mean(np.sum(0.5 * (1.0 + LOG_2PI) + np.asarray(log_sigma), axis=1)))
    total = l_clip - l_vf + cfg.entropy_coef * entropy
    return l_clip, l_vf, entropy, total
