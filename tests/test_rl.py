import gc
import logging
import os
import warnings
import weakref

import numpy as np
import pytest

from mixopt import cli, rl
from mixopt.diffnet import (
    NetworkSpec,
    adam_step,
    forward,
    init_adam,
    init_params,
    load_params,
    net_apply,
    save_params,
)
from mixopt.diffnet.tape import Node, gradient, leaf, nsum, pick, square
from mixopt.errors import DomainError
from mixopt.ga import GAConfig, run_ga
from mixopt.metrics import BaselineTable, DesignCandidate, check_schmidt, outlet_concentration
from mixopt.rl import (
    ACTION_DIM,
    LOG_2PI,
    SC_HI,
    SC_LO,
    Batch,
    PinnEnv,
    PPOConfig,
    QuadraticEnv,
    RewardHistory,
    compute_advantages,
    gaussian_logp,
    init_actor,
    init_critic,
    policy_forward,
    query_policy,
    rollout,
    sample_actions,
    train_agent,
)

from ppo_oracle import normalize_design, ppo_losses, quadratic_optimum, quadratic_optimum_normalized


def small_cfg(**kw):
    base = dict(episodes=3, batch_size=8, epochs=2, actor_hidden=(8,), critic_hidden=(8,))
    base.update(kw)
    return PPOConfig(**base)


# The package tape holds only what the PINN loss needs; the PPO reference
# below also needs these four primitives, on nodes only.


def exp(a):
    av = np.exp(a.value)
    return Node(av, (a,), (lambda g: g * av,))


def div(a, b):
    av, bv = a.value, b.value
    return Node(av / bv, (a, b), (lambda g: g / bv, lambda g: -g * av / (bv * bv)))


def minimum(a, b):
    av, bv = a.value, b.value
    take_a = (av <= bv).astype(np.float64)
    return Node(np.minimum(av, bv), (a, b), (lambda g: g * take_a, lambda g: g * (1.0 - take_a)))


def clip(a, lo, hi):
    """Clamp with zero gradient outside [lo, hi]."""
    av = a.value
    inside = ((av >= lo) & (av <= hi)).astype(np.float64)
    return Node(np.clip(av, lo, hi), (a,), (lambda g: g * inside,))


def mean(a):
    return nsum(a) * (1.0 / a.size)


def tape_objective(actor_leaf, critic_leaf, actor_tpl, critic_tpl, batch, cfg):
    """Negated PPO objective built on the autodiff tape: the reference that
    rl.gradient must reproduce bit for bit."""
    states = batch.states.reshape(-1, 1)
    out, _ = net_apply(actor_leaf, actor_tpl, states)
    mu = pick(out, (slice(None), slice(0, ACTION_DIM)))
    log_sigma = pick(out, (slice(None), slice(ACTION_DIM, 2 * ACTION_DIM)))
    sigma = exp(log_sigma)
    z = div(leaf(batch.actions) - mu, sigma)
    new_logp = nsum(square(z) * (-0.5) - log_sigma - 0.5 * LOG_2PI, axis=1)
    ratio = exp(new_logp - batch.logp)
    adv = batch.advantages
    surrogate = minimum(ratio * adv, clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv)
    l_clip = mean(surrogate)
    vout, _ = net_apply(critic_leaf, critic_tpl, states)
    v = pick(vout, (slice(None), 0))
    l_vf = mean(square(v - batch.rewards))
    entropy = mean(nsum(log_sigma + 0.5 * (1.0 + LOG_2PI), axis=1))
    total = l_clip - l_vf + cfg.entropy_coef * entropy
    return -total, (l_clip, l_vf, entropy)


def tape_gradient(actor, critic, batch, cfg):
    a_leaf, c_leaf = leaf(actor.flat), leaf(critic.flat)
    loss, _ = tape_objective(a_leaf, c_leaf, actor, critic, batch, cfg)
    return gradient(loss, a_leaf), gradient(loss, c_leaf)


def with_fields(batch, **kw):
    fields = dict(vars(batch))
    fields.update(kw)
    return Batch(**fields)


def make_batch(cfg, seed=0, env=None, actor=None, critic=None):
    env = env or QuadraticEnv()
    actor = actor or init_actor(cfg, seed=seed)
    critic = critic or init_critic(cfg, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    return actor, critic, rollout(env, actor, critic, cfg, rng)


def test_policy_forward_zero_net_gives_unit_sigma():
    cfg = small_cfg()
    actor = init_actor(cfg, seed=0)
    actor = actor.with_flat(np.zeros_like(actor.flat))
    mu, sigma = policy_forward(actor, [10.0, 80.0])
    assert np.array_equal(mu, np.zeros((2, 4)))
    assert np.array_equal(sigma, np.ones((2, 4)))


def test_policy_forward_equal_states_equal_rows():
    actor = init_actor(small_cfg(), seed=3)
    mu, sigma = policy_forward(actor, [42.0, 42.0])
    assert np.array_equal(mu[0], mu[1])
    assert np.array_equal(sigma[0], sigma[1])


def test_policy_forward_sigma_positive_everywhere():
    actor = init_actor(small_cfg(), seed=4)
    states = np.random.default_rng(0).uniform(1, 100, 10000)
    _, sigma = policy_forward(actor, states)
    assert np.all(sigma > 0) and np.all(np.isfinite(sigma))


def test_initial_log_std_bias():
    actor = init_actor(small_cfg(), seed=5)
    _, sigma = policy_forward(actor, [50.0])
    # zero final-layer weights at init would give exactly 0.5; weights are
    # random, so just check the bias is wired in
    _, _, b = actor.table()[-1]
    assert np.allclose(b[4:], np.log(0.5))
    assert np.all(sigma > 0)


def test_sample_actions_degenerate_sigma_returns_mean():
    mu = np.array([[0.3, -0.2, 0.1, 0.9]])
    sigma = np.full((1, 4), 1e-12)
    actions, _ = sample_actions(mu, sigma, np.random.default_rng(0))
    assert np.allclose(actions, mu, atol=1e-10)


def test_log_density_at_mean_unit_sigma():
    mu = np.zeros((1, 4))
    lp = gaussian_logp(mu, mu, np.ones((1, 4)))
    assert lp[0] == pytest.approx(4 * (-0.5 * LOG_2PI), abs=1e-14)


def test_sample_actions_moments():
    mu = np.tile([0.5, -1.0, 0.0, 2.0], (100000, 1))
    sigma = np.tile([0.3, 1.0, 2.0, 0.5], (100000, 1))
    actions, _ = sample_actions(mu, sigma, np.random.default_rng(7))
    assert np.allclose(actions.mean(axis=0), mu[0], atol=0.02)
    assert np.allclose(actions.std(axis=0), sigma[0], rtol=0.01)


def test_scale_action_midpoint_and_endpoints():
    d = rl._scale_row([0.0, 0.0, 0.0, 0.0])
    assert (d.cp1, d.cp2, d.cp3, d.re) == (0.0, 0.0, 0.0, 22.5)
    assert rl._scale_row([0.0, 0.0, 0.0, 1.0]).re == 40.0
    assert rl._scale_row([0.0, 0.0, 0.0, -1.0]).re == 5.0
    assert rl._scale_row([1.0, -1.0, 1.0, 0.0]).cp1 == 0.5


def test_scale_action_clips_before_mapping():
    d = rl._scale_row([3.0, -7.0, 0.0, 100.0])
    assert (d.cp1, d.cp2, d.re) == (0.5, -0.5, 40.0)
    # the clip is np.clip's, bit for bit, signed zeros and nan included
    raw = np.concatenate([np.random.default_rng(4).normal(scale=2.0, size=(50, 4)),
                          [[np.nan, -0.0, np.inf, -np.inf], [1.0, -1.0, 0.0, np.nan]]])
    want = rl._ACTION_CENTER + rl._ACTION_HALFSPAN * np.clip(raw, -1.0, 1.0)
    got = rl._scale_actions(raw)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_normalize_design_inverts_scale():
    raw = np.array([0.3, -0.8, 0.55, 0.1])
    assert np.allclose(normalize_design(rl._scale_row(raw.tolist())), raw, atol=1e-14)


def test_advantages_zero_when_rewards_match_values():
    adv = compute_advantages([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.array_equal(adv, np.zeros(3))


def test_advantages_standardized():
    rng = np.random.default_rng(11)
    adv = compute_advantages(rng.normal(size=64), rng.normal(size=64))
    assert abs(adv.mean()) <= 1e-12
    assert adv.std() == pytest.approx(1.0, abs=1e-6)


def test_advantages_two_point_case():
    adv = compute_advantages([1.0, 3.0], [0.0, 0.0])
    assert np.allclose(adv, [-1.0, 1.0], atol=1e-7)


def test_advantages_need_two_samples():
    with pytest.raises(DomainError):
        compute_advantages([1.0], [0.0])


def test_clipped_objective_unit_cases():
    cfg = PPOConfig()
    # ratio 2, advantage +1: clip binds at 1.2
    l_clip, _, _, _ = ppo_losses([0.0], [np.log(2.0)], [1.0], [0.0], [0.0], cfg, np.zeros((1, 4)))
    assert l_clip == pytest.approx(1.2, abs=1e-12)
    # ratio 0.5, advantage -1: pessimistic side clips at -0.8
    l_clip, _, _, _ = ppo_losses([0.0], [np.log(0.5)], [-1.0], [0.0], [0.0], cfg, np.zeros((1, 4)))
    assert l_clip == pytest.approx(-0.8, abs=1e-12)


def test_unchanged_policy_gives_mean_advantage():
    rng = np.random.default_rng(2)
    logp = rng.normal(size=32)
    adv = rng.normal(size=32)
    l_clip, _, _, _ = ppo_losses(logp, logp, adv, np.zeros(32), np.zeros(32), PPOConfig(),
                                 np.zeros((32, 4)))
    assert l_clip == pytest.approx(adv.mean(), abs=1e-12)


def test_clip_inactive_for_small_ratio_moves():
    rng = np.random.default_rng(3)
    old = rng.normal(size=50)
    new = old + rng.uniform(-1, 1, 50) * 0.9 * np.log(1.2)
    adv = rng.normal(size=50)
    l_clip, _, _, _ = ppo_losses(old, new, adv, np.zeros(50), np.zeros(50), PPOConfig(),
                                 np.zeros((50, 4)))
    assert l_clip == pytest.approx(np.mean(np.exp(new - old) * adv), abs=1e-12)


def test_loss_composition_and_entropy_forms():
    cfg = PPOConfig()
    rng = np.random.default_rng(4)
    old = rng.normal(size=16)
    new = rng.normal(size=16)
    adv = rng.normal(size=16)
    rewards = rng.normal(size=16)
    values = rng.normal(size=16)
    log_sigma = rng.normal(size=(16, 4)) * 0.1
    l_clip, l_vf, ent, total = ppo_losses(old, new, adv, rewards, values, cfg, log_sigma=log_sigma)
    assert total == pytest.approx(l_clip - l_vf + cfg.entropy_coef * ent, abs=1e-12)
    assert l_vf == pytest.approx(np.mean((values - rewards) ** 2), abs=1e-12)
    # closed-form gaussian entropy
    want = np.mean(np.sum(0.5 * (1 + LOG_2PI) + log_sigma, axis=1))
    assert ent == pytest.approx(want, abs=1e-12)


def test_unit_sigma_closed_form_entropy_value():
    cfg = PPOConfig()
    _, _, ent, _ = ppo_losses([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                              cfg, log_sigma=np.zeros((2, 4)))
    assert ent == pytest.approx(4 * 0.5 * (1 + LOG_2PI), abs=1e-14)


def test_training_loss_matches_plain_route():
    # the tape-built objective must agree with the plain-numpy ppo_losses
    # when the policy has moved off the behavior policy
    cfg = small_cfg(batch_size=16)
    actor0, critic, batch = make_batch(cfg, seed=20)
    rng = np.random.default_rng(99)
    actor1 = actor0.with_flat(actor0.flat + 0.05 * rng.normal(size=actor0.flat.size))
    loss, _ = tape_objective(leaf(actor1.flat), leaf(critic.flat), actor1, critic, batch, cfg)
    mu, sigma = policy_forward(actor1, batch.states)
    new_logp = gaussian_logp(batch.actions, mu, sigma)
    values = forward(critic, batch.states.reshape(-1, 1))[:, 0]
    _, _, _, total = ppo_losses(batch.logp, new_logp, batch.advantages,
                                batch.rewards, values, cfg, log_sigma=np.log(sigma))
    assert float(loss.value) == pytest.approx(-total, rel=1e-12)


def test_zero_advantage_moves_actor_only_through_entropy():
    cfg = small_cfg(batch_size=16)
    actor, critic, batch = make_batch(cfg, seed=30)
    flat_batch = with_fields(batch, advantages=np.zeros_like(batch.advantages))
    # no entropy bonus: actor gradient is exactly zero
    cfg0 = small_cfg(batch_size=16, entropy_coef=0.0)
    g_actor, g_critic = rl.gradient(actor, critic, flat_batch, cfg0)
    assert np.array_equal(g_actor, np.zeros_like(g_actor))
    assert np.any(g_critic != 0)
    # with the bonus, the actor gradient is proportional to c2 (entropy only)
    g2, _ = rl.gradient(actor, critic, flat_batch, cfg)
    assert np.any(g2 != 0)
    cfg_double = small_cfg(batch_size=16, entropy_coef=2 * cfg.entropy_coef)
    g3, _ = rl.gradient(actor, critic, flat_batch, cfg_double)
    assert np.allclose(g3, 2.0 * g2, rtol=1e-12, atol=1e-18)


def _moved(actor, scale, seed):
    rng = np.random.default_rng(seed)
    return actor.with_flat(actor.flat + scale * rng.normal(size=actor.flat.size))


def _on_bound_logp(actor, batch, bound):
    """Old log-densities that put the ratio of some rows exactly on a clip
    bound, found by stepping each old log-density one ulp at a time."""
    out = forward(actor, batch.states.reshape(-1, 1))
    log_sigma = out[:, ACTION_DIM:]
    z = (batch.actions - out[:, :ACTION_DIM]) / np.exp(log_sigma)
    new_logp = np.sum(z * z * (-0.5) - log_sigma - 0.5 * LOG_2PI, axis=1)
    old = new_logp - np.log(bound)
    for i in range(len(old)):
        for _ in range(64):
            r = np.exp(new_logp[i] - old[i])
            if r == bound:
                break
            old[i] = np.nextafter(old[i], np.inf if r > bound else -np.inf)
    assert np.count_nonzero(np.exp(new_logp - old) == bound) >= 4
    return old


# the entropy is the closed form only; the parameter keeps these tests' ids
closed_form_entropy = pytest.mark.parametrize("sampled", [False])


@closed_form_entropy
@pytest.mark.parametrize("case", ["behavior", "moved", "clipped", "zero_adv", "on_bound"])
def test_gradient_equals_tape_oracle_bit_for_bit(case, sampled):
    cfg = PPOConfig(batch_size=32, entropy_coef=0.05, clip_eps=0.05 if case == "clipped" else 0.2)
    actor, critic, batch = make_batch(cfg, seed=70)
    if case == "behavior":  # ratio exactly 1: both surrogate terms tie on every row
        pass
    elif case == "moved":
        actor = _moved(actor, 0.02, seed=71)
    elif case == "clipped":
        actor = _moved(actor, 0.02, seed=72)
        mu, sigma = policy_forward(actor, batch.states)
        ratio = np.exp(gaussian_logp(batch.actions, mu, sigma) - batch.logp)
        adv = batch.advantages
        assert np.any((ratio > 1.05) & (adv > 0)), "the clip never binds above"
        assert np.any((ratio < 0.95) & (adv < 0)), "the clip never binds below"
    elif case == "zero_adv":
        actor = _moved(actor, 0.02, seed=73)
        batch = with_fields(batch, advantages=np.zeros_like(batch.advantages))
    else:  # a ratio exactly on the clip bound: both terms tie
        batch = with_fields(batch, logp=_on_bound_logp(actor, batch, 1.2))
    want = tape_gradient(actor, critic, batch, cfg)
    got = rl.gradient(actor, critic, batch, cfg)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@closed_form_entropy
def test_gradient_matches_central_difference_of_ppo_losses(sampled):
    cfg = small_cfg(batch_size=16, entropy_coef=0.1)
    actor, critic, batch = make_batch(cfg, seed=80)
    actor = _moved(actor, 0.05, seed=81)

    def objective(actor_flat, critic_flat):
        mu, sigma = policy_forward(actor.with_flat(actor_flat), batch.states)
        values = forward(critic.with_flat(critic_flat), batch.states.reshape(-1, 1))[:, 0]
        new_logp = gaussian_logp(batch.actions, mu, sigma)
        return -ppo_losses(batch.logp, new_logp, batch.advantages, batch.rewards, values,
                           cfg, log_sigma=np.log(sigma))[3]

    g_actor, g_critic = rl.gradient(actor, critic, batch, cfg)
    rng = np.random.default_rng(82)
    h = 1e-6
    for which, grad in (("actor", g_actor), ("critic", g_critic)):
        for _ in range(3):
            d = rng.normal(size=grad.size)
            d /= np.linalg.norm(d)
            da = d if which == "actor" else 0.0
            dc = d if which == "critic" else 0.0
            fd = (objective(actor.flat + h * da, critic.flat + h * dc)
                  - objective(actor.flat - h * da, critic.flat - h * dc)) / (2.0 * h)
            assert fd == pytest.approx(float(grad @ d), rel=1e-6, abs=1e-9)


def test_train_agent_updates_equal_the_tape_oracle(monkeypatch):
    cfg = small_cfg(episodes=4, batch_size=16, epochs=3, seed=5)
    got = train_agent(QuadraticEnv(), cfg)
    monkeypatch.setattr(rl, "gradient", tape_gradient)
    want = train_agent(QuadraticEnv(), cfg)
    assert np.array_equal(got[0].flat, want[0].flat)
    assert np.array_equal(got[1].flat, want[1].flat)
    assert got[2].mean_rewards == want[2].mean_rewards


def two_optimizer_loop(env, cfg):
    """The update loop with one Adam state per network: the reference whose
    bits ``train_agent``'s one agent vector and one Adam step must keep."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(2 + cfg.episodes)
    actor = init_actor(cfg, seed=seeds[0])
    critic = init_critic(cfg, seed=seeds[1])
    actor_opt = init_adam(actor.flat.size, lr=cfg.actor_lr)
    critic_opt = init_adam(critic.flat.size, lr=cfg.critic_lr)
    history = RewardHistory()
    for ep in range(cfg.episodes):
        batch = rollout(env, actor, critic, cfg, np.random.default_rng(seeds[2 + ep]))
        if not np.all(np.isfinite(batch.rewards)):
            history.append(np.nan)
            continue
        for _ in range(cfg.epochs):
            g_actor, g_critic = rl.gradient(actor, critic, batch, cfg)
            actor, actor_opt = adam_step(actor, g_actor, actor_opt)
            critic, critic_opt = adam_step(critic, g_critic, critic_opt)
        history.append(batch.rewards.mean())
    return actor, critic, history


def assert_same_training(got, want):
    assert np.array_equal(got[0].flat, want[0].flat)
    assert np.array_equal(got[1].flat, want[1].flat)
    assert got[2].mean_rewards == want[2].mean_rewards


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lrs", [(3e-4, 1e-3), (1e-2, 1e-4)], ids=["default_lr", "other_lr"])
def test_one_agent_vector_keeps_the_two_optimizer_bits(seed, lrs):
    cfg = PPOConfig(episodes=5, epochs=4, seed=seed, actor_lr=lrs[0], critic_lr=lrs[1])
    got = train_agent(QuadraticEnv(), cfg)
    assert_same_training(got, two_optimizer_loop(QuadraticEnv(), cfg))
    for net in got[:2]:
        assert not net.flat.flags.writeable


@pytest.mark.parametrize("bad", [
    {"batch_size": 1}, {"batch_size": 0},
    {"actor_lr": 0.0}, {"critic_lr": -1e-3}, {"actor_lr": float("nan")}, {"critic_lr": float("inf")},
    {"entropy_coef": float("nan")}, {"clip_eps": 0.0},
    {"entropy_coef": -0.01}, {"entropy_coef": float("inf")},
    {"clip_eps": float("nan")}, {"clip_eps": float("inf")},
])
def test_ppo_config_rejects_values_that_would_fail_or_train_wrong(bad):
    with pytest.raises(DomainError, match=next(iter(bad))):
        PPOConfig(**bad)


def test_ppo_config_accepts_the_smallest_valid_values():
    cfg = small_cfg(batch_size=2, episodes=2, entropy_coef=0.0)
    _, _, history = train_agent(QuadraticEnv(), cfg)
    assert len(history.mean_rewards) == 2 and np.all(np.isfinite(history.mean_rewards))


def test_rollout_designs_respect_bounds():
    cfg = small_cfg(batch_size=32)
    seen = []

    class Recording(QuadraticEnv):
        def evaluate(self, design, sc):
            seen.append(design)
            return super().evaluate(design, sc)

    _, _, batch = make_batch(cfg, seed=40, env=Recording())
    assert seen == [rl._scale_row(a) for a in batch.actions.tolist()]
    for d in seen:
        assert -0.5 <= d.cp1 <= 0.5 and -0.5 <= d.cp2 <= 0.5 and -0.5 <= d.cp3 <= 0.5
        assert 5.0 <= d.re <= 40.0
    assert np.all(batch.states >= 1.0) and np.all(batch.states <= 100.0)


def test_zero_episodes_leave_networks_untouched():
    cfg = small_cfg(episodes=0)
    actor, critic, history = train_agent(QuadraticEnv(), cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    assert np.array_equal(actor.flat, init_actor(cfg, seed=seeds[0]).flat)
    assert np.array_equal(critic.flat, init_critic(cfg, seed=seeds[1]).flat)
    assert history.mean_rewards == []


def test_training_deterministic_per_seed():
    cfg = small_cfg(seed=7)
    a1, c1, h1 = train_agent(QuadraticEnv(), cfg)
    a2, c2, h2 = train_agent(QuadraticEnv(), cfg)
    assert np.array_equal(a1.flat, a2.flat)
    assert np.array_equal(c1.flat, c2.flat)
    assert h1.mean_rewards == h2.mean_rewards


class NanEnv:
    def evaluate(self, design, sc):
        return float("nan")


def test_non_finite_reward_skips_update_and_continues():
    cfg = small_cfg(episodes=4)
    actor, critic, history = train_agent(NanEnv(), cfg)
    assert len(history.mean_rewards) == 4
    assert all(np.isnan(r) for r in history.mean_rewards)
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    assert np.array_equal(actor.flat, init_actor(cfg, seed=seeds[0]).flat)


def test_reward_history_smoothing_is_trailing_mean():
    h = RewardHistory()
    for r in [1.0, 2.0, 3.0, 4.0, 5.0]:
        h.append(r)
    s = h.smoothed(window=3)
    assert np.allclose(s, [1.0, 1.5, 2.0, 3.0, 4.0])
    h2 = RewardHistory()
    for r in [1.0, float("nan"), 3.0]:
        h2.append(r)
    s2 = h2.smoothed(window=3)
    assert np.allclose(s2, [1.0, 1.0, 2.0])
    # the last smoothed value is the tail mean over the same window, bit for bit
    h3 = RewardHistory()
    for r in np.random.default_rng(3).normal(size=70):
        h3.append(r if r < 1.2 else float("nan"))
    for hist in (h, h2, h3):
        for window in (1, 3, 50):
            assert hist.tail_mean(window) == hist.smoothed(window)[-1]
    assert np.isnan(RewardHistory().tail_mean(50))


@pytest.mark.parametrize("bad", [0, -1, -20])
def test_reward_history_rejects_windows_below_one(bad):
    h = RewardHistory()
    for r in [1.0, 2.0, 3.0]:
        h.append(r)
    with pytest.raises(DomainError):
        h.tail_mean(bad)
    with pytest.raises(DomainError):
        h.smoothed(window=bad)
    assert h.tail_mean(1) == 3.0
    assert h.tail_mean(2) == 2.5
    assert np.array_equal(h.smoothed(window=1), [1.0, 2.0, 3.0])


def test_reward_history_csv(tmp_path):
    h = RewardHistory()
    for r in [0.1, 0.5, 0.9]:
        h.append(r)
    path = tmp_path / "history.csv"
    cli._write_rewards(path, h)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "episode,mean_reward,smoothed_reward"
    assert len(lines) == 4
    assert float(lines[3].split(",")[2]) == pytest.approx(0.5)


def test_quadratic_env_optimum_scores_one():
    env = QuadraticEnv()
    for sc in np.linspace(1, 100, 13):
        d = quadratic_optimum(float(sc))
        assert env.evaluate(d, float(sc)) == pytest.approx(1.0, abs=1e-12)
        a = quadratic_optimum_normalized(float(sc))
        assert np.all(np.abs(a) <= 0.6 + 1e-12)


def field_net(p_bias: float, c_bias: float):
    # near-constant field net: inlet pressure about p_bias, outlet c about c_bias
    params = init_params(NetworkSpec(hidden=(8, 8)), seed=11)
    flat = params.flat.copy()
    W, b = flat[-9 * 9:-9], flat[-9:]  # the output layer's 9x8 W and its b
    W *= 0.05
    b[2] = p_bias
    b[6] = c_bias
    return params.with_flat(flat)


SURROGATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "field_surrogate.ckpt")
FLAT_TABLE = BaselineTable(re_values=np.array([5.0, 40.0]), sc_values=np.array([1.0, 100.0]),
                           mi0=np.full((2, 2), 0.4), cp0=np.full((2, 2), 2.0))


def test_field_env_degenerate_flow_scores_nan():
    # a field net whose inlet pressure is negative trips the positivity
    # guard; the environment must report nan instead of raising so the
    # training loop can skip the episode
    env = PinnEnv(field_net(-2.0, 0.55), FLAT_TABLE)
    assert np.isnan(env.evaluate(DesignCandidate(0.1, 0.0, -0.1, 20.0), 30.0))


def counting_scorer(monkeypatch) -> list:
    """Patch the scorer PinnEnv calls; the list gets one (design, sc) per call."""
    calls = []
    direct = rl.compute_mixing_report

    def score(params, design, sc, baseline=None):
        calls.append((design, sc))
        return direct(params, design, sc, baseline=baseline)

    monkeypatch.setattr(rl, "compute_mixing_report", score)
    return calls


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_field_env_memo_is_bounded_and_an_evicted_design_rescores_to_its_bits(monkeypatch):
    calls = counting_scorer(monkeypatch)
    env = PinnEnv(field_net(2.0, 0.55), FLAT_TABLE)
    rng = np.random.default_rng(29)
    rows = rng.uniform(rl.DESIGN_LO, rl.DESIGN_HI, (rl._MEMO_SIZE + 8, ACTION_DIM)).tolist()
    designs = [DesignCandidate(*row) for row in rows]
    scores = [env.evaluate(d, 30.0) for d in designs]
    assert len(calls) == len(designs)
    assert env._score.cache_info().currsize == rl._MEMO_SIZE
    # the newest design is still held, the oldest was evicted and is scored anew
    assert bits(env.evaluate(designs[-1], 30.0)) == bits(scores[-1])
    assert len(calls) == len(designs)
    assert bits(env.evaluate(designs[0], 30.0)) == bits(scores[0])
    assert len(calls) == len(designs) + 1
    assert env._score.cache_info().currsize == rl._MEMO_SIZE


def test_field_env_memoizes_a_guard_failure_as_nan(monkeypatch):
    calls = counting_scorer(monkeypatch)
    env = PinnEnv(field_net(-2.0, 0.55), FLAT_TABLE)
    design = DesignCandidate(0.1, 0.0, -0.1, 20.0)
    assert np.isnan(env.evaluate(design, 30.0))
    assert np.isnan(env.evaluate(design, 30.0))
    assert calls == [(design, 30.0)]


def test_field_env_params_and_baseline_cannot_be_rebound():
    env = PinnEnv(field_net(2.0, 0.55), FLAT_TABLE)
    with pytest.raises(AttributeError):
        env.params = field_net(-2.0, 0.55)
    with pytest.raises(AttributeError):
        env.baseline = None
    assert env.baseline is FLAT_TABLE


def test_a_dropped_field_env_is_freed_without_the_cycle_collector():
    env = PinnEnv(field_net(2.0, 0.55), FLAT_TABLE)
    env.evaluate(DesignCandidate(0.1, 0.0, -0.1, 20.0), 30.0)
    env_ref, memo_ref = weakref.ref(env), weakref.ref(env._score)
    gc.disable()
    try:
        del env
        assert env_ref() is None
        assert memo_ref() is None
    finally:
        gc.enable()


def test_a_negative_zero_control_height_scores_the_bits_of_zero():
    # the memo keys designs by value, and -0.0 == 0.0, so the two must score alike
    params, _ = load_params(SURROGATE)
    rng = np.random.default_rng(31)
    for _ in range(20):
        row = rng.uniform(rl.DESIGN_LO, rl.DESIGN_HI).tolist()
        sc = float(rng.uniform(SC_LO, SC_HI))
        k = int(rng.integers(3))
        plus, minus = list(row), list(row)
        plus[k], minus[k] = 0.0, -0.0
        want = PinnEnv(params, None).evaluate(DesignCandidate(*plus), sc)
        env = PinnEnv(params, None)
        assert bits(env.evaluate(DesignCandidate(*minus), sc)) == bits(want)
        assert bits(env.evaluate(DesignCandidate(*plus), sc)) == bits(want)
        assert env._score.cache_info().hits == 1


def test_soft_failures_leave_no_log_record_or_warning(caplog):
    # each soft failure is a value (nan score, -inf fitness, nan episode,
    # clamped samples); none also reaches a logger or the warnings module
    env = PinnEnv(field_net(-2.0, 0.55), FLAT_TABLE)
    design = DesignCandidate(0.1, 0.0, -0.1, 20.0)
    actor = init_actor(small_cfg(), seed=50)
    with caplog.at_level(logging.DEBUG), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(env.evaluate(design, 30.0))
        assert query_policy(actor, 150.0) == query_policy(actor, 150.0)
        result = run_ga(env, 30.0, GAConfig(population=4, generations=1, elitism=1))
        _, _, history = train_agent(env, small_cfg(episodes=2))
        clamped = outlet_concentration(field_net(2.0, 3.0), design, 30.0)
    assert caplog.records == []
    assert result.best_fitness == -np.inf
    assert np.isnan(history.mean_rewards).all()
    assert np.all(clamped == 1.0)


def test_query_policy_deterministic_and_bounded():
    actor = init_actor(small_cfg(), seed=50)
    d1 = query_policy(actor, 33.0)
    d2 = query_policy(actor, 33.0)
    assert d1 == d2
    # an impossible Schmidt number is named, not extrapolated from
    for sc in (np.nan, np.inf, 0.0, -5.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="Schmidt number"):
                query_policy(actor, sc)


def test_query_policy_calls_forward_once_with_one_row(monkeypatch):
    actor = init_actor(small_cfg(), seed=51)
    calls = []

    def recording_forward(params, X):
        calls.append((params is actor, np.shape(X)))
        return forward(params, X)

    monkeypatch.setattr(rl, "forward", recording_forward)
    for sc in (0.5, 1.0, 33.0, 150.0):  # extrapolated Schmidt numbers included
        want = rl._scale_row(forward(actor, [[sc]])[0, :ACTION_DIM].tolist())
        assert query_policy(actor, sc) == want
        assert calls == [(True, (1, 1))]
        calls.clear()


def former_query(actor, sc):
    """The query before its scalar glue, as an oracle: a one-row pass that
    normalizes the input as an array and forms the first layer with a
    length-1 dot, then the array squash."""
    if not (SC_LO <= sc <= SC_HI):
        check_schmidt(sc)
    norm, table = actor.norm, actor.table()
    h = np.array([sc]) - norm.center
    h *= norm.inv_halfspan
    for _, Wt, b in table[:-1]:
        h = h.dot(Wt)
        h += b
        np.tanh(h, out=h)
    _, Wt, b = table[-1]
    h = h.dot(Wt)
    h += b
    return DesignCandidate(*rl._scale_actions(h[:ACTION_DIM]).tolist())


def design_bytes(designs):
    return np.array([(d.cp1, d.cp2, d.cp3, d.re) for d in designs]).tobytes()


@pytest.mark.parametrize("trained", [True, False])
def test_query_policy_returns_the_former_querys_bits(trained_default, trained):
    actor = trained_default[1] if trained else init_actor(PPOConfig(), seed=53)
    # extrapolated Schmidt numbers, the range's ends and its center included
    sc_values = [*np.random.default_rng(54).uniform(0.5, 200.0, 10_000).tolist(),
                 0.5, SC_LO, 0.5 * (SC_LO + SC_HI), SC_HI, 200.0]
    want = [former_query(actor, sc) for sc in sc_values]
    assert design_bytes([query_policy(actor, sc) for sc in sc_values]) == design_bytes(want)


def former_optimum(sc):
    """QuadraticEnv's optimum in normalized coordinates before its float
    glue, as an oracle."""
    s = (sc - SC_LO) / (SC_HI - SC_LO)
    return np.array([
        0.6 * np.cos(np.pi * s),
        0.6 * np.sin(np.pi * s),
        0.5 * (2.0 * s - 1.0),
        0.5 * np.sin(2.0 * np.pi * s),
    ])


def former_quadratic_reward(design, sc):
    """``QuadraticEnv.evaluate`` before its float glue, as an oracle: the
    normalized design and the optimum as arrays, with numpy's cos and sin."""
    diff = normalize_design(design) - former_optimum(sc)
    return float(1.0 - np.dot(diff, diff))


def test_quadratic_reward_returns_the_former_formulas_bits():
    env = QuadraticEnv()
    rng = np.random.default_rng(57)
    lo, hi = rl.DESIGN_LO, rl.DESIGN_HI
    designs = [DesignCandidate(*row) for row in rng.uniform(lo, hi, (10_000, ACTION_DIM)).tolist()]
    # extrapolated Schmidt numbers included
    sc_values = rng.uniform(0.5, 200.0, 10_000).tolist()
    corners = [DesignCandidate(*np.where([(k >> i) & 1 for i in range(ACTION_DIM)], hi, lo).tolist())
               for k in range(2 ** ACTION_DIM)]
    ends = [0.5, SC_LO, 0.5 * (SC_LO + SC_HI), SC_HI, 200.0]
    pairs = [*zip(designs, sc_values), *((d, sc) for d in corners for sc in ends)]
    got = np.array([env.evaluate(d, sc) for d, sc in pairs])
    assert got.tobytes() == np.array([former_quadratic_reward(d, sc) for d, sc in pairs]).tobytes()
    sc_values += ends
    got = np.array([quadratic_optimum_normalized(sc) for sc in sc_values])
    assert got.tobytes() == np.array([former_optimum(sc) for sc in sc_values]).tobytes()
    assert (design_bytes([quadratic_optimum(sc) for sc in sc_values])
            == design_bytes([rl._scale_row(former_optimum(sc).tolist()) for sc in sc_values]))


def test_synthetic_training_returns_the_former_formulas_bits():
    cfg = PPOConfig(episodes=6, seed=58)

    def run(evaluate):
        rewards = []

        class RecordingEnv:
            def evaluate(self, design, sc):
                rewards.append(evaluate(design, sc))
                return rewards[-1]

        actor, critic, _ = train_agent(RecordingEnv(), cfg)
        return actor.flat.tobytes(), critic.flat.tobytes(), np.array(rewards).tobytes()

    assert run(QuadraticEnv().evaluate) == run(former_quadratic_reward)


# infinities, nan, signed zeros, the clip's ends and one ulp either side of them
SQUASH_MEANS = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0,
                *(np.nextafter(end, end + step) for end in (1.0, -1.0) for step in (-1.0, 1.0))]


def test_row_squash_returns_the_array_squashs_bits(monkeypatch):
    actor = init_actor(small_cfg(), seed=55)
    n = len(SQUASH_MEANS)
    rows = [[m] * ACTION_DIM for m in SQUASH_MEANS]
    rows += [[SQUASH_MEANS[(i + k) % n] for k in range(ACTION_DIM)] for i in range(n)]
    for row in rows:
        out = np.array([row + [0.0] * ACTION_DIM])
        monkeypatch.setattr(rl, "forward", lambda params, X: out)
        want = rl._scale_actions(out[0, :ACTION_DIM])
        if np.isnan(want).any():
            with pytest.raises(DomainError) as former:
                DesignCandidate(*want.tolist())
            for squash in (lambda: query_policy(actor, 10.0), lambda: rl._scale_row(out[0, :ACTION_DIM].tolist())):
                with pytest.raises(DomainError) as got:
                    squash()
                assert str(got.value) == str(former.value)
        else:
            assert design_bytes([query_policy(actor, 10.0)]) == want.tobytes()
            assert design_bytes([rl._scale_row(out[0, :ACTION_DIM].tolist())]) == want.tobytes()


@pytest.mark.parametrize("net", [
    init_critic(PPOConfig(), seed=1),  # its one output would broadcast over every action
    init_params(NetworkSpec(input_dim=1, output_dim=ACTION_DIM, hidden=(8,)), seed=56),
    init_params(NetworkSpec(input_dim=1, output_dim=2 * ACTION_DIM + 1, hidden=(8,)), seed=56),
    init_params(NetworkSpec(input_dim=2, output_dim=2 * ACTION_DIM, hidden=(8,)), seed=56),
], ids=["critic", "means_only", "one_too_many", "two_inputs"])
def test_query_policy_refuses_a_network_that_is_not_an_actor(net):
    with pytest.raises(DomainError, match=f"got {net.spec.input_dim} -> {net.spec.output_dim}$"):
        query_policy(net, 10.0)


def test_actor_checkpoint_round_trip(tmp_path):
    actor = init_actor(small_cfg(), seed=60)
    path = tmp_path / "actor.ckpt"
    save_params(actor, path, role="actor")
    back, header = load_params(path)
    assert header["role"] == "actor"
    assert np.array_equal(back.flat, actor.flat)
    assert back.spec == actor.spec


def test_trained_actor_checkpoint_holds_the_bytes_of_a_standalone_copy(tmp_path):
    actor, _, _ = train_agent(QuadraticEnv(), small_cfg(seed=61))
    save_params(actor, tmp_path / "trained.ckpt", role="actor")
    save_params(actor.with_flat(actor.flat), tmp_path / "copy.ckpt", role="actor")
    assert (tmp_path / "trained.ckpt").read_bytes() == (tmp_path / "copy.ckpt").read_bytes()
    back, _ = load_params(tmp_path / "trained.ckpt")
    assert np.array_equal(back.flat, actor.flat)


@pytest.fixture(scope="module")
def trained_default():
    env = QuadraticEnv()
    actor, critic, history = train_agent(env, PPOConfig(seed=0))
    return env, actor, history


def test_default_run_converges(trained_default):
    _, _, history = trained_default
    assert len(history.mean_rewards) == 100
    assert history.tail_mean(20) >= 0.95


def test_trained_policy_tracks_optimum(trained_default):
    _, actor, _ = trained_default
    for sc in (10.0, 50.0, 90.0):
        d = query_policy(actor, sc)
        err = np.linalg.norm(normalize_design(d) - quadratic_optimum_normalized(sc))
        assert err <= 0.1, f"sc={sc}: {err}"
