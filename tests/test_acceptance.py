"""Package-level acceptance gates.

Each test exercises one guarantee end to end and prints a single
PASS/FAIL line with the measured numbers next to the gate values
(run pytest with -s to see them live). The final hour-scale smoke
test is disabled unless MIXOPT_RUN_E2E=1 is set in the environment.
"""
import os
import time

import numpy as np
import pytest

from mixopt.diffnet import (
    InputNorm,
    NetworkSpec,
    forward,
    forward_vjp,
    init_params,
    net_apply,
    param_gradient,
    tape,
)
from mixopt.ga import GAConfig, compare_timing, run_ga
from mixopt.geometry import BAFFLE_SAMPLES, SEGMENTS, ChannelDims, build_spline, segment_points
from mixopt.metrics import baseline_table, mixing_efficiency, mixing_index
from mixopt.physics import FIELD_INDEX, pde_residuals
from mixopt.pinn_train import TrainConfig, load_checkpoint, save_checkpoint, train
from mixopt.rl import (
    PinnEnv,
    PPOConfig,
    QuadraticEnv,
    compute_advantages,
    query_policy,
    train_agent,
)
from mixopt.sampling import CollocationCounts, SampleBounds, generate_collocation

from fitting import linear_r2
from ppo_oracle import normalize_design, ppo_losses, quadratic_optimum_normalized
from spline_oracle import eval_spline


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------------ geometry


def dense_spline_solve(heights):
    """Independent natural-cubic oracle: one dense 16x16 linear system.

    Unknowns are (a, b, c, d) per segment; equations are interpolation at
    both segment ends, C1 and C2 continuity at interior knots, and zero
    second derivative at the curve ends.
    """
    h = 0.125
    A = np.zeros((16, 16))
    rhs = np.zeros(16)

    def col(i, k):
        return 4 * i + k

    r = 0
    for i in range(4):
        A[r, col(i, 0)] = 1.0
        rhs[r] = heights[i]
        r += 1
    for i in range(4):
        A[r, col(i, 0)] = 1.0
        A[r, col(i, 1)] = h
        A[r, col(i, 2)] = h * h
        A[r, col(i, 3)] = h ** 3
        rhs[r] = heights[i + 1]
        r += 1
    for i in range(3):
        A[r, col(i, 1)] = 1.0
        A[r, col(i, 2)] = 2.0 * h
        A[r, col(i, 3)] = 3.0 * h * h
        A[r, col(i + 1, 1)] = -1.0
        r += 1
    for i in range(3):
        A[r, col(i, 2)] = 2.0
        A[r, col(i, 3)] = 6.0 * h
        A[r, col(i + 1, 2)] = -2.0
        r += 1
    A[r, col(0, 2)] = 2.0
    r += 1
    A[r, col(3, 2)] = 2.0
    A[r, col(3, 3)] = 6.0 * h
    return np.linalg.solve(A, rhs).reshape(4, 4)


def test_spline_matches_dense_linear_solve():
    rng = np.random.default_rng(20240601)
    h = 0.125
    worst_coeff = 0.0
    worst_inv = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        cps = rng.uniform(-0.5, 0.5, size=3)
        co = build_spline(cps)
        expected = dense_spline_solve([0.0, *cps, 0.0])
        worst_coeff = max(worst_coeff, float(np.max(np.abs(co - expected))))
        for i in range(3):
            val = co[i, 0] + co[i, 1] * h + co[i, 2] * h * h + co[i, 3] * h ** 3
            slope = co[i, 1] + 2 * co[i, 2] * h + 3 * co[i, 3] * h * h
            curv = 2 * co[i, 2] + 6 * co[i, 3] * h
            worst_inv = max(worst_inv,
                            abs(val - co[i + 1, 0]),
                            abs(slope - co[i + 1, 1]),
                            abs(curv - 2 * co[i + 1, 2]))
        worst_inv = max(worst_inv, abs(2 * co[0, 2]), abs(2 * co[3, 2] + 6 * co[3, 3] * h))
    dt = time.perf_counter() - t0
    ok = worst_coeff <= 1e-9 and worst_inv <= 1e-10 and dt < 5.0
    _gate("spline construction vs dense solve",
          ok,
          f"1000 polygons, max coefficient diff {worst_coeff:.2e} (gate 1e-9), "
          f"max continuity/end residual {worst_inv:.2e} (gate 1e-10), {dt:.2f}s (gate 5s)")


def test_wall_normals_unit_and_orthogonal():
    rng = np.random.default_rng(77)
    worst_len = 0.0
    worst_dot = 0.0
    baffles = [piece for kind, _, piece in SEGMENTS if kind == "baffle"]
    H = ChannelDims().H
    for _ in range(1000):
        coeffs = build_spline(rng.uniform(-0.5, 0.5, size=3))
        _, start, _, sign = piece = baffles[rng.integers(len(baffles))]
        pts, n = segment_points(piece, [rng.uniform(0.0, 1.0)], coeffs, BAFFLE_SAMPLES)
        # the wall's slope in mm is the spline's, mirrored on the upper wall
        _, slope = eval_spline(coeffs, np.clip((pts[0, 0] - start) / H, 0.0, 0.5))
        tangent = np.array([1.0, sign * slope]) / np.hypot(1.0, slope)
        worst_len = max(worst_len, abs(float(np.hypot(*n[0])) - 1.0))
        worst_dot = max(worst_dot, abs(float(n[0] @ tangent)))
    ok = worst_len <= 1e-12 and worst_dot <= 1e-12
    _gate("baffle normals unit length and tangent orthogonality",
          ok,
          f"1000 random (polygon, baffle point) draws, max length error {worst_len:.2e}, "
          f"max tangent dot {worst_dot:.2e} (gates 1e-12)")


# ------------------------------------------------------------- differentiation


def _rel_linf(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _composite_value(params, X):
    out, jac, _ = forward_vjp(params, X, need_jac=True)
    return float(np.mean(out ** 2) + np.mean(jac ** 2) + np.mean(out[:, 0] * jac[:, 1, 0]))


def _composite_node(leaf_node, template, X):
    out, jac = net_apply(leaf_node, template, X, need_jac=True)
    cross = out[:, 0] * jac[:, 1, 0]
    return ((out ** 2).sum() * (1.0 / out.size) + (jac ** 2).sum() * (1.0 / jac.size)
            + cross.sum() * (1.0 / cross.size))


def test_network_derivatives_match_central_differences():
    bounds = SampleBounds()
    norm = InputNorm.from_bounds(bounds.pairs())
    lo = bounds.lows()
    hi = bounds.highs()
    worst_spatial = 0.0
    worst_param = 0.0
    t0 = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        width = int(rng.integers(4, 9))
        batch = int(rng.integers(2, 5))
        spec = NetworkSpec(hidden=(width,))
        params = init_params(spec, norm=norm, seed=int(rng.integers(1 << 30)))
        X = rng.uniform(lo, hi, size=(batch, 7))

        _, jac, _ = forward_vjp(params, X, need_jac=True)
        h = 1e-5
        for d in range(2):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, d] += h
            Xm[:, d] -= h
            fd = (forward(params, Xp) - forward(params, Xm)) / (2.0 * h)
            worst_spatial = max(worst_spatial, _rel_linf(jac[:, :, d], fd))

        leaf_node = tape.leaf(params.flat)
        got = param_gradient(_composite_node(leaf_node, params, X), leaf_node)
        hp = 1e-6
        want = np.zeros_like(params.flat)
        for i in range(params.flat.size):
            fp = params.flat.copy()
            fp[i] += hp
            fm = params.flat.copy()
            fm[i] -= hp
            want[i] = (_composite_value(params.with_flat(fp), X)
                       - _composite_value(params.with_flat(fm), X)) / (2.0 * hp)
        worst_param = max(worst_param, _rel_linf(got, want))
    dt = time.perf_counter() - t0
    ok = worst_spatial <= 1e-5 and worst_param <= 1e-5 and dt < 30.0
    _gate("network derivatives vs central finite differences",
          ok,
          f"100 random nets/batches, spatial rel linf {worst_spatial:.2e}, "
          f"parameter rel linf {worst_param:.2e} (gates 1e-5), {dt:.1f}s (gate 30s)")


# ------------------------------------------------------------------- physics


def _fields(n, **fields):
    """A network's (out, jac) at n rows: values by name (``u``) and x/y
    derivatives by name and axis (``u_y``); every other entry zero."""
    out, jac = np.zeros((n, 9)), np.zeros((n, 9, 2))
    for name, value in fields.items():
        field, _, axis = name.partition("_")
        if axis:
            jac[:, FIELD_INDEX[field], "xy".index(axis)] = value
        else:
            out[:, FIELD_INDEX[field]] = value
    return out, jac


def _poiseuille_fields(y, re):
    y = np.asarray(y, dtype=float)
    x = np.linspace(0.5, 6.5, y.size)
    p = 12.0 / re * (7.0 - x)
    return _fields(
        y.size, u=6.0 * y * (1.0 - y), p=p, txx=-p, tyy=-p, txy=(6.0 - 12.0 * y) / re, c=0.5,
        u_y=6.0 - 12.0 * y, p_x=-12.0 / re, txx_x=12.0 / re, tyy_x=12.0 / re, txy_y=-12.0 / re)


def _diffusion_fields(y, slope=0.8, offset=0.1, pressure=0.7):
    y = np.asarray(y, dtype=float)
    return _fields(y.size, p=pressure, txx=-pressure, tyy=-pressure,
                   c=offset + slope * y, jy=-slope, c_y=slope)


def test_flow_closures_zero_every_residual():
    y = np.linspace(0.0, 1.0, 33)
    worst = 0.0
    for re in (1.0, 10.0, 37.5):
        res = pde_residuals(*_poiseuille_fields(y, re), re=re, sc=12.0)
        assert len(res) == 9
        worst = max(worst, max(float(np.max(np.abs(r))) for r in res.values()))
    res = pde_residuals(*_diffusion_fields(y), re=25.0, sc=3.0)
    worst = max(worst, max(float(np.max(np.abs(r))) for r in res.values()))
    _gate("channel-flow and pure-diffusion closures",
          worst <= 1e-12,
          f"all nine residual families, max |residual| {worst:.2e} (gate 1e-12)")


# ------------------------------------------------------------------- metrics


def test_mixing_metric_identities_and_scale_law():
    perfect = mixing_index(np.full(40, 0.5), np.ones(40)) == 1.0
    segregated = mixing_index(np.array([0.0] * 20 + [1.0] * 20), np.ones(40)) == 0.0
    half = mixing_index(np.array([0.25, 0.75]), np.ones(2)) == 0.5

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(200):
        mi = float(rng.uniform(0.01, 0.12))
        cp, mi0, cp0 = rng.uniform(0.2, 8.0, size=3)
        k = float(rng.uniform(0.1, 8.0))
        m = float(rng.uniform(0.1, 10.0))
        base = mixing_efficiency(mi, cp, mi0, cp0)
        scaled = mixing_efficiency(k * mi, m * cp, mi0, cp0)
        want = k / m ** (1.0 / 3.0) * base
        worst = max(worst, abs(scaled - want) / abs(want))
    ok = perfect and segregated and half and worst <= 1e-12
    _gate("mixing-index identities and efficiency scale law",
          ok,
          f"MI(0.5)=1 {perfect}, MI(segregated)=0 {segregated}, MI([.25,.75])=.5 {half}, "
          f"cube-root law rel err {worst:.2e} (gate 1e-12)")


# ------------------------------------------------------- reduced field training


@pytest.fixture(scope="module")
def reduced_run():
    cfg = TrainConfig(
        steps=5000,
        batch_size=1024,
        learning_rate=2e-3,
        seed=0,
        hidden=(64, 64, 64, 64),
        bounds=SampleBounds(cp1=(0.0, 0.0), cp2=(0.0, 0.0), cp3=(0.0, 0.0),
                            re=(10.0, 10.0), sc=(10.0, 10.0)),
        counts=CollocationCounts(interior=3000, per_boundary=80, per_slice=64),
        log_interval=50,
    )
    t0 = time.perf_counter()
    params, history = train(cfg)
    return params, history, time.perf_counter() - t0


def test_straight_channel_training_recovers_poiseuille(reduced_run):
    params, history, seconds = reduced_run
    ratio = history.initial.total / max(history.final.total, 1e-300)
    y = np.linspace(0.0, 1.0, 101)
    X = np.column_stack([np.full(101, 7.0), y, np.zeros((101, 3)),
                         np.full(101, 10.0), np.full(101, 10.0)])
    u = forward(params, X)[:, 0]
    exact = 6.0 * y * (1.0 - y)
    rel = float(np.linalg.norm(u - exact) / np.linalg.norm(exact))
    ok = (history.aborted_at is None and ratio >= 100.0 and rel <= 0.10
          and seconds <= 600.0)
    _gate("straight-channel training",
          ok,
          f"5000 steps, loss {history.initial.total:.3e} -> {history.final.total:.3e} "
          f"({ratio:.0f}x, gate 100x), outlet rel L2 vs 6y(1-y) {rel:.4f} (gate 0.10), "
          f"{seconds:.0f}s (gate 600s)")


# --------------------------------------------------------------- policy search


@pytest.fixture(scope="module")
def synthetic_policy():
    t0 = time.perf_counter()
    actor, critic, history = train_agent(QuadraticEnv(), PPOConfig(seed=0))
    return actor, critic, history, time.perf_counter() - t0


def test_policy_training_converges_on_synthetic_env(synthetic_policy):
    actor, _, history, seconds = synthetic_policy
    tail = history.tail_mean(20)
    errs = []
    for sc in (10.0, 50.0, 90.0):
        a = normalize_design(query_policy(actor, sc))
        errs.append(float(np.linalg.norm(a - quadratic_optimum_normalized(sc))))
    worst = max(errs)
    ok = tail >= 0.95 and worst <= 0.1 and seconds <= 120.0
    _gate("policy convergence on the synthetic landscape",
          ok,
          f"final-20 mean reward {tail:.3f} (gate 0.95), probe action error {worst:.3f} "
          f"(gate 0.1 = 5% of range), {seconds:.1f}s (gate 120s)")


def test_clipped_surrogate_unit_cases_and_advantages():
    cfg = PPOConfig(clip_eps=0.2)
    zero = np.zeros(1)
    up, _, _, _ = ppo_losses(zero, np.log([2.0]), np.ones(1), zero, zero, cfg, np.zeros((1, 4)))
    down, _, _, _ = ppo_losses(zero, np.log([0.5]), -np.ones(1), zero, zero, cfg, np.zeros((1, 4)))

    rng = np.random.default_rng(5)
    adv = compute_advantages(rng.normal(3.0, 2.5, 512), np.zeros(512))
    mean_err = abs(float(adv.mean()))
    std_err = abs(float(adv.std()) - 1.0)

    ok = up == 1.2 and down == -0.8 and mean_err <= 1e-12 and std_err <= 1e-6
    _gate("clipped-surrogate unit cases and advantage normalization",
          ok,
          f"(r=2, A=1) -> {up} (want 1.2), (r=0.5, A=-1) -> {down} (want -0.8), "
          f"|mean| {mean_err:.1e} (gate 1e-12), |std-1| {std_err:.1e} (gate 1e-6)")


def test_direct_search_reaches_synthetic_optimum():
    env = QuadraticEnv()
    results = {}
    monotone = True
    for seed in (0, 1):
        a = run_ga(env, 37.0, GAConfig(seed=seed))
        b = run_ga(env, 37.0, GAConfig(seed=seed))
        results[seed] = a
        monotone = monotone and bool(np.all(np.diff(a.best_per_generation) >= 0.0))
        assert np.array_equal(a.best.as_array(), b.best.as_array())
        assert a.best_fitness == b.best_fitness
        assert a.best_per_generation == b.best_per_generation
    best = results[0].best_fitness
    ok = best >= 1.0 - 1e-3 and monotone
    _gate("direct search on the synthetic landscape",
          ok,
          f"best fitness {best:.6f} (gate {1.0 - 1e-3}), best-so-far monotone {monotone}, "
          f"identical reruns for seeds 0 and 1")


def test_search_cost_scales_linearly_while_queries_stay_flat(synthetic_policy):
    actor, _, _, _ = synthetic_policy
    # the median of 5 timed runs per point, taken in rounds over the points,
    # rides out a slow spell of a shared host, which 3 back to back did not
    table = compare_timing(QuadraticEnv(), np.linspace(5.0, 95.0, 8),
                           GAConfig(seed=0), actor, repeats=5)
    r2 = linear_r2(table.m, table.ga_seconds)
    per_query = np.asarray(table.rl_seconds) / np.asarray(table.m)
    flatness = float(per_query.max() / per_query.min())
    ok = r2 >= 0.99 and flatness <= 3.0
    _gate("search cost linear vs flat policy queries",
          ok,
          f"cumulative search time linear fit R2 {r2:.4f} (gate 0.99), "
          f"per-query time max/min {flatness:.2f} (gate 3)")


# -------------------------------------------------------------- reproducibility


def test_every_pipeline_stage_bit_reproducible(tmp_path):
    dims = ChannelDims()
    counts = CollocationCounts(interior=80, per_boundary=8, per_slice=12)
    c1 = generate_collocation(dims, SampleBounds(), counts, seed=123)
    c2 = generate_collocation(dims, SampleBounds(), counts, seed=123)
    colloc_ok = np.array_equal(c1.interior, c2.interior)
    for kind, g in c1.boundary.items():
        colloc_ok = colloc_ok and np.array_equal(g.X, c2.boundary[kind].X)

    cfg = TrainConfig(steps=30, batch_size=64, seed=7, hidden=(12, 12),
                      counts=CollocationCounts(interior=120, per_boundary=8, per_slice=8),
                      log_interval=10)
    p1, h1 = train(cfg)
    p2, h2 = train(cfg)
    train_ok = (np.array_equal(p1.flat, p2.flat)
                and [r.total for r in h1.reports] == [r.total for r in h2.reports])

    path = tmp_path / "repro.ckpt"
    save_checkpoint(p1, path, seed=cfg.seed)
    ckpt_ok = np.array_equal(load_checkpoint(path).flat, p1.flat)

    pcfg = PPOConfig(episodes=6, batch_size=16, epochs=2, seed=3,
                     actor_hidden=(8,), critic_hidden=(8,))
    a1, v1, hist1 = train_agent(QuadraticEnv(), pcfg)
    a2, v2, hist2 = train_agent(QuadraticEnv(), pcfg)
    ppo_ok = (np.array_equal(a1.flat, a2.flat) and np.array_equal(v1.flat, v2.flat)
              and hist1.mean_rewards == hist2.mean_rewards)

    g1 = run_ga(QuadraticEnv(), 42.0, GAConfig(seed=5, population=12, generations=8))
    g2 = run_ga(QuadraticEnv(), 42.0, GAConfig(seed=5, population=12, generations=8))
    ga_ok = (np.array_equal(g1.best.as_array(), g2.best.as_array())
             and g1.best_fitness == g2.best_fitness and g1.evaluations == g2.evaluations)

    ok = colloc_ok and train_ok and ckpt_ok and ppo_ok and ga_ok
    _gate("bit-identical reruns of every pipeline stage",
          ok,
          f"collocation {colloc_ok}, field training {train_ok}, checkpoint io {ckpt_ok}, "
          f"policy training {ppo_ok}, direct search {ga_ok}")


# ------------------------------------------------------------ end-to-end smoke


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("MIXOPT_RUN_E2E") != "1",
                    reason="hour-scale run; set MIXOPT_RUN_E2E=1 to enable")
def test_trained_policy_matches_flat_baseline_across_schmidt(tmp_path):
    t0 = time.perf_counter()
    # The parametric run needs denser anchors than the reduced one: with only
    # tens of boundary rows per segment the interior settles on the exact
    # zero-flow solution and point-spikes the sparse inlet and flux targets.
    # Flux stations start past the inlet mouths (x > W/H = 1), where the
    # through-flow has fully entered and the unit target is exact.
    cfg = TrainConfig(
        steps=90_000,
        seed=0,
        counts=CollocationCounts(interior=20_000, per_boundary=384, per_slice=64),
        slice_stations=tuple(np.linspace(1.2, 7.0, 12)),
        log_interval=500,
    )
    params, history = train(cfg)
    train_minutes = (time.perf_counter() - t0) / 60.0
    assert history.aborted_at is None

    path = tmp_path / "field.ckpt"
    save_checkpoint(params, path, seed=cfg.seed)
    params = load_checkpoint(path)

    env = PinnEnv(params, baseline_table(params))
    actor, _, _ = train_agent(env, PPOConfig(seed=0))

    sc_values = np.linspace(2.5, 97.5, 20)
    scores = np.array([env.evaluate(query_policy(actor, float(sc)), float(sc))
                       for sc in sc_values])
    good = int(np.sum(scores >= 0.95))
    _gate("policy designs vs flat baseline across Schmidt numbers",
          good >= 16,
          f"{good}/20 queries at efficiency >= 0.95 of baseline (gate 16), "
          f"field training {train_minutes:.0f} min, scores "
          + np.array2string(scores, precision=3, max_line_width=200))
