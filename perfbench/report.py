"""Turn one run's recordings into the named metrics of BENCHMARK.json."""

from __future__ import annotations

import math
import resource
import statistics

import numpy as np

from pipeline import Recorder


def _median(values) -> float:
    return float(statistics.median(values))


def _q(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def _finite(values) -> list:
    return [v for v in values if math.isfinite(v)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rate(rec: Recorder, work: str, seconds: str) -> float:
    return sum(rec.times[work]) / sum(rec.times[seconds])


def end_to_end(rec: Recorder, stages) -> dict:
    """User-visible figures, times rescaled by the speed gauge (see gauge.py).

    Rates are all work over all time of a stage. Query percentiles are taken
    per block of ``QUERY_BLOCK`` queries, blocks being spread over the whole
    run, and the median over blocks is reported, so one block hit by a stall
    does not move the figure.
    """
    return {
        "setup_s": (_median(rec.times["setup"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "train.steps_per_s": (_rate(rec, "train.steps", "train.s"), "1/s"),
        "train.final_loss": (_median(stages["train"].final_losses), "1"),
        "ga.evals_per_s": (_rate(rec, "ga.evals", "ga.run_s"), "1/s"),
        "ga.run_s.p50": (_median(rec.times["ga.run_s"]), "s"),
        "ppo.episodes_per_s": (_rate(rec, "rl.train_agent.episodes", "rl.train_agent"), "1/s"),
        "ppo.tail_reward": (_median(_finite(stages["ppo"].tail_rewards)), "1"),
        "ppo.update_episodes_per_s": (_rate(rec, "rl.train_agent.synthetic.episodes",
                                            "rl.train_agent.synthetic"), "1/s"),
        "ppo.synthetic_tail_reward": (_median(stages["ppo"].synth_tails), "1"),
        "query.latency_us.p50": (_median(rec.times["query.p50"]), "us"),
        "query.latency_us.p99": (_median(rec.times["query.p99"]), "us"),
    }


def raw(rec: Recorder) -> dict:
    """The same rates and latencies before the gauge rescaling, for reference."""
    return {
        "setup_s": _median(rec.times["setup.raw"]),
        "train.steps_per_s": _rate(rec, "train.steps", "train.s.raw"),
        "ga.evals_per_s": _rate(rec, "ga.evals", "ga.run_s.raw"),
        "ppo.episodes_per_s": _rate(rec, "rl.train_agent.episodes", "rl.train_agent.raw"),
        "ppo.update_episodes_per_s": _rate(rec, "rl.train_agent.synthetic.episodes",
                                           "rl.train_agent.synthetic.raw"),
        "query.latency_us.p50": _median(rec.times["query.p50.raw"]),
        "query.latency_us.p99": _median(rec.times["query.p99.raw"]),
    }


def _ms(tr, idx) -> list:
    return [tr.spans[i].duration * 1e3 for i in idx]


def _overhead(reps) -> float:
    """Median traced repetition over median untraced one, minus one."""
    on = [t for traced, t in reps if traced]
    off = [t for traced, t in reps if not traced]
    return _median(on) / _median(off) - 1.0


def per_layer(rec: Recorder, stages, inputs) -> dict:
    """Split of the traced repetitions by layer, plus the failure counts."""
    tr = rec.tracer
    own = tr.self_times()
    kids = tr.child_index()
    out = {}

    def under(i: int, name: str) -> list:
        return [j for j in kids.get(i, ()) if tr.spans[j].name == name]

    colloc_spans = tr.named("sampling.generate_collocation")
    c = inputs.colloc
    out["sampling.generate_collocation_ms"] = (_median(_ms(tr, colloc_spans)), "ms")
    out["sampling.rows.interior"] = (len(c.interior), "count")
    out["sampling.rows.boundary"] = (sum(len(g.X) for g in c.boundary.values()), "count")
    out["sampling.rows.slice"] = (sum(len(s.X) for s in c.slices), "count")
    out["geometry.build_spline_calls"] = (
        len(under(colloc_spans[0], "geometry.build_spline")), "count")

    trains = tr.named("pinn_train.train")
    steps = sum(tr.spans[i].attrs["steps"] for i in trains)
    loss = tr.named("physics.loss_node", parent="pinn_train.train")
    applies = [j for i in loss for j in under(i, "diffnet.net_apply")]
    grads = tr.named("diffnet.param_gradient", parent="pinn_train.train")
    out["physics.loss_node_ms.p50"] = (_q(_ms(tr, loss), 0.5), "ms")
    out["physics.loss_node_ms.p95"] = (_q(_ms(tr, loss), 0.95), "ms")
    out["physics.tape_self_ms"] = (_median([own[i] * 1e3 for i in loss]), "ms")
    out["diffnet.net_apply_calls_per_step"] = (len(applies) / len(loss), "calls/step")
    out["diffnet.net_apply_rows_per_step"] = (
        sum(tr.spans[j].attrs["rows"] for j in applies) / len(loss), "rows/step")
    out["diffnet.net_apply_ms"] = (sum(_ms(tr, applies)) / len(loss), "ms/step")
    out["diffnet.param_gradient_ms.p50"] = (_q(_ms(tr, grads), 0.5), "ms")
    out["diffnet.param_gradient_ms.p95"] = (_q(_ms(tr, grads), 0.95), "ms")
    out["diffnet.adam_step_ms"] = (
        _median(_ms(tr, tr.named("diffnet.adam_step", parent="pinn_train.train"))), "ms")
    out["pinn_train.step_self_ms"] = (sum(own[i] for i in trains) * 1e3 / steps, "ms")

    scores = tr.named("metrics.score")
    score_fwd = [j for i in scores for j in under(i, "diffnet.forward")]
    out["diffnet.forward_calls_per_score"] = (len(score_fwd) / len(scores), "calls/score")
    out["diffnet.forward_ms"] = (_median(_ms(tr, score_fwd)), "ms")
    one_row = [i for i in tr.named("diffnet.forward", parent="rl.query_policy")
               if tr.spans[i].attrs["rows"] == 1]
    out["diffnet.forward_us.one_row"] = (_median(_ms(tr, one_row)) * 1e3, "us")
    out["diffnet.checkpoint_load_ms"] = (_median(_ms(tr, tr.named("diffnet.checkpoint_load"))), "ms")
    out["diffnet.checkpoint_save_ms"] = (_median(_ms(tr, tr.named("diffnet.checkpoint_save"))), "ms")

    out["metrics.score_ms.p50"] = (_q(_ms(tr, scores), 0.5), "ms")
    out["metrics.score_ms.p99"] = (_q(_ms(tr, scores), 0.99), "ms")
    out["metrics.score_self_share"] = (
        sum(own[i] for i in scores) / sum(tr.spans[i].duration for i in scores), "fraction")
    out["metrics.baseline_table_ms"] = (_median(_ms(tr, tr.named("metrics.baseline_table"))), "ms")

    runs = tr.named("ga.run_ga")
    out["ga.self_share"] = (
        sum(own[i] for i in runs) / sum(tr.spans[i].duration for i in runs), "fraction")
    out["ga.evaluations"] = (
        sum(len(under(i, "metrics.score")) for i in runs) / len(runs), "count")
    out["ga.nonfinite_evals"] = (stages["ga"].nonfinite, "count")
    out["ga.best_fitness_mean"] = (float(np.mean(stages["ga"].best)), "1")

    out["rl.rollout_ms"] = (_median(_ms(tr, tr.named("rl.rollout", parent="rl.train_agent"))), "ms")
    # per updated episode: one with a non-finite reward skips its update, so on
    # the pinned surrogate the updates come from the synthetic-landscape calls
    agents = tr.named("rl.train_agent") + tr.named("rl.train_agent.synthetic")
    rollouts = [j for i in agents for j in under(i, "rl.rollout")]
    updated = sum(tr.spans[i].attrs["updated"] for i in agents)
    out["diffnet.gradient_ms"] = (sum(_ms(tr, tr.named("diffnet.gradient"))) / updated,
                                  "ms/episode")
    # everything train_agent does outside its rollouts: the PPO update epochs
    update_s = sum(tr.spans[i].duration for i in agents) - sum(tr.spans[i].duration for i in rollouts)
    out["rl.update_ms"] = (update_s * 1e3 / updated, "ms/episode")
    out["rl.nonfinite_rewards"] = (stages["ppo"].nonfinite, "count")
    out["rl.skipped_episodes"] = (stages["ppo"].skipped, "count")

    out["failed_share"] = (rec.failed / rec.attempted, "fraction")
    for name in ("train", "ga", "ppo"):
        out[f"trace.overhead_share.{name}"] = (_overhead(rec.traced_reps[name]), "fraction")
    return out
