"""Command-line entry point.

Subcommands cover the whole pipeline: geometry export, field-network
training, design evaluation, PPO optimization, policy queries, and the
GA-vs-policy timing comparison. A JSON config file (schema_version 1)
overrides the documented defaults; unknown keys are rejected. Exit codes:
0 success, 1 numerical failure, 2 invalid input or config. Each command
prints one JSON object to stdout, and errors go to stderr as one JSON
object per failure; both are strict RFC 8259 JSON, with a non-finite
number written as null.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import jsonout
from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    NumericalError,
    SamplingError,
    check_ints,
)
from .ga import GAConfig, compare_timing
from .geometry import build_spline, polyline_rows
from .metrics import DesignCandidate, baseline_table, compute_mixing_report
from .diffnet import load_params, save_params
from .physics import LossWeights
from .pinn_train import TrainConfig, evaluate_fields, load_checkpoint, save_checkpoint, train
from .rl import SC_HI, SC_LO, PinnEnv, PPOConfig, QuadraticEnv, query_policy, train_agent
from .sampling import CollocationCounts, SampleBounds

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    train: TrainConfig = field(default_factory=TrainConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    ga: GAConfig = field(default_factory=GAConfig)

    def __post_init__(self):
        check_ints(self, schema_version=1)


_NESTED = {
    "train": TrainConfig,
    "ppo": PPOConfig,
    "ga": GAConfig,
    "bounds": SampleBounds,
    "counts": CollocationCounts,
    "weights": LossWeights,
}


def _coerce(value):
    if isinstance(value, list):
        return tuple(_coerce(v) for v in value)
    return value


def _build(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
        if key in _NESTED and isinstance(value, dict):
            kwargs[key] = _build(_NESTED[key], value, f"{where}.{key}")
        else:
            kwargs[key] = _coerce(value)
    try:
        return cls(**kwargs)
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path=None) -> RunConfig:
    """Parse the JSON config file; None gives all defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _build(RunConfig, data, "config")
    if cfg.schema_version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.schema_version}; "
                          f"this build reads version {SCHEMA_VERSION}")
    return cfg


def _emit(payload: dict) -> None:
    print(jsonout.dumps(payload))


def cmd_geometry(args, cfg: RunConfig) -> int:
    if args.points < 2:
        raise ConfigError(f"--points {args.points} must be at least 2")
    rows = list(polyline_rows(build_spline(args.cp), points_per_segment=args.points))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_mm", "y_mm", "segment", "nx", "ny"])
        for x, y, name, nx, ny in rows:
            writer.writerow([repr(float(x)), repr(float(y)), name,
                             repr(float(nx)), repr(float(ny))])
    _emit({"command": "geometry", "out": args.out, "rows": len(rows)})
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    tc = cfg.train
    if args.steps is not None:
        tc = dataclasses.replace(tc, steps=args.steps)
    if args.seed is not None:
        tc = dataclasses.replace(tc, seed=args.seed)
    params, history = train(tc)
    save_checkpoint(params, args.out, seed=tc.seed)
    if args.history:
        with open(args.history, "w", newline="") as fh:
            writer = csv.writer(fh)
            # the ends are full-set losses, the periodic reports minibatch ones
            writer.writerow(["step", "set", "total"])
            writer.writerow([history.initial.step, "full", repr(history.initial.total)])
            for r in history.reports:
                writer.writerow([r.step, "batch", repr(r.total)])
            # after no steps the final full-set loss is the initial one
            if history.final.step != history.initial.step:
                writer.writerow([history.final.step, "full", repr(history.final.total)])
    summary = {
        "command": "train",
        "checkpoint": args.out,
        "initial_total": history.initial.total,
        "final_total": history.final.total if history.final else None,
        "aborted_at": history.aborted_at,
    }
    _emit(summary)
    return 0 if history.aborted_at is None else 1


def cmd_evaluate(args, cfg: RunConfig) -> int:
    _check_sc(args.sc, "--sc")
    design = DesignCandidate(args.cp[0], args.cp[1], args.cp[2], args.re)
    params = load_checkpoint(args.checkpoint)
    table = evaluate_fields(params, args.cp, design.re, args.sc)
    table.to_csv(args.fields)
    report = compute_mixing_report(params, design, args.sc)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    _emit({"command": "evaluate", "fields": args.fields,
           "report": json.loads(report.to_json())})
    return 0


def _environment(args):
    if args.synthetic:
        return QuadraticEnv()
    if not args.checkpoint:
        raise ConfigError("either --synthetic or --checkpoint is required")
    params = load_checkpoint(args.checkpoint)
    return PinnEnv(params, baseline_table(params))


def cmd_optimize_rl(args, cfg: RunConfig) -> int:
    env = _environment(args)
    pc = cfg.ppo
    if args.seed is not None:
        pc = dataclasses.replace(pc, seed=args.seed)
    if args.episodes is not None:
        pc = dataclasses.replace(pc, episodes=args.episodes)
    actor, critic, history = train_agent(env, pc)
    save_params(actor, args.out, role="actor", seed=pc.seed)
    if args.critic_out:
        save_params(critic, args.critic_out, role="critic", seed=pc.seed)
    if args.history:
        history.to_csv(args.history)
    _emit({"command": "optimize-rl", "actor": args.out,
           "episodes": len(history.mean_rewards),
           "skipped_episodes": int(np.count_nonzero(np.isnan(history.mean_rewards))),
           "final_smoothed": history.tail_mean(50)})
    return 0


def _parse_sc_list(raw) -> list:
    try:
        values = [float(s) for s in raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad Schmidt-number list {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError("Schmidt-number list is empty")
    for v in values:
        _check_sc(v, raw)
    return values


def _check_sc(value: float, where: str) -> None:
    if not 0.0 < value < float("inf"):
        raise ConfigError(f"Schmidt number {value!r} in {where!r} must be finite and positive")


def cmd_query(args, cfg: RunConfig) -> int:
    sc_values = _parse_sc_list(args.sc)
    actor, _ = load_params(args.policy, role="actor")
    env = None
    if args.checkpoint:
        # scored against a direct flat-wall evaluation; a degenerate flow
        # costs its own row (nan), not the whole table
        env = PinnEnv(load_checkpoint(args.checkpoint), None)
    rows = []
    degenerate = 0
    for sc in sc_values:
        d = query_policy(actor, sc)
        me = float("nan")
        if env is not None:
            me = env.evaluate(d, sc)
            degenerate += math.isnan(me)
        rows.append([sc, d.cp1, d.cp2, d.cp3, d.re, me])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sc", "cp1", "cp2", "cp3", "re", "relative_me"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    extrapolated = sum(not SC_LO <= sc <= SC_HI for sc in sc_values)
    _emit({"command": "query", "out": args.out, "rows": len(rows), "degenerate_rows": degenerate,
           "extrapolated_rows": extrapolated})
    return 0


def cmd_compare(args, cfg: RunConfig) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats {args.repeats} must be at least 1")
    sc_values = _parse_sc_list(args.sc)
    actor, _ = load_params(args.policy, role="actor")
    env = _environment(args)
    table = compare_timing(env, sc_values, cfg.ga, actor, repeats=args.repeats)
    table.to_csv(args.out)
    _emit({"command": "compare", "out": args.out, "m": table.m})
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors emit JSON and exit code 2."""

    def error(self, message):
        print(jsonout.dumps({"error": "ArgumentError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixopt", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file (defaults when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="export the channel boundary polyline as CSV")
    p.add_argument("--cp", nargs=3, type=float, required=True, metavar=("CP1", "CP2", "CP3"))
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=64, help="points per boundary segment")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("train", help="train the field network and write a checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="loss history CSV")
    p.add_argument("--steps", type=int, help="override config step count")
    p.add_argument("--seed", type=int, help="override config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate one design: field CSV plus metrics JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cp", nargs=3, type=float, required=True, metavar=("CP1", "CP2", "CP3"))
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--sc", type=float, required=True)
    p.add_argument("--fields", required=True, help="field grid CSV path")
    p.add_argument("--report", help="metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize-rl", help="train the PPO agent against an environment")
    p.add_argument("--checkpoint", help="field checkpoint backing the environment")
    p.add_argument("--synthetic", action="store_true",
                   help="use the synthetic quadratic environment instead")
    p.add_argument("--out", required=True, help="actor checkpoint path")
    p.add_argument("--critic-out", help="critic checkpoint path")
    p.add_argument("--history", help="reward history CSV")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--episodes", type=int, help="override config episode count")
    p.set_defaults(func=cmd_optimize_rl)

    p = sub.add_parser("query", help="ask the trained policy for designs")
    p.add_argument("--policy", required=True, help="actor checkpoint")
    p.add_argument("--sc", required=True, help="comma-separated Schmidt numbers")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="field checkpoint for the relative-ME column")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="GA-vs-policy timing table")
    p.add_argument("--policy", required=True, help="actor checkpoint")
    p.add_argument("--sc", required=True, help="comma-separated Schmidt numbers")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="field checkpoint backing the environment")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except (ConfigError, CheckpointError, DomainError) as exc:
        print(jsonout.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (NumericalError, SamplingError) as exc:
        print(jsonout.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
