"""Command-line entry point.

Subcommands cover the whole pipeline: geometry export, field-network
training, design evaluation, PPO optimization, policy queries, and the
GA-vs-policy timing comparison. A JSON config file (schema_version 1)
overrides the documented defaults; unknown keys are rejected. Exit codes:
0 success, 1 numerical failure, 2 invalid input or config. Each command
prints one JSON object to stdout, and errors go to stderr as one JSON
object per failure; both are strict RFC 8259 JSON, with a non-finite
number written as null. Every output format lives here: the library
returns values, and this module writes every CSV and JSON file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

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
from .metrics import OUTLET_SAMPLES, DesignCandidate, baseline_table, check_schmidt, compute_mixing_report
from .diffnet import load_params, save_params
from .pinn_train import TrainConfig, evaluate_fields, load_checkpoint, save_checkpoint, train
from .rl import SC_HI, SC_LO, PinnEnv, PPOConfig, QuadraticEnv, query_policy, train_agent

SCHEMA_VERSION = 1
REPORT_NOTE = "cp proxies the inlet-outlet pressure drop (outlet p* = 0)"


@dataclass(frozen=True)
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    train: TrainConfig = field(default_factory=TrainConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    ga: GAConfig = field(default_factory=GAConfig)

    def __post_init__(self):
        check_ints(self, schema_version=1)


def _coerce(value):
    if isinstance(value, list):
        return tuple(_coerce(v) for v in value)
    return value


def _build(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"{where}.{key}: unknown key")
        # a field whose default is a config dataclass is a section: a JSON object
        section = fields[key].default_factory
        if dataclasses.is_dataclass(section):
            kwargs[key] = _build(section, value, f"{where}.{key}")
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
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _build(RunConfig, data, "config")
    if cfg.schema_version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.schema_version}; "
                          f"this build reads version {SCHEMA_VERSION}")
    return cfg


def _finite(value):
    """The payload with every non-finite float (nan, +-inf) replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _dumps(payload) -> str:
    """One JSON object with sorted keys; a non-finite float is written as null.

    ``allow_nan=False`` makes any non-finite value that gets past the
    replacement an error instead of a bare ``NaN`` token.
    """
    return json.dumps(_finite(payload), sort_keys=True, allow_nan=False)


def _emit(payload: dict) -> None:
    print(_dumps(payload))


def _float(value) -> str:
    """A float CSV cell that reads back to the same bits."""
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    """The header, then each row of cells; the csv module ends lines with CRLF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_payload(report) -> dict:
    """The JSON object of one MixingReport, as --report writes it and stdout
    prints it; ``n`` is the number of outlet samples the mixing index integrates."""
    return {"mi": report.mi, "cp": report.cp, "mi0": report.mi0, "cp0": report.cp0,
            "me": report.me, "n": OUTLET_SAMPLES, "sc": report.sc,
            "design": report.design._asdict(), "note": REPORT_NOTE}


def _write_fields(path, table) -> None:
    """A FieldTable, one row per grid point with x fastest; the fields with 9
    significant digits."""
    fields = (table.u, table.v, table.speed, table.p, table.c)
    rows = ([f"{xv:.9g}", f"{yv:.9g}", *(f"{f[iy, ix]:.9g}" for f in fields),
             int(table.mask[iy, ix])]
            for iy, yv in enumerate(table.y) for ix, xv in enumerate(table.x))
    _write_csv(path, ["x", "y", "u", "v", "speed", "p", "c", "inside"], rows)


def _write_rewards(path, history) -> None:
    """A RewardHistory: each episode's mean reward and its trailing 50-episode mean."""
    _write_csv(path, ["episode", "mean_reward", "smoothed_reward"],
               ([i, _float(r), _float(s)]
                for i, (r, s) in enumerate(zip(history.mean_rewards, history.smoothed()))))


def cmd_geometry(args, cfg: RunConfig) -> int:
    if args.points < 2:
        raise ConfigError(f"--points {args.points} must be at least 2")
    rows = list(polyline_rows(build_spline(args.cp), points_per_segment=args.points))
    _write_csv(args.out, ["x_mm", "y_mm", "segment", "nx", "ny"],
               ([_float(x), _float(y), name, _float(nx), _float(ny)]
                for x, y, name, nx, ny in rows))
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
        # the ends are full-set losses, the periodic reports minibatch ones
        rows = [[history.initial.step, "full", _float(history.initial.total)]]
        rows += [[r.step, "batch", _float(r.total)] for r in history.reports]
        # after no steps the final full-set loss is the initial one
        if history.final.step != history.initial.step:
            rows.append([history.final.step, "full", _float(history.final.total)])
        _write_csv(args.history, ["step", "set", "total"], rows)
    summary = {
        "command": "train",
        "checkpoint": args.out,
        "initial_total": history.initial.total,
        "final_total": history.final.total,
        "aborted_at": history.aborted_at,
    }
    _emit(summary)
    return 0 if history.aborted_at is None else 1


def cmd_evaluate(args, cfg: RunConfig) -> int:
    _check_sc(args.sc, "--sc")
    design = DesignCandidate(args.cp[0], args.cp[1], args.cp[2], args.re)
    params = load_checkpoint(args.checkpoint)
    # scored first: a design the guards reject leaves no fields file behind
    report = _report_payload(compute_mixing_report(params, design, args.sc))
    _write_fields(args.fields, evaluate_fields(params, args.cp, design.re, args.sc))
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(_dumps(report) + "\n")
    _emit({"command": "evaluate", "fields": args.fields, "report": report})
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
        _write_rewards(args.history, history)
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
        _check_sc(v, f"--sc {raw}")
    return values


def _check_sc(value: float, where: str) -> None:
    try:
        check_schmidt(value)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_outputs(args) -> None:
    """Refuse an output path in a missing directory before any work, so nothing is written."""
    for path in filter(None, (getattr(args, name) for name in args.outputs)):
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"the directory of output {path!r} does not exist")


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
        rows.append([_float(v) for v in (sc, *d, me)])
    _write_csv(args.out, ["sc", "cp1", "cp2", "cp3", "re", "relative_me"], rows)
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
    _write_csv(args.out, ["m", "ga_cumulative_seconds", "rl_cumulative_seconds",
                          "ga_best_fitness_mean"],
               ([m, _float(ga), _float(rl), _float(fit)] for m, ga, rl, fit in
                zip(table.m, table.ga_seconds, table.rl_seconds, table.ga_fitness_mean)))
    _emit({"command": "compare", "out": args.out, "m": table.m})
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors emit JSON and exit code 2."""

    def error(self, message):
        print(_dumps({"error": "ArgumentError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixopt", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file (defaults when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="export the channel boundary polyline as CSV")
    p.add_argument("--cp", nargs=3, type=float, required=True, metavar=("CP1", "CP2", "CP3"))
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=64, help="points per boundary segment")
    p.set_defaults(func=cmd_geometry, outputs=("out",))

    p = sub.add_parser("train", help="train the field network and write a checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="loss history CSV")
    p.add_argument("--steps", type=int, help="override config step count")
    p.add_argument("--seed", type=int, help="override config seed")
    p.set_defaults(func=cmd_train, outputs=("out", "history"))

    p = sub.add_parser("evaluate", help="evaluate one design: field CSV plus metrics JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cp", nargs=3, type=float, required=True, metavar=("CP1", "CP2", "CP3"))
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--sc", type=float, required=True)
    p.add_argument("--fields", required=True, help="field grid CSV path")
    p.add_argument("--report", help="metrics JSON path")
    p.set_defaults(func=cmd_evaluate, outputs=("fields", "report"))

    p = sub.add_parser("optimize-rl", help="train the PPO agent against an environment")
    p.add_argument("--checkpoint", help="field checkpoint backing the environment")
    p.add_argument("--synthetic", action="store_true",
                   help="use the synthetic quadratic environment instead")
    p.add_argument("--out", required=True, help="actor checkpoint path")
    p.add_argument("--critic-out", help="critic checkpoint path")
    p.add_argument("--history", help="reward history CSV")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--episodes", type=int, help="override config episode count")
    p.set_defaults(func=cmd_optimize_rl, outputs=("out", "critic_out", "history"))

    p = sub.add_parser("query", help="ask the trained policy for designs")
    p.add_argument("--policy", required=True, help="actor checkpoint")
    p.add_argument("--sc", required=True, help="comma-separated Schmidt numbers")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="field checkpoint for the relative-ME column")
    p.set_defaults(func=cmd_query, outputs=("out",))

    p = sub.add_parser("compare", help="GA-vs-policy timing table")
    p.add_argument("--policy", required=True, help="actor checkpoint")
    p.add_argument("--sc", required=True, help="comma-separated Schmidt numbers")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="field checkpoint backing the environment")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_compare, outputs=("out",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        _check_outputs(args)
        return args.func(args, cfg)
    except (ConfigError, CheckpointError, DomainError, NumericalError, SamplingError,
            OSError) as exc:
        # an OSError is an output path that cannot be written: an argument error
        print(_dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, (NumericalError, SamplingError)) else 2


if __name__ == "__main__":
    sys.exit(main())
