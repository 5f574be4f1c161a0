import csv
import json
import logging
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mixopt import cli, rl
from mixopt.cli import RunConfig, load_config, main
from mixopt.diffnet import save_params
from mixopt.errors import ConfigError, DomainError
from mixopt.ga import GAConfig
from mixopt.pinn_train import TrainConfig
from mixopt.rl import PPOConfig
from mixopt.sampling import CollocationCounts


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tiny_train_section():
    return {
        "steps": 3,
        "batch_size": 32,
        "hidden": [8, 8],
        "counts": {"interior": 60, "per_boundary": 4, "per_slice": 8},
        "seed": 1,
    }


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    # handcrafted near-constant net with positive inlet pressure and c in
    # (0, 1), so every metrics guard passes without a real training run
    from mixopt.diffnet import InputNorm, NetworkSpec, init_params
    from mixopt.pinn_train import save_checkpoint
    from mixopt.sampling import SampleBounds

    spec = NetworkSpec(hidden=(8, 8))
    norm = InputNorm.from_bounds(SampleBounds().pairs())
    params = init_params(spec, norm=norm, seed=3)
    flat = params.flat.copy()
    W, b = flat[-9 * 9:-9], flat[-9:]  # the output layer's 9x8 W and its b
    W *= 0.05
    b[2] = 2.0   # p
    b[6] = 0.55  # c
    params = params.with_flat(flat)
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg = write_config(tmp, {"train": tiny_train_section()})
    out = str(tmp / "field.ckpt")
    save_checkpoint(params, out)
    return out, cfg


def test_default_config_loads():
    cfg = load_config(None)
    assert isinstance(cfg, RunConfig)
    assert cfg.train.steps == 5000
    assert cfg.ppo.episodes == 100
    assert cfg.ga.population == 32


def test_config_overrides_nested(tmp_path):
    path = write_config(tmp_path, {
        "schema_version": 1,
        "train": {"steps": 7, "hidden": [16, 16], "counts": {"interior": 100}},
        "ppo": {"episodes": 5, "actor_hidden": [4]},
        "ga": {"population": 6},
    })
    cfg = load_config(path)
    assert cfg.train.steps == 7
    assert cfg.train.hidden == (16, 16)
    assert cfg.train.counts.interior == 100
    assert cfg.train.counts.per_boundary == 80  # untouched default
    assert cfg.ppo.episodes == 5
    assert cfg.ppo.actor_hidden == (4,)
    assert cfg.ga.population == 6


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="config.trian"):
        load_config(write_config(tmp_path, {"trian": {}}, "a.json"))
    with pytest.raises(ConfigError, match="config.train.step_count"):
        load_config(write_config(tmp_path, {"train": {"step_count": 9}}, "b.json"))


def test_bad_schema_version(tmp_path):
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(write_config(tmp_path, {"schema_version": 2}))


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_schema_version_must_be_an_integer(tmp_path, version):
    with pytest.raises(ConfigError, match="schema_version must be an integer"):
        load_config(write_config(tmp_path, {"schema_version": version}))


@pytest.mark.parametrize("payload, where", [
    ({"ppo": {"actor_hidden": [8.7]}}, "config.ppo: actor_hidden[0]"),
    ({"ppo": {"critic_hidden": [8, 0]}}, "config.ppo: critic_hidden[1]"),
    ({"train": {"hidden": [64, True]}}, "config.train: hidden[1]"),
])
def test_network_widths_are_checked_when_the_config_loads(tmp_path, payload, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(write_config(tmp_path, payload))


def test_bad_json_and_bad_values(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(broken))
    with pytest.raises(ConfigError, match="config.train"):
        load_config(write_config(tmp_path, {"train": {"steps": -5}}, "neg.json"))


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"nonsense": 1})
    rc = main(["--config", cfg, "geometry", "--cp", "0", "0", "0",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert "nonsense" in err["message"]


def test_geometry_straight_channel(tmp_path, capsys):
    out = tmp_path / "boundary.csv"
    rc = main(["geometry", "--cp", "0", "0", "0", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["rows"] > 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["rows"]
    ys = {float(r["y_mm"]) for r in rows if r["segment"].startswith("baffle")}
    assert ys <= {0.0, 0.3}  # flat spline hugs the walls


def test_geometry_round_trips_floats(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["geometry", "--cp", "0.31", "-0.22", "0.13", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # repr round trip: float(str(x)) == x for every numeric cell
    for r in rows[:50]:
        for k in ("x_mm", "y_mm", "nx", "ny"):
            assert repr(float(r[k])) == r[k]


def test_geometry_bad_cp_exits_2(tmp_path, capsys):
    rc = main(["geometry", "--cp", "0.9", "0", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "cp1" in err["message"]


@pytest.mark.parametrize("points", ["-3", "0", "1"])
def test_geometry_rejects_fewer_than_two_points(tmp_path, capsys, points):
    out = tmp_path / "x.csv"
    rc = main(["geometry", "--cp", "0", "0", "0", "--out", str(out), "--points", points])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "--points" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1", "-inf"])
def test_evaluate_rejects_bad_schmidt_number_before_loading(tmp_path, capsys, bad):
    fields = tmp_path / "fields.csv"
    rc = main(["evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--cp", "0", "0", "0", "--re", "10", f"--sc={bad}", "--fields", str(fields)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert f"Schmidt number {float(bad)!r}" in err["message"]
    assert not fields.exists()


def test_missing_checkpoint_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nonexist.ckpt")
    out = tmp_path / "out.csv"
    for argv in (["query", "--policy", missing, "--sc", "10", "--out", str(out)],
                 ["compare", "--policy", missing, "--synthetic", "--sc", "10", "--out", str(out)],
                 ["evaluate", "--checkpoint", missing, "--cp", "0", "0", "0", "--re", "10",
                  "--sc", "10", "--fields", str(out)]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CheckpointError" and "nonexist.ckpt" in err["message"]
        assert not out.exists()


def test_missing_required_arg_exits_2(capsys):
    rc = main(["geometry", "--cp", "0", "0", "0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ArgumentError"


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train": tiny_train_section()})
    out = tmp_path / "net.ckpt"
    hist = tmp_path / "loss.csv"
    rc = main(["--config", cfg, "train", "--out", str(out), "--history", str(hist)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["aborted_at"] is None
    assert np.isfinite(summary["final_total"])
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "step,set,total"
    assert len(lines) >= 3
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert len(set(keys)) == len(keys)
    assert keys[0] == ("0", "full") and keys[-1][1] == "full"
    assert {k[1] for k in keys[1:-1]} == {"batch"}
    from mixopt.pinn_train import load_checkpoint
    params = load_checkpoint(str(out))
    assert params.spec.hidden == (8, 8)


def test_train_history_after_no_steps_holds_one_row(tmp_path):
    cfg = write_config(tmp_path, {"train": tiny_train_section()})
    hist = tmp_path / "loss.csv"
    assert main(["--config", cfg, "train", "--steps", "0", "--out", str(tmp_path / "net.ckpt"),
                 "--history", str(hist)]) == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "step,set,total"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "full"]]


def test_evaluate_rejects_a_checkpoint_with_a_negative_halfspan(tmp_path, capsys):
    """A copy of the pinned surrogate with its Re half-span negated: before,
    it loaded, and its baseline table gave one (mi0, cp0) for every Re."""
    surrogate = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "data", "field_surrogate.ckpt")
    with open(surrogate, "rb") as fh:
        data = fh.read()
    n = struct.unpack("<Q", data[8:16])[0]
    header = json.loads(data[16:16 + n])
    header["norm"]["halfspan"][5] = -header["norm"]["halfspan"][5]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "negated.ckpt"
    bad.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + n:])
    fields = tmp_path / "fields.csv"
    rc = main(["evaluate", "--checkpoint", str(bad), "--cp", "0.1", "0.2", "0.1",
               "--re", "20", "--sc", "10", "--fields", str(fields)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CheckpointError" and "halfspan" in err["message"]
    assert not fields.exists()


def test_evaluate_rejects_a_checkpoint_whose_param_count_is_text(tmp_path, capsys):
    """Before, a copy of the pinned surrogate with "param_count": "abc"
    printed a ValueError traceback instead of exiting 2."""
    surrogate = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "data", "field_surrogate.ckpt")
    with open(surrogate, "rb") as fh:
        data = fh.read()
    n = struct.unpack("<Q", data[8:16])[0]
    header = json.loads(data[16:16 + n])
    header["param_count"] = "abc"
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "text_count.ckpt"
    bad.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + n:])
    fields = tmp_path / "fields.csv"
    rc = main(["evaluate", "--checkpoint", str(bad), "--cp", "0.1", "0.2", "0.1",
               "--re", "20", "--sc", "10", "--fields", str(fields)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CheckpointError" and "param_count" in err["message"]
    assert not fields.exists()


def test_train_deterministic_checkpoints(tmp_path):
    cfg = write_config(tmp_path, {"train": tiny_train_section()})
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    assert main(["--config", cfg, "train", "--out", str(a)]) == 0
    assert main(["--config", cfg, "train", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


PINNED_CPS = {"cp1": [0.5, 0.5], "cp2": [0.5, 0.5], "cp3": [0.5, 0.5]}


def test_train_on_partly_fluid_bounds(tmp_path, capsys):
    # the baffled reach x* in [3, 4] with both baffles at full height is 60% fluid
    section = {**tiny_train_section(), "counts": {"interior": 3000, "per_boundary": 4, "per_slice": 8},
               "bounds": {"x": [3.0, 4.0], **PINNED_CPS}}
    cfg = write_config(tmp_path, {"train": section})
    rc = main(["--config", cfg, "train", "--steps", "0", "--out", str(tmp_path / "net.ckpt")])
    assert rc == 0, capsys.readouterr().err


def test_train_on_closed_fluid_region_exits_1(tmp_path, capsys):
    section = {**tiny_train_section(), "bounds": {"x": [3.25, 3.25], "y": [0.9, 1.0], **PINNED_CPS}}
    cfg = write_config(tmp_path, {"train": section})
    rc = main(["--config", cfg, "train", "--steps", "0", "--out", str(tmp_path / "net.ckpt")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "SamplingError"
    assert not (tmp_path / "net.ckpt").exists()


def test_evaluate_self_baseline_unity(tiny_checkpoint, tmp_path, capsys):
    ckpt, cfg = tiny_checkpoint
    fields = tmp_path / "fields.csv"
    report = tmp_path / "report.json"
    rc = main(["--config", cfg, "evaluate", "--checkpoint", ckpt,
               "--cp", "0", "0", "0", "--re", "10", "--sc", "10",
               "--fields", str(fields), "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["me"] == pytest.approx(1.0, abs=1e-12)
    assert all(np.isfinite(payload[k]) for k in ("mi", "cp", "mi0", "cp0", "me"))
    with open(fields) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"x", "y", "u", "v", "speed", "p", "c", "inside"}
    capsys.readouterr()


def test_evaluate_masks_baffle_cells(tiny_checkpoint, tmp_path, capsys):
    ckpt, cfg = tiny_checkpoint
    fields = tmp_path / "fields.csv"
    rc = main(["--config", cfg, "evaluate", "--checkpoint", ckpt,
               "--cp", "0.5", "0.5", "0.5", "--re", "10", "--sc", "10",
               "--fields", str(fields)])
    assert rc == 0
    with open(fields) as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["inside"] == "0" for r in rows)
    capsys.readouterr()


def test_optimize_and_query_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ppo": {"episodes": 3, "batch_size": 8,
                                          "actor_hidden": [8], "critic_hidden": [8]}})
    actor = tmp_path / "actor.ckpt"
    hist = tmp_path / "rewards.csv"
    rc = main(["--config", cfg, "optimize-rl", "--synthetic",
               "--out", str(actor), "--history", str(hist)])
    assert rc == 0
    assert hist.read_text().startswith("episode,mean_reward,smoothed_reward")
    # the printed final smoothed reward is the history's last smoothed value
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    last = hist.read_text().strip().splitlines()[-1].split(",")
    assert payload["final_smoothed"] == float(last[2])

    out1 = tmp_path / "designs1.csv"
    out2 = tmp_path / "designs2.csv"
    for out in (out1, out2):
        rc = main(["query", "--policy", str(actor), "--sc", "10,40,70", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sc"]) for r in rows] == [10.0, 40.0, 70.0]
    for r in rows:
        assert -0.5 <= float(r["cp1"]) <= 0.5
        assert 5.0 <= float(r["re"]) <= 40.0
        assert np.isnan(float(r["relative_me"]))  # no field checkpoint given
    capsys.readouterr()


def test_query_with_field_checkpoint_fills_me(tiny_checkpoint, tmp_path, capsys):
    ckpt, cfg = tiny_checkpoint
    ppo_cfg = write_config(tmp_path, {"ppo": {"episodes": 2, "batch_size": 8,
                                              "actor_hidden": [8], "critic_hidden": [8]}})
    actor = tmp_path / "actor.ckpt"
    assert main(["--config", ppo_cfg, "optimize-rl", "--synthetic",
                 "--out", str(actor)]) == 0
    out = tmp_path / "designs.csv"
    rc = main(["--config", cfg, "query", "--policy", str(actor), "--sc", "25",
               "--out", str(out), "--checkpoint", ckpt])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert np.isfinite(float(rows[0]["relative_me"]))
    capsys.readouterr()


def test_query_writes_nan_for_a_degenerate_design(tiny_actor, tmp_path, capsys):
    # negative inlet pressure: every design's pressure cost is nonpositive,
    # so each row's score is degenerate and reads nan; the command still succeeds
    from mixopt.diffnet import InputNorm, NetworkSpec, init_params
    from mixopt.pinn_train import save_checkpoint
    from mixopt.sampling import SampleBounds

    params = init_params(NetworkSpec(hidden=(8, 8)), norm=InputNorm.from_bounds(SampleBounds().pairs()),
                         seed=11)
    flat = params.flat.copy()
    W, b = flat[-9 * 9:-9], flat[-9:]  # the output layer's 9x8 W and its b
    W *= 0.05
    b[2] = -2.0  # p
    b[6] = 0.55  # c
    params = params.with_flat(flat)
    ckpt = str(tmp_path / "field.ckpt")
    save_checkpoint(params, ckpt)
    actor, cfg = tiny_actor
    capsys.readouterr()
    out = tmp_path / "designs.csv"
    rc = main(["--config", cfg, "query", "--policy", actor, "--sc", "10,50,90",
               "--out", str(out), "--checkpoint", ckpt])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["rows"] == 3 and payload["degenerate_rows"] == 3
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sc"]) for r in rows] == [10.0, 50.0, 90.0]
    assert all(np.isnan(float(r["relative_me"])) for r in rows)


def test_query_and_compare_reject_critic_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ppo": {"episodes": 2, "batch_size": 8,
                                          "actor_hidden": [8], "critic_hidden": [8]}})
    actor = tmp_path / "actor.ckpt"
    critic = tmp_path / "critic.ckpt"
    assert main(["--config", cfg, "optimize-rl", "--synthetic", "--out", str(actor),
                 "--critic-out", str(critic)]) == 0
    rc = main(["query", "--policy", str(critic), "--sc", "10",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CheckpointError"
    rc = main(["compare", "--policy", str(critic), "--synthetic", "--sc", "10,20",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CheckpointError"


def test_query_and_compare_refuse_an_actor_of_the_wrong_shape(tmp_path, capsys):
    # a critic saved under the actor role loads, but its one output is no policy
    policy = tmp_path / "actor.ckpt"
    save_params(rl.init_critic(PPOConfig(), seed=1), policy, role="actor")
    cfg = write_config(tmp_path, {"ga": {"population": 6, "generations": 3}})
    capsys.readouterr()
    for command in ("query", "compare"):
        out = tmp_path / f"{command}.csv"
        argv = ["--config", cfg, command, "--policy", str(policy), "--sc", "10,50", "--out", str(out)]
        if command == "compare":
            argv += ["--synthetic", "--repeats", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DomainError"
        assert err["message"].endswith("got 1 -> 1")
        assert not out.exists()


def test_compare_refuses_a_wrong_shape_actor_before_any_ga_run(tmp_path, capsys, monkeypatch):
    policy = tmp_path / "actor.ckpt"
    save_params(rl.init_critic(PPOConfig(), seed=1), policy, role="actor")

    def no_ga(*args, **kwargs):
        raise AssertionError("a GA run started before the policy was checked")

    monkeypatch.setattr("mixopt.ga.run_ga", no_ga)
    capsys.readouterr()
    out = tmp_path / "compare.csv"
    assert main(["compare", "--synthetic", "--policy", str(policy), "--sc", "10,20,30",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DomainError" and err["message"].endswith("got 1 -> 1")
    assert not out.exists()


def test_a_checkpoint_trained_beyond_the_design_re_box_backs_the_optimizers(tmp_path, capsys):
    # its baseline grid runs from Re 1 to 60, past the [5, 40] design box
    section = {**tiny_train_section(), "bounds": {"re": [1.0, 60.0]}}
    cfg = write_config(tmp_path, {"train": section, "ga": {"population": 4, "generations": 1},
                                  "ppo": {"batch_size": 8, "actor_hidden": [8], "critic_hidden": [8]}})
    ckpt, actor = str(tmp_path / "wide.ckpt"), str(tmp_path / "actor.ckpt")
    assert main(["--config", cfg, "train", "--steps", "0", "--out", ckpt]) == 0
    assert main(["--config", cfg, "optimize-rl", "--checkpoint", ckpt, "--episodes", "1",
                 "--out", actor]) == 0
    assert main(["--config", cfg, "compare", "--checkpoint", ckpt, "--policy", actor, "--sc", "10",
                 "--repeats", "1", "--out", str(tmp_path / "compare.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def tiny_actor(tmp_path_factory):
    d = tmp_path_factory.mktemp("actor")
    cfg = write_config(d, {"ppo": {"episodes": 2, "batch_size": 8,
                                   "actor_hidden": [8], "critic_hidden": [8]},
                           "ga": {"population": 6, "generations": 3}})
    actor = d / "actor.ckpt"
    assert main(["--config", cfg, "optimize-rl", "--synthetic", "--out", str(actor)]) == 0
    return str(actor), cfg


@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-3", "-inf"])
@pytest.mark.parametrize("command", ["query", "compare"])
def test_query_and_compare_reject_bad_schmidt_numbers(tiny_actor, tmp_path, capsys,
                                                      command, bad):
    actor, cfg = tiny_actor
    capsys.readouterr()
    out = tmp_path / "out.csv"
    argv = ["--config", cfg, command, "--policy", actor, "--sc", f"10,{bad}", "--out", str(out)]
    if command == "compare":
        argv.append("--synthetic")
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert f"Schmidt number {float(bad)!r}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_compare_rejects_repeats_below_one_before_loading(tmp_path, capsys, repeats):
    out = tmp_path / "s.csv"
    rc = main(["compare", "--policy", str(tmp_path / "missing.ckpt"), "--synthetic",
               "--sc", "10", "--out", str(out), "--repeats", repeats])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "--repeats" in err["message"]
    assert not out.exists()


def reject_constant(name):
    raise ValueError(f"stdout holds the non-standard JSON constant {name}")


def test_optimize_rl_with_every_episode_skipped_prints_strict_json(tmp_path, capsys):
    # negative inlet pressure everywhere: every design score is degenerate
    # (nan), so every episode is skipped and the smoothed reward is nan
    from mixopt.diffnet import InputNorm, NetworkSpec, init_params
    from mixopt.pinn_train import save_checkpoint
    from mixopt.sampling import SampleBounds

    params = init_params(NetworkSpec(hidden=(8,)), norm=InputNorm.from_bounds(SampleBounds().pairs()),
                         seed=3)
    flat = params.flat.copy()
    W, b = flat[-9 * 9:-9], flat[-9:]  # the output layer's 9x8 W and its b
    W *= 0.0
    b[2] = -1.0  # p
    b[6] = 0.5   # c
    params = params.with_flat(flat)
    ckpt = str(tmp_path / "field.ckpt")
    save_checkpoint(params, ckpt)
    cfg = write_config(tmp_path, {"ppo": {"episodes": 2, "batch_size": 8, "actor_hidden": [8],
                                          "critic_hidden": [8]}})
    capsys.readouterr()
    rc = main(["--config", cfg, "optimize-rl", "--checkpoint", ckpt, "--episodes", "2",
               "--out", str(tmp_path / "a.ckpt")])
    assert rc == 0
    out, err = capsys.readouterr()
    payload = json.loads(out.strip(), parse_constant=reject_constant)
    assert payload["episodes"] == 2 and payload["skipped_episodes"] == 2
    assert payload["final_smoothed"] is None
    assert err == ""


def test_optimize_rl_requires_an_environment(tmp_path, capsys):
    rc = main(["optimize-rl", "--out", str(tmp_path / "a.ckpt")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "synthetic" in err["message"]


@pytest.mark.parametrize("bad", [
    {"batch_size": 1}, {"actor_lr": 0.0}, {"critic_lr": float("nan")},
    {"entropy_coef": -0.5}, {"entropy_coef": float("inf")}, {"clip_eps": float("inf")},
])
def test_bad_ppo_values_exit_2_before_loading_anything(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"ppo": bad})
    out = tmp_path / "a.ckpt"
    rc = main(["--config", cfg, "optimize-rl", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("config.ppo: ") and next(iter(bad)) in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("section, bad, command", [
    ("train", {"learning_rate": float("inf")}, "train"),
    ("train", {"learning_rate": float("nan")}, "train"),
    ("train", {"learning_rate": 0.0}, "train"),
    ("train", {"learning_rate": -1e-3}, "train"),
    ("train", {"checkpoint_interval": 5}, "train"),
    ("train", {"checkpoint_interval": 1, "checkpoint_dir": None}, "train"),
    ("ga", {"mutation_scale": -0.1}, "compare"),
    ("ga", {"elitism": 33}, "compare"),
    ("ga", {"mutation_scale": float("nan")}, "compare"),
    ("ga", {"mutation_scale": float("inf")}, "compare"),
    ("train", {"checkpoint_dir": 5}, "train"),
    ("train", {"slice_stations": ["a"]}, "train"),
    ("train", {"slice_stations": [[1.0]]}, "train"),
    ("train", {"slice_stations": 5}, "train"),
    ("train", {"slice_stations": "3.0"}, "train"),
    ("train", {"slice_stations": [True]}, "train"),
    ("train", {"slice_stations": [3.0, float("nan")]}, "train"),
    ("train", {"slice_stations": [-0.5]}, "train"),
    ("train", {"slice_stations": [7.5]}, "train"),
])
def test_bad_train_and_ga_values_exit_2_before_running(tmp_path, capsys, section, bad, command):
    cfg = write_config(tmp_path, {section: bad})
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--out", str(out), "--steps", "0"]
    else:
        argv = ["compare", "--policy", str(tmp_path / "missing.ckpt"), "--sc", "10",
                "--synthetic", "--out", str(out)]
    rc = main(["--config", cfg, *argv])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"config.{section}: ") and next(iter(bad)) in err["message"]
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("payload, where", [
    ({"train": {"bounds": 5}}, "config.train.bounds"),
    ({"train": {"weights": [1, 2]}}, "config.train.weights"),
    ({"train": {"counts": "x"}}, "config.train.counts"),
    ({"ppo": 3}, "config.ppo"),
    ({"train": None}, "config.train"),
])
@pytest.mark.parametrize("command", ["train", "evaluate", "optimize-rl"])
def test_config_sections_that_are_not_objects_exit_2_before_running(tiny_checkpoint, tmp_path,
                                                                    capsys, payload, where, command):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--out", str(out), "--steps", "0"]
    elif command == "evaluate":
        argv = ["evaluate", "--checkpoint", tiny_checkpoint[0], "--cp", "0", "0", "0",
                "--re", "10", "--sc", "10", "--fields", str(out)]
    else:
        argv = ["optimize-rl", "--synthetic", "--episodes", "1", "--out", str(out)]
    capsys.readouterr()
    assert main(["--config", cfg, *argv]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ConfigError", "message": f"{where}: expected a JSON object"}
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("bounds, limit", [
    ({"x": [0.0, 8.0]}, "[0, 7]"),
    ({"x": [-0.5, 3.0]}, "[0, 7]"),
    ({"y": [0.0, 1.5]}, "[0, 1]"),
    ({"y": [-0.1, 0.5]}, "[0, 1]"),
])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_sampling_bounds_outside_the_channel_exit_2_before_running(tiny_checkpoint, tmp_path,
                                                                   capsys, bounds, limit, command):
    # evaluate never samples, yet the config it loads must hold
    cfg = write_config(tmp_path, {"train": {"bounds": bounds}})
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--out", str(out), "--steps", "0"]
    else:
        argv = ["evaluate", "--checkpoint", tiny_checkpoint[0], "--cp", "0", "0", "0",
                "--re", "10", "--sc", "10", "--fields", str(out)]
    capsys.readouterr()
    assert main(["--config", cfg, *argv]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    name = next(iter(bounds))
    assert err["message"].startswith(f"config.train.bounds: bounds for {name} must lie within {limit}")
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("config, argv", [
    (None, ["train", "--seed", "-1"]),
    ({"train": {"seed": -1}}, ["train"]),
    ({"train": {"seed": True}}, ["train"]),
    ({"train": {"steps": 2.5}}, ["train"]),
    ({"train": {"counts": {"interior": 10.5}}}, ["train"]),
    ({"train": {"counts": {"per_slice": 1}}}, ["train"]),
    ({"ga": {"seed": 1.5}}, ["compare"]),
    ({"ga": {"population": 6.0}}, ["compare"]),
    ({"ppo": {"seed": -2}}, ["optimize-rl"]),
    ({"ppo": {"episodes": 2.0}}, ["optimize-rl"]),
    (None, ["optimize-rl", "--seed", "-1"]),
    ({"ppo": {"actor_hidden": [8.7]}}, ["optimize-rl"]),
    ({"ppo": {"critic_hidden": [2.5]}}, ["optimize-rl"]),
    ({"train": {"hidden": [8.7, 4]}}, ["train"]),
    ({"train": {"hidden": [True, 4]}}, ["train"]),
])
def test_bad_seeds_and_counts_exit_2_before_running(tmp_path, capsys, config, argv):
    out = tmp_path / "out"
    command, *flags = argv
    args = ["--config", write_config(tmp_path, config)] if config else []
    args += [command, "--out", str(out), *flags]
    if command == "compare":
        args += ["--policy", str(tmp_path / "missing.ckpt"), "--sc", "10", "--synthetic"]
    if command == "train":  # a missed check then costs no training
        args += ["--steps", "0"]
    if command == "optimize-rl":
        args += ["--synthetic", "--episodes", "0"]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] in ("ConfigError", "DomainError")
    assert "must be" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("cls, name, least", [
    (TrainConfig, "steps", 0), (TrainConfig, "batch_size", 0), (TrainConfig, "seed", 0),
    (TrainConfig, "log_interval", 1), (TrainConfig, "checkpoint_interval", 0),
    (CollocationCounts, "interior", 1), (CollocationCounts, "per_boundary", 1),
    (CollocationCounts, "per_slice", 2),
    (PPOConfig, "epochs", 1), (PPOConfig, "batch_size", 2), (PPOConfig, "episodes", 0),
    (PPOConfig, "seed", 0),
    (GAConfig, "population", 2), (GAConfig, "generations", 0),
    (GAConfig, "elitism", 0), (GAConfig, "seed", 0),
])
def test_seed_and_count_fields_take_integers_from_their_minimum(cls, name, least):
    for bad in (least - 1, least + 0.5, float(least + 1), True, "3", None):
        with pytest.raises(DomainError, match=name):
            cls(**{name: bad})
    assert getattr(cls(**{name: np.int64(least)}), name) == least


def test_query_and_evaluate_reject_a_non_field_checkpoint(tiny_actor, tmp_path, capsys):
    actor, _ = tiny_actor
    capsys.readouterr()
    out = tmp_path / "out.csv"
    for argv in (["query", "--policy", actor, "--sc", "10,50", "--checkpoint", actor,
                  "--out", str(out)],
                 ["evaluate", "--checkpoint", actor, "--cp", "0", "0", "0", "--re", "10",
                  "--sc", "10", "--fields", str(out)]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CheckpointError"
        assert "role 'actor', expected 'field'" in err["message"]
        assert not out.exists()


def test_query_counts_extrapolated_rows_and_writes_no_stderr(tiny_checkpoint, tiny_actor,
                                                             tmp_path, capsys, caplog):
    ckpt, cfg = tiny_checkpoint
    actor, _ = tiny_actor
    capsys.readouterr()
    out = tmp_path / "designs.csv"
    with caplog.at_level(logging.DEBUG), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--config", cfg, "query", "--policy", actor, "--sc", "10,200",
                   "--out", str(out), "--checkpoint", ckpt])
    assert rc == 0
    stdout, stderr = capsys.readouterr()
    payload = json.loads(stdout.strip())
    assert payload["rows"] == 2 and payload["extrapolated_rows"] == 1
    assert payload["degenerate_rows"] == 0
    assert stderr == "" and caplog.records == []


def test_removed_config_keys_exit_2(tmp_path, capsys):
    for payload, where in [
        ({"train": {"activation": "tanh"}}, "config.train.activation"),
        ({"ppo": {"gamma": 0.99}}, "config.ppo.gamma"),
        ({"ppo": {"sampled_entropy": False}}, "config.ppo.sampled_entropy"),
        ({"ppo": {"value_coef": 1.0}}, "config.ppo.value_coef"),
        ({"train": {"dims": {"h_d": 0.3}}}, "config.train.dims"),
        ({"train": {"dims": {"l_d": 0.15}}}, "config.train.dims"),
        ({"train": {"dims": {"L": 2.4}}}, "config.train.dims"),
        ({"metrics": {"outlet_samples": 101}}, "config.metrics"),
        ({"train": {"beta1": 0.9}}, "config.train.beta1"),
        ({"train": {"beta2": 0.999}}, "config.train.beta2"),
        ({"train": {"eps": 1e-8}}, "config.train.eps"),
        ({"ga": {"tournament": 3}}, "config.ga.tournament"),
        ({"ga": {"tournament": 0}}, "config.ga.tournament"),
        ({"ga": {"blend_alpha": 0.5}}, "config.ga.blend_alpha"),
        ({"ga": {"blend_alpha": float("nan")}}, "config.ga.blend_alpha"),
        ({"ga": {"blend_alpha": float("inf")}}, "config.ga.blend_alpha"),
    ]:
        rc = main(["--config", write_config(tmp_path, payload), "geometry",
                   "--cp", "0", "0", "0", "--out", str(tmp_path / "g.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigError", "message": f"{where}: unknown key"}
    assert not (tmp_path / "g.csv").exists()


def test_baseline_axes_come_from_the_checkpoint_with_or_without_its_config(tmp_path, monkeypatch):
    section = {**tiny_train_section(), "steps": 1, "bounds": {"re": [10.0, 20.0]}}
    cfg = write_config(tmp_path, {"train": section})
    ckpt = str(tmp_path / "narrow.ckpt")
    assert main(["--config", cfg, "train", "--out", ckpt]) == 0
    tables = []
    monkeypatch.setattr(cli, "PinnEnv",
                        lambda params, baseline: tables.append(baseline) or rl.PinnEnv(params, baseline))
    for config in (["--config", cfg], []):
        assert main([*config, "optimize-rl", "--checkpoint", ckpt, "--episodes", "0",
                     "--out", str(tmp_path / "actor.ckpt")]) == 0
    assert len(tables) == 2
    for table in tables:
        assert (table.re_values[0], table.re_values[-1]) == (10.0, 20.0)
        assert (table.sc_values[0], table.sc_values[-1]) == (1.0, 100.0)


def test_compare_synthetic(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "ppo": {"episodes": 2, "batch_size": 8, "actor_hidden": [8], "critic_hidden": [8]},
        "ga": {"population": 6, "generations": 3},
    })
    actor = tmp_path / "actor.ckpt"
    assert main(["--config", cfg, "optimize-rl", "--synthetic", "--out", str(actor)]) == 0
    out = tmp_path / "scaling.csv"
    rc = main(["--config", cfg, "compare", "--policy", str(actor), "--synthetic",
               "--sc", "10,30,60,90", "--out", str(out), "--repeats", "1"])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [1, 2, 4]
    assert all(float(r["ga_cumulative_seconds"]) > 0 for r in rows)
    capsys.readouterr()


def test_console_module_invocation(tmp_path):
    out = tmp_path / "b.csv"
    proc = subprocess.run([sys.executable, "-m", "mixopt.cli", "geometry",
                           "--cp", "0", "0", "0", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
    assert json.loads(proc.stdout.strip())["command"] == "geometry"


def _unwritable_argv(command, blocked, tiny_checkpoint, tiny_actor):
    """``command``'s arguments with every output under ``blocked``, a path
    whose parent is a plain file, so no directory can be made for it."""
    actor, cfg = tiny_actor
    if command == "geometry":
        return ["geometry", "--cp", "0", "0", "0", "--out", blocked]
    if command == "train":
        return ["--config", tiny_checkpoint[1], "train", "--steps", "0", "--out", blocked]
    if command == "evaluate":
        return ["evaluate", "--checkpoint", tiny_checkpoint[0], "--cp", "0", "0", "0",
                "--re", "10", "--sc", "10", "--fields", blocked]
    if command == "optimize-rl":
        return ["--config", cfg, "optimize-rl", "--synthetic", "--episodes", "1", "--out", blocked]
    if command == "query":
        return ["query", "--policy", actor, "--sc", "10,50", "--out", blocked]
    return ["--config", cfg, "compare", "--synthetic", "--policy", actor, "--sc", "10",
            "--repeats", "1", "--out", blocked]


@pytest.mark.parametrize("command", ["geometry", "train", "evaluate", "optimize-rl", "query",
                                     "compare"])
def test_an_output_path_that_cannot_be_written_exits_2_with_one_json_error(
        tiny_checkpoint, tiny_actor, tmp_path, capsys, command):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = _unwritable_argv(command, str(plain / "out"), tiny_checkpoint, tiny_actor)
    capsys.readouterr()
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    assert err["error"] in ("FileNotFoundError", "FileExistsError", "NotADirectoryError")
    assert str(plain) in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


def test_a_failed_evaluate_writes_no_file(tmp_path, capsys):
    """A design whose inlet pressure cost on the pinned surrogate is
    -7.2e-4: the guard rejects it, and no fields or report file is left."""
    surrogate = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "data", "field_surrogate.ckpt")
    rc = main(["evaluate", "--checkpoint", surrogate,
               "--cp", "0.01606858554787871", "-0.3841343875292297", "0.12348975553750041",
               "--re", "32.183909001980425", "--sc", "61.68732680425101",
               "--fields", str(tmp_path / "fields.csv"), "--report", str(tmp_path / "report.json")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err.strip())
    assert err["error"] == "DomainError"
    assert err["message"].startswith("pressure costs must be finite and positive, got cp=-0.000723")
    assert list(tmp_path.iterdir()) == []
