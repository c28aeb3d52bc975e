"""Command-line workflows: env generation, datasets, training, grad audit."""

import numpy as np
import pytest

from primtrack.cli import (build_training_frames, grad_check_report,
                           load_frames, main, make_dataset, train_head)
from primtrack.config import RunConfig


def test_example_config_prints_parseable(capsys):
    assert main(["example-config"]) == 0
    out = capsys.readouterr().out
    assert RunConfig.loads(out).values == RunConfig().values


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    for text in ("[nope]\nx = 1\n", "seeds = 0\n"):  # no section header
        bad.write_text(text)
        assert main(["generate-env", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


def test_misspelt_train_mode_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nmode = tracknig\n")
    assert main(["make-dataset", "--config", str(bad),
                 "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert "[train] mode" in err and "tracknig" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("section, key, value", [
    ("run", "seeds", "0 x"), ("run", "seeds", ""), ("run", "seeds", "-1"),
    ("train", "hidden", "64 x"), ("train", "hidden", "64 0"),
    ("train", "optimizer", "adamm"),
    ("run", "backend", "heda"), ("lattice", "m_phi", "0"),
    ("train", "epochs", "many")])
def test_bad_config_value_exits_2_naming_the_key(section, key, value,
                                                 tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["generate-env", "--config", str(bad),
                 "--out", str(tmp_path / "env")]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}" in err and "Traceback" not in err
    assert not (tmp_path / "env").exists()


# [cost] keys that only training reads: flights take lambda_c from
# [simulator] collision_weight and use the default potential
_TRAIN_ONLY = ("lambda_c", "lambda_1", "lambda_2", "d_safe", "falloff",
               "cutoff")


def _nav_log(tmp_path, name, cost_line=""):
    """Bytes of the 1 s run-nav flight through forest 1000 under a config
    that sets cost_line in [cost]."""
    ini = tmp_path / f"{name}.ini"
    ini.write_text("[run]\nseeds = 0\n[simulator]\nmax_time = 0.5\n"
                   f"[cost]\n{cost_line}\n")
    out = tmp_path / name
    assert main(["run-nav", "--config", str(ini), "--out", str(out)]) == 0
    return (out / "episode_0000.csv").read_bytes()


def test_training_only_cost_keys_leave_flights_unchanged(tmp_path, capsys):
    from primtrack.config import _SCHEMA
    base = _nav_log(tmp_path, "base")
    assert len(base.splitlines()) == 1 + 200  # header and 1 s of 5 ms steps
    for key in _TRAIN_ONLY:
        assert "training only" in _SCHEMA["cost"][key][1], key
        value = 0.5 * _SCHEMA["cost"][key][0]
        assert _nav_log(tmp_path, key, f"{key} = {value}") == base, key
    # a key that flights do read changes the log
    assert _nav_log(tmp_path, "lambda_s", "lambda_s = 0.05") != base
    assert all("training only" not in help for key, (_, help)
               in _SCHEMA["cost"].items() if key not in _TRAIN_ONLY)


def test_generate_env_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate-env", "--seed", "3", "--out", str(a)]) == 0
    assert main(["generate-env", "--seed", "3", "--out", str(b)]) == 0
    assert (a / "cloud.txt").read_bytes() == (b / "cloud.txt").read_bytes()
    assert (a / "esdf.bin").read_bytes() == (b / "esdf.bin").read_bytes()
    assert "trees" in capsys.readouterr().out


def test_grad_check_small_passes():
    rows, summary = grad_check_report(seed=1, n_per_category=5)
    assert all(s["passed"] for s in summary.values())
    assert all(s["count"] == 5 for s in summary.values())
    assert len(rows) == 20


def _scale_gradient(monkeypatch, cat):
    """Make one category's analytic gradient 1 % too large; values and
    gradient-free calls are left alone."""
    from primtrack import cli
    from primtrack.costs import CostEngine

    def scaled(fn):
        def wrapped(*a, **kw):
            out = fn(*a, **kw)
            if out[-1] is None:
                return out
            return (*out[:-1], out[-1] * 1.01)
        return wrapped

    if cat == "chain_rule":
        monkeypatch.setattr(CostEngine, "evaluate", scaled(CostEngine.evaluate))
    else:
        name = "goal_cost" if cat == "goal" else cat
        monkeypatch.setattr(cli, name, scaled(getattr(cli, name)))


@pytest.mark.parametrize("cat", ["smoothness", "goal", "collision",
                                 "chain_rule"])
def test_grad_check_corrupt_hook_detected(cat, monkeypatch):
    _scale_gradient(monkeypatch, cat)
    _, summary = grad_check_report(seed=1, n_per_category=3)
    assert not summary[cat]["passed"]
    others = [c for c in summary if c != cat]
    assert all(summary[c]["passed"] for c in others)


def test_grad_check_cli_exit_codes(tmp_path, monkeypatch):
    assert main(["grad-check", "--out", str(tmp_path)]) == 0
    # a wrong gradient must flip the exit code to failure
    _scale_gradient(monkeypatch, "goal")
    assert main(["grad-check", "--out", str(tmp_path)]) == 1
    assert (tmp_path / "grad_check.csv").exists()


def _toy_config(frames=6):
    return RunConfig({"train": {"frames": frames, "epochs": 3,
                                "obstacles": 2}})


def test_dataset_round_trip(tmp_path):
    cfg = _toy_config()
    assert make_dataset(cfg, tmp_path, seed=0) == 0
    records = load_frames(tmp_path)
    assert len(records) == 6
    for rec in records:
        assert rec["position"].shape == (3,)
        assert rec["rotation"].shape == (3, 3)
        assert np.allclose(rec["rotation"] @ rec["rotation"].T, np.eye(3),
                           atol=1e-6)
    with pytest.raises((ValueError, OSError)):
        load_frames(tmp_path / "missing")
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError):
        load_frames(tmp_path / "empty")


def test_training_runs_and_descends(tmp_path):
    cfg = _toy_config()
    make_dataset(cfg, tmp_path, seed=0)
    frames = build_training_frames(cfg, load_frames(tmp_path), seed=0)
    head, losses = train_head(cfg, frames, epochs=3, seed=0)
    assert len(losses) == 3
    assert all(np.isfinite(l) for l in losses)
    # deterministic: the same seed reproduces the loss curve exactly
    frames2 = build_training_frames(cfg, load_frames(tmp_path), seed=0)
    _, losses2 = train_head(cfg, frames2, epochs=3, seed=0)
    assert losses == losses2


def test_train_cli_writes_checkpoint_and_resume(tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[train]\nframes = 6\nepochs = 2\nobstacles = 2\n")
    data = tmp_path / "data"
    assert main(["make-dataset", "--config", str(cfg_path),
                 "--out", str(data)]) == 0
    run1 = tmp_path / "run1"
    assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                 "--out", str(run1)]) == 0
    assert (run1 / "head.bin").exists()
    curve = (run1 / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,loss" and len(curve) == 3
    run2 = tmp_path / "run2"
    assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                 "--out", str(run2), "--resume", str(run1 / "head.bin")]) == 0
    assert (run2 / "head.bin").exists()


def test_tracking_batch_smoke(tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[run]\nseeds = 0\n"
                        "[simulator]\ncourse_length = 6.0\nevader_speed = 2.0\n"
                        "switches = 0\nmax_time = 20.0\n")
    out = tmp_path / "runs"
    assert main(["run-tracking", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("seed,success,failure_class")
    assert len(metrics) == 2
    assert (out / "episode_0000.csv").exists()
    assert "success rate" in capsys.readouterr().out


def test_trunk_radius_reaches_every_forest(tmp_path, monkeypatch):
    from primtrack import cli
    from primtrack.environment import build_esdf, load_cloud, load_esdf
    from primtrack.simulator import EpisodeLog, compute_metrics
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseeds = 0\n[simulator]\ntrunk_radius = 0.3\n")
    out = tmp_path / "env"
    assert main(["generate-env", "--config", str(ini), "--out", str(out)]) == 0
    # the written field is the distance to the written cloud
    cloud = load_cloud(out / "cloud.txt")
    grid = load_esdf(out / "esdf.bin")
    ref = build_esdf(cloud, grid.origin, grid.dims, grid.resolution)
    assert np.allclose(grid.distance, ref.distance, atol=1e-5)
    seen = []

    def fake_episode(arena, *a, **kw):
        seen.append(arena.trunk_radius)
        return compute_metrics(EpisodeLog(0.005), arena.grid, True, "none",
                               0.0)

    monkeypatch.setattr(cli, "run_navigation_episode", fake_episode)
    assert main(["run-nav", "--config", str(ini),
                 "--out", str(tmp_path / "nav")]) == 0
    assert seen == [0.3]


def test_readme_commands_parse():
    import re
    import shlex
    from pathlib import Path
    from primtrack.cli import _build_parser
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = re.findall(r"^primtrack (.*)$", readme.read_text(), re.M)
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line.split("#")[0])
        if ">" in argv:
            argv = argv[:argv.index(">")]
        _build_parser().parse_args(argv)
