"""The generalization study script, from its grid of runs through the
scheduler to its report, with real tiny training."""

import csv
import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

from smap import cli, ppo
from smap.config import ExperimentConfig
from smap.policies import POLICY_KINDS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_generalization_study.py"
AGENTS = ("attention", "cnn", "input_masked", "sparse_masked")


def _load_study():
    spec = importlib.util.spec_from_file_location("run_generalization_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(run_dir):
    return [hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
            for f in ("metrics.csv", "checkpoint.smap", "params.txt")]


def test_study_reports_one_row_per_env_and_agent(tmp_path, monkeypatch, capsys):
    """2 envs x 4 agents x 1 seed, 256 steps each, trained side by side."""
    study = _load_study()
    base = ExperimentConfig(out_dir=str(tmp_path / "study"), n_train_levels=2, n_test_levels=2)
    base.ppo.rollout_len, base.ppo.n_envs, base.ppo.minibatch_size = 32, 8, 64
    base.ppo.total_timesteps = 256
    run_dirs = study.run_study(base, [0])
    study.report_study(run_dirs, tmp_path / "study")

    assert [d.name[:-9] for d in run_dirs] == [
        f"{env}_{agent}_0.05_0" for env in ("DodgeGrid", "MazeGrid") for agent in POLICY_KINDS]
    with open(tmp_path / "study" / "study_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["env"], r["kind"], r["seed_count"]) for r in rows] == [
        (env, agent, "1") for env in ("DodgeGrid", "MazeGrid") for agent in AGENTS]
    assert all(float(r["se"]) == 0.0 for r in rows)
    out = capsys.readouterr().out
    assert out.splitlines()[:8] == [f"training {d}" for d in run_dirs]
    for env in ("DodgeGrid", "MazeGrid"):
        for baseline in ("attention", "cnn", "input_masked"):
            assert f"{env}: sparse_masked - {baseline} test return = " in out
    assert out.count("(pooled SE 0.000, +nan SE)") == 6     # one seed has no SE

    # a run from the pool has the bytes it has when trained alone
    (sparse_dir,) = [d for d in run_dirs if d.name.startswith("DodgeGrid_sparse_masked_")]
    alone = dataclasses.replace(base, policy="sparse_masked")
    ppo.train(alone, tmp_path / "alone")
    assert _digests(tmp_path / "alone") == _digests(sparse_dir)

    # a second study at the same configs reuses every run
    monkeypatch.setattr(cli, "train", None)
    assert study.run_study(base, [0]) == run_dirs
    assert capsys.readouterr().out.splitlines() == [f"reusing {d}" for d in run_dirs]


def test_report_pairs_each_baseline_with_its_envs_sparse_agent(tmp_path, fake_train, capsys):
    """Over 2 seeds the fake returns depend on env, agent and seed, so a
    difference taken across envs (the env bases differ by 9), against the
    wrong baseline, with the wrong sign or the wrong SEs shows."""
    study = _load_study()
    run_dirs = []
    for env in ("DodgeGrid", "MazeGrid"):
        for agent in AGENTS:
            for seed in (0, 1):
                cfg = ExperimentConfig(env_kind=env, policy=agent)
                cfg.ppo.seed = seed
                run_dirs.append(tmp_path / f"{env}_{agent}_{seed}")
                fake_train(cfg, run_dirs[-1])
    study.report_study(run_dirs, tmp_path)

    with open(tmp_path / "study_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    # per env: attention, cnn, input_masked, sparse_masked
    assert [(r["env"], r["kind"], float(r["test_return"]), round(float(r["se"]), 9))
            for r in rows] == [
        (env, agent, base + offset, se) for env, base in (("DodgeGrid", 10.0), ("MazeGrid", 1.0))
        for agent, offset, se in zip(AGENTS, (-2.5, -4.0, -1.0, 0.5), (1.5, 2.0, 1.0, 0.5))]
    report_lines = [line for line in capsys.readouterr().out.splitlines()
                    if ": sparse_masked - " in line]
    assert report_lines == [
        f"{env}: sparse_masked - {line}" for env in ("DodgeGrid", "MazeGrid") for line in (
            "attention test return = +3.000 (pooled SE 1.581, +1.9 SE)",
            "cnn test return = +4.500 (pooled SE 2.062, +2.2 SE)",
            "input_masked test return = +1.500 (pooled SE 1.118, +1.3 SE)")]


@pytest.mark.parametrize("argv,message", [
    (["--seeds", ""], "non-empty comma-separated seed list"),
    (["--seeds", "0,x"], "cannot parse seed list"),
    (["--seeds", "0,0"], "two runs share one config"),
    (["--timesteps", "5"], "total_timesteps must cover at least one rollout"),
], ids=["empty_seeds", "unparsable_seed", "repeated_seed", "timesteps_below_a_rollout"])
def test_study_config_errors_exit_2(tmp_path, capsys, argv, message):
    study = _load_study()
    assert study.main(["--out", str(tmp_path)] + argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
