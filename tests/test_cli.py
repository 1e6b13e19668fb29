import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smap import autodiff as ad
from smap import cli, envs, gradcheck, oracles
from smap.attention import TrunkConfig
from smap.checkpoint import MAGIC, save_params
from smap.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _load_run_policy, main
from smap.config import ExperimentConfig, save_config
from smap.errors import ConfigError
from smap.policies import make_policy
from smap.ppo import evaluate_policy


def _tiny_cnn_config(root):
    """Write a one-iteration cnn config that trains into ``root / "runs"``."""
    cfg = ExperimentConfig()
    cfg.policy = "cnn"
    cfg.out_dir = str(root / "runs")
    cfg.n_train_levels = cfg.n_test_levels = 2
    cfg.ppo.rollout_len, cfg.ppo.n_envs, cfg.ppo.minibatch_size = 32, 4, 64
    cfg.ppo.total_timesteps = cfg.ppo.rollout_len * cfg.ppo.n_envs
    save_config(cfg, root / "tiny.txt")
    return root / "tiny.txt"


@pytest.fixture(scope="module")
def cnn_run(tmp_path_factory):
    """A one-iteration cnn run made by ``smap train``: (run dir, scratch dir)."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["train", "--config", str(_tiny_cnn_config(root))]) == EXIT_OK
    (run_dir,) = (root / "runs").iterdir()
    return run_dir, root


def test_train_writes_metrics_and_checkpoint(cnn_run):
    run_dir, _ = cnn_run
    assert (run_dir / "checkpoint.smap").is_file()
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("step,policy_kind") and len(lines) == 3   # train + test rows


def test_train_names_a_run_by_its_config_and_reuses_it(tmp_path, monkeypatch, capsys):
    config = str(_tiny_cnn_config(tmp_path))
    assert main(["train", "--config", config]) == EXIT_OK
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert re.fullmatch(r"DodgeGrid_cnn_0\.05_0_[0-9a-f]{8}", run_dir.name)
    checkpoint = (run_dir / "checkpoint.smap").read_bytes()

    def no_training(cfg, run_dir):
        raise AssertionError("a finished run trained again")

    with monkeypatch.context() as m:
        m.setattr(cli, "train", no_training)
        assert main(["train", "--config", config]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f"reusing {run_dir}\nrun complete: {run_dir}\n")

    # a run without a checkpoint was interrupted: it trains again, to the same bytes
    (run_dir / "checkpoint.smap").unlink()
    assert main(["train", "--config", config]) == EXIT_OK
    assert (run_dir / "checkpoint.smap").read_bytes() == checkpoint
    assert list((tmp_path / "runs").iterdir()) == [run_dir]

    text = (run_dir / "config.txt").read_text()
    (run_dir / "config.txt").write_text(text.replace("gamma = 0.99", "gamma = 0.9"))
    assert main(["train", "--config", config]) == EXIT_USAGE
    assert "holds a run at another config" in capsys.readouterr().err


def test_train_runs_rejects_overlapping_splits_before_training(tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "train", lambda cfg, run_dir: trained.append(run_dir))
    cfg = ExperimentConfig(out_dir=str(tmp_path / "runs"),
                           n_train_levels=envs.TEST_SEED_BASE + envs.TEST_SEED_SPAN)
    with pytest.raises(ConfigError, match="n_train_levels"):
        cli.train_runs([cfg])
    assert trained == [] and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("out", ["file", "file/runs"])
def test_train_into_a_file_is_a_usage_error_before_training(tmp_path, monkeypatch, capsys, out):
    trained = []
    monkeypatch.setattr(cli, "train", lambda cfg, run_dir: trained.append(run_dir))
    (tmp_path / "file").write_text("not a directory\n")
    cfg = ExperimentConfig(out_dir=str(tmp_path / out))
    save_config(cfg, tmp_path / "config.txt")
    assert main(["train", "--config", str(tmp_path / "config.txt")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: output path") and err.count("\n") == 1
    assert f"{tmp_path / 'file'} is a file" in err
    assert trained == []


def test_evaluate_finished_run(cnn_run):
    """eval_test.csv holds, line for line, a direct evaluation of the checkpoint."""
    run_dir, _ = cnn_run
    assert main(["evaluate", "--run", str(run_dir), "--split", "test"]) == EXIT_OK
    cfg, policy = _load_run_policy(run_dir)
    with ad.precision(cfg.precision):
        _, seeds = envs.make_split(cfg.env_kind, cfg.n_train_levels, cfg.n_test_levels)
        returns, _ = evaluate_policy(policy, cfg.env_kind, seeds)
    lines = ["level_seed,return"] + [f"{seed},{ret:.6f}" for seed, ret in zip(seeds, returns)]
    assert len(lines) == 3
    assert (run_dir / "eval_test.csv").read_text() == "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_config_is_a_usage_error(tmp_path, case, capsys):
    config = tmp_path / "config.txt"
    if case == "directory":
        config.mkdir()
    else:
        config.write_bytes(b"policy = cnn\xff\n")
    assert main(["train", "--config", str(config)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {config}")


def test_visualize_cnn_run_is_a_usage_error(cnn_run):
    run_dir, root = cnn_run
    assert main(["visualize", "--run", str(run_dir), "--level", "0",
                 "--out", str(root / "viz")]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["evaluate", "visualize"])
def test_missing_run_dir_is_a_usage_error(tmp_path, command, capsys):
    extra = (["--split", "test"] if command == "evaluate"
             else ["--level", "0", "--out", str(tmp_path / "viz")])
    assert main([command, "--run", str(tmp_path / "missing")] + extra) == EXIT_USAGE
    assert "run directory not found" in capsys.readouterr().err


def test_float64_run_reloads_at_float64(tmp_path):
    cfg = ExperimentConfig()
    cfg.precision = "float64"
    with ad.precision(np.float64):
        trained = make_policy(cfg.policy, TrunkConfig(), seed=cfg.ppo.seed + 1)
    save_config(cfg, tmp_path / "config.txt")
    save_params(tmp_path / "checkpoint.smap", trained.params)
    _, policy = _load_run_policy(tmp_path)
    assert policy.params.keys() == trained.params.keys()
    for name, t in policy.params.items():
        assert t.data.dtype == np.float64, name
        assert np.array_equal(t.data, trained.params[name].data), name


def test_visualize_with_every_aggregation_path_closed_is_a_check_failure(tmp_path, capsys):
    cfg = ExperimentConfig()
    policy = make_policy(cfg.policy, TrunkConfig(), seed=cfg.ppo.seed)
    beta = policy.params["agg.beta"]
    beta.data = np.full_like(beta.data, -50.0)      # eval mode closes every aggregation mask
    save_config(cfg, tmp_path / "config.txt")
    save_params(tmp_path / "checkpoint.smap", policy.params)
    assert main(["visualize", "--run", str(tmp_path), "--level", "0",
                 "--out", str(tmp_path / "viz")]) == EXIT_CHECK_FAILED
    assert "all aggregation paths are masked" in capsys.readouterr().err


def test_visualize_into_a_file_is_a_usage_error(tmp_path, capsys):
    cfg = ExperimentConfig()
    save_config(cfg, tmp_path / "config.txt")
    save_params(tmp_path / "checkpoint.smap",
                make_policy(cfg.policy, TrunkConfig(), seed=cfg.ppo.seed).params)
    out = tmp_path / "viz"
    out.write_text("not a directory\n")
    assert main(["visualize", "--run", str(tmp_path), "--level", "0",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: output path {out} is not a directory: {out} is a file\n"


def test_sweep_writes_one_report_row_per_alpha(tmp_path):
    config = str(_tiny_cnn_config(tmp_path))
    assert main(["sweep", "--config", config, "--alphas", "0.1,0.5"]) == EXIT_OK
    assert len((tmp_path / "runs" / "sweep_report.csv").read_text().splitlines()) == 3
    assert main(["sweep", "--config", config, "--alphas", "0.2,0.2"]) == EXIT_USAGE


def test_python_m_smap_without_a_subcommand_is_a_usage_error():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-m", "smap"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == EXIT_USAGE
    assert "usage: smap" in res.stderr


def test_gradcheck_with_one_instance_passes():
    assert main(["gradcheck", "--instances", "1"]) == EXIT_OK


def test_failed_gradient_check_is_a_check_failure(monkeypatch, capsys):
    def failing_suite(instances, progress):
        checks = [("add", True, f"worst rel err 1.000e-09 over {instances} instances"),
                  ("matmul", False, f"worst rel err 1.000e+00 over {instances} instances")]
        for check in checks:
            progress(*check)
        return checks

    monkeypatch.setattr(gradcheck, "run_all", failing_suite)
    assert main(["gradcheck", "--instances", "3"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.splitlines() == [
        f"PASS {'add':<28} worst rel err 1.000e-09 over 3 instances",
        f"FAIL {'matmul':<28} worst rel err 1.000e+00 over 3 instances",
        "gradient checks FAILED: matmul"]


@pytest.mark.parametrize("command", ["evaluate", "visualize"])
@pytest.mark.parametrize("case", ["missing", "truncated", "not_a_checkpoint", "null_manifest"])
def test_bad_checkpoint_is_a_usage_error(tmp_path, command, case, capsys):
    cfg = ExperimentConfig()
    save_config(cfg, tmp_path / "config.txt")
    ckpt = tmp_path / "checkpoint.smap"
    if case == "truncated":
        save_params(ckpt, make_policy(cfg.policy, TrunkConfig(), seed=0).params)
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
    elif case == "not_a_checkpoint":
        ckpt.write_text("step,policy_kind\n")
    elif case == "null_manifest":
        ckpt.write_bytes(MAGIC + struct.pack("<I", 4) + b"null")
    extra = (["--split", "test"] if command == "evaluate"
             else ["--level", "0", "--out", str(tmp_path / "viz")])
    assert main([command, "--run", str(tmp_path)] + extra) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_oracle_exit_codes_and_patterns(monkeypatch, capsys):
    calls = []

    def fake_suite(patterns, progress):
        calls.append(patterns)
        checks = [("mu_closed_form", True, "exact"),
                  ("split_disjoint", len(calls) == 1, f"{patterns} patterns")]
        for check in checks:
            progress(*check)
        return checks

    monkeypatch.setattr(oracles, "run_oracle_suite", fake_suite)
    assert main(["oracle", "--patterns", "7"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        f"PASS {'mu_closed_form':<28} exact", f"PASS {'split_disjoint':<28} 7 patterns",
        "all 2 oracle checks passed"]
    assert main(["oracle"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"FAIL {'split_disjoint':<28} 10000 patterns", "oracle checks FAILED: split_disjoint"]
    assert calls == [7, 10_000]


@pytest.mark.parametrize("argv", [["gradcheck", "--instances", "0"],
                                  ["gradcheck", "--instances", "-3"],
                                  ["oracle", "--patterns", "0"]],
                         ids=["instances_0", "instances_-3", "patterns_0"])
def test_a_check_of_no_cases_is_a_usage_error(monkeypatch, capsys, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("a check ran on fewer than one case")

    monkeypatch.setattr(gradcheck, "run_all", no_run)
    monkeypatch.setattr(oracles, "run_oracle_suite", no_run)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_USAGE
    assert f"argument {argv[1]}: must be at least 1, got {argv[2]}" in capsys.readouterr().err


def test_real_oracle_suite_passes():
    checks = oracles.run_oracle_suite()
    assert len(checks) == 7
    assert [name for name, ok, _ in checks if not ok] == []
