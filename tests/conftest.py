import numpy as np
import pytest

from smap import autodiff as ad


@pytest.fixture
def f64():
    """Run a test at verification precision with forward NaN/Inf checks on."""
    with ad.precision(np.float64):
        ad.set_debug_checks(True)
        yield
        ad.set_debug_checks(False)


@pytest.fixture
def tiny_cfg():
    """A config small enough for smoke training in seconds."""
    from smap.config import ExperimentConfig

    cfg = ExperimentConfig()
    cfg.ppo.total_timesteps = 2048
    cfg.ppo.rollout_len = 64
    cfg.ppo.n_envs = 4
    cfg.ppo.minibatch_size = 128
    cfg.ppo.eval_every = 4
    cfg.n_train_levels = 4
    cfg.n_test_levels = 4
    return cfg


_FAKE_POLICY_RANK = {"sparse_masked": 0, "input_masked": 1, "attention": 2, "cnn": 3}


def _fake_train(cfg, run_dir) -> None:
    """Stands in for ``ppo.train``: writes the run's config copy and a final
    train and test row to metrics.csv, without training. The test return is
    10 on DodgeGrid and 1 on MazeGrid, plus (k + 1) * seed - 2k for the
    policy's rank k in ``_FAKE_POLICY_RANK`` (so sparse_masked scores
    10 + seed and 1 + seed); the train return is one more."""
    from pathlib import Path

    from smap.config import save_config
    from smap.evaluation import open_table
    from smap.ppo import METRIC_COLUMNS

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, run_dir / "config.txt")
    k = _FAKE_POLICY_RANK[cfg.policy]
    test_return = (10.0 if cfg.env_kind == "DodgeGrid" else 1.0) + (k + 1) * cfg.ppo.seed - 2 * k
    with open_table(run_dir / "metrics.csv", METRIC_COLUMNS) as write_row:
        for split, ret in (("train", test_return + 1.0), ("test", test_return)):
            write_row({"step": cfg.ppo.total_timesteps, "policy_kind": cfg.policy,
                       "alpha": cfg.ppo.alpha, "split": split, "mean_return": ret,
                       "std_return": 0.0, "path_fraction": 1.0, "mask_loss": 0.0,
                       "policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0})


@pytest.fixture
def fake_train():
    return _fake_train
