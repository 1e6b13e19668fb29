"""Tiny training runs reproduce the bytes pinned for them.

``test_short_training_run_is_deterministic`` compares two runs in one process,
so a change that alters every run alike passes it. These pins catch that: a
change that is meant to keep training bit-identical must keep them, and one
that changes the bits on purpose re-pins them and says which and why.

Float bits depend on numpy and its bundled OpenBLAS. The pins were computed
with numpy 2.4.6 (bundled OpenBLAS, one thread) on x86-64 Linux.
"""

import hashlib

import numpy as np
import pytest

from smap import cli, ppo
from smap.config import ExperimentConfig, save_config

PINNED_NUMPY = "2.4.6"
FILES = ("metrics.csv", "checkpoint.smap", "params.txt")

# (env, agent) -> sha256 of metrics.csv, checkpoint.smap and params.txt
PINS = {
    ("DodgeGrid", "cnn"): (
        "6b2ab75ffcc371940291c05d33ec342d1385540f619577e90fb7b40364936e6c",
        "85449d63cc243834edb78a26f99ef951cb6ac4bdab880ab9fbf33d6ad3dbfab8",
        "6390e3fbe5f94664211e04258d3fdad11e76c04e114716601c0fc9ed79c51695",
    ),
    ("DodgeGrid", "attention"): (
        "fac9b97a8c9bb842001e4cc88f12af4481c5e0532276da76711521fe600e5ac4",
        "d0cd454223101b2338d3fcfd86827c56acd7c055ac3feb031e0193e0ca0779a0",
        "00b7e7f9b1e3673bd9c8c962cd6929c164ad237f20b2dc8439fc1845a8793fe3",
    ),
    ("DodgeGrid", "input_masked"): (
        "34279f86d1894c4d594b3c3fa67136d01a5e4e9d2920849d96220452fa224553",
        "807e0a8cff913c9af58e57b4c7385920f4e4d6c0ccd171b94b23ebca9c01040b",
        "dddc9d1e5d3108b64c9930d4aba9019bdf830050b8e3962998e995b60c282c46",
    ),
    ("DodgeGrid", "sparse_masked"): (
        "36430ce361830673680bc862ccac6a41f9074426c57c2b865cb2373a33198544",
        "1cd3cfb6bb8cccea35da637babeafe513984173dde7a8304fde0dabdcbeec7b1",
        "e560d667b5f9472ae950d7551747aa2db2b50db90543fb4e78dde826dcfb564a",
    ),
    ("MazeGrid", "cnn"): (
        "0cd34c8521eeaa95079c600de0a889d6a442413fe2d3a22debe60e268399503e",
        "0c65e6c50d65866c1719da065f7fe8055e6b6c2eaac611df83dd2872a0afca8a",
        "6390e3fbe5f94664211e04258d3fdad11e76c04e114716601c0fc9ed79c51695",
    ),
    ("MazeGrid", "attention"): (
        "f8b9fb5240e2e5f7b353e3465fe8159f6c258df681be92260ccb6e0d6a76225e",
        "0f36dc905091abdb763d3e9f14feb40b71e9adcea1838442e9fa73ee00dc140c",
        "00b7e7f9b1e3673bd9c8c962cd6929c164ad237f20b2dc8439fc1845a8793fe3",
    ),
    ("MazeGrid", "input_masked"): (
        "1ac5f2781abf92fb1de0f98d61eb577da413dfe43bebc09a58398a09a22454b2",
        "68801571cb4e84c3df9c31604c35990a3a5c184266c774c9ae18c2b964b7ee47",
        "dddc9d1e5d3108b64c9930d4aba9019bdf830050b8e3962998e995b60c282c46",
    ),
    ("MazeGrid", "sparse_masked"): (
        "7211f95ef93e054006a8d4b64fda3a0b05a23cc2abadddf35f83e72f19ea8a2e",
        "e6c968d33a4cabe5af5335e39786a753e660b4ce8108832803a91f958fa37efa",
        "e560d667b5f9472ae950d7551747aa2db2b50db90543fb4e78dde826dcfb564a",
    ),
}

# ``smap visualize --level 3`` on the DodgeGrid attention run
HEATMAP_PIN = ("DodgeGrid", "attention", 3,
               "ddedfdf76be056acf2f51f7536774b03b82565c02f53d4e7477fc413066e2c85")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pinned_config(env, kind) -> ExperimentConfig:
    """Seed 7: 1,024 steps, 4 envs x 64, minibatch 128, 4 + 4 levels, eval every 2."""
    cfg = ExperimentConfig(env_kind=env, policy=kind, n_train_levels=4, n_test_levels=4)
    cfg.ppo.seed = 7
    cfg.ppo.total_timesteps = 1024
    cfg.ppo.rollout_len = 64
    cfg.ppo.n_envs = 4
    cfg.ppo.minibatch_size = 128
    cfg.ppo.eval_every = 2
    return cfg


@pytest.mark.parametrize("env,kind", list(PINS))
def test_tiny_run_bytes_match_pins(tmp_path, env, kind):
    run_dir = tmp_path / "run"
    ppo.train(_pinned_config(env, kind), run_dir)
    stack = f"numpy {np.__version__}, pins from numpy {PINNED_NUMPY}"
    assert [_sha256(run_dir / f) for f in FILES] == list(PINS[env, kind]), stack
    if HEATMAP_PIN[:2] == (env, kind):
        level = HEATMAP_PIN[2]
        out = tmp_path / "viz"
        assert cli.main(["visualize", "--run", str(run_dir), "--level", str(level),
                         "--out", str(out)]) == cli.EXIT_OK
        assert _sha256(out / f"importance_{env}_{level}.json") == HEATMAP_PIN[3], stack


def test_runs_trained_side_by_side_match_pins(tmp_path):
    """``smap sweep`` trains its two alphas in a process pool; the alpha 0.05
    run is the pinned DodgeGrid cnn run and keeps its bytes."""
    cfg = _pinned_config("DodgeGrid", "cnn")
    cfg.out_dir = str(tmp_path / "runs")
    save_config(cfg, tmp_path / "tiny.txt")
    assert cli.main(["sweep", "--config", str(tmp_path / "tiny.txt"),
                     "--alphas", "0.05,0.5"]) == cli.EXIT_OK
    (run_dir,) = (tmp_path / "runs").glob("DodgeGrid_cnn_0.05_7_*")
    stack = f"numpy {np.__version__}, pins from numpy {PINNED_NUMPY}"
    assert [_sha256(run_dir / f) for f in FILES] == list(PINS["DodgeGrid", "cnn"]), stack
