import numpy as np

from smap import autodiff as ad
from smap.attention import TrunkConfig
from smap.checkpoint import save_params
from smap.cli import _load_run_policy
from smap.config import ExperimentConfig, save_config
from smap.policies import make_policy


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
