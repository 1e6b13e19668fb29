import json

import numpy as np
import pytest

from smap.config import ExperimentConfig, save_config
from smap.envs import KIND_DODGE, KIND_MAZE, RETURN_BOUNDS
from smap.errors import ConfigError, DimensionError
from smap.evaluation import (REPORT_COLUMNS, attention_importance, export_heatmap,
                             format_report, generalization_report, normalize_return,
                             open_table, write_report)
from smap.ppo import METRIC_COLUMNS
from smap.tokenizer import N_TOKENS, RECEPTIVE_FIELDS

N = N_TOKENS


def _uniform_layers(count):
    return [np.full((1, N, N), 1.0 / N) for _ in range(count)]


def test_uniform_attention_gives_uniform_importance():
    attn = _uniform_layers(2) + [np.full((1, 1, N), 1.0 / N)]
    imap = attention_importance(attn)
    assert np.allclose(imap.token_importance, 1.0 / N)
    assert np.allclose(imap.pixel_map, 1.0 / (16 * 16))


def _rollout_reference(attn):
    """Attention rollout as first written: each layer averaged with the
    identity, the products weighted by the aggregation row, renormalized."""
    *layers, agg = attn
    rollout = np.eye(N)
    for a in layers:
        rollout = (0.5 * a[0] + 0.5 * np.eye(N)) @ rollout
    weights = agg[0][0] @ rollout
    return weights / weights.sum()


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_importance_equals_attention_rollout_bit_for_bit(n_layers, dtype):
    """Path counts through the weights are the rollout times 2^L exactly, so
    renormalized they give the rollout's bits."""
    rng = np.random.default_rng(n_layers)
    for _ in range(20):
        attn = [rng.dirichlet(np.ones(N), size=(1, N)).astype(dtype) for _ in range(n_layers)]
        attn.append(rng.dirichlet(np.ones(N), size=(1, 1)).astype(dtype))
        got = attention_importance(attn).token_importance
        assert got.dtype == np.float64
        assert np.array_equal(got, _rollout_reference(attn))


def test_one_hot_aggregation_puts_the_map_on_that_tokens_field():
    agg = np.zeros((1, 1, N))
    agg[0, 0, 5] = 1.0
    imap = attention_importance([np.eye(N)[None], agg])
    assert np.array_equal(imap.token_importance, np.eye(N)[5])
    r0, r1, c0, c1 = RECEPTIVE_FIELDS[5]
    inside = np.zeros((16, 16), dtype=bool)
    inside[r0:r1, c0:c1] = True
    assert np.isclose(imap.pixel_map[inside].sum(), 1.0)
    assert np.all(imap.pixel_map[~inside] == 0.0)


def test_importance_rejects_malformed_records():
    with pytest.raises(ValueError):
        attention_importance([])
    with pytest.raises(DimensionError):
        attention_importance([np.full((2, N, N), 1.0 / N),
                              np.full((2, 1, N), 1.0 / N)])
    with pytest.raises(ValueError):
        attention_importance(_uniform_layers(1) + [np.zeros((1, 1, N))])


def test_heatmap_json_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    agg = rng.random((1, 1, N))
    attn = [rng.dirichlet(np.ones(N), size=N)[None], agg / agg.sum()]
    imap = attention_importance(attn)
    pgm, js = export_heatmap(imap, tmp_path / "heat", {"kind": KIND_DODGE, "level": 7})
    assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")
    back = json.loads(js.read_text(encoding="utf-8"))
    assert np.array_equal(back["token_importance"], imap.token_importance)
    assert np.array_equal(back["pixel_map"], imap.pixel_map)
    assert back["metadata"] == {"kind": KIND_DODGE, "level": 7}


def test_normalize_return_clips_to_unit_interval():
    lo, hi = RETURN_BOUNDS[KIND_DODGE]
    assert normalize_return(lo - 5.0, KIND_DODGE) == 0.0
    assert normalize_return(hi + 5.0, KIND_DODGE) == 1.0
    assert normalize_return((lo + hi) / 2, KIND_DODGE) == pytest.approx(0.5)
    assert normalize_return(10.0, KIND_MAZE) == 1.0
    with pytest.raises(ConfigError):
        normalize_return(1.0, "Nope")


def test_report_keeps_each_env_apart(tmp_path, fake_train):
    """One agent on two envs gives two rows, each normalised by its own env and
    averaging its own env's seeds: test returns 10 + {0, 1} on DodgeGrid."""
    dirs = []
    for env, seed in ((KIND_MAZE, 0), (KIND_DODGE, 0), (KIND_DODGE, 1)):
        cfg = ExperimentConfig(env_kind=env, policy="sparse_masked")
        cfg.ppo.seed = seed
        fake_train(cfg, tmp_path / f"{env}_{seed}")
        dirs.append(tmp_path / f"{env}_{seed}")
    report = generalization_report(dirs)
    assert [(r["env"], r["kind"], r["seed_count"], r["test_return"]) for r in report] == \
        [(KIND_DODGE, "sparse_masked", 2, 10.5), (KIND_MAZE, "sparse_masked", 1, 1.0)]
    assert [(r["gap"], r["se"]) for r in report] == [(1.0, pytest.approx(0.5)), (1.0, 0.0)]
    for row in report:
        assert row["test_return_norm"] == normalize_return(row["test_return"], row["env"])
    write_report(report, tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS) and lines[0].startswith("env,kind,")
    assert [line.split(",")[0] for line in lines[1:]] == [KIND_DODGE, KIND_MAZE]
    table = format_report(report).splitlines()
    assert table[0].split()[:2] == ["env", "kind"]
    assert [line.split()[0] for line in table[2:]] == [KIND_DODGE, KIND_MAZE]


def test_report_reads_each_runs_identity_from_its_config(tmp_path):
    """A run's env, policy and alpha come from its config.txt, whatever its
    metrics.csv rows name; each split's final return is its last row."""
    cfg = ExperimentConfig(env_kind=KIND_MAZE, policy="cnn")
    cfg.ppo.alpha = 0.3
    save_config(cfg, tmp_path / "config.txt")
    with open_table(tmp_path / "metrics.csv", METRIC_COLUMNS) as write_row:
        for step, ret in ((100, 1.0), (200, 2.0)):
            for split in ("train", "test"):
                write_row(dict.fromkeys(METRIC_COLUMNS, 0.0) | {
                    "step": step, "policy_kind": "sparse_masked", "alpha": 0.05,
                    "split": split, "mean_return": ret + (split == "train")})
    (row,) = generalization_report([tmp_path])
    assert (row["env"], row["kind"], row["alpha"]) == (KIND_MAZE, "cnn", 0.3)
    assert (row["train_return"], row["test_return"]) == (3.0, 2.0)
