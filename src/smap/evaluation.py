"""Return normalization, attention-importance maps, and run reports.

A token's importance is its renormalized path count through the attention
weights: ``paths.path_matrix`` run on them in place of the hard masks, each
layer contributing (A + I) for its residual connection. This is attention
rollout, ∏ 0.5·(A + I), bit for bit: scaling by the power of two 0.5 is exact,
so the rollout is 2^-L times the path count, a factor the renormalization
removes. Tokens with no surviving path receive exactly zero importance.

This module owns the results-table format: ``open_table`` writes every CSV a
run or a report leaves (``metrics.csv``, ``eval_<split>.csv``, the sweep and
study reports). A report identifies each run by its ``config.txt``: env,
policy and alpha come from the config, only the returns from ``metrics.csv``.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import load_config
from .envs import GRID, RETURN_BOUNDS
from .errors import ConfigError, DimensionError
from .paths import path_matrix
from .tokenizer import RECEPTIVE_FIELDS


def normalize_return(raw: float, kind: str) -> float:
    """Affine map of a raw return onto [0, 1] using the env's exact bounds."""
    if kind not in RETURN_BOUNDS:
        raise ConfigError(f"no return bounds registered for {kind!r}")
    lo, hi = RETURN_BOUNDS[kind]
    if hi <= lo:
        raise ConfigError(f"invalid return bounds for {kind!r}: ({lo}, {hi})")
    return float(np.clip((raw - lo) / (hi - lo), 0.0, 1.0))


@dataclass
class ImportanceMap:
    token_importance: np.ndarray        # (n,), nonnegative, sums to 1
    pixel_map: np.ndarray               # (16, 16), sums to 1


def attention_importance(attn) -> ImportanceMap:
    """Renormalized path counts through one eval-mode forward's attention weights:
    one (1, n, n) array per layer in order, then the (1, 1, n) aggregation row."""
    if not attn:
        raise ValueError("attention_importance needs at least the aggregation weights")
    if attn[0].ndim != 3 or attn[0].shape[0] != 1:
        raise DimensionError("attention weights must come from a single-observation forward")

    weights = path_matrix([Tensor(a, dtype=np.float64) for a in attn]).a_out.data[0, 0]
    total = weights.sum()
    if total <= 0:
        raise ValueError("all aggregation paths are masked; importance undefined")
    importance = weights / total

    pixel_map = np.zeros((GRID, GRID))
    for i, (r0, r1, c0, c1) in enumerate(RECEPTIVE_FIELDS):
        area = (r1 - r0) * (c1 - c0)
        pixel_map[r0:r1, c0:c1] += importance[i] / area
    return ImportanceMap(token_importance=importance, pixel_map=pixel_map)


def export_heatmap(imap: ImportanceMap, stem, metadata: dict) -> tuple[Path, Path]:
    """Write <stem>.pgm (display) and <stem>.json (exact values and ``metadata``)."""
    stem = Path(stem)
    pgm_path = stem.with_suffix(".pgm")
    json_path = stem.with_suffix(".json")

    pm = imap.pixel_map
    peak = pm.max()
    levels = np.zeros_like(pm, dtype=np.uint8) if peak <= 0 else \
        np.round(pm / peak * 255).astype(np.uint8)
    h, w = pm.shape
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())

    payload = {
        "token_importance": [float(v) for v in imap.token_importance],
        "pixel_map": [[float(v) for v in row] for row in pm],
        "metadata": metadata,
    }
    json_path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return pgm_path, json_path


REPORT_COLUMNS = ("env", "kind", "alpha", "seed_count", "train_return", "test_return",
                  "test_return_norm", "gap", "se")


@contextmanager
def open_table(path, columns):
    """Write a results table at ``path``: the header row of ``columns``, then
    yield a function that writes one row from a mapping holding each column,
    each cell through ``format_cell``, and flushes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)

        def write_row(row) -> None:
            writer.writerow([format_cell(row[c]) for c in columns])
            fh.flush()

        yield write_row


def read_metrics(path) -> list[dict]:
    """The rows of a ``metrics.csv``; ``ConfigError`` if it has none or lacks a
    column the report reads."""
    path = Path(path)
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = {"split", "mean_return"} - set(reader.fieldnames or ())
    if missing:
        raise ConfigError(f"metrics file {path} is missing columns {sorted(missing)}")
    if not rows:
        raise ConfigError(f"metrics file {path} has no rows")
    return rows


def generalization_report(run_dirs) -> list[dict]:
    """Aggregate final returns per (env, policy kind, alpha) across seed runs.
    Each run dir's ``config.txt`` names its group; a split's final return is
    its last ``metrics.csv`` row, as training writes rows in step order."""
    per_group: dict[tuple[str, str, float], dict] = {}
    for run_dir in map(Path, run_dirs):
        cfg = load_config(run_dir / "config.txt")
        finals = {row["split"]: float(row["mean_return"])
                  for row in read_metrics(run_dir / "metrics.csv")}
        group = per_group.setdefault((cfg.env_kind, cfg.policy, cfg.ppo.alpha),
                                     {"train": [], "test": []})
        for split, returns in group.items():
            returns.append(finals.get(split, float("nan")))

    report = []
    for (env_kind, policy_kind, alpha), group in sorted(per_group.items()):
        train = np.array(group["train"])
        test = np.array(group["test"])
        k = len(test)
        se = float(test.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
        report.append({
            "env": env_kind,
            "kind": policy_kind,
            "alpha": alpha,
            "seed_count": k,
            "train_return": float(train.mean()),
            "test_return": float(test.mean()),
            "test_return_norm": normalize_return(float(test.mean()), env_kind),
            "gap": float(train.mean() - test.mean()),
            "se": se,
        })
    return report


def write_report(report: list[dict], path) -> None:
    with open_table(path, REPORT_COLUMNS) as write_row:
        for row in report:
            write_row(row)


def format_cell(v) -> str:
    """A results-table cell: floats at 6 decimals."""
    return f"{v:.6f}" if isinstance(v, float) else str(v)


def format_report(report: list[dict]) -> str:
    header = f"{'env':<11}{'kind':<16}{'alpha':>7}{'seeds':>7}{'train':>10}{'test':>10}" \
             f"{'norm':>8}{'gap':>9}{'se':>9}"
    lines = [header, "-" * len(header)]
    for row in report:
        lines.append(f"{row['env']:<11}{row['kind']:<16}{row['alpha']:>7.3f}"
                     f"{row['seed_count']:>7d}"
                     f"{row['train_return']:>10.3f}{row['test_return']:>10.3f}"
                     f"{row['test_return_norm']:>8.3f}{row['gap']:>9.3f}{row['se']:>9.3f}")
    return "\n".join(lines)
