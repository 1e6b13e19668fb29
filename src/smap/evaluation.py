"""Return normalization, attention-importance maps, and run reports.

Importance uses attention rollout: per layer the (masked, renormalized)
attention matrix is averaged with the identity, reflecting the residual
connection's equal share; the products are then weighted by the aggregation
attention row and renormalized. Tokens with no surviving path receive exactly
zero importance before renormalization.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import GRID, RETURN_BOUNDS
from .errors import ConfigError, DimensionError
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
    metadata: dict = field(default_factory=dict)


def attention_importance(attn, metadata=None) -> ImportanceMap:
    """Attention rollout over one eval-mode forward's attention weights: one
    (1, n, n) array per layer in order, then the (1, 1, n) aggregation row."""
    if not attn:
        raise ValueError("attention_importance needs at least the aggregation weights")
    *layers, agg = attn
    if attn[0].ndim != 3 or attn[0].shape[0] != 1:
        raise DimensionError("attention weights must come from a single-observation forward")

    n = agg.shape[-1]
    rollout = np.eye(n)
    for a in layers:
        rollout = (0.5 * a[0] + 0.5 * np.eye(n)) @ rollout
    weights = agg[0][0] @ rollout
    total = weights.sum()
    if total <= 0:
        raise ValueError("all aggregation paths are masked; importance undefined")
    importance = weights / total

    pixel_map = np.zeros((GRID, GRID))
    for i, (r0, r1, c0, c1) in enumerate(RECEPTIVE_FIELDS):
        area = (r1 - r0) * (c1 - c0)
        pixel_map[r0:r1, c0:c1] += importance[i] / area
    return ImportanceMap(token_importance=importance, pixel_map=pixel_map,
                         metadata=dict(metadata or {}))


def export_heatmap(imap: ImportanceMap, stem) -> tuple[Path, Path]:
    """Write <stem>.pgm (display) and <stem>.json (exact values)."""
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
        "metadata": imap.metadata,
    }
    json_path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return pgm_path, json_path


REPORT_COLUMNS = ("env", "kind", "alpha", "seed_count", "train_return", "test_return",
                  "test_return_norm", "gap", "se")


def _final_split_returns(rows: list[dict]) -> dict[str, float]:
    by_split: dict[str, tuple[int, float]] = {}
    for row in rows:
        step = int(float(row["step"]))
        split = row["split"]
        if split not in by_split or step >= by_split[split][0]:
            by_split[split] = (step, float(row["mean_return"]))
    return {split: ret for split, (_, ret) in by_split.items()}


def read_metrics(path) -> list[dict]:
    path = Path(path)
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    required = {"step", "split", "mean_return", "policy_kind", "alpha"}
    missing = required - set(reader.fieldnames or ())
    if missing:
        raise ConfigError(f"metrics file {path} is missing columns {sorted(missing)}")
    return rows


def generalization_report(run_dirs) -> list[dict]:
    """Aggregate final returns per (env, policy kind, alpha) across seed runs."""
    from .config import load_config

    per_group: dict[tuple[str, str, float], dict] = {}
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        metrics_path = run_dir / "metrics.csv" if run_dir.is_dir() else run_dir
        rows = read_metrics(metrics_path)
        if not rows:
            raise ConfigError(f"metrics file {metrics_path} has no rows")
        cfg = load_config(metrics_path.parent / "config.txt")
        finals = _final_split_returns(rows)
        key = (cfg.env_kind, rows[-1]["policy_kind"], float(rows[-1]["alpha"]))
        group = per_group.setdefault(key, {"train": [], "test": []})
        group["train"].append(finals.get("train", float("nan")))
        group["test"].append(finals.get("test", float("nan")))

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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in report:
            writer.writerow([format_cell(row[c]) for c in REPORT_COLUMNS])


def format_cell(v) -> str:
    """A CSV cell of ``metrics.csv`` or a report: floats at 6 decimals."""
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
