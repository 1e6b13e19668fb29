#!/usr/bin/env python3
"""Desk-scale replication of the generalization experiment.

Trains sparse masked attention and the dense attention baseline on both
gridworld families over several seeds, then prints the pooled comparison:
the sparse agent should beat dense attention on held-out DodgeGrid levels
by a clear margin while staying comparable on MazeGrid.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from smap.config import ExperimentConfig, load_config
from smap.errors import ConfigError
from smap.evaluation import format_report, generalization_report, write_report
from smap.ppo import train


def run_study(out_root: Path, seeds, env_kinds=("DodgeGrid", "MazeGrid"),
              policies=("sparse_masked", "attention"), total_timesteps=400_000,
              quiet=False):
    """Train each (env, policy, seed) combination; returns run dirs per pair.

    A run directory with a checkpoint is reused only when its ``config.txt``
    equals the requested config; otherwise this raises ``ConfigError``."""
    run_dirs: dict[tuple[str, str], list[Path]] = {}
    for env_kind in env_kinds:
        for policy in policies:
            for seed in seeds:
                cfg = ExperimentConfig(env_kind=env_kind, policy=policy)
                cfg.ppo.seed = seed
                cfg.ppo.total_timesteps = total_timesteps
                run_dir = out_root / f"{env_kind}_{policy}_{cfg.ppo.alpha:g}_{seed}"
                if (run_dir / "checkpoint.smap").exists():
                    # the name omits most of the config: reuse only an equal one
                    if load_config(run_dir / "config.txt") != cfg:
                        raise ConfigError(f"{run_dir} holds a run at another config; "
                                          "remove it or choose another --out")
                else:
                    if not quiet:
                        print(f"training {run_dir.name} ...", flush=True)
                    train(cfg, run_dir)
                run_dirs.setdefault((env_kind, policy), []).append(run_dir)
    return run_dirs


def pooled_comparison(run_dirs, env_kind):
    """(mean difference, pooled standard error) of sparse minus dense test returns."""
    rep_sparse = generalization_report(run_dirs[(env_kind, "sparse_masked")])[0]
    rep_dense = generalization_report(run_dirs[(env_kind, "attention")])[0]
    diff = rep_sparse["test_return"] - rep_dense["test_return"]
    pooled_se = float(np.hypot(rep_sparse["se"], rep_dense["se"]))
    return diff, pooled_se, rep_sparse, rep_dense


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/study")
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--timesteps", type=int, default=400_000)
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    out_root = Path(args.out)
    run_dirs = run_study(out_root, seeds, total_timesteps=args.timesteps)

    all_dirs = [d for dirs in run_dirs.values() for d in dirs]
    report = generalization_report(all_dirs)
    print(format_report(report))
    write_report(report, out_root / "study_report.csv")

    for env_kind in ("DodgeGrid", "MazeGrid"):
        diff, se, _, _ = pooled_comparison(run_dirs, env_kind)
        ratio = diff / se if se > 0 else float("inf")
        print(f"{env_kind}: sparse - dense test return = {diff:+.3f} "
              f"(pooled SE {se:.3f}, {ratio:+.1f} SE)")


if __name__ == "__main__":
    main()
