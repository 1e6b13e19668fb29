#!/usr/bin/env python3
"""Desk-scale replication of the generalization experiment.

Trains all four agents (cnn, dense attention, input-masked and sparse masked
attention) on both gridworld families over several seeds, then reports each
(env, agent)'s final train and held-out test returns with their standard
error, and each baseline's test-return difference from the sparse agent in
pooled standard errors. Runs go through ``smap.cli.train_runs``, so a
finished run at the same config is reused.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from smap.cli import EXIT_OK, EXIT_USAGE, parse_comma_list, train_runs
from smap.config import ExperimentConfig
from smap.envs import KINDS
from smap.errors import ConfigError
from smap.evaluation import format_report, generalization_report, write_report
from smap.policies import POLICY_KINDS


def run_study(base: ExperimentConfig, seeds) -> list[Path]:
    """Train ``base`` for every env, policy and seed into ``base.out_dir``;
    returns the run dirs."""
    return train_runs([dataclasses.replace(base, env_kind=env_kind, policy=policy,
                                           ppo=dataclasses.replace(base.ppo, seed=seed))
                       for env_kind in KINDS for policy in POLICY_KINDS for seed in seeds])


def report_study(run_dirs: list[Path], out_root: Path) -> None:
    """Print the report and, per env, each baseline's test-return difference
    from sparse_masked in pooled standard errors; write the report to
    ``out_root / study_report.csv``."""
    report = generalization_report(run_dirs)
    print(format_report(report))
    write_report(report, out_root / "study_report.csv")
    rows = {(row["env"], row["kind"]): row for row in report}
    for (env_kind, kind), row in rows.items():
        sparse = rows[env_kind, "sparse_masked"]
        if kind != "sparse_masked":
            diff = sparse["test_return"] - row["test_return"]
            se = float(np.hypot(sparse["se"], row["se"]))
            ratio = diff / se if se > 0 else float("nan")   # one seed has no SE
            print(f"{env_kind}: sparse_masked - {kind} test return = {diff:+.3f} "
                  f"(pooled SE {se:.3f}, {ratio:+.1f} SE)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/study")
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--timesteps", type=int, default=400_000)
    args = parser.parse_args(argv)
    try:
        seeds = parse_comma_list(args.seeds, int, "seed")
        base = ExperimentConfig(out_dir=args.out)
        base.ppo.total_timesteps = args.timesteps
        report_study(run_study(base, seeds), Path(args.out))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
