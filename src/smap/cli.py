"""Command-line entry point.

Subcommands: train, evaluate, sweep, visualize, gradcheck, oracle.
Exit codes: 0 success, 1 check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import envs, evaluation, oracles
from .attention import TrunkConfig
from .checkpoint import load_into
from .config import ExperimentConfig, load_config, save_config
from .errors import ConfigError
from .policies import make_policy
from .ppo import evaluate_policy, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _run_dir_name(cfg: ExperimentConfig) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{cfg.env_kind}_{cfg.policy}_{cfg.ppo.alpha:g}_{cfg.ppo.seed}_{stamp}"


def _prepare_run_dir(cfg: ExperimentConfig, force: bool) -> Path:
    run_dir = Path(cfg.out_dir) / _run_dir_name(cfg)
    if run_dir.exists() and any(run_dir.iterdir()):
        if not force:
            raise ConfigError(f"run directory {run_dir} already exists; use --force to overwrite")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.ppo.seed = args.seed
    run_dir = _prepare_run_dir(cfg, args.force)
    train(cfg, run_dir)
    print(f"run complete: {run_dir}")
    return EXIT_OK


def _load_run_policy(run_dir: Path):
    cfg = load_config(run_dir / "config.txt")
    with ad.precision(cfg.precision):
        policy = make_policy(cfg.policy, TrunkConfig(), seed=cfg.ppo.seed)
    load_into(run_dir / "checkpoint.smap", policy.params)
    return cfg, policy


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory not found: {run_dir}")
    cfg, policy = _load_run_policy(run_dir)
    with ad.precision(cfg.precision):
        train_seeds, test_seeds = envs.make_split(cfg.env_kind, cfg.n_train_levels,
                                                  cfg.n_test_levels)
        seeds = train_seeds if args.split == "train" else test_seeds
        returns, frac = evaluate_policy(policy, cfg.env_kind, seeds)
    mean = float(returns.mean())
    norm = evaluation.normalize_return(mean, cfg.env_kind)
    out_path = run_dir / f"eval_{args.split}.csv"
    with open(out_path, "w") as fh:
        fh.write("level_seed,return\n")
        for s, r in zip(seeds, returns):
            fh.write(f"{s},{r:.6f}\n")
    print(f"{args.split}: mean return {mean:.3f} (normalized {norm:.3f}), "
          f"std {returns.std():.3f}, path fraction {frac:.3f} -> {out_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    alphas = _parse_alphas(args.alphas)
    base = load_config(args.config)
    run_dirs = []
    jobs = []
    for alpha in alphas:
        cfg = load_config(args.config)
        cfg.ppo.alpha = alpha
        if args.seed is not None:
            cfg.ppo.seed = args.seed
        run_dir = _prepare_run_dir(cfg, args.force)
        save_config(cfg, run_dir / "config.txt")
        jobs.append((cfg, run_dir))
        run_dirs.append(run_dir)
        time.sleep(1)  # distinct timestamps in the directory names

    if args.parallel > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.parallel) as pool:
            futures = [pool.submit(_sweep_worker, str(run_dir)) for _, run_dir in jobs]
            for f in futures:
                f.result()
    else:
        for cfg, run_dir in jobs:
            train(cfg, run_dir)

    report = evaluation.generalization_report(run_dirs)
    report_path = Path(base.out_dir) / "sweep_report.csv"
    evaluation.write_report(report, report_path)
    print(evaluation.format_report(report))
    print(f"report written to {report_path}")
    return EXIT_OK


def _sweep_worker(run_dir: str) -> None:
    cfg = load_config(Path(run_dir) / "config.txt")
    train(cfg, run_dir)


def _parse_alphas(raw: str) -> list[float]:
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("sweep needs a non-empty comma-separated alpha list")
    try:
        alphas = [float(p) for p in parts]
    except ValueError as e:
        raise ConfigError(f"cannot parse alpha list {raw!r}") from e
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ConfigError(f"alpha {a} outside [0, 1]")
    return alphas


def cmd_visualize(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory not found: {run_dir}")
    cfg, policy = _load_run_policy(run_dir)
    if policy.kind == "cnn":
        raise ConfigError("visualization needs an attention policy; this run used cnn")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ad.precision(cfg.precision):
        level = envs.generate_level(cfg.env_kind, args.level)
        state = envs.reset(level)
        obs = envs.render_obs(state)
        out = policy.output(obs[None], mode="eval", want_records=True)
        imap = evaluation.attention_importance(
            out.records, out.grid.receptive_fields,
            metadata={"policy_kind": policy.kind, "level_seed": args.level,
                      "step_index": 0, "env_kind": cfg.env_kind})
    stem = out_dir / f"importance_{cfg.env_kind}_{args.level}"
    pgm, js = evaluation.export_heatmap(imap, stem)
    envs.render_ppm(state, out_dir / f"level_{cfg.env_kind}_{args.level}.ppm")
    print(f"wrote {pgm} and {js}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all
    results = run_all(instances=args.instances, progress=print)
    failed = [r for r in results if not r.passed]
    print("-" * 56)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<28} worst rel err {r.worst_rel_error:.3e} "
              f"over {r.instances} instances")
    if failed:
        print(f"{len(failed)} gradient checks FAILED")
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def cmd_oracle(args) -> int:
    checks = oracles.run_oracle_suite(patterns=args.patterns, progress=print)
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"oracle checks FAILED: {', '.join(failed)}")
        return EXIT_CHECK_FAILED
    print(f"all {len(checks)} oracle checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smap",
                                     description="sparse masked attention policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one policy from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a finished run on a level split")
    p.add_argument("--run", required=True)
    p.add_argument("--split", choices=("train", "test"), required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="train once per sparsity target alpha")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("visualize", help="export attention importance heatmaps")
    p.add_argument("--run", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=int, default=100)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="brute-force equivalence and env validators")
    p.add_argument("--patterns", type=int, default=10_000)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
