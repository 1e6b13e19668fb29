"""Command-line entry point.

Subcommands: train, evaluate, sweep, visualize, gradcheck, oracle.
Exit codes: 0 success, 1 check failure, 2 usage or config error.

``train``, ``sweep`` and ``scripts/run_generalization_study.py`` train
through one scheduler, ``train_runs``, which names each run by its config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import autodiff as ad
from . import envs, evaluation, gradcheck, oracles
from .attention import TrunkConfig
from .checkpoint import load_into
from .config import ExperimentConfig, load_config, to_text
from .errors import ConfigError
from .policies import make_policy
from .ppo import evaluate_policy, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _run_text(cfg: ExperimentConfig) -> str:
    """The config's text with ``out_dir`` blanked: the parent directory records it."""
    return to_text(dataclasses.replace(cfg, out_dir=""))


def _check_out_dir(path: Path) -> None:
    """``ConfigError`` unless ``path`` is a directory or ``mkdir(parents=True)``
    can make one: its nearest existing ancestor must be a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {path} is not a directory: {existing} is a file")


def train_runs(cfgs: list[ExperimentConfig]) -> list[Path]:
    """Train each config into ``out_dir / env_policy_alpha_seed_hash``, the hash
    being 8 hex digits of the sha256 of its ``_run_text``; return the run dirs.

    Training is reproducible and writes ``checkpoint.smap`` last, atomically,
    so a dir holding one is a finished run, reused when its ``config.txt``
    gives the same text (else ``ConfigError``); a dir without one was cut
    short and trains again, so two calls must not share an ``out_dir`` at
    once. One run left trains here; more train side by side, a process each
    up to the CPUs this process may use, with the bytes they have alone."""
    run_dirs, todo = [], []
    for cfg in cfgs:
        cfg.validate()
        text = _run_text(cfg)
        h = hashlib.sha256(text.encode()).hexdigest()[:8]
        name = f"{cfg.env_kind}_{cfg.policy}_{cfg.ppo.alpha:g}_{cfg.ppo.seed}_{h}"
        run_dir = Path(cfg.out_dir) / name
        _check_out_dir(run_dir)
        if run_dir in run_dirs:
            raise ConfigError(f"two runs share one config: {run_dir.name}")
        run_dirs.append(run_dir)
        if not (run_dir / "checkpoint.smap").exists():
            todo.append((cfg, run_dir))
        elif _run_text(load_config(run_dir / "config.txt")) != text:
            raise ConfigError(f"{run_dir} holds a run at another config; "
                              "remove it or choose another out_dir")
    todo_dirs = {run_dir for _, run_dir in todo}
    for run_dir in run_dirs:
        print(f"{'training' if run_dir in todo_dirs else 'reusing'} {run_dir}", flush=True)
    if len(todo) == 1:
        train(*todo[0])
    elif todo:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ProcessPoolExecutor(min(len(todo), cpus or 1)) as pool:
            for future in [pool.submit(train, cfg, run_dir) for cfg, run_dir in todo]:
                future.result()
    return run_dirs


def _load_config_arg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.ppo.seed = args.seed
    return cfg


def cmd_train(args) -> int:
    (run_dir,) = train_runs([_load_config_arg(args)])
    print(f"run complete: {run_dir}")
    return EXIT_OK


def _load_run_policy(run_dir: Path):
    if not run_dir.is_dir():
        raise ConfigError(f"run directory not found: {run_dir}")
    cfg = load_config(run_dir / "config.txt")
    with ad.precision(cfg.precision):
        policy = make_policy(cfg.policy, TrunkConfig(), seed=cfg.ppo.seed)
    try:
        load_into(run_dir / "checkpoint.smap", policy.params)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load the run's checkpoint: {e}") from e
    return cfg, policy


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    cfg, policy = _load_run_policy(run_dir)
    with ad.precision(cfg.precision):
        train_seeds, test_seeds = envs.make_split(cfg.env_kind, cfg.n_train_levels,
                                                  cfg.n_test_levels)
        seeds = train_seeds if args.split == "train" else test_seeds
        returns, frac = evaluate_policy(policy, cfg.env_kind, seeds)
    mean = float(returns.mean())
    norm = evaluation.normalize_return(mean, cfg.env_kind)
    out_path = run_dir / f"eval_{args.split}.csv"
    with evaluation.open_table(out_path, ("level_seed", "return")) as write_row:
        for s, r in zip(seeds, returns):
            write_row({"level_seed": s, "return": r})
    print(f"{args.split}: mean return {mean:.3f} (normalized {norm:.3f}), "
          f"std {returns.std():.3f}, path fraction {frac:.3f} -> {out_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = _load_config_arg(args)
    run_dirs = train_runs([dataclasses.replace(base, ppo=dataclasses.replace(base.ppo, alpha=a))
                           for a in parse_comma_list(args.alphas, float, "alpha")])
    report = evaluation.generalization_report(run_dirs)
    report_path = Path(base.out_dir) / "sweep_report.csv"
    evaluation.write_report(report, report_path)
    print(evaluation.format_report(report))
    print(f"report written to {report_path}")
    return EXIT_OK


def parse_comma_list(raw: str, kind: type, what: str) -> list:
    """The comma-separated ``kind`` values in ``raw``, blanks dropped;
    ``ConfigError``, naming the ``what`` list, if none is left or one does
    not parse."""
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected a non-empty comma-separated {what} list, got {raw!r}")
    try:
        return [kind(p) for p in parts]
    except ValueError as e:
        raise ConfigError(f"cannot parse {what} list {raw!r}") from e


def cmd_visualize(args) -> int:
    run_dir = Path(args.run)
    cfg, policy = _load_run_policy(run_dir)
    if policy.kind == "cnn":
        raise ConfigError("visualization needs an attention policy; this run used cnn")
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ad.precision(cfg.precision):
        level = envs.generate_level(cfg.env_kind, args.level)
        state = envs.reset(level)
        obs = envs.render_obs(state)
        out = policy.output(obs[None], mode="eval")
        try:
            imap = evaluation.attention_importance([a.data for a in out.attn])
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    stem = out_dir / f"importance_{cfg.env_kind}_{args.level}"
    pgm, js = evaluation.export_heatmap(
        imap, stem, {"policy_kind": policy.kind, "level_seed": args.level,
                     "step_index": 0, "env_kind": cfg.env_kind})
    envs.render_ppm(state, out_dir / f"level_{cfg.env_kind}_{args.level}.ppm")
    print(f"wrote {pgm} and {js}")
    return EXIT_OK


def _print_check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name:<28} {detail}", flush=True)


def _check_summary(checks: list[tuple[str, bool, str]], what: str) -> int:
    """One summary line for a suite's ``(name, passed, detail)`` records; the exit code."""
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"{what} checks FAILED: {', '.join(failed)}")
        return EXIT_CHECK_FAILED
    print(f"all {len(checks)} {what} checks passed")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    return _check_summary(gradcheck.run_all(args.instances, _print_check), "gradient")


def cmd_oracle(args) -> int:
    return _check_summary(oracles.run_oracle_suite(args.patterns, _print_check), "oracle")


def _count(raw: str) -> int:
    """An argparse type: an int of at least 1, so a check cannot pass on nothing."""
    n = int(raw)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smap",
                                     description="sparse masked attention policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one policy from a config file, or reuse the "
                       "finished run at that config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a finished run on a level split")
    p.add_argument("--run", required=True)
    p.add_argument("--split", choices=("train", "test"), required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="train once per sparsity target alpha, side by side on "
                       "the available CPUs, and report")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True, help="comma-separated alphas in [0, 1]")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("visualize", help="export attention importance heatmaps")
    p.add_argument("--run", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=_count, default=100)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="brute-force equivalence and env validators")
    p.add_argument("--patterns", type=_count, default=10_000)
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
