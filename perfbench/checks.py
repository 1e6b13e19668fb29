"""Correctness gate and exact counts, run once per benchmark run after the
timed loop, over all four agents on the workload's environment kind.

For each agent, freshly built from the run's seed: one B=512 rollout through
``collect_rollout``, ``evaluate_actions`` on it under a ``Tape`` at the same
parameters, one ``ppo_update`` minibatch, a greedy ``evaluate_policy`` over a
few held-out levels, and a checkpoint round trip. The checks:

- ``evaluate_actions`` log-probs equal ``act`` log-probs for ``cnn``,
  ``attention`` and ``input_masked`` (float32 tolerance). ``sparse_masked``
  resamples its masks, so its mean |ratio - 1| is reported, not gated.
- all loss terms are finite (``ppo_update`` raises ``FloatingPointError``);
- eval returns lie within ``envs.RETURN_BOUNDS``, path fractions in [0, 1];
- the checkpoint reloads through ``checkpoint.load_params``, all finite.

Exact counts (tape sizes, checkpoint digests, episode lengths) are compared
with the record of earlier runs of the same program, workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from smap import autodiff as ad
from smap import envs, ppo
from smap.attention import TrunkConfig
from smap.checkpoint import save_params
from smap.config import PPOConfig
from smap.optim import Adam
from smap.policies import POLICY_KINDS, make_policy
from smap.rng import stream

from loops import N_ENVS, PhaseTimers, Sizes, checkpoint_problems, eval_problems

LOGP_ATOL = 1e-5          # float32 log-probs of a 5-way softmax
EXACT_LOGP_AGENTS = ("cnn", "attention", "input_masked")


def _is_matmul(entry) -> bool:
    return entry[2].__qualname__.startswith("matmul.")


def check_pass(env_kind: str, seed: int, sizes: Sizes, work_dir: Path) -> dict:
    """Returns {'problems', 'exact', 'ratio_absdev', 'ops', 'events'} for the
    four agents; 'events' are the phase timings of the pass."""
    train_seeds, test_seeds = envs.make_split(env_kind, sizes.n_train_levels, sizes.check_levels)
    problems: list[str] = []
    exact: dict = {}
    with PhaseTimers() as timers:
        for kind in POLICY_KINDS:
            try:
                exact[kind] = _check_agent(kind, env_kind, seed, sizes, work_dir,
                                           train_seeds, test_seeds, problems)
            except FloatingPointError as e:          # a non-finite loss term
                problems.append(f"{kind}: {e}")
                exact[kind] = {}
    for ev in timers.events:
        if ev.phase == "evaluate_policy":
            problems.extend(eval_problems(ev))
    ratio_absdev = exact["sparse_masked"].get("ratio_absdev")
    return {"problems": problems, "exact": exact, "ratio_absdev": ratio_absdev,
            "ops": len(POLICY_KINDS) * (2 + len(test_seeds)),   # rollout, update, episodes
            "events": timers.events}


def _check_agent(kind: str, env_kind: str, seed: int, sizes: Sizes, work_dir: Path,
                 train_seeds: list[int], test_seeds: list[int], problems: list[str]) -> dict:
    """Checks of one fresh agent; returns its exact counts."""
    with ad.precision("float32"):
        policy = make_policy(kind, TrunkConfig(), seed=seed)
        runner = ppo.VecRunner(env_kind, train_seeds, seed=seed)
        runner.start(N_ENVS)
        batch = ppo.collect_rollout(policy, runner, sizes.check_rollout_len,
                                    stream(seed, "rollout_actions"))
        n = batch.actions.size
        obs = batch.observations.reshape((n,) + batch.observations.shape[2:])
        with ad.Tape() as tape:
            ev = policy.evaluate_actions(obs, batch.actions.reshape(n), mode="train")
        old = batch.old_log_probs.reshape(n)
        new = ev.log_prob.data.astype(np.float64)
        cfg = replace(PPOConfig(), epochs=1, minibatch_size=n)
        stats = ppo.ppo_update(batch, policy, cfg,
                               Adam(list(policy.params.values()), lr=cfg.learning_rate),
                               stream(seed, "minibatch_shuffle"))
        returns, _ = ppo.evaluate_policy(policy, env_kind, test_seeds)
        ckpt = work_dir / f"check-{kind}.smap"
        save_params(ckpt, policy.params)
    exact = {"tape_entries": len(tape.entries),
             "tape_matmuls": sum(map(_is_matmul, tape.entries)),
             "update_losses": [stats.policy_loss, stats.value_loss, stats.entropy],
             "eval_returns": [float(r) for r in returns]}
    if kind in EXACT_LOGP_AGENTS:
        worst = float(np.max(np.abs(new - old)))
        if not worst <= LOGP_ATOL:
            problems.append(f"{kind}: evaluate_actions log-probs differ from act "
                            f"by up to {worst:.3g} at identical parameters")
    else:
        exact["ratio_absdev"] = float(np.mean(np.abs(np.exp(new - old) - 1.0)))
    exact["checkpoint_sha256"], ck_problems = checkpoint_problems(ckpt)
    problems.extend(ck_problems)
    return exact


def program_digest(root: Path) -> str:
    """SHA-256 over the program and benchmark sources, naming the code measured."""
    h = hashlib.sha256()
    for pattern in ("src/smap/*.py", "perfbench/*.py"):
        for path in sorted(root.glob(pattern)):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def compare_record(record_dir: Path, key: str, exact: dict) -> list[str]:
    """Check ``exact`` against the first run recorded under ``key``; record it
    if this is the first."""
    record_dir.mkdir(parents=True, exist_ok=True)
    path = record_dir / f"{key}.json"
    current = json.loads(json.dumps(exact))
    if path.exists():
        earlier = json.loads(path.read_text())
        return [] if earlier == current else [
            f"exact counts differ from an earlier run ({path.name}): "
            + ", ".join(sorted(k for k in set(earlier) | set(current)
                               if earlier.get(k) != current.get(k)))]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, sort_keys=True))
    os.replace(tmp, path)
    return []
