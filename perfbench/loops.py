"""The workloads: closed loops over whole ``ppo.train`` calls.

A unit is one ``ppo.train`` call of a few PPO iterations that evaluates only
at its end. Each unit starts with a cold level cache, as a fresh ``smap
train`` process does, and repeats identical work for a given seed, so every
unit of a run must produce the same exact counts.

Untraced timing sits only on the three phase functions ``ppo.train`` calls:
``collect_rollout``, ``ppo_update`` and ``evaluate_policy``. The evaluation
timer also counts env steps and per-level episode lengths through a thin
counter on ``envs.step``; that counter reads no clock.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from smap import envs, ppo
from smap.checkpoint import load_params
from smap.config import ExperimentConfig

# The lru_cache object itself: the tracer may replace ``envs.generate_level``.
GENERATE_LEVEL = envs.generate_level


@dataclass(frozen=True)
class Sizes:
    iters_per_unit: int = 4        # PPO iterations per ppo.train call
    rollout_len: int = 256         # PPOConfig default
    minibatch_size: int = 512      # PPOConfig default
    epochs: int = 3                # PPOConfig default
    n_train_levels: int = 20       # ExperimentConfig default
    n_test_levels: int = 20        # ExperimentConfig default
    min_units: int = 3
    setup_probes: int = 8          # extra ppo.train set-ups per run
    check_rollout_len: int = 64    # 8 envs x 64 steps = one B=512 batch
    check_levels: int = 8          # held-out levels the check pass evaluates
    op_repeats: int = 40


FULL = Sizes()
QUICK = Sizes(iters_per_unit=1, rollout_len=16, minibatch_size=64, epochs=1,
              n_train_levels=4, n_test_levels=4, min_units=1,
              setup_probes=1, check_rollout_len=8, check_levels=2, op_repeats=3)
N_ENVS = 8                          # PPOConfig default; act runs at B=8


@dataclass(frozen=True)
class Workload:
    name: str
    env_kind: str
    policy: str                     # the agent ppo.train trains


# why each was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("dodge-sparse-train", envs.KIND_DODGE, "sparse_masked"),
    Workload("maze-dense-train", envs.KIND_MAZE, "attention"),
)}


@dataclass
class Event:
    phase: str
    t0: float
    t1: float
    work: int                       # env steps or samples x epochs
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class PhaseTimers:
    """Wall-clock timers on ppo's three phase functions, installed in ``ppo``'s
    namespace where ``ppo.train`` looks them up."""

    def __init__(self):
        self.events: list[Event] = []
        self._saved: dict = {}

    def __enter__(self):
        for name, wrap in (("collect_rollout", self._rollout),
                           ("ppo_update", self._update),
                           ("evaluate_policy", self._evaluate)):
            self._saved[name] = getattr(ppo, name)
            setattr(ppo, name, wrap(self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(ppo, name, fn)
        return False

    def _rollout(self, fn):
        def collect_rollout(policy, runner, rollout_len, action_rng):
            t0 = time.perf_counter()
            batch = fn(policy, runner, rollout_len, action_rng)
            self.events.append(Event("collect_rollout", t0, time.perf_counter(),
                                     int(batch.actions.size)))
            return batch
        return collect_rollout

    def _update(self, fn):
        def ppo_update(batch, policy, cfg, optimizer, update_rng):
            t0 = time.perf_counter()
            stats = fn(batch, policy, cfg, optimizer, update_rng)
            self.events.append(Event("ppo_update", t0, time.perf_counter(),
                                     int(batch.actions.size) * cfg.epochs))
            return stats
        return ppo_update

    def _evaluate(self, fn):
        def evaluate_policy(policy, kind, seeds, greedy=True):
            lengths: dict[int, int] = {}
            inner = envs.step

            def step(state, action):
                out = inner(state, action)
                if out[2]:
                    lengths[state.level.seed] = out[0].t
                return out

            envs.step = step
            try:
                t0 = time.perf_counter()
                returns, frac = fn(policy, kind, seeds, greedy)
                t1 = time.perf_counter()
            finally:
                envs.step = inner
            self.events.append(Event("evaluate_policy", t0, t1, sum(lengths.values()),
                                     {"agent": policy.kind, "kind": kind,
                                      "returns": returns, "frac": frac,
                                      "lengths": [lengths[s] for s in seeds]}))
            return returns, frac
        return evaluate_policy


@dataclass
class Unit:
    """What one unit measured and produced."""
    setup_s: float
    iters: list[tuple[Event, Event]]    # (rollout, update) pairs
    evals: list[Event]
    exact: dict                          # must repeat across units and runs
    traced: bool = False

    @property
    def iter_seconds(self) -> list[float]:
        return [u.t1 - r.t0 for r, u in self.iters]


def _train_config(wl: Workload, sizes: Sizes, seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig(env_kind=wl.env_kind, policy=wl.policy,
                           n_train_levels=sizes.n_train_levels,
                           n_test_levels=sizes.n_test_levels)
    cfg.ppo = replace(cfg.ppo, seed=seed, rollout_len=sizes.rollout_len,
                      minibatch_size=sizes.minibatch_size, epochs=sizes.epochs,
                      total_timesteps=sizes.iters_per_unit * sizes.rollout_len * N_ENVS,
                      eval_every=sizes.iters_per_unit + 1)     # eval only at the end
    return cfg


def eval_problems(ev: Event) -> list[str]:
    """Correctness of one evaluate_policy call: returns and path fraction in range."""
    lo, hi = envs.RETURN_BOUNDS[ev.info["kind"]]
    returns = np.asarray(ev.info["returns"])
    bad = int(np.sum(~np.isfinite(returns) | (returns < lo - 1e-9) | (returns > hi + 1e-9)))
    problems = [f"{ev.info['agent']}: {bad} eval returns outside [{lo}, {hi}]"] if bad else []
    if not 0.0 <= ev.info["frac"] <= 1.0:
        problems.append(f"{ev.info['agent']}: path fraction {ev.info['frac']} outside [0, 1]")
    return problems


def checkpoint_problems(path: Path) -> tuple[str, list[str]]:
    """SHA-256 of a checkpoint file, and what is wrong with reloading it."""
    raw = path.read_bytes()
    params = load_params(path)
    bad = [n for n, a in params.items() if not np.all(np.isfinite(a))]
    problems = [f"checkpoint {path.name}: non-finite {bad}"] if bad else []
    if not params:
        problems.append(f"checkpoint {path.name}: no parameters")
    return hashlib.sha256(raw).hexdigest(), problems


def train_unit(wl: Workload, sizes: Sizes, seed: int, run_dir: Path,
               timers: PhaseTimers, problems: list[str]) -> Unit:
    cfg = _train_config(wl, sizes, seed)
    first = len(timers.events)
    GENERATE_LEVEL.cache_clear()
    t0 = time.perf_counter()
    ppo.train(cfg, run_dir)
    events = timers.events[first:]
    rollouts = [e for e in events if e.phase == "collect_rollout"]
    updates = [e for e in events if e.phase == "ppo_update"]
    evals = [e for e in events if e.phase == "evaluate_policy"]
    for ev in evals:
        problems.extend(eval_problems(ev))
    digest, ck_problems = checkpoint_problems(run_dir / "checkpoint.smap")
    problems.extend(ck_problems)
    exact = {"checkpoint_sha256": digest,
             "levels_generated": GENERATE_LEVEL.cache_info().misses,
             "eval_lengths": [ev.info["lengths"] for ev in evals]}
    return Unit(setup_s=rollouts[0].t0 - t0, iters=list(zip(rollouts, updates)),
                evals=evals, exact=exact)


class _SetupDone(Exception):
    """Raised from the first collect_rollout call to end a set-up probe."""


def setup_probe(wl: Workload, sizes: Sizes, seed: int, run_dir: Path) -> float:
    """Seconds from ppo.train's entry to its first collect_rollout call, with
    a cold level cache; train is stopped there."""
    cfg = _train_config(wl, sizes, seed)
    collect = ppo.collect_rollout

    def stop(*args):
        raise _SetupDone(time.perf_counter())

    GENERATE_LEVEL.cache_clear()
    ppo.collect_rollout = stop
    t0 = time.perf_counter()
    try:
        ppo.train(cfg, run_dir)
    except _SetupDone as done:
        return done.args[0] - t0
    finally:
        ppo.collect_rollout = collect
    raise RuntimeError("ppo.train finished without collecting a rollout")


def run_loop(wl: Workload, sizes: Sizes, seed: int, seconds: float, work_dir: Path,
             tracer=None) -> tuple[list[Unit], list[float], list[str]]:
    """Run whole units until ``seconds`` have passed (and at least
    ``sizes.min_units``, and two with a tracer). With a tracer, every second
    unit is traced, so traced and untraced units interleave. Then time
    ``sizes.setup_probes`` more set-ups.

    Returns (units, set-up seconds of units and probes, problems).
    """
    units: list[Unit] = []
    problems: list[str] = []
    run_dir = work_dir / f"run-{wl.name}-{seed}"
    min_units = max(sizes.min_units, 2) if tracer is not None else sizes.min_units
    start = time.perf_counter()
    with PhaseTimers() as timers:
        while len(units) < min_units or time.perf_counter() - start < seconds:
            traced = tracer is not None and len(units) % 2 == 1
            if traced:
                tracer.begin_unit(len(units))
            try:
                unit = train_unit(wl, sizes, seed, run_dir, timers, problems)
            except FloatingPointError as e:
                # ppo_update raises on a non-finite loss term; the iteration failed
                problems.append(f"unit {len(units)}: {e}")
                break
            finally:
                if traced:
                    tracer.end_unit()
            unit.traced = traced
            units.append(unit)
    setups = [u.setup_s for u in units]
    if not problems:
        setups += [setup_probe(wl, sizes, seed, run_dir) for _ in range(sizes.setup_probes)]
    return units, setups, problems
