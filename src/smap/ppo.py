"""Clipped-surrogate PPO with GAE, entropy bonus, and the path-sparsity loss.

Rollouts run over vectorized environment instances that sample train levels
on reset. A rollout stores each observation as its uint8 cell codes
(``envs.obs_codes``) and decodes them to float frames only where a network
reads them: each step's batch for ``act``, each update shard's rows for
``evaluate_actions``. Updates flatten the rollout, normalize advantages per
update, and sweep shuffled minibatches for a few epochs. The sparse agent's
objective additionally carries ``lambda_mask * (alpha - path_fraction)^2``.

Every minibatch runs as two fixed halves: the calling thread runs the first
half's forward and backward, one worker thread the second, each on its own
tape. The loss is a mean of per-sample terms, so each half's loss is scaled
by its share of the minibatch and the minibatch gradient is the sum of the
halves' gradients, always added first + second. The sparse agent's mask
noise is part of each sample: the rollout stores the noise ``act`` drew, and
the update replays it, so its importance ratio is exactly 1 at unchanged
parameters and the update draws nothing but its permutation. A run therefore
reproduces bit for bit however the threads interleave, and the shard count
is fixed at two so results do not depend on the core count. A non-finite
loss term on either half raises before the optimizer steps.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import envs, paths
from .attention import TrunkConfig
from .autodiff import Tape, Tensor
from .checkpoint import save_params
from .config import ExperimentConfig, PPOConfig, save_config
from .errors import DimensionError, UsageError
from .evaluation import open_table
from .optim import Adam
from .policies import PolicyBase, make_policy
from .rng import stream

METRIC_COLUMNS = ("step", "policy_kind", "alpha", "split", "mean_return",
                  "std_return", "path_fraction", "mask_loss", "policy_loss",
                  "value_loss", "entropy")


@dataclass
class RolloutBatch:
    obs_codes: np.ndarray         # (T, K, H, W) uint8 observation codes (envs.decode_obs)
    actions: np.ndarray           # (T, K) int
    old_log_probs: np.ndarray     # (T, K)
    values: np.ndarray            # (T, K)
    rewards: np.ndarray           # (T, K)
    dones: np.ndarray             # (T, K) float 0/1
    bootstrap_values: np.ndarray  # (K,)
    noise: np.ndarray | None = None   # (T, K, L·n²+n) mask noise, sparse agent only

    @property
    def observations(self) -> np.ndarray:
        """(T, K, C, H, W) frames at the working dtype, decoded from the codes."""
        return envs.decode_obs(self.obs_codes)


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float, lam: float,
                bootstrap_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over (T, K) arrays.

    delta_t = r_t + gamma * V_{t+1} * (1 - done_t) - V_t
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (rewards.shape == values.shape == dones.shape):
        raise DimensionError(
            f"misaligned rollout arrays: {rewards.shape}, {values.shape}, {dones.shape}")
    t_len = rewards.shape[0]
    adv = np.zeros_like(rewards)
    next_value = np.asarray(bootstrap_values, dtype=np.float64)
    next_adv = np.zeros_like(next_value)
    for t in range(t_len - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        next_adv = delta + gamma * lam * not_done * next_adv
        adv[t] = next_adv
        next_value = values[t]
    returns = adv + values
    return adv, returns


class VecRunner:
    """Steps several environment instances in lockstep; resets sample a fresh
    train level from the pool."""

    def __init__(self, kind: str, level_seeds: list[int], seed: int):
        self.kind = kind
        self.level_seeds = list(level_seeds)
        self._sampler = stream(seed, "level_sampler")
        self.states: list[envs.EnvState] = []

    def _fresh_state(self) -> envs.EnvState:
        seed = self.level_seeds[int(self._sampler.integers(0, len(self.level_seeds)))]
        return envs.reset(envs.generate_level(self.kind, seed))

    def start(self, n_envs: int) -> None:
        self.states = [self._fresh_state() for _ in range(n_envs)]

    def obs_codes(self) -> np.ndarray:
        """(K, H, W) uint8 observation codes of the current states."""
        return np.stack([envs.obs_codes(s) for s in self.states])

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rewards = np.zeros(len(self.states))
        dones = np.zeros(len(self.states))
        for i, action in enumerate(actions):
            state, reward, done = envs.step(self.states[i], int(action))
            rewards[i] = reward
            if done:
                state = self._fresh_state()
            self.states[i] = state
            dones[i] = float(done)
        return rewards, dones


def collect_rollout(policy: PolicyBase, runner: VecRunner, rollout_len: int,
                    action_rng: np.random.Generator) -> RolloutBatch:
    k = len(runner.states)
    codes_buf = np.empty((rollout_len, k, envs.GRID, envs.GRID), np.uint8)
    act_buf = np.zeros((rollout_len, k), dtype=np.int64)
    logp_buf = np.zeros((rollout_len, k))
    val_buf = np.zeros((rollout_len, k))
    rew_buf = np.zeros((rollout_len, k))
    done_buf = np.zeros((rollout_len, k))
    noise_buf = None
    for t in range(rollout_len):
        codes_buf[t] = runner.obs_codes()
        sample = policy.act(envs.decode_obs(codes_buf[t]), action_rng)
        if sample.noise is not None:
            if noise_buf is None:      # filled in place: stacking a list doubles the peak
                noise_buf = np.empty((rollout_len,) + sample.noise.shape, sample.noise.dtype)
            noise_buf[t] = sample.noise
        rewards, dones = runner.step(sample.actions)
        act_buf[t] = sample.actions
        logp_buf[t] = sample.log_probs
        val_buf[t] = sample.values
        rew_buf[t] = rewards
        done_buf[t] = dones
    bootstrap = policy.output(envs.decode_obs(runner.obs_codes()), mode="eval").value.data
    return RolloutBatch(obs_codes=codes_buf, actions=act_buf, old_log_probs=logp_buf,
                        values=val_buf, rewards=rew_buf, dones=done_buf,
                        bootstrap_values=bootstrap, noise=noise_buf)


@dataclass
class UpdateStats:
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    mask_loss: float = 0.0


def ppo_update(batch: RolloutBatch, policy: PolicyBase, cfg: PPOConfig,
               optimizer: Adam, update_rng: np.random.Generator) -> UpdateStats:
    """Epochs of shuffled clipped-surrogate minibatch updates on one rollout."""
    cfg.check_batch(batch.actions.size)
    adv, returns = compute_gae(batch.rewards, batch.values, batch.dones,
                               cfg.gamma, cfg.gae_lambda, batch.bootstrap_values)
    n = adv.size
    flat_codes = batch.obs_codes.reshape((n,) + batch.obs_codes.shape[2:])
    flat_actions = batch.actions.reshape(n)
    flat_old_logp = batch.old_log_probs.reshape(n)
    flat_returns = returns.reshape(n)
    flat_adv = adv.reshape(n)
    noise = None if batch.noise is None else batch.noise.reshape(n, -1)
    if cfg.advantage_norm:
        flat_adv = (flat_adv - flat_adv.mean()) / (flat_adv.std() + 1e-8)

    dtype = ad.get_default_dtype()

    def run_shard(part: np.ndarray, weight: float) -> tuple[dict, dict]:
        """Forward and backward of one shard, its loss scaled by ``weight``,
        its share of the minibatch; returns its loss terms and leaf grads."""
        with Tape() as tape:
            out = policy.evaluate_actions(
                envs.decode_obs(flat_codes[part]), flat_actions[part], mode="train",
                noise=None if noise is None else noise[part])
            mb_adv = Tensor(flat_adv[part].astype(dtype))
            ratio = ad.exp(ad.sub(out.log_prob, Tensor(flat_old_logp[part].astype(dtype))))
            clipped = ad.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
            surrogate = ad.tmean(ad.minimum(ad.mul(ratio, mb_adv), ad.mul(clipped, mb_adv)))
            value_loss = ad.tmean(ad.square(ad.sub(out.value,
                                                   Tensor(flat_returns[part].astype(dtype)))))
            loss = ad.add(ad.neg(surrogate), ad.scale(value_loss, cfg.value_coef))
            loss = ad.sub(loss, ad.scale(out.entropy, cfg.entropy_coef))
            mask_term = None
            if out.path_fraction is not None:
                mask_term = paths.mask_loss(out.path_fraction, cfg.alpha)
                if cfg.lambda_mask > 0:
                    loss = ad.add(loss, ad.scale(mask_term, cfg.lambda_mask))
            loss = ad.scale(loss, weight)
        terms = {"policy_loss": -surrogate.item(), "value_loss": value_loss.item(),
                 "entropy": out.entropy.item(),
                 "mask_loss": mask_term.item() if mask_term is not None else 0.0}
        if not all(np.isfinite(v) for v in terms.values()):
            raise FloatingPointError(f"non-finite loss term during PPO update: {terms}")
        return terms, ad.backward(tape, loss)

    sums = dict.fromkeys((f.name for f in fields(UpdateStats)), 0.0)
    n_minibatches = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(cfg.epochs):
            perm = update_rng.permutation(n)
            for lo in range(0, n, cfg.minibatch_size):
                idx = perm[lo:lo + cfg.minibatch_size]
                shards = [(part, part.size / idx.size)
                          for part in (idx[:idx.size // 2], idx[idx.size // 2:])]
                future = pool.submit(run_shard, *shards[1])
                try:
                    first = run_shard(*shards[0])
                finally:
                    second = future.result()
                grads = first[1]
                for p, g in second[1].items():
                    grads[p] = grads[p] + g if p in grads else g
                for (terms, _), (_, weight) in zip((first, second), shards):
                    for key in sums:
                        sums[key] += weight * terms[key]
                optimizer.step(grads)
                n_minibatches += 1
    return UpdateStats(**{key: total / n_minibatches for key, total in sums.items()})


def evaluate_policy(policy: PolicyBase, kind: str, seeds: list[int],
                    greedy: bool = True) -> tuple[np.ndarray, float]:
    """One greedy episode per level seed; returns (returns, mean path fraction)."""
    if not greedy:
        raise UsageError("evaluate_policy plays greedy episodes only, not greedy=False")
    states = [envs.reset(envs.generate_level(kind, s)) for s in seeds]
    totals = np.zeros(len(seeds))
    alive = list(range(len(seeds)))
    frac_sum, frac_n = 0.0, 0
    while alive:
        obs = np.stack([envs.render_obs(states[i]) for i in alive])
        out = policy.output(obs, mode="eval")
        if out.mask_set is not None:
            fr = paths.path_fraction(paths.path_matrix(out.mask_set)).data
            frac_sum += float(fr.sum())
            frac_n += fr.size
        actions = np.argmax(out.action_logits.data, axis=-1)
        still = []
        for j, i in enumerate(alive):
            state, reward, done = envs.step(states[i], int(actions[j]))
            totals[i] += reward
            states[i] = state
            if not done:
                still.append(i)
        alive = still
    mean_frac = frac_sum / frac_n if frac_n else 1.0
    return totals, mean_frac


def train(cfg: ExperimentConfig, run_dir) -> None:
    """Full training loop; writes config copy, metrics.csv, and checkpoints."""
    cfg.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ppo_cfg = cfg.ppo
    with ad.precision(cfg.precision):
        train_seeds, test_seeds = envs.make_split(cfg.env_kind, cfg.n_train_levels,
                                                  cfg.n_test_levels)
        trunk_cfg = TrunkConfig()
        policy = make_policy(cfg.policy, trunk_cfg, seed=ppo_cfg.seed)
        optimizer = Adam(list(policy.params.values()), lr=ppo_cfg.learning_rate)
        runner = VecRunner(cfg.env_kind, train_seeds, seed=ppo_cfg.seed)
        runner.start(ppo_cfg.n_envs)
        action_rng = stream(ppo_cfg.seed, "rollout_actions")
        update_rng = stream(ppo_cfg.seed, "minibatch_shuffle")

        save_config(cfg, run_dir / "config.txt")
        with open(run_dir / "params.txt", "w") as fh:
            for name, t in policy.params.items():
                fh.write(f"{name} {t.shape} {t.size}\n")
            fh.write(f"total {policy.parameter_count()}\n")

        steps_per_iter = ppo_cfg.rollout_len * ppo_cfg.n_envs
        n_iters = ppo_cfg.total_timesteps // steps_per_iter
        with open_table(run_dir / "metrics.csv", METRIC_COLUMNS) as write_row:
            for it in range(1, n_iters + 1):
                batch = collect_rollout(policy, runner, ppo_cfg.rollout_len, action_rng)
                stats = ppo_update(batch, policy, ppo_cfg, optimizer, update_rng)
                if it % ppo_cfg.eval_every and it != n_iters:
                    continue
                for split, seeds in (("train", train_seeds), ("test", test_seeds)):
                    returns, frac = evaluate_policy(policy, cfg.env_kind, seeds)
                    write_row({"step": it * steps_per_iter, "policy_kind": cfg.policy,
                               "alpha": ppo_cfg.alpha, "split": split,
                               "mean_return": float(returns.mean()),
                               "std_return": float(returns.std()), "path_fraction": float(frac),
                               "mask_loss": stats.mask_loss, "policy_loss": stats.policy_loss,
                               "value_loss": stats.value_loss, "entropy": stats.entropy})
        save_params(run_dir / "checkpoint.smap", policy.params)
