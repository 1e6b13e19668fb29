import math
import threading
import tracemalloc

import numpy as np
import pytest

from smap import autodiff as ad
from smap import config, envs, ppo
from smap.attention import TrunkConfig, noise_rows
from smap.autodiff import Tape, Tensor
from smap.config import ExperimentConfig, PPOConfig
from smap.errors import ConfigError, DimensionError, UsageError
from smap.optim import Adam
from smap.policies import POLICY_KINDS, ActionEval, Sample, make_policy
from smap.ppo import RolloutBatch, compute_gae, ppo_update
from smap.rng import stream


def _gae_reference(rewards, values, dones, gamma, lam, bootstrap):
    """Direct recursive evaluation, scalar by scalar."""
    t_len, k = rewards.shape
    adv = np.zeros((t_len, k))
    for env in range(k):
        acc = 0.0
        next_v = bootstrap[env]
        for t in range(t_len - 1, -1, -1):
            nd = 1.0 - dones[t, env]
            delta = rewards[t, env] + gamma * next_v * nd - values[t, env]
            acc = delta + gamma * lam * nd * acc
            adv[t, env] = acc
            next_v = values[t, env]
    return adv


def test_gae_telescopes_at_gamma_lambda_one():
    rewards = np.array([[1.0], [2.0], [3.0]])
    values = np.array([[0.3], [0.6], [0.9]])
    dones = np.array([[0.0], [0.0], [1.0]])
    adv, returns = compute_gae(rewards, values, dones, 1.0, 1.0, np.zeros(1))
    expected = np.array([[6.0 - 0.3], [5.0 - 0.6], [3.0 - 0.9]])
    assert np.allclose(adv, expected, atol=1e-12)
    assert np.allclose(returns, adv + values)


def test_gae_zero_rewards_zero_values():
    z = np.zeros((5, 2))
    adv, returns = compute_gae(z, z, z, 0.9, 0.95, np.zeros(2))
    assert np.array_equal(adv, np.zeros((5, 2)))
    assert np.array_equal(returns, np.zeros((5, 2)))


def test_gae_three_step_hand_example():
    rewards = np.array([[1.0], [0.0], [1.0]])
    values = np.array([[0.5], [0.5], [0.5]])
    dones = np.zeros((3, 1))
    adv, returns = compute_gae(rewards, values, dones, 0.9, 0.95, np.zeros(1))
    ref = _gae_reference(rewards, values, dones, 0.9, 0.95, np.zeros(1))
    assert np.allclose(adv, ref, atol=1e-12)
    assert np.allclose(returns, adv + values, atol=1e-12)


def test_gae_matches_reference_with_mid_episode_dones():
    rng = np.random.default_rng(0)
    rewards = rng.standard_normal((12, 3))
    values = rng.standard_normal((12, 3))
    dones = (rng.random((12, 3)) < 0.2).astype(float)
    bootstrap = rng.standard_normal(3)
    adv, _ = compute_gae(rewards, values, dones, 0.97, 0.9, bootstrap)
    ref = _gae_reference(rewards, values, dones, 0.97, 0.9, bootstrap)
    assert np.allclose(adv, ref, atol=1e-12)


def test_gae_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        compute_gae(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)),
                    0.9, 0.9, np.zeros(2))


class BanditPolicy:
    """Minimal one-state policy exposing the trainer's protocol."""

    kind = "bandit"

    def __init__(self, n_actions=2, seed=0):
        self.params = {"logits": ad.parameter(np.zeros(n_actions))}
        self._rng = stream(seed, "bandit_act")

    def probs(self):
        return ad.softmax_rows(ad.reshape(self.params["logits"], (1, -1))).data[0]

    def act(self, obs, rng):
        b = obs.shape[0]
        p = self.probs()
        logp = np.log(p)
        actions = rng.choice(len(p), size=b, p=p)
        return Sample(actions, logp[actions], np.zeros(b), None)

    def evaluate_actions(self, obs, actions, mode="train", noise=None):
        b = obs.shape[0]
        logits = ad.reshape(self.params["logits"], (1, -1))
        tiled = ad.matmul(Tensor(np.ones((b, 1))), logits)
        logp_all = ad.log_softmax(tiled)
        logp = ad.gather_rows(logp_all, np.asarray(actions))
        probs = ad.softmax_rows(tiled)
        entropy = ad.neg(ad.tmean(ad.tsum(ad.mul(probs, logp_all), axis=-1)))
        value = ad.scale(logp, 0.0)             # critic pinned at zero
        return ActionEval(log_prob=logp, entropy=entropy, value=value, path_fraction=None)


def _bandit_rollout(policy, rng, n=64):
    codes = np.zeros((n, 1, envs.GRID, envs.GRID), dtype=np.uint8)
    actions, logp, values, _ = policy.act(envs.decode_obs(codes[:, 0]), rng)
    rewards = (actions == 0).astype(float)      # action 0 pays 1, else 0
    return RolloutBatch(
        obs_codes=codes,
        actions=actions.reshape(n, 1),
        old_log_probs=logp.reshape(n, 1),
        values=values.reshape(n, 1),
        rewards=rewards.reshape(n, 1),
        dones=np.ones((n, 1)),
        bootstrap_values=np.zeros(1),
    )


def test_ppo_bandit_converges():
    cfg = PPOConfig(epochs=1, minibatch_size=64, rollout_len=64, n_envs=1,
                    learning_rate=0.05, entropy_coef=0.0, value_coef=0.0,
                    total_timesteps=64)
    policy = BanditPolicy()
    opt = Adam([policy.params["logits"]], lr=cfg.learning_rate)
    rng = stream(1, "bandit_rollout")
    update_rng = stream(2, "bandit_shuffle")
    for update in range(200):
        batch = _bandit_rollout(policy, rng)
        ppo_update(batch, policy, cfg, opt, update_rng)
        if policy.probs()[0] > 0.95:
            break
    assert policy.probs()[0] > 0.95


def test_ppo_update_identity_ratio_surrogate():
    """With old == new policy the ratio is 1 and clipping is inactive, so the
    policy loss equals minus the mean advantage."""
    cfg = PPOConfig(epochs=1, minibatch_size=32, rollout_len=32, n_envs=1,
                    learning_rate=0.0, advantage_norm=False, value_coef=0.5,
                    entropy_coef=0.0, total_timesteps=32)
    policy = BanditPolicy()
    opt = Adam([policy.params["logits"]], lr=0.0)
    rng = stream(3, "r")
    batch = _bandit_rollout(policy, rng, n=32)
    adv_expected, _ = compute_gae(batch.rewards, batch.values, batch.dones,
                                  cfg.gamma, cfg.gae_lambda, batch.bootstrap_values)
    stats = ppo_update(batch, policy, cfg, opt, stream(4, "s"))
    assert abs(stats.policy_loss - (-adv_expected.mean())) < 1e-5


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_ratio_is_exactly_one_on_a_real_rollout(kind, precision):
    """At the rollout's parameters, ``evaluate_actions`` with the batch's
    noise scores every sample as ``act`` did: the PPO ratio is 1, bit for bit.
    The attention agents are scored over the whole batch at once, as the
    update scores them. The cnn agent is scored one rollout step at a time:
    its MLP layer is one 2-d GEMM over the batch, whose rounding depends on
    the number of rows, so at B=256 its log-probs differ from B=8 ones in the
    last bits."""
    with ad.precision(precision):
        train_seeds, _ = envs.make_split("DodgeGrid", 4, 1)
        policy = make_policy(kind, TrunkConfig(), seed=3)
        runner = ppo.VecRunner("DodgeGrid", train_seeds, seed=3)
        runner.start(8)
        batch = ppo.collect_rollout(policy, runner, 32, stream(3, "rollout_actions"))
        assert (batch.noise is None) == (kind != "sparse_masked")
        steps = [slice(t * 8, t * 8 + 8) for t in range(32)] if kind == "cnn" else [slice(None)]
        obs = batch.observations.reshape((256,) + batch.observations.shape[2:])
        noise = None if batch.noise is None else batch.noise.reshape(256, -1)
        new = np.concatenate([
            policy.evaluate_actions(obs[rows], batch.actions.reshape(256)[rows], mode="train",
                                    noise=None if noise is None else noise[rows]).log_prob.data
            for rows in steps])
    assert np.array_equal(new.astype(np.float64), batch.old_log_probs.reshape(256))


def test_bootstrap_is_the_eval_mode_value_of_the_last_observations():
    """The sparse agent's train- and eval-mode masks differ, so only the
    eval-mode forward gives the bootstrap."""
    train_seeds, _ = envs.make_split("DodgeGrid", 4, 1)
    policy = make_policy("sparse_masked", TrunkConfig(), seed=5)
    runner = ppo.VecRunner("DodgeGrid", train_seeds, seed=5)
    runner.start(4)
    batch = ppo.collect_rollout(policy, runner, 8, stream(5, "rollout_actions"))
    obs = envs.decode_obs(runner.obs_codes())
    want = policy.output(obs, mode="eval").value.data
    assert np.array_equal(batch.bootstrap_values, want)
    assert not np.array_equal(policy.output(obs, mode="train").value.data, want)


def test_minibatch_below_two_rejected():
    # the update splits each minibatch into two halves, so every minibatch,
    # the rollout's last one too, needs at least 2 samples
    with pytest.raises(ConfigError, match="minibatch_size"):
        PPOConfig(minibatch_size=1).validate()
    PPOConfig(minibatch_size=2).validate()
    for rollout_len in (1, 129):
        with pytest.raises(ConfigError, match="one-sample minibatch"):
            PPOConfig(rollout_len=rollout_len, n_envs=1, minibatch_size=64,
                      total_timesteps=256).validate()
    PPOConfig(rollout_len=128, n_envs=1, minibatch_size=64, total_timesteps=256).validate()


def test_update_rejects_a_batch_that_leaves_a_one_sample_minibatch():
    """``ppo_update`` checks the batch it is given with ``PPOConfig``'s own
    predicate, since its callers need not validate the config: a 3-sample
    rollout at minibatch_size 2, an empty one, or zero epochs, which would
    run no minibatch, raise before any step."""
    policy = make_policy("cnn", TrunkConfig(), seed=0)
    runner = ppo.VecRunner("DodgeGrid", [0, 1], seed=0)
    runner.start(3)
    batch = ppo.collect_rollout(policy, runner, 1, stream(0, "rollout_actions"))
    cfg = PPOConfig(epochs=1, minibatch_size=2)
    opt = Adam(list(policy.params.values()))
    with pytest.raises(ConfigError, match="one-sample minibatch"):
        ppo_update(batch, policy, cfg, opt, stream(0, "shuffle"))
    empty = RolloutBatch(batch.obs_codes[:0], batch.actions[:0], batch.old_log_probs[:0],
                         batch.values[:0], batch.rewards[:0], batch.dones[:0],
                         batch.bootstrap_values)
    with pytest.raises(ConfigError, match="non-empty"):
        ppo_update(empty, policy, cfg, opt, stream(0, "shuffle"))
    with pytest.raises(ConfigError, match="epochs"):
        ppo_update(batch, policy, PPOConfig(epochs=0, minibatch_size=3), opt,
                   stream(0, "shuffle"))
    assert opt.t == 0


def test_batch_observations_are_the_frames_act_saw():
    """The rollout keeps uint8 codes; decoded, they are the frames ``act``
    received, byte for byte."""
    policy = make_policy("sparse_masked", TrunkConfig(), seed=2)
    act, seen = policy.act, []

    def recording_act(obs, rng):
        seen.append(np.array(obs))
        return act(obs, rng)

    policy.act = recording_act
    runner = ppo.VecRunner("MazeGrid", [0, 1, 2], seed=2)
    runner.start(4)
    batch = ppo.collect_rollout(policy, runner, 6, stream(2, "rollout_actions"))
    assert batch.obs_codes.dtype == np.uint8 and batch.obs_codes.shape == (6, 4, 16, 16)
    frames = batch.observations
    assert frames.dtype == ad.get_default_dtype() and frames.shape == (6, 4, 4, 16, 16)
    assert np.array_equal(frames, np.stack(seen))


def test_default_sparse_rollout_batch_is_small():
    """A default 256 x 8 sparse rollout peaks under 6 MiB: it keeps its
    observations as 0.5 MiB of codes beside 4.1 MiB of mask noise (about
    5.1 MiB traced). With 8 MiB of float32 frames the batch alone was about
    12.6 MiB."""
    cfg = PPOConfig()
    with ad.precision(np.float32):
        train_seeds, _ = envs.make_split("DodgeGrid", 20, 1)
        policy = make_policy("sparse_masked", TrunkConfig(), seed=0)
        runner = ppo.VecRunner("DodgeGrid", train_seeds, seed=0)
        runner.start(cfg.n_envs)
        for seed in train_seeds:        # level tables are cached, not part of the batch
            envs.generate_level("DodgeGrid", seed).codes
        rng = stream(0, "rollout_actions")
        ppo.collect_rollout(policy, runner, 1, rng)
        tracemalloc.start()
        try:
            batch = ppo.collect_rollout(policy, runner, cfg.rollout_len, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert batch.obs_codes.nbytes == cfg.rollout_len * cfg.n_envs * 256
    assert peak <= 6 * 2 ** 20


def test_threaded_update_minibatch_traced_peak():
    """One default threaded ``ppo_update`` minibatch, two B=256 shards of a
    real 64 x 8 sparse DodgeGrid rollout with its mask noise and the mask
    loss, stays under a 21.5 MB traced peak: what the benchmark's peak RSS
    sees of an update. It is about 19.1-19.7 MB; with the conv layers' outputs
    on the tape and the FFN's hidden layer alive through its backward it was
    about 22.3-23.4 MB."""
    cfg = PPOConfig(epochs=1)
    assert cfg.minibatch_size == 512 and cfg.lambda_mask > 0
    with ad.precision(np.float32):
        train_seeds, _ = envs.make_split("DodgeGrid", 20, 1)
        policy = make_policy("sparse_masked", TrunkConfig(), seed=0)
        runner = ppo.VecRunner("DodgeGrid", train_seeds, seed=0)
        runner.start(cfg.n_envs)
        batch = ppo.collect_rollout(policy, runner, 64, stream(0, "rollout_actions"))
        optimizer = Adam(list(policy.params.values()), lr=cfg.learning_rate)
        tracemalloc.start()
        try:
            ppo_update(batch, policy, cfg, optimizer, stream(0, "update"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert batch.noise is not None and optimizer.t == 1
    assert peak <= 21.5 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def test_sampled_evaluation_is_not_implemented():
    policy = make_policy("cnn", TrunkConfig(), seed=0)
    with pytest.raises(UsageError, match="greedy"):
        ppo.evaluate_policy(policy, "DodgeGrid", [0], greedy=False)


@pytest.mark.parametrize("key,bad,edge", [("gamma", 1.5, 1.0), ("gamma", 0.0, 1.0),
                                          ("gae_lambda", 2.0, 1.0),
                                          ("gae_lambda", -0.5, 1.0),
                                          ("entropy_coef", -0.01, 0.0),
                                          ("value_coef", -0.5, 0.0),
                                          ("lambda_mask", -1.0, 0.0),
                                          ("learning_rate", math.nan, 1e-3),
                                          ("learning_rate", math.inf, 1e3),
                                          ("entropy_coef", math.nan, 0.0),
                                          ("value_coef", math.inf, 1e3),
                                          ("lambda_mask", math.nan, 0.0),
                                          ("n_train_levels", envs.TEST_SEED_BASE + 1,
                                           envs.TEST_SEED_BASE),
                                          ("n_test_levels", envs.TEST_SEED_SPAN + 1,
                                           envs.TEST_SEED_SPAN),
                                          ("seed", -1, 0), ("seed", 2 ** 64, 2 ** 64 - 1)])
def test_config_file_values_that_break_training_rejected(key, bad, edge):
    """A discount above 1 makes GAE grow without bound, a negative
    coefficient turns its loss term into a reward, a nan or infinite rate or
    coefficient trains into NaNs, train levels that reach the test seeds'
    range, or more test levels than it holds, break the split, and a seed
    outside [0, 2**64) trains bit for bit as the seed with its low 64 bits
    but would be named and pooled as another run."""
    text = config.to_text(ExperimentConfig())
    (line,) = [line for line in text.splitlines() if line.startswith(f"{key} = ")]
    with pytest.raises(ConfigError, match=key):
        config.from_text(text.replace(line, f"{key} = {bad!r}"))
    config.from_text(text.replace(line, f"{key} = {edge!r}"))


def test_ppo_update_aborts_on_nan():
    cfg = PPOConfig(epochs=1, minibatch_size=32, rollout_len=32, n_envs=1,
                    total_timesteps=32)
    policy = BanditPolicy()
    opt = Adam([policy.params["logits"]], lr=0.0)
    batch = _bandit_rollout(policy, stream(5, "r"), n=32)
    batch.rewards[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        ppo_update(batch, policy, cfg, opt, stream(6, "s"))


def test_nan_on_the_worker_shard_aborts_before_any_step():
    """Only the second half of the minibatch, which the worker thread runs,
    sees the NaN; the update still raises and applies nothing."""
    cfg = PPOConfig(epochs=1, minibatch_size=32, rollout_len=32, n_envs=1,
                    advantage_norm=False, total_timesteps=32)
    policy = BanditPolicy()
    opt = Adam([policy.params["logits"]], lr=0.1)
    batch = _bandit_rollout(policy, stream(5, "r"), n=32)
    second_half = stream(6, "s").permutation(32)[16:]
    batch.rewards[second_half[0], 0] = np.nan      # dones are all 1: one NaN advantage
    before = policy.params["logits"].data.copy()
    threads = set(threading.enumerate())
    with pytest.raises(FloatingPointError):
        ppo_update(batch, policy, cfg, opt, stream(6, "s"))
    assert np.array_equal(policy.params["logits"].data, before)
    assert opt.t == 0
    assert set(threading.enumerate()) == threads


def _random_batch(seed: int, t_len: int = 64, k: int = 8) -> RolloutBatch:
    """Random codes: any wall, agent and shade bits, a palette index below
    ``N_PALETTES``."""
    rng = np.random.default_rng(seed)
    shape = (t_len, k, envs.GRID, envs.GRID)
    codes = (rng.integers(0, 1 << envs.PALETTE_SHIFT, shape)
             | rng.integers(0, envs.N_PALETTES, shape) << envs.PALETTE_SHIFT)
    return RolloutBatch(
        obs_codes=codes.astype(np.uint8),
        actions=rng.integers(0, envs.N_ACTIONS, (t_len, k)),
        old_log_probs=np.log(1.0 / envs.N_ACTIONS) + 0.3 * rng.standard_normal((t_len, k)),
        values=rng.standard_normal((t_len, k)),
        rewards=rng.standard_normal((t_len, k)),
        dones=(rng.random((t_len, k)) < 0.1).astype(float),
        bootstrap_values=rng.standard_normal(k))


def _reference_grads(policy, cfg: PPOConfig, batch: RolloutBatch, parts, noises) -> dict:
    """The PPO loss of each part on one tape, on this thread, weighted by the
    part's share of the minibatch; gradients summed over parts in order."""
    adv, returns = compute_gae(batch.rewards, batch.values, batch.dones, cfg.gamma,
                               cfg.gae_lambda, batch.bootstrap_values)
    adv, returns = adv.reshape(-1), returns.reshape(-1)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    obs = batch.observations.reshape((adv.size,) + batch.observations.shape[2:])
    n = sum(part.size for part in parts)
    grads = {}
    for part, noise in zip(parts, noises):
        with Tape() as tape:
            out = policy.evaluate_actions(obs[part], batch.actions.reshape(-1)[part],
                                          noise=noise)
            ratio = ad.exp(ad.sub(out.log_prob, Tensor(batch.old_log_probs.reshape(-1)[part])))
            a = Tensor(adv[part])
            clipped = ad.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
            loss = ad.neg(ad.tmean(ad.minimum(ad.mul(ratio, a), ad.mul(clipped, a))))
            err = ad.sub(out.value, Tensor(returns[part]))
            loss = ad.add(loss, ad.scale(ad.tmean(ad.square(err)), cfg.value_coef))
            loss = ad.sub(loss, ad.scale(out.entropy, cfg.entropy_coef))
            if out.path_fraction is not None:
                dev = ad.sub(out.path_fraction, cfg.alpha)
                loss = ad.add(loss, ad.scale(ad.tmean(ad.square(dev)), cfg.lambda_mask))
            loss = ad.scale(loss, part.size / n)
        part_grads = ad.backward(tape, loss)
        for name, p in policy.params.items():
            if p in part_grads:
                g = part_grads[p]
                grads[name] = g if name not in grads else grads[name] + g
    return grads


class _RecordingAdam(Adam):
    """Keeps the gradient dict each ``step`` receives."""

    def step(self, grads):
        self.received = grads
        super().step(grads)


def _sharded_grads(kind: str, cfg: PPOConfig, batch: RolloutBatch) -> dict:
    """The gradient ``ppo_update`` applies to one B=512 minibatch (lr 0)."""
    policy = make_policy(kind, TrunkConfig(), seed=3)
    optimizer = _RecordingAdam(list(policy.params.values()), lr=0.0)
    ppo_update(batch, policy, cfg, optimizer, stream(4, "shuffle"))
    return {name: optimizer.received.get(p) for name, p in policy.params.items()}


@pytest.mark.parametrize("kind", ["cnn", "attention", "input_masked"])
def test_sharded_update_gradient_equals_one_tape(f64, kind):
    cfg = PPOConfig(epochs=1, minibatch_size=512)
    batch = _random_batch(seed=11)
    got = _sharded_grads(kind, cfg, batch)
    ref = _reference_grads(make_policy(kind, TrunkConfig(), seed=3), cfg, batch,
                           [np.arange(512)], [None])
    assert set(got) == set(ref)
    for name in ref:
        assert np.allclose(got[name], ref[name], rtol=1e-10, atol=1e-10), name


def test_sharded_sparse_update_equals_serial_halves(f64):
    cfg = PPOConfig(epochs=1, minibatch_size=512)
    batch = _random_batch(seed=12)
    twin = make_policy("sparse_masked", TrunkConfig(), seed=3)
    noise = noise_rows(stream(12, "noise"), 512, TrunkConfig())
    batch.noise = noise.reshape(64, 8, -1)
    got = _sharded_grads("sparse_masked", cfg, batch)
    perm = stream(4, "shuffle").permutation(512)
    halves = [perm[:256], perm[256:]]
    ref = _reference_grads(twin, cfg, batch, halves, [noise[h] for h in halves])
    assert set(got) == set(ref)
    for name in ref:
        assert np.allclose(got[name], ref[name], rtol=1e-10, atol=1e-10), name


def test_advantage_normalization_stats():
    rng = np.random.default_rng(7)
    adv = rng.standard_normal(1000) * 3 + 2
    normed = (adv - adv.mean()) / (adv.std() + 1e-8)
    assert abs(normed.mean()) < 1e-9
    assert abs(normed.std() - 1.0) < 1e-6


def test_short_training_run_is_deterministic(tmp_path, tiny_cfg):
    for kind in ("sparse_masked", "attention"):
        tiny_cfg.policy = kind
        a, b = tmp_path / kind / "a", tmp_path / kind / "b"
        ppo.train(tiny_cfg, a)
        ppo.train(tiny_cfg, b)
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes(), kind
        assert (a / "checkpoint.smap").read_bytes() == \
            (b / "checkpoint.smap").read_bytes(), kind


def test_training_writes_run_artifacts(tmp_path, tiny_cfg):
    tiny_cfg.policy = "cnn"
    assert ppo.train(tiny_cfg, tmp_path / "run") is None
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert (tmp_path / "run" / "config.txt").exists()
    assert (tmp_path / "run" / "checkpoint.smap").exists()
    assert (tmp_path / "run" / "params.txt").exists()
    header, *rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert header == ",".join(ppo.METRIC_COLUMNS)
    split = ppo.METRIC_COLUMNS.index("split")
    assert {row.split(",")[split] for row in rows} == {"train", "test"}
