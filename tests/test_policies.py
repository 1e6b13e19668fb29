import tracemalloc

import numpy as np
import pytest

from smap import autodiff as ad
from smap import envs
from smap import paths as pathmod
from smap.attention import TrunkConfig, forward_trunk, noise_rows
from smap.autodiff import Tape, Tensor
from smap.errors import ConfigError
from smap.policies import POLICY_KINDS, make_policy
from smap.rng import stream
from smap.tokenizer import D_TOKEN

CFG = TrunkConfig()


def _obs_batch(b=3):
    return np.stack([envs.render_obs(envs.reset(envs.generate_level("DodgeGrid", s)))
                     for s in range(b)])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        make_policy("mlp", CFG, seed=0)


def test_interface_parity():
    obs = _obs_batch(4)
    for kind in POLICY_KINDS:
        policy = make_policy(kind, CFG, seed=1)
        out = policy.output(obs, mode="eval")
        assert out.action_logits.shape == (4, envs.N_ACTIONS)
        assert out.value.shape == (4,)
        probs = ad.softmax_rows(out.action_logits).data
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_zero_weights_give_uniform_policy_and_zero_value(f64):
    obs = _obs_batch(2)
    for kind in POLICY_KINDS:
        policy = make_policy(kind, CFG, seed=2)
        for name, t in policy.params.items():
            if name.startswith("head."):
                t.data = np.zeros_like(t.data)
        out = policy.output(obs, mode="eval")
        assert np.allclose(out.action_logits.data, 0.0)
        assert np.allclose(out.value.data, 0.0)
        probs = ad.softmax_rows(out.action_logits).data
        assert np.allclose(probs, 1.0 / envs.N_ACTIONS)


def test_outputs_finite_over_many_draws():
    rng = np.random.default_rng(3)
    for kind in POLICY_KINDS:
        policy = make_policy(kind, CFG, seed=3)
        for _ in range(25):
            obs = rng.random((2, 4, 16, 16))
            out = policy.output(obs, mode="eval")
            assert np.all(np.isfinite(out.action_logits.data))
            assert np.all(np.isfinite(out.value.data))


def test_masknet_saturated_open_equals_attention_policy(f64):
    obs = _obs_batch(2)
    masked = make_policy("input_masked", CFG, seed=4)
    dense = make_policy("attention", CFG, seed=4)
    shared = {k: t for k, t in masked.params.items() if not k.startswith("masknet.")}
    for k, t in dense.params.items():
        t.data = shared[k].data.copy()
    masked.params["masknet.conv1.b"].data = np.full(1, 1e9)    # sigmoid -> 1
    out_masked = masked.output(obs, mode="eval")
    out_dense = dense.output(obs, mode="eval")
    assert np.allclose(out_masked.action_logits.data, out_dense.action_logits.data,
                       atol=1e-9)


def test_masknet_closed_matches_zero_observation(f64):
    obs = _obs_batch(2)
    masked = make_policy("input_masked", CFG, seed=5)
    masked.params["masknet.conv1.b"].data = np.full(1, -1e9)   # sigmoid -> 0
    out = masked.output(obs, mode="eval")
    out_zero = masked.output(np.zeros_like(obs), mode="eval")
    assert np.allclose(out.action_logits.data, out_zero.action_logits.data, atol=1e-9)


def test_input_mask_values_in_unit_interval():
    policy = make_policy("input_masked", CFG, seed=6)
    obs = Tensor(np.random.default_rng(0).random((2, 4, 16, 16)))
    mask = policy.pixel_mask(obs)
    assert mask.shape == (2, 1, 16, 16)
    assert np.all((mask.data > 0) & (mask.data < 1))


def test_gradient_reaches_masknet(f64):
    policy = make_policy("input_masked", CFG, seed=7)
    obs = _obs_batch(2)
    actions = np.array([0, 1])
    with Tape() as tape:
        out = policy.evaluate_actions(obs, actions, mode="eval")
        loss = ad.tsum(out.log_prob)
    g = ad.backward(tape, loss).get(policy.params["masknet.conv0.w"])
    assert g is not None and np.any(g != 0)


def test_sparse_with_saturated_logits_equals_attention(f64):
    obs = _obs_batch(2)
    sparse = make_policy("sparse_masked", CFG, seed=8)
    dense = make_policy("attention", CFG, seed=8)
    for k, t in dense.params.items():
        t.data = sparse.params[k].data.copy()
    for name, t in sparse.params.items():
        if name.endswith("wqm") or name.endswith("wkm"):
            t.data = np.zeros_like(t.data)
        if name.endswith("beta"):
            t.data = np.asarray(1e6, dtype=t.data.dtype)
    out_sparse = sparse.output(obs, mode="eval")
    out_dense = dense.output(obs, mode="eval")
    assert np.allclose(out_sparse.action_logits.data, out_dense.action_logits.data,
                       atol=1e-6)
    assert np.allclose(out_sparse.value.data, out_dense.value.data, atol=1e-6)


def test_sparse_eval_mode_is_deterministic():
    policy = make_policy("sparse_masked", CFG, seed=9)
    obs = _obs_batch(2)
    a = policy.output(obs, mode="eval")
    b = policy.output(obs, mode="eval")
    assert np.array_equal(a.action_logits.data, b.action_logits.data)
    assert np.array_equal(pathmod.path_matrix(a.mask_set).total.data,
                          pathmod.path_matrix(b.mask_set).total.data)


def test_default_alpha_preset_round_trips():
    from smap.config import ExperimentConfig, from_text, to_text

    cfg = ExperimentConfig()
    assert cfg.ppo.alpha == 0.05
    assert from_text(to_text(cfg)).ppo.alpha == 0.05


def test_parameter_counts_are_stable():
    expected = {
        "cnn": 68790,
        "attention": 19414,
        "input_masked": 19463,
        "sparse_masked": 21993,
    }
    for kind, count in expected.items():
        assert make_policy(kind, CFG, seed=0).parameter_count() == count


@pytest.mark.parametrize("field,value", [("d_m", 8), ("d_ff", 32), ("n_layers", 0),
                                         ("n_layers", 3), ("n_layers", 1), ("beta_init", 0.0)])
def test_every_trunk_setting_works(field, value):
    """Each TrunkConfig field works away from its default, for every agent,
    in eval mode and in train mode. The ids name the field and value, so a
    case keeps its id when another is removed."""
    cfg = TrunkConfig(**{field: value})
    obs = _obs_batch(2)
    for kind in POLICY_KINDS:
        policy = make_policy(kind, cfg, seed=6)
        noise = noise_rows(stream(0, "noise"), 2, cfg) if policy.samples_masks else None
        for mode, rows in (("eval", None), ("train", noise)):
            out = policy.output(obs, mode=mode, noise=rows)
            assert out.action_logits.shape == (2, envs.N_ACTIONS)
            assert out.value.shape == (2,)
            if kind != "cnn":
                feats, _, _ = forward_trunk(Tensor(obs.astype(ad.get_default_dtype())),
                                            policy.params, cfg, mode=mode, noise=rows)
                assert feats.shape == (2, D_TOKEN)


@pytest.mark.parametrize("kind,entries", [("sparse_masked", 66), ("attention", 44)],
                         ids=["sparse_masked", "attention"])
def test_train_mode_tape_length(kind, entries):
    """The fused linear ops, one entry per score, mask-logit, value-mixing
    and FFN product, mask sampling without a temperature entry, a path matrix
    without a product with the identity and dense attention keep the update
    tape this short."""
    policy = make_policy(kind, CFG, seed=4)
    obs = _obs_batch(4)
    with Tape() as tape:
        policy.evaluate_actions(obs, np.zeros(4, dtype=np.int64), mode="train")
    assert len(tape.entries) == entries


@pytest.mark.parametrize("kind,bound_mb", [("sparse_masked", 12.0), ("attention", 10.5)],
                         ids=["sparse_masked", "attention"])
def test_train_step_traced_peak(kind, bound_mb):
    """A B=256 train-mode forward plus backward, as in one update shard, stays
    under a traced peak. Its tape keeps the arrays backward reads and the
    leaves, not every forward value, and backward frees each entry once it
    has replayed it; conv2d keeps its input, not a patch copy; every
    projection of the tokens (scores, mask logits, values and the FFN's
    hidden layer) keeps its tokens and recomputes the projection; and an
    attention layer drops each Tensor the tape does not keep once read. The
    peaks are about 10.2 and 8.6 MB; keeping v, the aggregation's k, v and
    mask keys and the FFN hidden layer they were about 14.5 and 11.9 MB,
    keeping q, k, qm and km as well about 17.5 and 13.9 MB, keeping every
    entry until backward returned and a patch copy as well about 21.9 and
    17.7 MB, and keeping every intermediate Tensor as well about 36 and
    28 MB."""
    with ad.precision(np.float32):
        policy = make_policy(kind, CFG, seed=5)
        obs = np.tile(_obs_batch(8), (32, 1, 1, 1))
        tracemalloc.start()
        try:
            with Tape() as tape:
                ev = policy.evaluate_actions(obs, np.arange(256) % 5, mode="train")
                loss = ad.add(ad.tmean(ev.log_prob), ev.entropy)
            ad.backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= bound_mb * 2**20, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("kind", ["cnn", "attention", "input_masked"])
def test_non_sparse_act_returns_no_noise(kind):
    """Agents without sampled masks draw only their actions from ``act``'s rng."""
    policy = make_policy(kind, CFG, seed=11)
    rng = stream(0, "act")
    assert policy.act(_obs_batch(2), rng).noise is None
    ref = stream(0, "act")
    ref.random((2, 1))
    assert rng.bit_generator.state == ref.bit_generator.state


class _TopUniform:
    """An rng whose uniforms are the largest float64 below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


def test_act_picks_the_last_action_past_the_cdf_total():
    """A float32 action distribution may sum to just under 1; a uniform above
    its total still picks the last action, never the first."""
    policy = make_policy("cnn", CFG, seed=0)
    obs = _obs_batch(64)
    sample = policy.act(obs, _TopUniform())
    assert sample.actions.tolist() == [envs.N_ACTIONS - 1] * 64
    log_probs = ad.log_softmax(policy.output(obs, mode="train").action_logits).data
    assert np.array_equal(sample.log_probs, log_probs[:, -1])


def test_sparse_output_replays_act_noise():
    policy = make_policy("sparse_masked", CFG, seed=12)
    obs = _obs_batch(3)
    for seed in range(2):
        sample = policy.act(obs, stream(seed, "act"))
        assert sample._fields == ("actions", "log_probs", "values", "noise")
        actions, logp, values, noise = sample
        assert np.array_equal(noise, noise_rows(stream(seed, "act"), 3, CFG))
        assert noise.shape == (3, CFG.n_layers * 16 * 16 + 16)
        assert noise.dtype == ad.get_default_dtype()
        out = policy.output(obs, mode="train", noise=noise)
        logits = out.action_logits.data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        assert np.array_equal(values, out.value.data)
        assert np.array_equal(logp, log_probs[np.arange(3), actions])


def test_sparse_train_evaluate_without_noise_is_stateless():
    policy = make_policy("sparse_masked", CFG, seed=13)
    obs = _obs_batch(3)
    actions = np.arange(3)
    a = policy.evaluate_actions(obs, actions, mode="train")
    policy.act(obs, stream(0, "act"))
    b = policy.evaluate_actions(obs, actions, mode="train")
    for x, y in ((a.log_prob, b.log_prob), (a.value, b.value),
                 (a.path_fraction, b.path_fraction)):
        assert np.array_equal(x.data, y.data)
