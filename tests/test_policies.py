import numpy as np
import pytest

from smap import autodiff as ad
from smap import envs
from smap.attention import TrunkConfig
from smap.autodiff import Tape, Tensor
from smap.errors import ConfigError
from smap.policies import POLICY_KINDS, make_policy
from smap.rng import stream

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
        assert out.action_logits.shape == (4, CFG.n_actions)
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
        assert np.allclose(probs, 1.0 / CFG.n_actions)


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
    ad.backward(tape, loss)
    g = policy.params["masknet.conv0.w"].grad
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
    assert np.array_equal(a.path_matrix.total.data, b.path_matrix.total.data)


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


def test_act_greedy_matches_argmax():
    policy = make_policy("cnn", CFG, seed=10)
    obs = _obs_batch(3)
    actions, logp, values = policy.act(obs, stream(0, "x"), greedy=True)
    out = policy.output(obs, mode="eval")
    assert np.array_equal(actions, np.argmax(out.action_logits.data, axis=-1))
    assert np.all(logp <= 0)


@pytest.mark.parametrize("kind,entries", [("sparse_masked", 93), ("attention", 59)])
def test_train_mode_tape_length(kind, entries):
    """The fused linear ops and dense attention keep the update tape this short."""
    policy = make_policy(kind, CFG, seed=4)
    obs = _obs_batch(4)
    with Tape() as tape:
        policy.evaluate_actions(obs, np.zeros(4, dtype=np.int64), mode="train")
    assert len(tape.entries) == entries


@pytest.mark.parametrize("kind", ["cnn", "attention", "input_masked"])
def test_only_the_sparse_agent_draws_mask_noise(kind):
    policy = make_policy(kind, CFG, seed=11)
    obs = _obs_batch(2)
    policy.act(obs, stream(0, "act"))
    policy.evaluate_actions(obs, np.zeros(2, dtype=np.int64), mode="train")
    assert policy._noise.calls == 0


def test_sparse_act_draws_its_counter_stream_in_order():
    policy = make_policy("sparse_masked", CFG, seed=12)
    obs = _obs_batch(3)
    for counter in range(2):
        actions, logp, values = policy.act(obs, stream(counter, "act"))
        assert policy._noise.calls == counter + 1
        out = policy.output(obs, mode="train", want_paths=False,
                            noise_rng=stream(12, "sparse_masked.mask_noise", counter))
        logits = out.action_logits.data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        assert np.array_equal(values, out.value.data)
        assert np.array_equal(logp, log_probs[np.arange(3), actions])
    policy.evaluate_actions(obs, actions, mode="train")
    assert policy._noise.calls == 3
