import numpy as np
import pytest

from smap import autodiff as ad
from smap import oracles
from smap.attention import (TrunkConfig, aggregate, forward_trunk,
                            init_trunk_params, masked_attention_layer, noise_rows,
                            run_attention_stack, sample_mask_values)
from smap.autodiff import Tape, Tensor
from smap.errors import ConfigError
from smap.gradcheck import analytic_grads, fd_coordinate, rel_error
from smap.rng import stream
from smap.tokenizer import D_TOKEN

CFG = TrunkConfig()


def _tokens(rng, b=1, n=16, d=32):
    return Tensor(rng.standard_normal((b, n, d)))


def _params(seed=0, with_masks=True, scale=0.7):
    params = init_trunk_params(stream(seed, "init"), CFG, with_masks=with_masks)
    for t in params.values():
        if t.data.ndim >= 2:
            t.data = t.data * scale
    return params


def ones_mask_set(batch, n, n_layers):
    """Fully open masks: the dense attention baseline's values."""
    return ([Tensor(np.ones((batch, n, n))) for _ in range(n_layers)]
            + [Tensor(np.ones((batch, 1, n)))])


def test_saturated_logits_always_open(f64):
    logits = Tensor(np.full((1, 4, 4), 1e6))
    for _ in range(5):
        noise = np.random.default_rng(_).logistic(size=logits.shape)
        _, hard = sample_mask_values(logits, "train", noise)
        assert np.all(hard.data == 1.0)


def test_eval_threshold_is_strict(f64):
    logits = Tensor(np.zeros((1, 3, 3)))
    soft, hard = sample_mask_values(logits, "eval", None)
    assert np.all(hard.data == 0.0)        # sigmoid(0) = 0.5 is not > 0.5
    assert soft is None


def test_train_sampling_matches_bernoulli_rate(f64):
    logits = Tensor(np.zeros((100, 10, 100)))
    noise = np.random.default_rng(7).logistic(size=logits.shape)
    _, hard = sample_mask_values(logits, "train", noise)
    assert abs(hard.data.mean() - 0.5) < 0.01


def test_mask_set_shapes_and_binarity(f64):
    """A mask set has the layout of the attention weights: one (B, n, n) hard
    mask per layer, then the (B, 1, n) aggregation row; dense has none."""
    params = _params(1)
    rng = np.random.default_rng(1)
    tokens = _tokens(rng, b=2)
    noise = noise_rows(np.random.default_rng(2), 2, CFG)
    assert noise.shape == (2, CFG.n_layers * 16 * 16 + 16)
    for mode, rows in (("train", noise), ("eval", None)):
        _, masks, attn = run_attention_stack(tokens, params, CFG, mode=mode, noise=rows)
        assert [m.shape for m in masks] == [a.shape for a in attn] \
            == [(2, 16, 16)] * CFG.n_layers + [(2, 1, 16)]
        for hard in masks:
            assert isinstance(hard, Tensor)
            assert set(np.unique(hard.data)) <= {0.0, 1.0}
    _, dense_masks, dense_attn = run_attention_stack(tokens, _params(1, with_masks=False), CFG)
    assert dense_masks is None and len(dense_attn) == CFG.n_layers + 1
    logits = Tensor(rng.standard_normal((2, 16, 16)))
    soft, hard = sample_mask_values(logits, "train",
                                    np.random.default_rng(3).logistic(size=logits.shape))
    assert np.all((soft.data > 0) & (soft.data < 1))
    assert np.array_equal(hard.data, (soft.data > 0.5).astype(hard.data.dtype))
    with pytest.raises(ValueError):
        run_attention_stack(tokens, params, CFG, mode="train", noise=noise[:, :-1])
    with pytest.raises(ConfigError):
        run_attention_stack(tokens, params, CFG, mode="train")


def test_open_mask_equals_dense_reference(f64):
    rng = np.random.default_rng(3)
    params = _params(2)
    tokens = _tokens(rng, b=2)
    override = ones_mask_set(2, 16, CFG.n_layers)
    feats, _, _ = run_attention_stack(tokens, params, CFG, masks_override=override)
    ref = oracles.dense_reference_stack(tokens.data, params, CFG.n_layers)
    assert np.allclose(feats.data, ref, atol=1e-9)


def test_fully_masked_row_keeps_residual_path(f64):
    rng = np.random.default_rng(4)
    params = _params(3)
    tokens = _tokens(rng, n=4)
    mask = np.ones((1, 4, 4))
    mask[0, 2, :] = 0.0         # token 2 attends to nothing
    out_masked, _ = masked_attention_layer(tokens, params, "layer0.", Tensor(mask))
    assert np.all(np.isfinite(out_masked.data))
    # with zero attention output, token 2 reduces to layernorm+ffn of itself
    x2 = ad.layer_norm(tokens, params["layer0.ln1_g"], params["layer0.ln1_b"])
    hidden = ad.relu(ad.add(ad.matmul(x2, params["layer0.ffn_w1"]), params["layer0.ffn_b1"]))
    ff = ad.add(ad.matmul(hidden, params["layer0.ffn_w2"]), params["layer0.ffn_b2"])
    alone = ad.layer_norm(ad.add(x2, ff), params["layer0.ln2_g"], params["layer0.ln2_b"])
    assert np.allclose(out_masked.data[0, 2], alone.data[0, 2], atol=1e-12)


def test_identity_mask_with_flat_scores_returns_values(f64):
    params = _params(5)
    n, d = 4, D_TOKEN
    params["layer0.wq"].data = np.zeros_like(params["layer0.wq"].data)
    tokens = _tokens(np.random.default_rng(5), n=n)
    q = ad.matmul(tokens, params["layer0.wq"])
    k = ad.matmul(tokens, params["layer0.wk"])
    v = ad.matmul(tokens, params["layer0.wv"])
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(D_TOKEN))
    assert np.allclose(scores.data, 0.0)
    attn = ad.masked_softmax(scores, Tensor(np.eye(n)[None]))
    mixed = ad.matmul(attn, v)
    assert np.allclose(mixed.data, v.data, atol=1e-12)


def test_aggregate_uniform_is_mean_of_values(f64):
    params = _params(6)
    params["agg.q"].data = np.zeros_like(params["agg.q"].data)   # flat scores
    tokens = _tokens(np.random.default_rng(6), n=8)
    mask = Tensor(np.ones((1, 1, 8)))
    feats, attn = aggregate(tokens, params, mask)
    v = tokens.data[0] @ params["agg.wv"].data
    assert np.allclose(attn.data[0, 0], 1 / 8)
    assert np.allclose(feats.data[0], v.mean(axis=0), atol=1e-12)


def test_aggregate_one_hot_selects_token(f64):
    params = _params(7)
    tokens = _tokens(np.random.default_rng(7), n=8)
    one_hot = np.zeros((1, 1, 8))
    one_hot[0, 0, 3] = 1.0
    feats, _ = aggregate(tokens, params, Tensor(one_hot))
    v3 = tokens.data[0, 3] @ params["agg.wv"].data
    assert np.allclose(feats.data[0], v3, atol=1e-12)


def test_aggregate_all_masked_is_zero_vector(f64):
    params = _params(8)
    tokens = _tokens(np.random.default_rng(8), n=8)
    feats, _ = aggregate(tokens, params, Tensor(np.zeros((1, 1, 8))))
    assert np.array_equal(feats.data, np.zeros_like(feats.data))


def test_aggregate_open_matches_dense_oracle(f64):
    rng = np.random.default_rng(9)
    params = _params(9)
    tokens = _tokens(rng, b=3, n=16)
    feats, _, _ = run_attention_stack(tokens, params, CFG,
                                      masks_override=ones_mask_set(3, 16, CFG.n_layers))
    ref = oracles.dense_reference_stack(tokens.data, params, CFG.n_layers)
    assert np.max(np.abs(feats.data - ref)) < 1e-6


def test_zero_depth_trunk_is_aggregation_only(f64):
    cfg = TrunkConfig(n_layers=0)
    params = init_trunk_params(stream(10, "init"), cfg, with_masks=True)
    rng = np.random.default_rng(10)
    obs = Tensor(rng.random((1, 4, 16, 16)))
    feats, masks, attn = forward_trunk(obs, params, cfg, mode="eval")
    assert feats.shape == (1, D_TOKEN)
    assert [m.shape for m in masks] == [(1, 1, 16)]
    assert [a.shape for a in attn] == [(1, 1, 16)]


def test_trunk_determinism_under_fixed_noise(f64):
    params = _params(11)
    obs = Tensor(np.random.default_rng(11).random((2, 4, 16, 16)))
    a, _, _ = forward_trunk(obs, params, CFG, mode="train",
                            noise=noise_rows(stream(99, "noise"), 2, CFG))
    b, _, _ = forward_trunk(obs, params, CFG, mode="train",
                            noise=noise_rows(stream(99, "noise"), 2, CFG))
    assert np.array_equal(a.data, b.data)


def test_no_nan_for_any_mask_pattern(f64):
    rng = np.random.default_rng(12)
    params = _params(12)
    tokens = _tokens(rng, n=8)
    for trial in range(20):
        masks = (rng.random((CFG.n_layers, 8, 8)) < rng.random()).astype(float)
        out_mask = (rng.random((1, 8)) < rng.random()).astype(float)
        override = [Tensor(m[None]) for m in masks] + [Tensor(out_mask[None])]
        feats, _, _ = run_attention_stack(tokens, params, CFG, masks_override=override)
        assert np.all(np.isfinite(feats.data))


def test_masked_layer_gradients_match_soft_relaxation(f64):
    """Frozen noise, no thresholding: analytic grads vs finite differences."""
    rng = np.random.default_rng(13)
    params = _params(13, scale=0.5)
    obs = np.asarray(rng.random((1, 4, 16, 16)))
    noise = noise_rows(stream(77, "noise"), 1, CFG)
    grad_tensors = [params[k] for k in
                    ("layer0.wqm", "layer0.wkm", "layer0.beta", "layer0.wq",
                     "agg.qm", "agg.beta", "agg.wv")]

    def loss_fn(ts):
        feats, _, _ = forward_trunk(Tensor(obs), params, CFG, mode="soft", noise=noise)
        return ad.tsum(ad.square(feats))

    grads = analytic_grads(loss_fn, grad_tensors)
    picker = np.random.default_rng(14)
    worst = 0.0
    for wi, t in enumerate(grad_tensors):
        for _ in range(4):
            idx = tuple(picker.integers(0, s) for s in t.shape) if t.shape else ()
            fd = fd_coordinate(loss_fn, grad_tensors, wi, idx)
            worst = max(worst, rel_error(float(grads[wi][idx]), fd))
    assert worst < 1e-4


def test_influence_blocking_exact(f64):
    tested_total = 0
    for seed in range(6):
        tested, ok = oracles.influence_blocking_trial(seed)
        assert ok
        tested_total += tested
    assert tested_total > 0


def test_dense_stack_without_masks_equals_all_ones_override(f64):
    rng = np.random.default_rng(15)
    params = _params(15, with_masks=False)
    tokens = _tokens(rng, b=3)
    weights = Tensor(rng.standard_normal((3, D_TOKEN)))
    grad_names = ("layer0.wq", "layer1.ffn_w1", "layer1.ln2_g", "agg.q", "agg.wv")

    def run(override):
        for name in grad_names:
            params[name].requires_grad = True
        with Tape() as tape:
            feats, masks, attn = run_attention_stack(tokens, params, CFG,
                                                     masks_override=override)
            loss = ad.tsum(ad.mul(feats, weights))
        grads = ad.backward(tape, loss)
        return feats.data, masks, attn, [grads[params[k]] for k in grad_names]

    feats, masks, attn, grads = run(None)
    ref_feats, _, ref_attn, ref_grads = run(ones_mask_set(3, 16, CFG.n_layers))
    assert masks is None
    assert np.array_equal(feats, ref_feats)
    assert [a.shape for a in attn] == [(3, 16, 16)] * CFG.n_layers + [(3, 1, 16)]
    for a, ref in zip(attn, ref_attn):
        assert np.array_equal(a.data, ref.data)
    for g, r in zip(grads, ref_grads):
        assert np.max(np.abs(g - r)) < 1e-10
