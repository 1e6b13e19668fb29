"""Multi-layer self-attention gated by learned stochastic binary masks.

Attention weights are the renormalized masked softmax
``(M * exp(QK^T/sqrt(D_TOKEN))) / rowsum``, ``D_TOKEN`` the token width, with
mask logits produced by separate mask embeddings from the *current* layer's
token representations, so sparsity in early layers also sparsifies the mask
computation of later layers. Each layer thus computes two bilinear forms of
its tokens x, the scores ``(x·wq)(x·wk)^T`` and the mask logits
``(x·wqm)(x·wkm)^T + beta``, each one ``ad.bilinear``. A final
aggregation step attends from one learned query over the last layer's tokens
(with its own 1xn mask) to produce the feature vector for the heads; its
scores and mask logits are each one ``ad.query_bilinear``. Every stage mixes
its values with ``ad.mix`` and every layer runs its FFN as ``ad.ffn``.

Each of these ops keeps the tokens, which the tape holds anyway, and
recomputes their projection in backward. One B = 256 update shard's traced
peak is about 8.8 MB for the sparse agent and 6.8 MB for the dense one (10.2
and 8.6 MB with the conv layers' outputs on the tape and ffn's backward
holding its hidden layer; 14.5 and 11.9 MB when the tape also kept v, the
aggregation's k, v and mask keys and the FFN hidden layer).

The trunk runs as L+1 stages, the L layers and then the aggregation, and a
mask has the layout of the attention weights it gates: one (B, n, n) per
layer, then the (B, 1, n) aggregation row. A forward returns the features,
the masks as that list of L+1 hard masks (None for dense attention) and the
attention weights in the same layout. Path counts and importance maps are
derived from these.

Mask sampling uses the hard binary concrete / Gumbel-softmax construction at
temperature 1: logistic noise on the logits, a sigmoid relaxation, and a
straight-through hard threshold. Evaluation mode thresholds the noiseless
sigmoid at 0.5 (strictly above), with no gradient. The noise is an input, one
row per sample (``noise_rows``), so a forward that is given a sample's noise
again samples the same masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .tokenizer import D_TOKEN, N_TOKENS, init_extractor, tokenize


@dataclass(frozen=True)
class TrunkConfig:
    """The trunk's architecture; queries, keys and values are ``D_TOKEN`` wide."""
    d_m: int = 16
    d_ff: int = 64
    n_layers: int = 2
    beta_init: float = 2.0


def init_trunk_params(rng: np.random.Generator, cfg: TrunkConfig,
                      with_masks: bool) -> dict[str, Tensor]:
    params = init_extractor(rng)
    d, dm, dff = D_TOKEN, cfg.d_m, cfg.d_ff

    def w(name, *shape, fan=None):
        fan = fan if fan is not None else shape[0]
        params[name] = ad.parameter(rng.standard_normal(shape) / np.sqrt(fan))

    def zeros(name, *shape):
        params[name] = ad.parameter(np.zeros(shape))

    def ones(name, *shape):
        params[name] = ad.parameter(np.ones(shape))

    for l in range(cfg.n_layers):
        p = f"layer{l}."
        w(p + "wq", d, d)
        w(p + "wk", d, d)
        w(p + "wv", d, d)
        w(p + "ffn_w1", d, dff)
        zeros(p + "ffn_b1", dff)
        w(p + "ffn_w2", dff, d)
        zeros(p + "ffn_b2", d)
        ones(p + "ln1_g", d)
        zeros(p + "ln1_b", d)
        ones(p + "ln2_g", d)
        zeros(p + "ln2_b", d)
        if with_masks:
            w(p + "wqm", d, dm)
            w(p + "wkm", d, dm)
            params[p + "beta"] = ad.parameter(np.asarray(cfg.beta_init))
    w("agg.q", 1, d, fan=d)
    w("agg.wk", d, d)
    w("agg.wv", d, d)
    if with_masks:
        w("agg.qm", 1, cfg.d_m, fan=cfg.d_m)
        w("agg.wkm", d, cfg.d_m)
        params["agg.beta"] = ad.parameter(np.asarray(cfg.beta_init))
    return params


def noise_rows(rng: np.random.Generator, batch: int, cfg: TrunkConfig) -> np.ndarray:
    """Logistic mask noise for ``batch`` samples at the working dtype, one row
    each: its L (n, n) layer blocks row-major, then its (1, n) aggregation row."""
    return rng.logistic(size=(batch, cfg.n_layers * N_TOKENS ** 2 + N_TOKENS)
                        ).astype(ad.get_default_dtype())


def sample_mask_values(logits: Tensor, mode: str,
                       noise: Optional[np.ndarray]) -> tuple[Optional[Tensor], Tensor]:
    """Turn mask logits into (soft, hard) mask tensors; only ``hard`` gates
    attention. ``noise`` is logistic noise of the logits' shape.

    train: logits plus noise, sigmoid relaxation, straight-through threshold.
    eval:  deterministic threshold sigmoid(logits) > 0.5, no noise, no grad,
           and no relaxation: ``soft`` is None.
    soft:  like train but without the hard threshold (verification mode).
    """
    if mode == "eval":
        hard_vals = (logits.data > 0).astype(logits.data.dtype)
        return None, Tensor(hard_vals, dtype=logits.data.dtype)
    if mode not in ("train", "soft"):
        raise ConfigError(f"unknown mask sampling mode {mode!r}")
    if noise is None:
        raise ConfigError("train-mode mask sampling requires noise")
    noisy = ad.add(logits, Tensor(noise, dtype=logits.data.dtype))
    soft = ad.sigmoid(noisy)
    if mode == "soft":
        return soft, soft
    return soft, ad.st_round(soft)


def _mask_logits(tokens: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """A stage's mask logits: ``(x·wqm)(x·wkm)^T + beta`` for a layer, and
    ``qm·(x·wkm)^T + beta`` from the aggregation's learned query."""
    if prefix == "agg.":
        logits = ad.query_bilinear(params["agg.qm"], tokens, params["agg.wkm"])
    else:
        logits = ad.bilinear(tokens, params[prefix + "wqm"], params[prefix + "wkm"])
    return ad.add(logits, params[prefix + "beta"])


def masked_attention_layer(tokens: Tensor, params: dict[str, Tensor], prefix: str,
                           mask: Optional[Tensor]) -> tuple[Tensor, Tensor]:
    """One attention layer; returns (new tokens, attention weights).

    ``mask=None`` is dense attention, equal in value to an all-ones mask."""
    scores = ad.scale(ad.bilinear(tokens, params[prefix + "wq"], params[prefix + "wk"]),
                      1.0 / np.sqrt(tokens.shape[-1]))
    attn = ad.softmax_rows(scores) if mask is None else ad.masked_softmax(scores, mask)
    # each Tensor the tape does not keep is freed once read, to keep the
    # update's peak low; the value mixing comes after the scores, so the
    # tokens' gradient sums its residual, v, k, q, km and qm terms in the
    # order tests/test_byte_identity.py pins
    del scores
    x = ad.layer_norm(ad.add(tokens, ad.mix(attn, tokens, params[prefix + "wv"])),
                      params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    x = ad.add(x, ad.ffn(x, params[prefix + "ffn_w1"], params[prefix + "ffn_b1"],
                         params[prefix + "ffn_w2"], params[prefix + "ffn_b2"]))
    return ad.layer_norm(x, params[prefix + "ln2_g"], params[prefix + "ln2_b"]), attn


def aggregate(tokens: Tensor, params: dict[str, Tensor],
              mask_out: Optional[Tensor]) -> tuple[Tensor, Tensor]:
    """Single-query masked attention over the final tokens -> (B, d) features;
    ``mask_out=None`` attends densely."""
    scores = ad.scale(ad.query_bilinear(params["agg.q"], tokens, params["agg.wk"]),
                      1.0 / np.sqrt(tokens.shape[-1]))
    attn = (ad.softmax_rows(scores) if mask_out is None
            else ad.masked_softmax(scores, mask_out))
    feat = ad.mix(attn, tokens, params["agg.wv"])   # (B, 1, d)
    return ad.reshape(feat, (feat.shape[0], feat.shape[2])), attn


def run_attention_stack(tokens: Tensor, params: dict[str, Tensor], cfg: TrunkConfig,
                        mode: str = "train", noise: Optional[np.ndarray] = None,
                        masks_override: Optional[list[Tensor]] = None,
                        ) -> tuple[Tensor, Optional[list[Tensor]], list[Tensor]]:
    """Layer stack plus aggregation, sampling masks from evolving tokens;
    returns (features, masks, attention weights), the weights not copied.

    Stage l < L is layer l and stage L the aggregation; the masks, the
    override and the weights hold one tensor per stage. Train and soft modes
    sample with ``noise``, one ``noise_rows`` row per token set. Without mask
    parameters or an override, attention is dense and the masks are None."""
    sampling = masks_override is None and "agg.qm" in params
    n = tokens.shape[1]
    blocks = [None] * (cfg.n_layers + 1)
    if sampling and noise is not None:
        blocks = np.split(noise.reshape(len(noise), cfg.n_layers * n + 1, n),
                          [n * (l + 1) for l in range(cfg.n_layers)], axis=1)
    x = tokens
    masks = [] if sampling else masks_override
    attn: list[Tensor] = []
    for l in range(cfg.n_layers + 1):
        prefix = f"layer{l}." if l < cfg.n_layers else "agg."
        if sampling:
            masks.append(sample_mask_values(_mask_logits(x, params, prefix), mode, blocks[l])[1])
        hard = None if masks is None else masks[l]
        if l < cfg.n_layers:
            x, stage_attn = masked_attention_layer(x, params, prefix, hard)
        else:
            features, stage_attn = aggregate(x, params, hard)
        attn.append(stage_attn)
    return features, masks, attn


def forward_trunk(obs: Tensor, params: dict[str, Tensor], cfg: TrunkConfig,
                  mode: str = "train", noise: Optional[np.ndarray] = None,
                  masks_override: Optional[list[Tensor]] = None,
                  ) -> tuple[Tensor, Optional[list[Tensor]], list[Tensor]]:
    """tokenize -> masked attention layers -> aggregation: (features, masks, weights)."""
    return run_attention_stack(tokenize(obs, params), params, cfg, mode=mode,
                               noise=noise, masks_override=masks_override)
