"""The four agents behind one policy interface.

cnn            conv extractor -> flatten -> MLP -> heads
attention      tokenizer -> dense attention trunk (no mask)
input_masked   per-pixel sigmoid mask multiplies the observation, then the
               dense attention trunk (no mask); the mask net trains from the
               RL loss only
sparse_masked  tokenizer -> masked attention trunk with sampled binary masks;
               exposes the mask set and path counts for the sparsity loss

All variants share the extractor architecture and the action/value head
shapes, so PPO treats them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import paths as pathmod
from .attention import MaskSet, TrunkConfig, forward_trunk, init_trunk_params
from .autodiff import Tensor
from .config import POLICY_KINDS
from .errors import ConfigError
from .paths import PathMatrix
from .rng import CounterStream, stream
from .tokenizer import DEFAULT_STACK, conv_output_dims, init_extractor


@dataclass
class PolicyOutput:
    action_logits: Tensor               # (B, n_actions)
    value: Tensor                       # (B,)
    mask_set: Optional[MaskSet] = None
    path_matrix: Optional[PathMatrix] = None
    records: Optional[list] = None
    grid: object = None


@dataclass
class ActionEval:
    log_prob: Tensor                    # (B,)
    entropy: Tensor                     # scalar
    value: Tensor                       # (B,)
    path_fraction: Optional[Tensor]     # (B,) for the sparse agent, else None
    mask_loss_input: Optional[PathMatrix]


def _head_init(params: dict, rng, d_in: int, n_actions: int, scale: float) -> None:
    for name, shape, fan in (("head.pi_w", (d_in, n_actions), d_in),
                             ("head.v_w", (d_in, 1), d_in)):
        params[name] = ad.parameter(rng.standard_normal(shape) * scale / np.sqrt(fan), name)
    params["head.pi_b"] = ad.parameter(np.zeros(n_actions), "head.pi_b")
    params["head.v_b"] = ad.parameter(np.zeros(1), "head.v_b")


def _heads(params: dict, features: Tensor) -> tuple[Tensor, Tensor]:
    logits = ad.linear(features, params["head.pi_w"], params["head.pi_b"])
    value = ad.linear(features, params["head.v_w"], params["head.v_b"])
    return logits, ad.reshape(value, (value.shape[0],))


def _obs_tensor(obs: np.ndarray) -> Tensor:
    arr = np.asarray(obs, dtype=ad.get_default_dtype())
    if arr.ndim == 3:
        arr = arr[None]
    return Tensor(arr)


class PolicyBase:
    """Shared plumbing: parameter registry, acting, and PPO evaluation."""

    kind: str = ""

    def __init__(self, cfg: TrunkConfig, seed: int, init_scale: float = 1.0):
        self.cfg = cfg
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        self._noise = CounterStream(seed, f"{self.kind}.mask_noise")
        self._build(stream(seed, f"{self.kind}.init"), init_scale)

    def _build(self, rng, init_scale: float) -> None:
        raise NotImplementedError

    def output(self, obs, mode: str = "eval", noise_rng=None,
               want_records: bool = False, want_paths: bool = True) -> PolicyOutput:
        raise NotImplementedError

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def act(self, obs: np.ndarray, rng: np.random.Generator,
            greedy: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (or argmax) actions without recording gradients."""
        out = self.output(obs, mode="eval" if greedy else "train", want_paths=False)
        logits = out.action_logits.data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        if greedy:
            actions = np.argmax(logits, axis=-1)
        else:
            u = rng.random((logits.shape[0], 1))
            cdf = np.cumsum(np.exp(log_probs), axis=-1)
            actions = (u < cdf).argmax(axis=-1)
        picked = log_probs[np.arange(logits.shape[0]), actions]
        return actions, picked, out.value.data

    def evaluate_actions(self, obs: np.ndarray, actions: np.ndarray,
                         mode: str = "train",
                         noise_seed: Optional[int] = None) -> ActionEval:
        """Differentiable log-probs/entropy/value (and path stats) for PPO.

        Without ``noise_seed``, the sparse agent draws its mask noise from its
        own counter stream; the other agents draw none."""
        noise_rng = None if noise_seed is None else stream(noise_seed, "eval_actions_noise")
        out = self.output(obs, mode=mode, noise_rng=noise_rng)
        logp_all = ad.log_softmax(out.action_logits)
        log_prob = ad.gather_rows(logp_all, np.asarray(actions))
        probs = ad.softmax_rows(out.action_logits)
        entropy = ad.neg(ad.tmean(ad.tsum(ad.mul(probs, logp_all), axis=-1)))
        frac = None
        if out.path_matrix is not None:
            frac = ad.scale(out.path_matrix.total, 1.0 / out.path_matrix.mu)
        return ActionEval(log_prob=log_prob, entropy=entropy, value=out.value,
                          path_fraction=frac, mask_loss_input=out.path_matrix)


class CnnPolicy(PolicyBase):
    kind = "cnn"

    def _build(self, rng, init_scale):
        cfg = self.cfg
        self.params = init_extractor(rng, cfg.obs_channels, DEFAULT_STACK, scale=init_scale)
        h2, w2 = conv_output_dims((cfg.obs_size, cfg.obs_size))
        flat = DEFAULT_STACK[-1].filters * h2 * w2
        hidden = 128
        self.params["mlp.w1"] = ad.parameter(
            rng.standard_normal((flat, hidden)) * init_scale / np.sqrt(flat), "mlp.w1")
        self.params["mlp.b1"] = ad.parameter(np.zeros(hidden), "mlp.b1")
        _head_init(self.params, rng, hidden, cfg.n_actions, init_scale)

    def output(self, obs, mode="eval", noise_rng=None, want_records=False,
               want_paths=True) -> PolicyOutput:
        x = _obs_tensor(obs)
        for i, spec in enumerate(DEFAULT_STACK):
            x = ad.conv2d(x, self.params[f"extractor.conv{i}.w"], stride=spec.stride)
            x = ad.relu(ad.add(x, ad.reshape(self.params[f"extractor.conv{i}.b"],
                                             (spec.filters, 1, 1))))
        b = x.shape[0]
        flat = ad.reshape(x, (b, x.shape[1] * x.shape[2] * x.shape[3]))
        hidden = ad.relu(ad.add(ad.matmul(flat, self.params["mlp.w1"]), self.params["mlp.b1"]))
        logits, value = _heads(self.params, hidden)
        return PolicyOutput(action_logits=logits, value=value)


class AttentionPolicy(PolicyBase):
    kind = "attention"

    def _build(self, rng, init_scale):
        self.params = init_trunk_params(rng, self.cfg, with_masks=False, scale=init_scale)
        _head_init(self.params, rng, self.cfg.d_model, self.cfg.n_actions, init_scale)

    def output(self, obs, mode="eval", noise_rng=None, want_records=False,
               want_paths=True) -> PolicyOutput:
        trunk = forward_trunk(_obs_tensor(obs), self.params, self.cfg, mode=mode,
                              want_records=want_records)
        logits, value = _heads(self.params, trunk.features)
        return PolicyOutput(action_logits=logits, value=value,
                            records=trunk.records, grid=trunk.grid)


class InputMaskedPolicy(PolicyBase):
    kind = "input_masked"

    MASK_HIDDEN = 8

    def _build(self, rng, init_scale):
        cfg = self.cfg
        self.params = init_trunk_params(rng, cfg, with_masks=False, scale=init_scale)
        c = cfg.obs_channels
        h = self.MASK_HIDDEN
        self.params["masknet.conv0.w"] = ad.parameter(
            rng.standard_normal((h, c, 1, 1)) * init_scale / np.sqrt(c), "masknet.conv0.w")
        self.params["masknet.conv0.b"] = ad.parameter(np.zeros(h), "masknet.conv0.b")
        self.params["masknet.conv1.w"] = ad.parameter(
            rng.standard_normal((1, h, 1, 1)) * init_scale / np.sqrt(h), "masknet.conv1.w")
        # start close to a pass-through mask
        self.params["masknet.conv1.b"] = ad.parameter(np.full(1, 2.0), "masknet.conv1.b")
        _head_init(self.params, rng, cfg.d_model, cfg.n_actions, init_scale)

    def pixel_mask(self, obs_t: Tensor) -> Tensor:
        h = ad.conv2d(obs_t, self.params["masknet.conv0.w"], stride=1)
        h = ad.relu(ad.add(h, ad.reshape(self.params["masknet.conv0.b"],
                                         (self.MASK_HIDDEN, 1, 1))))
        m = ad.conv2d(h, self.params["masknet.conv1.w"], stride=1)
        m = ad.sigmoid(ad.add(m, ad.reshape(self.params["masknet.conv1.b"], (1, 1, 1))))
        return m        # (B, 1, H, W) in (0, 1)

    def output(self, obs, mode="eval", noise_rng=None, want_records=False,
               want_paths=True) -> PolicyOutput:
        x = _obs_tensor(obs)
        masked = ad.mul(x, self.pixel_mask(x))
        trunk = forward_trunk(masked, self.params, self.cfg, mode=mode,
                              want_records=want_records)
        logits, value = _heads(self.params, trunk.features)
        return PolicyOutput(action_logits=logits, value=value,
                            records=trunk.records, grid=trunk.grid)


class SparseMaskedPolicy(PolicyBase):
    kind = "sparse_masked"

    def _build(self, rng, init_scale):
        self.params = init_trunk_params(rng, self.cfg, with_masks=True, scale=init_scale)
        _head_init(self.params, rng, self.cfg.d_model, self.cfg.n_actions, init_scale)

    def output(self, obs, mode="train", noise_rng=None, want_records=False,
               want_paths=True) -> PolicyOutput:
        x = _obs_tensor(obs)
        if mode in ("train", "soft") and noise_rng is None:
            noise_rng = self._noise.next()
        trunk = forward_trunk(x, self.params, self.cfg, mode=mode, noise_rng=noise_rng,
                              want_records=want_records)
        pm = pathmod.path_matrix(trunk.masks) if want_paths else None
        logits, value = _heads(self.params, trunk.features)
        return PolicyOutput(action_logits=logits, value=value, mask_set=trunk.masks,
                            path_matrix=pm, records=trunk.records, grid=trunk.grid)


_POLICY_CLASSES = {
    "cnn": CnnPolicy,
    "attention": AttentionPolicy,
    "input_masked": InputMaskedPolicy,
    "sparse_masked": SparseMaskedPolicy,
}


def make_policy(kind: str, cfg: TrunkConfig, seed: int,
                init_scale: float = 1.0) -> PolicyBase:
    if kind not in _POLICY_CLASSES:
        raise ConfigError(f"unknown policy kind {kind!r}, expected one of {POLICY_KINDS}")
    return _POLICY_CLASSES[kind](cfg, seed, init_scale)
