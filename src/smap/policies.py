"""The four agents behind one policy interface.

cnn            conv extractor -> flatten -> MLP -> heads
attention      tokenizer -> dense attention trunk (no mask) -> heads
input_masked   the attention agent behind a pre-stage: a per-pixel sigmoid
               mask multiplies the observation; the mask net trains from the
               RL loss only
sparse_masked  the attention agent with sampled binary masks on its
               attention weights; its mask set gives the path counts for
               the sparsity loss

The three attention agents run one body, ``AttentionPolicy._attend``, and
differ only by the pixel-mask pre-stage or the sampled masks; ``output``
returns what it computed, with the attention weights and mask set. All
variants share the extractor architecture and the action/value head shapes,
so PPO treats them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from . import paths as pathmod
from .attention import TrunkConfig, forward_trunk, init_trunk_params, noise_rows
from .autodiff import Tensor
from .envs import N_ACTIONS, OBS_CHANNELS
from .errors import ConfigError
from .rng import stream
from .tokenizer import D_TOKEN, N_TOKENS, extract, init_extractor


@dataclass
class PolicyOutput:
    action_logits: Tensor               # (B, n_actions)
    value: Tensor                       # (B,)
    mask_set: Optional[list[Tensor]] = None  # hard masks, in the layout of attn
    attn: Optional[list[Tensor]] = None     # per layer (B, n, n), then aggregation (B, 1, n)


@dataclass
class ActionEval:
    log_prob: Tensor                    # (B,)
    entropy: Tensor                     # scalar
    value: Tensor                       # (B,)
    path_fraction: Optional[Tensor]     # (B,) for the sparse agent, else None


class Sample(NamedTuple):
    """What ``act`` drew for a (B, ...) batch of observations."""
    actions: np.ndarray                 # (B,) int
    log_probs: np.ndarray               # (B,)
    values: np.ndarray                  # (B,)
    noise: Optional[np.ndarray]         # (B, L·n² + n) mask noise, None without sampled masks


def _head_init(params: dict, rng, d_in: int, n_actions: int) -> None:
    for name, shape, fan in (("head.pi_w", (d_in, n_actions), d_in),
                             ("head.v_w", (d_in, 1), d_in)):
        params[name] = ad.parameter(rng.standard_normal(shape) / np.sqrt(fan))
    params["head.pi_b"] = ad.parameter(np.zeros(n_actions))
    params["head.v_b"] = ad.parameter(np.zeros(1))


def _heads(params: dict, features: Tensor) -> tuple[Tensor, Tensor]:
    logits = ad.linear(features, params["head.pi_w"], params["head.pi_b"])
    value = ad.linear(features, params["head.v_w"], params["head.v_b"])
    return logits, ad.reshape(value, (value.shape[0],))


def _obs_tensor(obs: np.ndarray) -> Tensor:
    return Tensor(np.asarray(obs, dtype=ad.get_default_dtype()))


class PolicyBase:
    """Shared plumbing: parameter registry, acting, and PPO evaluation."""

    kind: str = ""
    samples_masks: bool = False

    def __init__(self, cfg: TrunkConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        self._build(stream(seed, f"{self.kind}.init"))

    def _build(self, rng) -> None:
        raise NotImplementedError

    def output(self, obs, mode: str = "eval", noise=None) -> PolicyOutput:
        raise NotImplementedError

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> Sample:
        """Sample actions without recording gradients, drawing the mask
        noise from ``rng`` first, then the actions."""
        noise = noise_rows(rng, len(obs), self.cfg) if self.samples_masks else None
        out = self.output(obs, mode="train", noise=noise)
        log_probs = ad.log_softmax(out.action_logits).data
        u = rng.random((len(log_probs), 1))
        cdf = np.cumsum(np.exp(log_probs), axis=-1)
        # the count of the first K-1 cdf entries that u reaches, so a u past a
        # float32 total below 1 picks the last action, not the first
        actions = (u >= cdf[:, :-1]).sum(axis=-1)
        picked = log_probs[np.arange(len(log_probs)), actions]
        return Sample(actions, picked, out.value.data, noise)

    def evaluate_actions(self, obs: np.ndarray, actions: np.ndarray,
                         mode: str = "train",
                         noise: Optional[np.ndarray] = None) -> ActionEval:
        """Differentiable log-probs/entropy/value (and path stats) for PPO.

        ``noise`` is the sparse agent's mask noise for these rows, as ``act``
        returned it; then the log-probs equal ``act``'s bit for bit. Without
        it, a train-mode call draws noise from the policy's seed, the same on
        every call. The other agents take no noise."""
        out = self.output(obs, mode=mode, noise=noise)
        logp_all = ad.log_softmax(out.action_logits)
        log_prob = ad.gather_rows(logp_all, np.asarray(actions))
        probs = ad.softmax_rows(out.action_logits)
        entropy = ad.neg(ad.tmean(ad.tsum(ad.mul(probs, logp_all), axis=-1)))
        frac = None
        if out.mask_set is not None:
            pm = pathmod.path_matrix(out.mask_set)
            frac = pathmod.path_fraction(pm)
        return ActionEval(log_prob=log_prob, entropy=entropy, value=out.value,
                          path_fraction=frac)


class CnnPolicy(PolicyBase):
    kind = "cnn"

    def _build(self, rng):
        self.params = init_extractor(rng)
        flat = D_TOKEN * N_TOKENS
        hidden = 128
        self.params["mlp.w1"] = ad.parameter(
            rng.standard_normal((flat, hidden)) / np.sqrt(flat))
        self.params["mlp.b1"] = ad.parameter(np.zeros(hidden))
        _head_init(self.params, rng, hidden, N_ACTIONS)

    def output(self, obs, mode="eval", noise=None) -> PolicyOutput:
        x = extract(_obs_tensor(obs), self.params)
        flat = ad.reshape(x, (x.shape[0], D_TOKEN * N_TOKENS))
        hidden = ad.relu(ad.linear(flat, self.params["mlp.w1"], self.params["mlp.b1"]))
        logits, value = _heads(self.params, hidden)
        return PolicyOutput(action_logits=logits, value=value)


class AttentionPolicy(PolicyBase):
    kind = "attention"

    def _build(self, rng):
        self.params = init_trunk_params(rng, self.cfg, with_masks=self.samples_masks)
        _head_init(self.params, rng, D_TOKEN, N_ACTIONS)

    def _attend(self, x: Tensor, mode: str, noise) -> PolicyOutput:
        """The body of every attention agent: the trunk, then the heads."""
        features, masks, attn = forward_trunk(x, self.params, self.cfg, mode=mode,
                                              noise=noise)
        logits, value = _heads(self.params, features)
        return PolicyOutput(action_logits=logits, value=value, mask_set=masks, attn=attn)

    def output(self, obs, mode="eval", noise=None) -> PolicyOutput:
        return self._attend(_obs_tensor(obs), mode, noise)


class InputMaskedPolicy(AttentionPolicy):
    kind = "input_masked"

    MASK_HIDDEN = 8

    def _build(self, rng):
        cfg = self.cfg
        self.params = init_trunk_params(rng, cfg, with_masks=False)
        c = OBS_CHANNELS
        h = self.MASK_HIDDEN
        self.params["masknet.conv0.w"] = ad.parameter(
            rng.standard_normal((h, c, 1, 1)) / np.sqrt(c))
        self.params["masknet.conv0.b"] = ad.parameter(np.zeros(h))
        self.params["masknet.conv1.w"] = ad.parameter(
            rng.standard_normal((1, h, 1, 1)) / np.sqrt(h))
        # start close to a pass-through mask
        self.params["masknet.conv1.b"] = ad.parameter(np.full(1, 2.0))
        _head_init(self.params, rng, D_TOKEN, N_ACTIONS)

    def pixel_mask(self, obs_t: Tensor) -> Tensor:
        h = ad.conv2d(obs_t, self.params["masknet.conv0.w"], stride=1)
        h = ad.relu(ad.add(h, ad.reshape(self.params["masknet.conv0.b"],
                                         (self.MASK_HIDDEN, 1, 1))))
        m = ad.conv2d(h, self.params["masknet.conv1.w"], stride=1)
        m = ad.sigmoid(ad.add(m, ad.reshape(self.params["masknet.conv1.b"], (1, 1, 1))))
        return m        # (B, 1, H, W) in (0, 1)

    def output(self, obs, mode="eval", noise=None) -> PolicyOutput:
        x = _obs_tensor(obs)
        return self._attend(ad.mul(x, self.pixel_mask(x)), mode, noise)


class SparseMaskedPolicy(AttentionPolicy):
    kind = "sparse_masked"
    samples_masks = True

    def output(self, obs, mode="eval", noise=None) -> PolicyOutput:
        if mode != "eval" and noise is None:
            noise = noise_rows(stream(self.seed, f"{self.kind}.noise"), len(obs), self.cfg)
        return self._attend(_obs_tensor(obs), mode, noise)


_POLICY_CLASSES = {cls.kind: cls for cls in (CnnPolicy, AttentionPolicy, InputMaskedPolicy,
                                               SparseMaskedPolicy)}
POLICY_KINDS = tuple(_POLICY_CLASSES)


def make_policy(kind: str, cfg: TrunkConfig, seed: int) -> PolicyBase:
    if kind not in _POLICY_CLASSES:
        raise ConfigError(f"unknown policy kind {kind!r}, expected one of {POLICY_KINDS}")
    return _POLICY_CLASSES[kind](cfg, seed)
