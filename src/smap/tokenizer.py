"""Observation tokenizer: conv features plus 2D sinusoidal position codes.

The token grid is fixed: two valid 2x2/stride-2 convolutions with ReLU
(``FILTERS``, 16 then 32 filters) turn a 16x16 observation into a 4x4 grid of
``N_TOKENS`` tokens, each ``D_TOKEN`` wide, in row-major order. Token i sees
the 4x4 pixel block ``RECEPTIVE_FIELDS[i]``; the blocks tile the image with no
gaps or overlaps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .envs import OBS_CHANNELS

SINUSOID_BASE = 10000.0
FILTERS = (16, 32)
N_TOKENS = 16
D_TOKEN = FILTERS[-1]
# (r0, r1, c0, c1), half-open, the input pixels each token sees
RECEPTIVE_FIELDS = tuple((r, r + 4, c, c + 4) for r in range(0, 16, 4) for c in range(0, 16, 4))


@lru_cache(maxsize=None)
def _position_table(dtype) -> np.ndarray:
    half = D_TOKEN // 2
    n_freq = half // 2
    freqs = SINUSOID_BASE ** (-2.0 * np.arange(n_freq) / half)

    def encode_axis(p: np.ndarray) -> np.ndarray:
        angles = p[:, None] * freqs[None, :]
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    rows, cols = np.divmod(np.arange(N_TOKENS, dtype=np.float64), 4)
    table = np.concatenate([encode_axis(rows), encode_axis(cols)], axis=1)
    table = table.astype(dtype)
    table.setflags(write=False)
    return table


def encode_positions() -> np.ndarray:
    """(N_TOKENS, D_TOKEN) positional encodings at the default dtype,
    read-only; first half encodes row, second half column."""
    return _position_table(ad.get_default_dtype())


def init_extractor(rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    c = OBS_CHANNELS
    for i, filters in enumerate(FILTERS):
        w = rng.standard_normal((filters, c, 2, 2)) / np.sqrt(c * 2 * 2)
        params[f"extractor.conv{i}.w"] = ad.parameter(w)
        params[f"extractor.conv{i}.b"] = ad.parameter(np.zeros(filters))
        c = filters
    return params


def extract(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """The conv stack, conv -> bias -> ReLU per layer, on a (B, C, H, W) batch."""
    for i, filters in enumerate(FILTERS):
        x = ad.conv2d(x, params[f"extractor.conv{i}.w"], stride=2)
        x = ad.relu(ad.add(x, ad.reshape(params[f"extractor.conv{i}.b"], (filters, 1, 1))))
    return x


def tokenize(obs: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Run the conv stack on a (B, C, 16, 16) batch and add positional
    encodings: (B, N_TOKENS, D_TOKEN) tokens, one per grid cell."""
    x = extract(obs, params)
    tokens = ad.transpose(ad.reshape(x, (x.shape[0], D_TOKEN, N_TOKENS)))
    return ad.add(tokens, Tensor(encode_positions()))
