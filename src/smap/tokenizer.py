"""Observation tokenizer: conv features plus 2D sinusoidal position codes.

The one stack, ``DEFAULT_STACK``, is two valid 2x2/stride-2 convolutions with
ReLU (16 then 32 filters), so a 16x16 observation becomes a 4x4 grid of 16
tokens with dimension 32, and every token's receptive field is a disjoint 4x4
pixel block tiling the image; ``receptive_fields`` gives these blocks from the
observation shape alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError

SINUSOID_BASE = 10000.0


@dataclass(frozen=True)
class ConvSpec:
    filters: int
    kernel: int
    stride: int


DEFAULT_STACK = (ConvSpec(16, 2, 2), ConvSpec(32, 2, 2))


def conv_output_dims(in_hw: tuple[int, int]) -> tuple[int, int]:
    h, w = in_hw
    for spec in DEFAULT_STACK:
        if h < spec.kernel or (h - spec.kernel) % spec.stride or \
           w < spec.kernel or (w - spec.kernel) % spec.stride:
            raise DimensionError(f"conv stack {DEFAULT_STACK} incompatible with input {in_hw}")
        h = (h - spec.kernel) // spec.stride + 1
        w = (w - spec.kernel) // spec.stride + 1
    return h, w


@lru_cache(maxsize=8)
def receptive_fields(in_hw: tuple[int, int]) -> tuple[tuple[int, int, int, int], ...]:
    """Input-pixel rectangle (r0, r1, c0, c1), half-open, seen by each output
    cell, row-major token order."""
    size, step = 1, 1
    for spec in DEFAULT_STACK:
        size = size + (spec.kernel - 1) * step
        step = step * spec.stride
    h2, w2 = conv_output_dims(in_hw)
    rects = []
    for r in range(h2):
        for c in range(w2):
            rects.append((r * step, r * step + size, c * step, c * step + size))
    return tuple(rects)


@lru_cache(maxsize=8)
def _position_table(grid_dims: tuple[int, int], d: int, dtype) -> np.ndarray:
    if d % 2:
        raise ConfigError(f"token dimension must be even, got {d}")
    half = d // 2
    if half % 2:
        raise ConfigError(f"half dimension {half} must split evenly into sin/cos channels")
    n_freq = half // 2
    freqs = SINUSOID_BASE ** (-2.0 * np.arange(n_freq) / half)

    def encode_axis(p: np.ndarray) -> np.ndarray:
        angles = p[:, None] * freqs[None, :]
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    h, w = grid_dims
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    table = np.concatenate([encode_axis(rows.ravel().astype(np.float64)),
                            encode_axis(cols.ravel().astype(np.float64))], axis=1)
    table = table.astype(dtype)
    table.setflags(write=False)
    return table


def encode_positions(grid_dims: tuple[int, int], d: int) -> np.ndarray:
    """(n, d) positional encodings at the default dtype, read-only; first half
    encodes row, second half column."""
    return _position_table(tuple(grid_dims), d, ad.get_default_dtype())


def init_extractor(rng: np.random.Generator, in_channels: int) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    c = in_channels
    for i, spec in enumerate(DEFAULT_STACK):
        fan_in = c * spec.kernel * spec.kernel
        w = rng.standard_normal((spec.filters, c, spec.kernel, spec.kernel)) / np.sqrt(fan_in)
        params[f"extractor.conv{i}.w"] = ad.parameter(w, f"extractor.conv{i}.w")
        params[f"extractor.conv{i}.b"] = ad.parameter(np.zeros(spec.filters), f"extractor.conv{i}.b")
        c = spec.filters
    return params


def extract(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """The conv stack, conv -> bias -> ReLU per layer, on a (B, C, H, W) batch."""
    for i, spec in enumerate(DEFAULT_STACK):
        x = ad.conv2d(x, params[f"extractor.conv{i}.w"], stride=spec.stride)
        x = ad.relu(ad.add(x, ad.reshape(params[f"extractor.conv{i}.b"], (spec.filters, 1, 1))))
    return x


def tokenize(obs: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Run the conv stack on a (B, C, H, W) batch and add positional
    encodings: (B, n, d) tokens, one per cell."""
    x = extract(obs, params)
    b, d, h2, w2 = x.shape
    n = h2 * w2
    tokens = ad.transpose(ad.reshape(x, (b, d, n)))          # (B, n, d)
    pos = Tensor(encode_positions((h2, w2), d))
    return ad.add(tokens, pos)
