"""Path counting over sampled masks and the relation-reduction loss.

The cumulative path matrix is the product ``(M^L + I) ... (M^1 + I)``; the
entry (r, c) counts unmasked routes (residual self-edges included) from input
token c to layer-L token r. Appending the aggregation mask gives the per-input
path counts into the single output node, whose sum is the network's total
number of active paths. The loss penalizes the squared deviation of the
active-path fraction from a target ``alpha``; gradients flow through the
straight-through hard masks, which are the quantity the counts are defined on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError


@dataclass
class PathMatrix:
    a: Tensor        # (B, n, n) cumulative counts through the attention layers
    a_out: Tensor    # (B, 1, n) counts into the output node
    total: Tensor    # (B,) sum of a_out per sample
    mu: float        # maximum possible total


def max_paths(n: int, n_layers: int) -> float:
    """All-ones mask total: n * (n+1)^L."""
    if n < 1 or n_layers < 0:
        raise ConfigError(f"max_paths needs n >= 1 and L >= 0, got n={n}, L={n_layers}")
    return float(n) * float(n + 1) ** n_layers


def path_matrix(masks: list[Tensor]) -> PathMatrix:
    """Cumulative path counts from the sampled (straight-through) hard masks:
    one (B, n, n) per layer, then the (B, 1, n) aggregation row."""
    *layers, out_mask = masks
    b, _, n = out_mask.shape
    dtype = out_mask.data.dtype
    eye = Tensor(np.broadcast_to(np.eye(n, dtype=dtype), (b, n, n)), dtype=dtype)
    a = eye
    for l, hard in enumerate(layers):
        if hard.shape != (b, n, n):
            raise DimensionError(f"layer mask shape {hard.shape} != {(b, n, n)}")
        step = ad.add(hard, eye)
        a = step if l == 0 else ad.matmul(step, a)    # no product with the identity
    a_out = ad.matmul(out_mask, a)
    total = ad.reshape(ad.tsum(a_out, axis=(-1, -2)), (b,))
    return PathMatrix(a=a, a_out=a_out, total=total,
                      mu=max_paths(n, len(layers)))


def mask_loss(frac: Tensor, alpha: float) -> Tensor:
    """Mean squared deviation of the (B,) active-path fraction from ``alpha``."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    return ad.tmean(ad.square(ad.sub(frac, float(alpha))))


def path_fraction(pm: PathMatrix) -> Tensor:
    """The (B,) active-path fraction ``total / mu``, differentiable."""
    return ad.scale(pm.total, 1.0 / pm.mu)


def effective_input_relevance(pm: PathMatrix) -> np.ndarray:
    """Token i influences the output iff any path from it survives.

    Returns a boolean (B, n) array.
    """
    return pm.a_out.data[:, 0, :] > 0
