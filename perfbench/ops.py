"""Op tier: forward and backward of single autodiff ops at production shapes.

Forward runs under a ``Tape`` with the same inputs requiring gradients as in
the trunk; backward is the recorded entry's backward function applied to a
ones gradient. Flop and byte counts are computed from the shapes (float32,
one pass over each operand and result), not measured.
"""

from __future__ import annotations

import time

import numpy as np

from smap import autodiff as ad

N_TOKENS, D_MODEL, OBS = 16, 32, 16
ITEM = 4                                   # float32 bytes


def _t(rng, shape, grad=True, binary=False):
    data = (rng.random(shape) > 0.5) if binary else rng.standard_normal(shape)
    return ad.Tensor(data, requires_grad=grad)


def op_cases(b: int) -> dict:
    """name -> (input factory, op, computed (flops, bytes) of forward + backward)."""
    n, d = N_TOKENS, D_MODEL
    m = b * n
    nn_ = b * n * n
    return {
        # token projection: (B, n, d) @ (d, d), the trunk's most frequent matmul
        "matmul": (lambda r: (_t(r, (b, n, d)), _t(r, (d, d))), ad.matmul,
                   (2 * m * d * d + 4 * m * d * d,
                    ITEM * (m * d + d * d + m * d) + ITEM * (m * d + 2 * (m * d + d * d)))),
        # exp, max, mask, sum, divide forward; inner product, subtract, two scalings back
        "masked_softmax": (lambda r: (_t(r, (b, n, n)), _t(r, (b, n, n), binary=True)),
                           ad.masked_softmax, (6 * nn_ + 6 * nn_, ITEM * (3 * nn_ + 6 * nn_))),
        "softmax_rows": (lambda r: (_t(r, (b, n, n)),), ad.softmax_rows,
                         (4 * nn_ + 4 * nn_, ITEM * (2 * nn_ + 3 * nn_))),
        "layer_norm": (lambda r: (_t(r, (b, n, d)), _t(r, (d,)), _t(r, (d,))),
                       lambda x, g, bias: ad.layer_norm(x, g, bias, eps=1e-5),
                       (8 * m * d + 12 * m * d, ITEM * (2 * m * d + 5 * m * d))),
        # tokenizer conv0: observation (no gradient) -> 16 filters, 2x2 stride 2
        "conv2d.conv0": (lambda r: (_t(r, (b, 4, OBS, OBS), grad=False), _t(r, (16, 4, 2, 2))),
                         lambda x, k: ad.conv2d(x, k, stride=2),
                         _conv_cost(b, 4, OBS, 16, input_grad=False)),
        # tokenizer conv1: 16 -> 32 filters on the 8x8 map
        "conv2d.conv1": (lambda r: (_t(r, (b, 16, OBS // 2, OBS // 2)), _t(r, (32, 16, 2, 2))),
                         lambda x, k: ad.conv2d(x, k, stride=2),
                         _conv_cost(b, 16, OBS // 2, 32, input_grad=True)),
    }


def _conv_cost(b, c, hw, f, input_grad):
    cells = b * (hw // 2) ** 2
    k = c * 4
    fwd = 2 * cells * k * f
    bwd = fwd * (2 if input_grad else 1)
    x, w, y = b * c * hw * hw, f * k, cells * f
    return fwd + bwd, ITEM * (x + w + y) + ITEM * (y + x + w + (x if input_grad else 0))


def run_ops(repeats: int, batches=(512, 8)) -> dict:
    """{'<op>.b<B>': {'fwd_us', 'bwd_us', 'flops', 'bytes'}} (medians of repeats)."""
    rng = np.random.default_rng(0)
    out = {}
    with ad.precision("float32"):
        for b in batches:
            for name, (make, op, (flops, nbytes)) in op_cases(b).items():
                inputs = make(rng)
                fwd, bwd = [], []
                for i in range(repeats + 2):          # two warm-up calls
                    with ad.Tape() as tape:
                        t0 = time.perf_counter()
                        y = op(*inputs)
                        t1 = time.perf_counter()
                    grad = np.ones_like(y.data)
                    backward_fn = tape.entries[-1][2]
                    t2 = time.perf_counter()
                    backward_fn(grad)
                    t3 = time.perf_counter()
                    if i >= 2:
                        fwd.append(t1 - t0)
                        bwd.append(t3 - t2)
                out[f"{name}.b{b}"] = {"fwd_us": float(np.median(fwd)) * 1e6,
                                       "bwd_us": float(np.median(bwd)) * 1e6,
                                       "flops": flops, "bytes": nbytes}
    return out
