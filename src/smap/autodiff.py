"""Dense tensors with tape-based reverse-mode differentiation.

Everything the networks need is built from the operations in this module.
Ops record onto the active ``Tape`` (if any) whenever an input requires
gradients; ``backward`` replays the tape in reverse and accumulates into
the ``grad`` slot of leaf tensors. Gradients accumulate additively until
``zero_grad`` is called.

Precision is a process-global setting: training runs at float32, the
verification suites switch to float64 via the ``precision`` context
manager because finite-difference checks are unreliable at float32.

Kernels avoid numpy's slow paths (short last axes, data-dependent branches)
and keep the input dtype. The sigmoid, the softmaxes' row max and
``transpose`` (a view) are bit-exact against their textbook forms; layer-norm
means and bias/gain gradient sums are matrix-vector products, which
reassociate the sums. No op writes into an array it did not allocate.

Importing the module tells glibc's allocator to keep freed memory. A B=512
forward and backward frees its tape, tens of MB, after every minibatch. With
glibc's defaults those blocks are either separate mappings or trimmed off the
top of the heap, so the next minibatch faults every page back in: about 15k
minor faults and 40 ms of system time per update of the attention agent. The
defaults also adapt to the process's history (the mmap threshold rises each
time a mapped block is freed), so the count varied from run to run. Fixed
thresholds, 32 MiB for mmap (glibc's 64-bit maximum) and 128 MiB for trimming,
keep the working set mapped across minibatches; peak memory does not grow.
Outside glibc nothing is changed.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError

_DTYPE = np.dtype(np.float32)
_DEBUG_CHECKS = False
_TAPE_STACK: list["Tape"] = []
_NEXT_NODE_ID = 0
_KINK_CAPTURE: Optional[list] = None


def _keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds (see the module docstring); does
    nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    mallopt(-1, 128 << 20)          # M_TRIM_THRESHOLD


_keep_freed_memory()


def set_default_dtype(dtype) -> None:
    global _DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}, use float32 or float64")
    _DTYPE = dtype


def get_default_dtype() -> np.dtype:
    return _DTYPE


class precision:
    """Context manager that temporarily switches the default dtype."""

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype)
        self._saved: Optional[np.dtype] = None

    def __enter__(self):
        self._saved = _DTYPE
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self._saved)
        return False


def set_debug_checks(enabled: bool) -> None:
    """Enable NaN/Inf assertions after every forward op (slow, for tests)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


def _check_finite(arr: np.ndarray) -> None:
    if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite value produced by a forward op")


class Tensor:
    """An n-dimensional array plus an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "name", "node_id")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None,
                 dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        self.node_id: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), dtype=self.data.dtype)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # arithmetic sugar; scalars are coerced to the tensor's dtype
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def parameter(data, name: str) -> Tensor:
    """A leaf tensor that receives gradients."""
    return Tensor(data, requires_grad=True, name=name)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


class Tape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._produced: set[int] = set()

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def _assign_id(self, t: Tensor) -> None:
        global _NEXT_NODE_ID
        if t.node_id is None:
            t.node_id = _NEXT_NODE_ID
            _NEXT_NODE_ID += 1

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        for t in inputs:
            self._assign_id(t)
        self._assign_id(out)
        out.requires_grad = True
        self._produced.add(out.node_id)
        self.entries.append((out, inputs, backward_fn))


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    _check_finite(out.data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate grads of every leaf tensor reachable from ``loss``.

    Repeated calls accumulate; call ``zero_grad`` on the parameters (or use
    an optimizer) between passes.
    """
    if loss.shape != ():
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones((), dtype=loss.data.dtype)

    def accumulate_leaf(t: Tensor, g: np.ndarray) -> None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g

    if loss.requires_grad and (loss.node_id is None or loss.node_id not in tape._produced):
        accumulate_leaf(loss, seed)
    if loss.node_id is None:
        return

    grads: dict[int, np.ndarray] = {loss.node_id: seed}
    for out, inputs, backward_fn in reversed(tape.entries):
        g = grads.pop(out.node_id, None)
        if g is None:
            continue
        input_grads = backward_fn(g)
        for t, ig in zip(inputs, input_grads):
            if ig is None or not t.requires_grad:
                continue
            if t.node_id in tape._produced:
                prev = grads.get(t.node_id)
                grads[t.node_id] = ig if prev is None else prev + ig
            else:
                accumulate_leaf(t, np.asarray(ig, dtype=t.data.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        m = int(np.prod(g.shape[:extra]))
        rest = g.shape[extra:]
        g = (np.ones(m, dtype=g.dtype) @ g.reshape(m, int(np.prod(rest)))).reshape(rest)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary(a, b, forward, backward_a, backward_b):
    dtype = a.data.dtype if isinstance(a, Tensor) else b.data.dtype
    a = _as_tensor(a, dtype)
    b = _as_tensor(b, dtype)
    try:
        out_data = forward(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}") from e
    out = Tensor(out_data, dtype=out_data.dtype)

    def bwd(g):
        ga = _unbroadcast(backward_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(backward_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _emit(out, (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    """Pointwise division; any zero in the denominator is an error.

    The masked-attention module has its own guarded renormalization with the
    0/0 := 0 convention; this operator stays strict.
    """
    b_arr = b.data if isinstance(b, Tensor) else np.asarray(b)
    if np.any(b_arr == 0):
        raise ZeroDivisionError("division by a tensor containing zero")
    return _binary(a, b, np.divide,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def minimum(a, b) -> Tensor:
    """Pointwise min; ties route the gradient to the first argument."""
    return _binary(a, b, np.minimum,
                   lambda g, x, y: g * (x <= y),
                   lambda g, x, y: g * (x > y))


def scale(t: Tensor, s: float) -> Tensor:
    s = float(s)      # numpy scalars would promote float32 data to float64
    out = Tensor(t.data * s, dtype=t.data.dtype)
    return _emit(out, (t,), lambda g: (g * s,))


def _unary(t: Tensor, out_data: np.ndarray, grad_fn) -> Tensor:
    out = Tensor(out_data, dtype=out_data.dtype)
    return _emit(out, (t,), lambda g: (grad_fn(g),))


def neg(t: Tensor) -> Tensor:
    return scale(t, -1.0)


def exp(t: Tensor) -> Tensor:
    e = np.exp(t.data)
    return _unary(t, e, lambda g: g * e)


def log(t: Tensor) -> Tensor:
    return _unary(t, np.log(t.data), lambda g: g / t.data)


def sqrt(t: Tensor) -> Tensor:
    r = np.sqrt(t.data)
    return _unary(t, r, lambda g: g / (2.0 * r))


def square(t: Tensor) -> Tensor:
    return _unary(t, t.data * t.data, lambda g: g * 2.0 * t.data)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Branch-free logistic; bit-equal to 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below, since exp(min(x, 0)) is exactly 1 from zero up."""
    return np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x)))


def sigmoid(t: Tensor) -> Tensor:
    s = sigmoid_array(t.data)
    return _unary(t, s, lambda g: g * s * (1.0 - s))


def tanh(t: Tensor) -> Tensor:
    h = np.tanh(t.data)
    return _unary(t, h, lambda g: g * (1.0 - h * h))


def relu(t: Tensor) -> Tensor:
    if _KINK_CAPTURE is not None:
        _KINK_CAPTURE.append(np.packbits(t.data > 0))
    out = np.maximum(t.data, 0)
    return _unary(t, out, lambda g: g * (out > 0))


class capture_kinks:
    """Collects relu sign patterns; finite-difference checks compare them to
    detect probes that straddle a non-differentiable point."""

    def __init__(self):
        self.patterns: list = []

    def __enter__(self):
        global _KINK_CAPTURE
        self._saved = _KINK_CAPTURE
        _KINK_CAPTURE = self.patterns
        return self

    def __exit__(self, *exc):
        global _KINK_CAPTURE
        _KINK_CAPTURE = self._saved
        return False


def _reduce(t: Tensor, op, axis, keepdims, scale_back: float) -> Tensor:
    out_data = op(t.data, axis=axis, keepdims=keepdims)
    out = Tensor(np.asarray(out_data, dtype=t.data.dtype), dtype=t.data.dtype)

    def bwd(g):
        ga = np.asarray(g)
        if axis is not None and not keepdims:
            ga = np.expand_dims(ga, axis)
        return (np.broadcast_to(ga, t.shape) * scale_back,)

    return _emit(out, (t,), bwd)


def tsum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce(t, np.sum, axis, keepdims, 1.0)


def tmean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = t.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([t.shape[a] for a in axes]))
    return _reduce(t, np.mean, axis, keepdims, 1.0 / count)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked @ 2-d collapses to one GEMM, which is much faster than numpy's
    # loop over many small matrices
    if b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + (b.shape[-1],))
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = Tensor(_mm(a.data, b.data), dtype=a.data.dtype)

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(_mm(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                k = a.shape[-1]
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _emit(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` (w 2-d, b 1-d) as one GEMM and one tape entry."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"linear needs x (..., k), w (k, m) and b (m,), "
                             f"got {x.shape}, {w.shape} and {b.shape}")
    out_data = _mm(x.data, w.data)
    out_data += b.data
    out = Tensor(out_data, dtype=out_data.dtype)

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = _mm(g, w.data.T) if x.requires_grad else None
        gw = x.data.reshape(-1, w.shape[0]).T @ g2 if w.requires_grad else None
        gb = _unbroadcast(g2, b.shape) if b.requires_grad else None
        return gx, gw, gb

    return _emit(out, (x, w, b), bwd)


def transpose(t: Tensor) -> Tensor:
    """Swap the last two axes (a view of the input's array)."""
    out = Tensor(np.swapaxes(t.data, -1, -2), dtype=t.data.dtype)
    return _emit(out, (t,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = Tensor(t.data.reshape(shape), dtype=t.data.dtype)
    return _emit(out, (t,), lambda g: (g.reshape(t.shape),))


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    out_data = np.clip(t.data, lo, hi)
    inside = (t.data >= lo) & (t.data <= hi)
    return _unary(t, out_data, lambda g: g * inside)


def st_round(t: Tensor, threshold: float = 0.5) -> Tensor:
    """Hard threshold in the forward pass, identity gradient (straight-through)."""
    hard = (t.data > threshold).astype(t.data.dtype)
    return _unary(t, hard, lambda g: g)


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``: numpy reduces a short last axis row by
    row, a leading axis in one vectorised pass; max is order-independent."""
    flat = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
    return flat.max(axis=0).reshape(x.shape[:-1] + (1,))


def softmax_rows(t: Tensor) -> Tensor:
    """Stable softmax along the last axis; every row sums to one."""
    shifted = t.data - _row_max(t.data)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, dtype=t.data.dtype)

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return ((g - inner) * s,)

    return _emit(out, (t,), bwd)


def log_softmax(t: Tensor) -> Tensor:
    shifted = t.data - _row_max(t.data)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    out = Tensor(out_data, dtype=t.data.dtype)

    def bwd(g):
        return (g - np.exp(out_data) * g.sum(axis=-1, keepdims=True),)

    return _emit(out, (t,), bwd)


def masked_softmax(scores: Tensor, mask: Tensor) -> Tensor:
    """Renormalized masked attention weights.

    Computes ``(M * exp(S)) / row_sum(M * exp(S))`` with the row max taken
    over unmasked entries only, and the 0/0 := 0 convention for rows whose
    mask is entirely zero. Gradients flow to both the scores and the mask.
    """
    if scores.shape != mask.shape:
        raise DimensionError(f"scores shape {scores.shape} != mask shape {mask.shape}")
    # arithmetic, not np.where, on full-size arrays: numpy's select loop
    # branches. cap is +inf on live lanes and -inf on masked ones.
    cap = (mask.data > 0).astype(scores.data.dtype)
    cap -= 0.5
    cap *= np.inf
    neg_inf = np.minimum(scores.data, cap)
    c = _row_max(neg_inf)
    c = np.where(np.isfinite(c), c, 0.0)
    e = np.exp(neg_inf - c)          # exp(-inf) = 0 for masked lanes
    z = mask.data * e
    r = z.sum(axis=-1, keepdims=True)
    nonempty = r > 0
    r_safe = np.where(nonempty, r, 1.0)
    attn = z / r_safe
    attn *= nonempty                 # 0/0 := 0 for all-masked rows
    out = Tensor(attn, dtype=scores.data.dtype)

    def bwd(g):
        inner = (g * attn).sum(axis=-1, keepdims=True)
        dz = g - inner
        dz /= r_safe
        dz *= nonempty
        g_scores = dz * z if scores.requires_grad else None
        g_mask = dz * e if mask.requires_grad else None
        return g_scores, g_mask

    return _emit(out, (scores, mask), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    d = x.shape[-1]
    inv_d = np.full(d, 1.0 / d, dtype=x.data.dtype)

    def row_mean(a):
        return (a.reshape(-1, d) @ inv_d).reshape(a.shape[:-1] + (1,))

    centered = x.data - row_mean(x.data)
    inv = 1.0 / np.sqrt(row_mean(centered * centered) + eps)
    xh = centered * inv
    out_data = xh * gain.data
    out_data += bias.data
    out = Tensor(out_data, dtype=x.data.dtype)

    def bwd(g):
        g_gain = _unbroadcast(g * xh, gain.shape) if gain.requires_grad else None
        g_bias = _unbroadcast(g, bias.shape) if bias.requires_grad else None
        gx = None
        if x.requires_grad:
            # inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), built in dxh
            dxh = g * gain.data
            proj = dxh * xh
            proj_mean = row_mean(proj)
            np.multiply(xh, proj_mean, out=proj)
            dxh -= row_mean(dxh)
            dxh -= proj
            dxh *= inv
            gx = dxh
        return gx, g_gain, g_bias

    return _emit(out, (x, gain, bias), bwd)


def gather_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry per row of a 2-d tensor: out[i] = t[i, idx[i]]."""
    if t.ndim != 2:
        raise DimensionError(f"gather_rows expects a 2-d tensor, got {t.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(t.shape[0])
    out = Tensor(t.data[rows, idx], dtype=t.data.dtype)

    def bwd(g):
        full = np.zeros_like(t.data)
        full[rows, idx] = g
        return (full,)

    return _emit(out, (t,), bwd)


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Valid (unpadded) strided convolution.

    ``x`` is (C,H,W) or (B,C,H,W); kernels are (F,C,kh,kw). The spatial
    extent must divide evenly so output cells tile the input exactly.

    Shapes and values are NCHW whatever the memory layout, which only picks
    how patches are gathered. An input whose ``transpose(0, 2, 3, 1)`` is
    C-contiguous (channels-last, like conv2d's own output) is gathered as
    (kh, kw, C) rows along contiguous channel runs; any other layout is
    gathered patch-major, along output columns. The output and the input
    gradient are NCHW views of channels-last arrays.
    """
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or kernels.ndim != 4:
        raise DimensionError(f"conv2d expects image {x.shape} and kernels {kernels.shape}")
    b_sz, c_in, h, w = xd.shape
    f_out, c_k, kh, kw = kernels.shape
    if c_in != c_k:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape}, kernels {kernels.shape}")
    if h < kh or w < kw or (h - kh) % stride or (w - kw) % stride:
        raise DimensionError(
            f"conv2d geometry invalid: input {x.shape}, kernels {kernels.shape}, stride {stride}")
    h2 = (h - kh) // stride + 1
    w2 = (w - kw) // stride + 1

    # im2col as (B*h2*w2, kh*kw*C), copied in the input's memory order; one
    # 2-d GEMM against the reordered kernels gives (B*h2*w2, F)
    s0, s1, s2, s3 = xd.strides
    patches = np.lib.stride_tricks.as_strided(
        xd, shape=(b_sz, h2, w2, kh, kw, c_in),
        strides=(s0, s2 * stride, s3 * stride, s2, s3, s1))
    n_rows, n_cols = b_sz * h2 * w2, kh * kw * c_in
    if xd.transpose(0, 2, 3, 1).flags.c_contiguous:
        pmat = patches.reshape(n_rows, n_cols)
    else:
        pmat = patches.transpose(3, 4, 5, 0, 1, 2).reshape(n_cols, n_rows).T
    wmat = kernels.data.transpose(0, 2, 3, 1).reshape(f_out, n_cols)
    out_data = (pmat @ wmat.T).reshape(b_sz, h2, w2, f_out).transpose(0, 3, 1, 2)
    if squeeze:
        out_data = out_data[0]
    out = Tensor(out_data, dtype=x.data.dtype)

    def bwd(g):
        gd = g[None] if squeeze else g
        g_out = gd.transpose(0, 2, 3, 1).reshape(-1, f_out)       # (B*h2*w2, F)
        gk = gx = None
        if kernels.requires_grad:
            gk = (pmat.T @ g_out).T.reshape(f_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        if x.requires_grad:
            # scatter the patch gradients channels-last, one block of at most
            # stride x stride kernel offsets per add: offsets in a block never
            # reach the same input cell
            g_patches = (g_out @ wmat).reshape(b_sz, h2, w2, kh, kw, c_in)
            gx_full = np.zeros((b_sz, h, w, c_in), dtype=xd.dtype).transpose(0, 3, 1, 2)
            t0, t1, t2, t3 = gx_full.strides
            for i in range(0, kh, stride):
                for j in range(0, kw, stride):
                    ni, nj = min(stride, kh - i), min(stride, kw - j)
                    block = np.lib.stride_tricks.as_strided(
                        gx_full[:, :, i:, j:], shape=(b_sz, h2, ni, w2, nj, c_in),
                        strides=(t0, t2 * stride, t2, t3 * stride, t3, t1))
                    block += g_patches[:, :, :, i:i + ni, j:j + nj].transpose(0, 1, 3, 2, 4, 5)
            gx = gx_full[0] if squeeze else gx_full
        return gx, gk

    return _emit(out, (x, kernels), bwd)
