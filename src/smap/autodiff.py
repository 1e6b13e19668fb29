"""Dense tensors with tape-based reverse-mode differentiation.

Everything the networks need is built from the operations in this module.
An op with an input that requires gradients adds an entry to the active
``Tape`` (if any). A tape retains the arrays each op's backward reads and the
leaf tensors, never intermediate Tensors; ``Node`` records stand in for those.
``backward`` replays the tape in reverse and returns the gradient of the loss
with respect to each leaf tensor it reaches, as a new dict; it writes nothing
to any tensor. It consumes the tape: each entry is popped as it is replayed,
so the arrays an op kept for its gradient are freed as soon as that gradient
is out, not when ``backward`` returns. A second ``backward`` on the same tape
raises ``UsageError``. Where an input is kept anyway and a product of it is
cheap, an op keeps the input and recomputes the product in its backward
(Chen et al. 2016's recomputation trade), each in one tape entry:

- ``bilinear``, a layer's scores and mask logits ``(x·wa)(x·wb)ᵀ``, keeps its
  tokens x, not its two projections;
- ``query_bilinear``, the aggregation's scores and mask logits ``q·(x·w)ᵀ``,
  keeps x, not its keys;
- ``mix``, the value mixing ``attn·(x·w)``, keeps the attention weights and
  x, not the values;
- ``ffn``, ``relu(x·w1 + b1)·w2 + b2``, keeps x, not the hidden layer;
- ``conv2d`` keeps its input, not a patch copy.

Each fused op makes the numpy calls of the ops it stands for, in their order,
and returns the same gradient products, so its bytes are theirs.

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

Importing the module also sets numpy's bundled OpenBLAS to one thread. The
PPO update runs two half-minibatch shards on two Python threads, one tape
each: the tape stack is per thread, node ids come from one atomic counter, and
each shard's ``backward`` returns its own dict of leaf gradients, so the shared
parameters are only read. A minibatch is bound by elementwise passes and
Python, not GEMMs, so a second BLAS thread gains nothing serially; alongside a
second shard it contends for the same cores and made the split slower than
serial. Where numpy has no bundled OpenBLAS nothing is changed.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import threading
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, UsageError

_DTYPE = np.dtype(np.float32)
_DEBUG_CHECKS = False
_NODE_IDS = itertools.count()
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


def _single_thread_blas() -> None:
    """Set numpy's bundled OpenBLAS to one thread (see the module docstring);
    does nothing where there is no such library or symbol."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = (ctypes.c_int,)
                fn.restype = None
                fn(1)
                return


_keep_freed_memory()
_single_thread_blas()


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
    """An n-dimensional array and its identity on a tape."""

    __slots__ = ("data", "requires_grad", "node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _DTYPE)
        self.requires_grad = requires_grad
        self.node_id = next(_NODE_IDS)

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def parameter(data) -> Tensor:
    """A leaf tensor that receives gradients."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


class Node(NamedTuple):
    """What a tape keeps of an op's output or of an input it does not hold."""
    node_id: int
    requires_grad: bool
    shape: tuple
    dtype: np.dtype

    @classmethod
    def of(cls, t: Tensor) -> "Node":
        return cls(t.node_id, t.requires_grad, t.data.shape, t.data.dtype)


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list["Tape"] = []


_TAPES = _TapeStack()


class Tape:
    """Ordered record of operations; inputs always precede their consumers.

    An entry is (output ``Node``, inputs, backward function): a leaf input
    that takes gradients is kept as its ``Tensor``, any other as a ``Node``.
    A tape records only the ops of the thread that entered it."""

    def __init__(self):
        self.entries: list[tuple[Node, tuple[Tensor | Node, ...], object]] = []
        self._produced: set[int] = set()

    def __enter__(self):
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.tapes.pop()
        assert popped is self
        return False

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        out.requires_grad = True
        kept = tuple(t if t.requires_grad and t.node_id not in self._produced else Node.of(t)
                     for t in inputs)
        self._produced.add(out.node_id)
        self.entries.append((Node.of(out), kept, backward_fn))


def active_tape() -> Optional[Tape]:
    tapes = _TAPES.tapes
    return tapes[-1] if tapes else None


def _emit(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    _check_finite(out.data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """The gradient of ``loss`` with respect to every leaf tensor it reaches;
    empties the tape."""
    if loss.shape != ():
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones((), dtype=loss.data.dtype)
    leaves: dict[Tensor, np.ndarray] = {}
    if loss.node_id not in tape._produced:
        if loss.requires_grad:
            leaves[loss] = seed
        return leaves

    grads: dict[int, np.ndarray] = {loss.node_id: seed}
    entries = tape.entries
    while entries:
        out, inputs, backward_fn = entries.pop()
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
                ig = np.asarray(ig, dtype=t.data.dtype)
                prev = leaves.get(t)
                leaves[t] = np.array(ig) if prev is None else prev + ig
    if loss.node_id in grads:
        raise UsageError("the tape no longer holds this loss: backward consumes its tape")
    return leaves


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting).

    The summed axes outermost in ``g``'s memory (the batch of a bias, or
    batch and space of a conv bias on a channels-last gradient) reduce in one
    ones-vector GEMM over a view, without a copy; numpy sums any others."""
    if g.shape == shape:
        return g
    full = (1,) * (g.ndim - len(shape)) + tuple(shape)
    order = sorted(range(g.ndim), key=lambda i: -g.strides[i])    # outermost first
    mem = g.transpose(order)
    if g.size and mem.flags.c_contiguous:
        lead = 0
        while lead < g.ndim and full[order[lead]] == 1:
            lead += 1
        if lead:
            m = math.prod(mem.shape[:lead])
            mem = (np.ones(m, dtype=g.dtype) @ mem.reshape(m, -1)).reshape(
                (1,) * lead + mem.shape[lead:])
            g = mem.transpose(np.argsort(order))
    axes = tuple(i for i in range(g.ndim) if full[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, forward, grad_a, grad_b):
    """For an operand that takes gradients, ``grad_a(x, y)`` (``grad_b``) maps
    the operand arrays to a g -> gradient closure over just what it reads."""
    dtype = a.data.dtype if isinstance(a, Tensor) else b.data.dtype
    a = _as_tensor(a, dtype)
    b = _as_tensor(b, dtype)
    try:
        out_data = forward(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}") from e
    out = Tensor(out_data, dtype=out_data.dtype)
    fa = grad_a(a.data, b.data) if a.requires_grad else None
    fb = grad_b(a.data, b.data) if b.requires_grad else None
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return (None if fa is None else _unbroadcast(fa(g), a_shape),
                None if fb is None else _unbroadcast(fb(g), b_shape))

    return _emit(out, (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda x, y: lambda g: g, lambda x, y: lambda g: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda x, y: lambda g: g, lambda x, y: lambda g: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda x, y: lambda g: g * y,
                   lambda x, y: lambda g: g * x)


def minimum(a, b) -> Tensor:
    """Pointwise min; ties route the gradient to the first argument."""
    return _binary(a, b, np.minimum,
                   lambda x, y: lambda g: g * (x <= y),
                   lambda x, y: lambda g: g * (x > y))


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


def square(t: Tensor) -> Tensor:
    x = t.data
    return _unary(t, x * x, lambda g: g * 2.0 * x)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Branch-free logistic; bit-equal to 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below, since exp(min(x, 0)) is exactly 1 from zero up."""
    return np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x)))


def sigmoid(t: Tensor) -> Tensor:
    s = sigmoid_array(t.data)
    return _unary(t, s, lambda g: g * s * (1.0 - s))


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


def _reduce(t: Tensor, op, axis, scale_back: float) -> Tensor:
    out_data = op(t.data, axis=axis)
    out = Tensor(np.asarray(out_data, dtype=t.data.dtype), dtype=t.data.dtype)
    shape = t.data.shape

    def bwd(g):
        ga = np.asarray(g)
        if axis is not None:
            ga = np.expand_dims(ga, axis)
        return (np.broadcast_to(ga, shape) * scale_back,)

    return _emit(out, (t,), bwd)


def tsum(t: Tensor, axis=None) -> Tensor:
    return _reduce(t, np.sum, axis, 1.0)


def tmean(t: Tensor) -> Tensor:
    """Mean over every element."""
    return _reduce(t, np.mean, None, 1.0 / t.data.size)


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
    # each operand's gradient reads the other operand's array
    x = a.data if b.requires_grad else None
    y = b.data if a.requires_grad else None
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        ga = gb = None
        if y is not None:
            ga = _unbroadcast(_mm(g, np.swapaxes(y, -1, -2)), a_shape)
        if x is not None:
            if len(b_shape) == 2 and x.ndim > 2:
                gb = _weight_grad(x, g)
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), b_shape)
        return ga, gb

    return _emit(out, (a, b), bwd)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-d weight w in ``x @ w`` given the output gradient
    g: one GEMM over the rows of x's leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def bilinear(x: Tensor, wa: Tensor, wb: Tensor) -> Tensor:
    """``(x @ wa) @ (x @ wb)ᵀ`` for x (B, n, d) and wa, wb (d, m), in one
    tape entry.

    The forward makes the numpy calls of ``matmul(x, wa)``, ``matmul(x, wb)``
    and ``matmul(·, transpose(·))``, and backward returns the products
    their three backwards return. The entry keeps x and the weights, not the
    two (B, n, m) projections: backward recomputes x @ wb, then x @ wa, each
    alive only for the product that reads it. Its inputs are (x, x, wb, wa),
    so x's gradient adds the x @ wb term before the x @ wa term, as the three
    entries did."""
    if x.ndim != 3 or wa.ndim != 2 or wa.shape != wb.shape or wa.shape[0] != x.shape[-1]:
        raise DimensionError(f"bilinear needs x (B, n, d) and wa, wb (d, m), "
                             f"got {x.shape}, {wa.shape} and {wb.shape}")
    xd, wad, wbd = x.data, wa.data, wb.data
    out = Tensor(np.matmul(_mm(xd, wad), np.swapaxes(_mm(xd, wbd), -1, -2)), dtype=xd.dtype)
    x_grad, a_grad, b_grad = x.requires_grad, wa.requires_grad, wb.requires_grad

    def bwd(g):
        # dq and dk are the gradients of x @ wa and x @ wb
        dq = np.matmul(g, _mm(xd, wbd)) if x_grad or a_grad else None
        dk = np.matmul(np.swapaxes(g, -1, -2), _mm(xd, wad)) if x_grad or b_grad else None
        return (_mm(dk, wbd.T) if x_grad else None, _mm(dq, wad.T) if x_grad else None,
                _weight_grad(xd, dk) if b_grad else None,
                _weight_grad(xd, dq) if a_grad else None)

    return _emit(out, (x, x, wb, wa), bwd)


def query_bilinear(q: Tensor, x: Tensor, w: Tensor) -> Tensor:
    """``q @ (x @ w)ᵀ`` for a query q (r, m), x (B, n, d) and w (d, m), in one
    tape entry: the aggregation's scores and mask logits.

    The forward makes the numpy calls of ``matmul(x, w)`` and
    ``matmul(q, transpose(·))``, and backward returns the products their
    backwards return. The entry keeps q, x and w, not the (B, n, m)
    projection: backward recomputes x @ w for q's gradient."""
    if (q.ndim != 2 or x.ndim != 3 or w.ndim != 2 or w.shape[0] != x.shape[-1]
            or q.shape[-1] != w.shape[-1]):
        raise DimensionError(f"query_bilinear needs q (r, m), x (B, n, d) and w (d, m), "
                             f"got {q.shape}, {x.shape} and {w.shape}")
    qd, xd, wd = q.data, x.data, w.data
    out = Tensor(np.matmul(qd, np.swapaxes(_mm(xd, wd), -1, -2)), dtype=qd.dtype)
    q_grad, x_grad, w_grad = q.requires_grad, x.requires_grad, w.requires_grad
    q_shape = qd.shape

    def bwd(g):
        gq = _unbroadcast(np.matmul(g, _mm(xd, wd)), q_shape) if q_grad else None
        # dk is the gradient of x @ w
        dk = np.matmul(np.swapaxes(g, -1, -2), qd) if x_grad or w_grad else None
        return (gq, _mm(dk, wd.T) if x_grad else None,
                _weight_grad(xd, dk) if w_grad else None)

    return _emit(out, (q, x, w), bwd)


def mix(attn: Tensor, x: Tensor, w: Tensor) -> Tensor:
    """``attn @ (x @ w)`` for attention weights attn (B, r, n), x (B, n, d)
    and w (d, m), in one tape entry: an attention stage's value mixing.

    The forward makes the numpy calls of ``matmul(x, w)`` and
    ``matmul(attn, ·)``, and backward returns the products their backwards
    return. The entry keeps attn, x and w, not the (B, n, m) values:
    backward recomputes x @ w for attn's gradient."""
    if (attn.ndim != 3 or x.ndim != 3 or w.ndim != 2 or attn.shape[0] != x.shape[0]
            or attn.shape[-1] != x.shape[1] or w.shape[0] != x.shape[-1]):
        raise DimensionError(f"mix needs attn (B, r, n), x (B, n, d) and w (d, m), "
                             f"got {attn.shape}, {x.shape} and {w.shape}")
    attn_d, xd, wd = attn.data, x.data, w.data
    out = Tensor(np.matmul(attn_d, _mm(xd, wd)), dtype=attn_d.dtype)
    a_grad, x_grad, w_grad = attn.requires_grad, x.requires_grad, w.requires_grad

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(_mm(xd, wd), -1, -2)) if a_grad else None
        # dv is the gradient of x @ w
        dv = np.matmul(np.swapaxes(attn_d, -1, -2), g) if x_grad or w_grad else None
        return (ga, _mm(dv, wd.T) if x_grad else None,
                _weight_grad(xd, dv) if w_grad else None)

    return _emit(out, (attn, x, w), bwd)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` (w 2-d, b 1-d) in one tape entry.

    The forward makes the numpy calls of ``linear``, ``relu`` and ``linear``,
    records its relu pattern as ``relu`` does, and backward returns the
    products their three backwards return. The entry keeps x and the first
    layer's weights, not the hidden layer: backward recomputes it."""
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or b1.shape != (w1.shape[1],) or w2.shape[0] != w1.shape[1]
            or b2.shape != (w2.shape[1],)):
        raise DimensionError(f"ffn needs x (..., k), w1 (k, h), b1 (h,), w2 (h, m) and "
                             f"b2 (m,), got {x.shape}, {w1.shape}, {b1.shape}, "
                             f"{w2.shape} and {b2.shape}")
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data

    def hidden_layer(kinks=None):
        h = _mm(xd, w1d)
        h += b1d
        if kinks is not None:
            kinks.append(np.packbits(h > 0))
        return np.maximum(h, 0, out=h)

    out_data = _mm(hidden_layer(_KINK_CAPTURE), w2d)
    out_data += b2.data
    out = Tensor(out_data, dtype=out_data.dtype)
    x_grad, w1_grad, b1_grad = x.requires_grad, w1.requires_grad, b1.requires_grad
    w2_grad, b2_shape = w2.requires_grad, b2.data.shape if b2.requires_grad else None

    def bwd(g):
        hidden = hidden_layer()
        gw2 = _weight_grad(hidden, g) if w2_grad else None
        gb2 = None if b2_shape is None else _unbroadcast(g.reshape(-1, g.shape[-1]), b2_shape)
        gx = gw1 = gb1 = None
        if x_grad or w1_grad or b1_grad:
            dh = _mm(g, w2d.T)
            dh *= hidden > 0                        # the hidden layer's pre-relu gradient
            gx = _mm(dh, w1d.T) if x_grad else None
            gw1 = _weight_grad(xd, dh) if w1_grad else None
            gb1 = _unbroadcast(dh.reshape(-1, dh.shape[-1]), b1d.shape) if b1_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _emit(out, (x, w1, b1, w2, b2), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` (w 2-d, b 1-d) as one GEMM and one tape entry."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"linear needs x (..., k), w (k, m) and b (m,), "
                             f"got {x.shape}, {w.shape} and {b.shape}")
    out_data = _mm(x.data, w.data)
    out_data += b.data
    out = Tensor(out_data, dtype=out_data.dtype)
    xd = x.data if w.requires_grad else None
    wd = w.data if x.requires_grad else None
    b_shape = b.data.shape if b.requires_grad else None

    def bwd(g):
        gx = None if wd is None else _mm(g, wd.T)
        gw = None if xd is None else _weight_grad(xd, g)
        gb = None if b_shape is None else _unbroadcast(g.reshape(-1, g.shape[-1]), b_shape)
        return gx, gw, gb

    return _emit(out, (x, w, b), bwd)


def transpose(t: Tensor) -> Tensor:
    """Swap the last two axes (a view of the input's array)."""
    out = Tensor(np.swapaxes(t.data, -1, -2), dtype=t.data.dtype)
    return _emit(out, (t,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    in_shape = t.data.shape
    out = Tensor(t.data.reshape(tuple(shape)), dtype=t.data.dtype)
    return _emit(out, (t,), lambda g: (g.reshape(in_shape),))


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    out_data = np.clip(t.data, lo, hi)
    inside = (t.data >= lo) & (t.data <= hi)
    return _unary(t, out_data, lambda g: g * inside)


def st_round(t: Tensor) -> Tensor:
    """Hard threshold at 0.5 in the forward pass, identity gradient (straight-through)."""
    hard = (t.data > 0.5).astype(t.data.dtype)
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

    Such rows need no pass of their own. z = M * exp(...) >= 0, and the
    row's largest live lane holds its mask times exp(0) = 1, so a row sum r
    is 0 only when every z on the row is +-0; dividing by 1 there leaves
    those zeros, signs included. In the backward, dz * z and dz * e are
    zeros there too, since e = exp(-inf) = 0 on a row with no live lane.
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
    r_safe = np.where(r > 0, r, 1.0)
    attn = z / r_safe
    out = Tensor(attn, dtype=scores.data.dtype)
    z = z if scores.requires_grad else None
    e = e if mask.requires_grad else None

    def bwd(g):
        inner = (g * attn).sum(axis=-1, keepdims=True)
        dz = g - inner
        dz /= r_safe
        return (None if z is None else dz * z), (None if e is None else dz * e)

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
    gd = gain.data if x.requires_grad else None
    gain_shape = gain.data.shape if gain.requires_grad else None
    bias_shape = bias.data.shape if bias.requires_grad else None

    def bwd(g):
        g_gain = None if gain_shape is None else _unbroadcast(g * xh, gain_shape)
        g_bias = None if bias_shape is None else _unbroadcast(g, bias_shape)
        gx = None
        if gd is not None:
            # inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), built in dxh
            dxh = g * gd
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
    shape, dtype = t.data.shape, t.data.dtype

    def bwd(g):
        full = np.zeros(shape, dtype=dtype)
        full[rows, idx] = g
        return (full,)

    return _emit(out, (t,), bwd)


def _patch_matrix(xd: np.ndarray, k: int) -> np.ndarray:
    """im2col of an NCHW-shaped array cut into k x k tiles: (B*h2*w2, k*k*C),
    copied in the input's memory order (see ``conv2d``). The tiles are
    reshape/transpose views, since tiles do not overlap."""
    b_sz, c_in, h, w = xd.shape
    tiles = xd.reshape(b_sz, c_in, h // k, k, w // k, k)
    n_rows, n_cols = b_sz * (h // k) * (w // k), k * k * c_in
    if xd.transpose(0, 2, 3, 1).flags.c_contiguous:
        return tiles.transpose(0, 2, 4, 3, 5, 1).reshape(n_rows, n_cols)
    return tiles.transpose(3, 5, 1, 0, 2, 4).reshape(n_cols, n_rows).T


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Tiled (unpadded, non-overlapping) convolution.

    ``x`` is (B,C,H,W) and kernels are (F,C,k,k); a single image is
    batched by its caller. Only the geometry the agents run is supported:
    square kernels at ``stride == k`` whose tiles cover the input exactly
    (the tokenizer's 2x2 at stride 2, the pixel mask's 1x1 at stride 1).
    Anything else raises ``DimensionError``. Each input cell lies in
    exactly one patch, so the input gradient is the patch gradients put
    back in place, with no accumulation.

    Shapes and values are NCHW whatever the memory layout, which only picks
    how patches are gathered. An input whose ``transpose(0, 2, 3, 1)`` is
    C-contiguous (channels-last, like conv2d's own output) is gathered as
    (k, k, C) rows along contiguous channel runs; any other layout is
    gathered patch-major, along output columns. The output and the input
    gradient are NCHW views of channels-last arrays.

    The tape keeps the input array itself, which its producer or caller holds
    anyway, not a patch copy: the kernel gradient gathers the patches again.
    """
    xd = x.data
    if xd.ndim != 4 or kernels.ndim != 4:
        raise DimensionError(f"conv2d expects image {x.shape} and kernels {kernels.shape}")
    b_sz, c_in, h, w = xd.shape
    f_out, c_k, k, kw = kernels.shape
    if c_in != c_k:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape}, kernels {kernels.shape}")
    if kw != k or stride != k or h % k or w % k:
        raise DimensionError(
            f"conv2d needs k x k kernels at stride k tiling the input: input {x.shape}, "
            f"kernels {kernels.shape}, stride {stride}")
    h2, w2 = h // k, w // k

    # one 2-d GEMM of the patches against the reordered kernels gives (B*h2*w2, F)
    wmat = kernels.data.transpose(0, 2, 3, 1).reshape(f_out, k * k * c_in)
    out_data = (_patch_matrix(xd, k) @ wmat.T).reshape(b_sz, h2, w2, f_out).transpose(0, 3, 1, 2)
    out = Tensor(out_data, dtype=x.data.dtype)
    # the kernel gradient reads the input, the input gradient the kernels
    xd = xd if kernels.requires_grad else None
    wmat = wmat if x.requires_grad else None

    def bwd(g):
        g_out = g.transpose(0, 2, 3, 1).reshape(-1, f_out)       # (B*h2*w2, F)
        gk = gx = None
        if xd is not None:
            pmat = _patch_matrix(xd, k)
            gk = (pmat.T @ g_out).T.reshape(f_out, k, k, c_in).transpose(0, 3, 1, 2)
        if wmat is not None:
            # (b, i, j, di, dj, c) -> channels-last (b, i*k + di, j*k + dj, c)
            g_patches = (g_out @ wmat).reshape(b_sz, h2, w2, k, k, c_in)
            gx = g_patches.transpose(0, 1, 3, 2, 4, 5).reshape(
                b_sz, h, w, c_in).transpose(0, 3, 1, 2)
        return gx, gk

    return _emit(out, (x, kernels), bwd)
