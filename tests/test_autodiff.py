import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smap import autodiff as ad
from smap.attention import TrunkConfig
from smap.autodiff import Tape, Tensor
from smap.errors import DimensionError, UsageError
from smap.gradcheck import max_rel_error_coordinatewise, primitive_cases, run_primitive_suite
from smap.policies import POLICY_KINDS, make_policy


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_computed():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_oracle(f64):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        err = max_rel_error_coordinatewise(
            lambda ts: ad.tsum(ad.square(ad.matmul(ts[0], ts[1]))), [a, b])
        assert err < 1e-6


# op -> (shapes of the leaves after x (B, 6, 8), or (B, 4, 16, 16) for the
# conv stack, the fused op and the composition it replaces, each from the
# leaves, x first, to the op's output)
_FUSED_OPS = {
    "bilinear": (((8, 3), (8, 3)), ad.bilinear,
                 lambda x, wa, wb: ad.matmul(ad.matmul(x, wa), ad.transpose(ad.matmul(x, wb)))),
    "query_bilinear": (((1, 3), (8, 3)), lambda x, q, w: ad.query_bilinear(q, x, w),
                       lambda x, q, w: ad.matmul(q, ad.transpose(ad.matmul(x, w)))),
    "mix": (((None, 6, 6), (8, 8)), lambda x, attn, w: ad.mix(attn, x, w),
            lambda x, attn, w: ad.matmul(attn, ad.matmul(x, w))),
    "ffn": (((8, 5), (5,), (5, 8), (8,)), ad.ffn,
            lambda x, w1, b1, w2, b2: ad.linear(ad.relu(ad.linear(x, w1, b1)), w2, b2)),
    "conv_stack": (((16, 4, 2, 2), (16,), (32, 16, 2, 2), (32,)),
                   lambda x, w0, b0, w1, b1: ad.conv_stack(x, [(w0, b0), (w1, b1)]),
                   lambda x, w0, b0, w1, b1: _conv_relu(_conv_relu(x, w0, b0), w1, b1)),
}


def _conv_relu(x, w, b):
    return ad.relu(ad.add(ad.conv2d(x, w, stride=2), ad.reshape(b, (b.shape[0], 1, 1))))


@pytest.mark.parametrize(
    "op,dtype,batch,shared",
    [pytest.param("bilinear", dtype, batch, shared, id=f"{np.dtype(dtype)}-{batch}-{shared}")
     for dtype, batch, shared in [(np.float32, 1, False), (np.float32, 5, False),
                                  (np.float64, 1, False), (np.float64, 5, False),
                                  (np.float32, 5, True)]]
    + [pytest.param(op, dtype, batch, False, id=f"{op}-{np.dtype(dtype)}-{batch}")
       for op in ("query_bilinear", "mix", "ffn")
       for dtype, batch in [(np.float32, 1), (np.float32, 5), (np.float64, 5)]])
def test_bilinear_equals_three_matmuls_byte_for_byte(op, dtype, batch, shared):
    """Each fused op gives the bytes of the composition it replaces, forward
    and every gradient, in one tape entry, when x also feeds a residual add
    (and, for an output with a column per token, a later product):
    ``bilinear(x, wa, wb)`` those of ``matmul(x, wa)``, ``matmul(x, wb)`` and
    ``matmul(·, transpose(·))``, ``query_bilinear`` and ``mix`` those of their
    two matmuls, and ``ffn`` those of ``linear``, ``relu`` and ``linear``.
    ``shared`` passes one weight as both of bilinear's."""
    rng = np.random.default_rng(32)
    shapes, fused_op, ref_op = _FUSED_OPS[op]
    x0 = rng.standard_normal((batch, 6, 8))
    leaves0 = [rng.standard_normal((batch,) + s[1:] if s[0] is None else s) for s in shapes]
    w0 = rng.standard_normal((batch, 6, 8))
    results = []
    with ad.precision(dtype):
        for fused in (True, False):
            x = Tensor(x0, requires_grad=True)
            leaves = [Tensor(a, requires_grad=True) for a in leaves0]
            if shared:
                leaves[1] = leaves[0]
            with Tape() as tape:
                out = (fused_op if fused else ref_op)(x, *leaves)
                n_op = len(tape.entries)
                term = ad.matmul(out, x) if out.shape[-1] == x.shape[1] else out
                y = ad.add(x, term)
                loss = ad.tsum(ad.mul(y, Tensor(w0)))
            grads = ad.backward(tape, loss)
            results.append(([a.tobytes() for a in [out.data, y.data, grads[x]]
                             + [grads[t] for t in leaves]], n_op))
    (fused_bytes, n_fused), (ref_bytes, n_ref) = results
    assert fused_bytes == ref_bytes
    assert n_fused == 1 < n_ref


@pytest.mark.parametrize("dtype,batch", [(np.float32, 1), (np.float32, 5), (np.float64, 5)],
                         ids=["float32-1", "float32-5", "float64-5"])
def test_conv_stack_equals_its_composition_byte_for_byte(dtype, batch):
    """``conv_stack`` gives the bytes of ``conv2d``, ``add`` of the reshaped
    bias and ``relu`` per layer, forward, every gradient and the relu
    patterns, in one tape entry, when x also feeds a second product."""
    rng = np.random.default_rng(35)
    shapes, fused_op, ref_op = _FUSED_OPS["conv_stack"]
    x0 = rng.standard_normal((batch, 4, 16, 16))
    leaves0 = [rng.standard_normal(s) for s in shapes]
    w_out, w_x = rng.standard_normal((batch, 32, 4, 4)), rng.standard_normal(x0.shape)
    results = []
    with ad.precision(dtype):
        for op in (fused_op, ref_op):
            x = Tensor(x0, requires_grad=True)
            leaves = [Tensor(a, requires_grad=True) for a in leaves0]
            with ad.capture_kinks() as kinks, Tape() as tape:
                out = op(x, *leaves)
                n_op = len(tape.entries)
                loss = ad.add(ad.tsum(ad.mul(out, Tensor(w_out))),
                              ad.tsum(ad.mul(x, Tensor(w_x))))
            grads = ad.backward(tape, loss)
            results.append(([a.tobytes() for a in [out.data, grads[x]]
                             + [grads[t] for t in leaves] + kinks.patterns], n_op))
    (fused_bytes, n_fused), (ref_bytes, n_ref) = results
    assert len(fused_bytes) == 2 + len(shapes) + 2
    assert fused_bytes == ref_bytes
    assert n_fused == 1 < n_ref


def test_bilinear_keeps_its_input_not_its_projections():
    """The bilinear entry holds x's array itself and neither (B, n, m)
    projection; a 2-d x or unequal weight shapes raise ``DimensionError``."""
    rng = np.random.default_rng(33)
    x = Tensor(rng.standard_normal((5, 6, 8)), requires_grad=True)
    wa, wb = (Tensor(rng.standard_normal((8, 3)), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        ad.bilinear(x, wa, wb)
    [(_, inputs, backward_fn)] = tape.entries
    assert inputs == (x, x, wb, wa)
    held = [v for v in _captured(backward_fn) if isinstance(v, np.ndarray)]
    assert any(v is x.data for v in held)
    assert not any(v.shape == (5, 6, 3) for v in held)
    with pytest.raises(DimensionError):
        ad.bilinear(Tensor(np.ones((6, 8))), wa, wb)
    with pytest.raises(DimensionError):
        ad.bilinear(x, wa, Tensor(np.ones((8, 4))))


@pytest.mark.parametrize("op", ["query_bilinear", "mix", "ffn", "conv_stack"])
def test_fused_ops_keep_their_input_not_their_projections(op):
    """The entry of ``query_bilinear``, ``mix`` and ``ffn`` holds x's array
    itself and no projection of x: neither x @ w, (B, n, 3) or (B, n, 8), nor
    ffn's (B, n, 5) hidden layer. The ``conv_stack`` entry holds x's array,
    no (B, 16, 8, 8) inner layer output, and its (B, 32, 4, 4) output only as
    the bool relu pattern. Misshapen leaves raise ``DimensionError``."""
    rng = np.random.default_rng(34)
    shapes, fused_op, _ = _FUSED_OPS[op]
    x = Tensor(rng.standard_normal((5, 4, 16, 16) if op == "conv_stack" else (5, 6, 8)),
               requires_grad=True)
    leaves = [Tensor(rng.standard_normal((5,) + s[1:] if s[0] is None else s),
                     requires_grad=True) for s in shapes]
    with Tape() as tape:
        fused_op(x, *leaves)
    [(_, inputs, backward_fn)] = tape.entries
    assert set(inputs) == {x, *leaves}
    held = [v for v in _captured(backward_fn) if isinstance(v, np.ndarray)]
    assert any(v is x.data for v in held)
    others = [v for v in held if v is not x.data]
    if op == "conv_stack":
        assert not any(v.shape == (5, 16, 8, 8) for v in others)
        assert all(v.dtype == bool for v in others if v.shape == (5, 32, 4, 4))
    else:
        assert not any(v.shape in ((5, 6, 3), (5, 6, 5), (5, 6, 8)) for v in others)
    with pytest.raises(DimensionError):
        fused_op(Tensor(np.ones((5, 6, 7))), *leaves)


def test_softmax_symmetry():
    out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 0.0]], dtype=np.float64))
    assert abs(out.data[0, 0] - 1.0) < 1e-12
    assert out.data[0, 1] < 1e-12


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (2, 3), elements=st.floats(-30, 30)))
def test_softmax_rows_sum_to_one(x):
    out = ad.softmax_rows(Tensor(x, dtype=np.float64))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_sum_of_ones():
    assert ad.tsum(Tensor(np.ones((2, 3)))).item() == 6.0


def test_mean_square_gradient(f64):
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tmean(ad.square(x))
    assert np.allclose(ad.backward(tape, loss)[x], [2 / 3, 4 / 3, 2.0], atol=1e-12)


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = ad.conv2d(x, k, stride=1)
    assert np.array_equal(out.data, x.data)


def test_conv2d_ones_block():
    x = Tensor(np.ones((1, 1, 4, 4)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = ad.conv2d(x, k, stride=2)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_conv2d_geometry_error():
    """Only k x k kernels at stride k that tile the input are supported."""
    for size, kernel, stride in [(5, (2, 2), 2), (6, (3, 3), 1), (7, (3, 3), 2),
                                 (6, (3, 3), 2), (6, (2, 2), 1), (6, (2, 1), 2)]:
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.ones((1, 1, size, size))), Tensor(np.ones((1, 1) + kernel)),
                      stride=stride)
    with pytest.raises(DimensionError):         # an unbatched image
        ad.conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))), stride=2)


def test_conv2d_gradient_oracle(f64):
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((1, 2, 8, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 2, 2)), requires_grad=True)
    err = max_rel_error_coordinatewise(
        lambda ts: ad.tsum(ad.square(ad.conv2d(ts[0], ts[1], stride=2))), [x, k])
    assert err < 1e-5


def _conv2d_reference(x, k, stride):
    """Direct sum over kernel offsets: output and the input/kernel gradients
    of sum(out * w) for upstream weights w."""
    f_out, _, kh, kw = k.shape
    h2 = (x.shape[2] - kh) // stride + 1
    w2 = (x.shape[3] - kw) // stride + 1

    def window(i, j):
        return np.s_[:, :, i:i + stride * h2:stride, j:j + stride * w2:stride]

    out = sum(np.einsum("bchw,fc->bfhw", x[window(i, j)], k[:, :, i, j])
              for i in range(kh) for j in range(kw))
    w = np.random.default_rng(7).standard_normal(out.shape)
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            gx[window(i, j)] += np.einsum("bfhw,fc->bchw", w, k[:, :, i, j])
            gk[:, :, i, j] = np.einsum("bfhw,bchw->fc", w, x[window(i, j)])
    return out, gx, gk, w


@pytest.mark.parametrize("c_in,k,stride,size", [(4, 2, 2, 8), (3, 1, 1, 6),
                                                (3, 2, 2, 6), (1, 2, 2, 8)])
def test_conv2d_channels_last_matches_contiguous(f64, c_in, k, stride, size):
    """conv2d's own output layout (NCHW view of channels-last memory) and the
    same values made contiguous give one output and one pair of gradients."""
    rng = np.random.default_rng(30 + c_in + k + stride)
    nhwc = rng.standard_normal((2, size, size, c_in))
    kernels = rng.standard_normal((5, c_in, k, k))
    channels_last = nhwc.transpose(0, 3, 1, 2)
    contiguous = np.ascontiguousarray(channels_last)
    assert channels_last.transpose(0, 2, 3, 1).flags.c_contiguous
    *reference, w = _conv2d_reference(contiguous, kernels, stride)
    results = []
    for data in (channels_last, contiguous):
        x = Tensor(data, requires_grad=True)
        kt = Tensor(kernels, requires_grad=True)
        with Tape() as tape:
            out = ad.conv2d(x, kt, stride=stride)
            loss = ad.tsum(ad.mul(out, Tensor(w)))
        grads = ad.backward(tape, loss)
        results.append((out.data, grads[x], grads[kt]))
    for got_cl, got, ref in zip(*results, reference):
        assert np.allclose(got_cl, got, rtol=0, atol=1e-12)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
def test_conv2d_keeps_its_input_not_a_patch_matrix(layout):
    """The conv2d entry holds the input array itself, which the caller or the
    op that made it holds anyway, and no (B*h2*w2, kh*kw*C) patch copy."""
    rng = np.random.default_rng(31)
    data = rng.standard_normal((3, 8, 8, 2)).astype(ad.get_default_dtype()).transpose(0, 3, 1, 2)
    if layout == "contiguous":
        data = np.ascontiguousarray(data)
    x = Tensor(data, requires_grad=True)
    kernels = Tensor(rng.standard_normal((4, 2, 2, 2)), requires_grad=True)
    assert x.data is data
    assert x.data.transpose(0, 2, 3, 1).flags.c_contiguous == (layout == "channels_last")
    with Tape() as tape:
        ad.conv2d(x, kernels, stride=2)
    [(_, _, backward_fn)] = tape.entries
    held = [v for v in _captured(backward_fn) if isinstance(v, np.ndarray)]
    assert any(v is data for v in held)
    assert not any(v.shape == (3 * 4 * 4, 2 * 2 * 2) for v in held)


_FAULT_PROBE = """
import resource
import numpy as np
from smap import autodiff as ad
from smap.attention import TrunkConfig
from smap.policies import make_policy

policy = make_policy("attention", TrunkConfig(), seed=0)
rng = np.random.default_rng(0)
obs = rng.random((512, 4, 16, 16))
actions = rng.integers(0, 5, 512)

def update():
    with ad.Tape() as tape:
        ev = policy.evaluate_actions(obs, actions, mode="train")
        loss = ad.add(ad.tsum(ev.log_prob), ad.tsum(ev.value))
    ad.backward(tape, loss)

update()
update()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
update()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's allocator")
def test_b512_update_does_not_refault_its_memory():
    """After warm-up, a B=512 update reuses freed memory instead of faulting
    it back in; a fresh process gives the allocator no history."""
    env = dict(os.environ, PYTHONPATH=str(Path(ad.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert int(res.stdout.split()[-1]) < 1000


def test_keep_freed_memory_without_mallopt(monkeypatch):
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())
    assert ad._keep_freed_memory() is None


def test_single_thread_blas_without_openblas(monkeypatch, tmp_path):
    # no library next to numpy
    monkeypatch.setattr(ad.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert ad._single_thread_blas() is None
    # a library without the symbol, and one that fails to load
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libopenblas.so").write_bytes(b"")
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())
    assert ad._single_thread_blas() is None

    def refuse(name):
        raise OSError(name)

    monkeypatch.setattr(ad.ctypes, "CDLL", refuse)
    assert ad._single_thread_blas() is None


_BLAS_THREADS_PROBE = """
import ctypes
from pathlib import Path

import numpy as np
import smap.autodiff

for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
    dll = ctypes.CDLL(str(lib))
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(dll, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(fn())
            raise SystemExit
print("none")
"""


def test_import_sets_bundled_openblas_to_one_thread():
    env = dict(os.environ, PYTHONPATH=str(Path(ad.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    threads = res.stdout.split()[-1]
    if threads == "none":
        pytest.skip("numpy has no bundled OpenBLAS")
    assert threads == "1"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
def test_unbroadcast_conv_bias_matches_sum(dtype, layout):
    rng = np.random.default_rng(5)
    b, f, h, w = 64, 16, 8, 8
    if layout == "contiguous":
        g = rng.standard_normal((b, f, h, w)).astype(dtype)
    else:
        g = rng.standard_normal((b, h, w, f)).astype(dtype).transpose(0, 3, 1, 2)
    ref = g.astype(np.float64).sum(axis=(0, 2, 3)).reshape(f, 1, 1)
    tracemalloc.start()
    try:
        got = ad._unbroadcast(g, (f, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (f, 1, 1) and got.dtype == dtype
    tol = 1e-4 if dtype == np.float32 else 1e-10
    assert np.allclose(got, ref, rtol=tol, atol=tol * np.sqrt(g.size))
    assert peak < g.nbytes // 8            # reduced in place: no copy of g


@pytest.mark.parametrize("g_shape,shape", [((6, 5, 4), (4,)), ((6, 5, 4), (5, 1)),
                                           ((6, 5, 4), (1, 5, 4)), ((1, 4), (4,)),
                                           ((6, 5, 4), (6, 1, 4)), ((3, 1, 4), (1, 1, 4))])
def test_unbroadcast_matches_sum_over_broadcast_axes(f64, g_shape, shape):
    g = np.random.default_rng(6).standard_normal(g_shape)
    full = (1,) * (len(g_shape) - len(shape)) + shape
    axes = tuple(i for i, n in enumerate(full) if n == 1)
    ref = g.sum(axis=axes, keepdims=True).reshape(shape)
    # C order, Fortran order, and last axis outermost in memory
    last_outer = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, -1, 0)), 0, -1)
    for view in (g, np.asfortranarray(g), last_outer):
        assert np.allclose(ad._unbroadcast(view, shape), ref, atol=1e-12)
    flipped = g[::-1]
    assert np.allclose(ad._unbroadcast(flipped, shape),
                       flipped.sum(axis=axes, keepdims=True).reshape(shape), atol=1e-12)


def test_node_ids_are_unique_across_threads():
    ids: list = []

    def work():
        mine = [Tensor(0.0).node_id for _ in range(5000)]
        ids.extend(mine)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert len(ids) == 6 * 5000 and len(set(ids)) == len(ids)


def _shared_params():
    rng = np.random.default_rng(8)
    return [Tensor(rng.standard_normal((6, 5)), requires_grad=True),
            Tensor(rng.standard_normal(5), requires_grad=True),
            Tensor(rng.standard_normal((5, 1, 1)), requires_grad=True)]


def _small_loss(params, x):
    w, b, c = params
    h = ad.sigmoid(ad.linear(Tensor(x), w, b))                   # (B, 5)
    z = ad.add(ad.reshape(h, h.shape + (1, 1)), c)               # broadcast c
    return ad.tsum(ad.mul(z, z))


def test_threads_record_their_own_tapes_on_shared_params(f64):
    """Each thread's tape holds only its own ops, and each ``backward``
    returns its own dict; a shared tape stack or a racing node id would mix
    them."""
    params = _shared_params()
    inputs = [np.random.default_rng(20 + i).standard_normal((7, 6)) for i in range(6)]
    expected = []
    for x in inputs:
        with Tape() as tape:
            loss = _small_loss(params, x)
        grads = ad.backward(tape, loss)
        expected.append([grads[p] for p in params])

    results: dict = {}
    ids: dict = {}

    def work(i):
        for _ in range(20):
            with Tape() as tape:
                loss = _small_loss(params, inputs[i])
            ids.setdefault(i, []).extend(node.node_id for node, _, _ in tape.entries)
            grads = ad.backward(tape, loss)
            results.setdefault(i, []).append([grads[p] for p in params])

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    for i, runs in results.items():
        assert len(runs) == 20
        for grads in runs:
            for g, e in zip(grads, expected[i]):
                assert np.array_equal(g, e)
    assert len(results) == len(inputs)
    every_id = [n for thread_ids in ids.values() for n in thread_ids]
    assert len(set(every_id)) == len(every_id)


def test_backward_scalar_leaf():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        pass
    grads = ad.backward(tape, x)
    assert list(grads) == [x] and grads[x] == 1.0


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(DimensionError):
        ad.backward(tape, y)


def test_backward_sum_product(f64):
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    err = max_rel_error_coordinatewise(
        lambda ts: ad.tsum(ad.matmul(ts[0], ts[1])), [a, b])
    assert err < 1e-6


def test_disconnected_parameter_gets_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    other = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.square(x))
    grads = ad.backward(tape, loss)
    assert list(grads) == [x] and other not in grads


def test_backward_consumes_its_tape():
    """Backward empties the tape as it replays it and changes no tensor; a
    second call raises rather than return no gradients."""
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    w = Tensor([3.0, -1.0], requires_grad=True, dtype=np.float64)
    before = [(t.data.copy(), t.requires_grad) for t in (x, w)]
    with Tape() as tape:
        y = ad.mul(x, w)
        loss = ad.tsum(ad.square(y))
    y_data = y.data.copy()
    grads = ad.backward(tape, loss)
    assert set(grads) == {x, w}
    assert np.array_equal(grads[x], [18.0, 4.0]) and np.array_equal(grads[w], [6.0, -8.0])
    for t, (data, requires_grad) in zip((x, w), before):
        assert np.array_equal(t.data, data) and t.requires_grad == requires_grad
    assert np.array_equal(y.data, y_data) and y.requires_grad and loss.requires_grad
    assert tape.entries == []
    with pytest.raises(UsageError):
        ad.backward(tape, loss)
    assert Tensor.__slots__ == ("data", "requires_grad", "node_id")


def test_forward_determinism():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((5, 5)))
    b = Tensor(rng.standard_normal((5, 5)))
    out1 = ad.matmul(ad.softmax_rows(a), b).data
    out2 = ad.matmul(ad.softmax_rows(a), b).data
    assert np.array_equal(out1, out2)


def test_precision_context():
    assert ad.get_default_dtype() == np.float32
    with ad.precision(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32


def test_masked_softmax_zero_row_is_zero():
    scores = Tensor(np.zeros((2, 3)))
    mask = Tensor(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    out = ad.masked_softmax(scores, mask)
    assert np.allclose(out.data[0], 1 / 3)
    assert np.array_equal(out.data[1], np.zeros(3))


def test_masked_softmax_matches_softmax_when_open(f64):
    rng = np.random.default_rng(4)
    s = Tensor(rng.standard_normal((4, 6)))
    open_mask = Tensor(np.ones((4, 6)))
    assert np.allclose(ad.masked_softmax(s, open_mask).data,
                       ad.softmax_rows(s).data, atol=1e-12)


def test_masked_softmax_extreme_scores_no_nan(f64):
    s = Tensor(np.array([[500.0, -500.0, 900.0]]))
    m = Tensor(np.array([[0.0, 1.0, 1.0]]))
    out = ad.masked_softmax(s, m)
    assert np.all(np.isfinite(out.data))
    assert abs(out.data[0, 2] - 1.0) < 1e-12


def test_st_round_forward_and_gradient():
    x = Tensor([0.2, 0.7, 0.5], requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        h = ad.st_round(x)
        loss = ad.tsum(ad.mul(h, Tensor([1.0, 2.0, 3.0], dtype=np.float64)))
    assert h.data.tolist() == [0.0, 1.0, 0.0]   # strictly above 0.5 only
    assert ad.backward(tape, loss)[x].tolist() == [1.0, 2.0, 3.0]


def test_adam_converges_on_quadratic():
    from smap.optim import Adam

    x = Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
    opt = Adam([x], lr=0.1)
    for _ in range(300):
        with Tape() as tape:
            loss = ad.tsum(ad.square(x))
        opt.step(ad.backward(tape, loss))
    assert np.all(np.abs(x.data) < 1e-2)


def test_adam_skips_a_parameter_without_gradient():
    from smap.optim import Adam

    x = Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
    idle = Tensor(np.array([0.1, 0.2, 0.3]), requires_grad=True, dtype=np.float64)
    before = idle.data.copy()
    opt = Adam([idle, x], lr=0.1)
    for _ in range(3):
        with Tape() as tape:
            loss = ad.tsum(ad.square(x))
        grads = ad.backward(tape, loss)
        assert idle not in grads
        opt.step(grads)
    assert np.array_equal(idle.data, before)
    assert not np.array_equal(x.data, [5.0, -3.0])


def _two_branch_sigmoid(x):
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_two_branch_formula(dtype):
    special = [0.0, -0.0, 1e-8, -1e-8, 20.0, -20.0, 1e3, -1e3]
    x = np.concatenate([special, np.random.default_rng(20).standard_normal(5000) * 12])
    x = x.astype(dtype)
    out = ad.sigmoid(Tensor(x, dtype=dtype)).data
    assert out.dtype == dtype
    assert np.array_equal(out, _two_branch_sigmoid(x))


def _softmax_inputs(dtype):
    rng = np.random.default_rng(21)
    x = (rng.standard_normal((6, 5, 16)) * 4).astype(dtype)
    x[0, 1, [2, 7]] = -np.inf
    x[1, :, 0] = -np.inf
    x[2, 3] = 7.0                                   # ties at the max
    mask = (rng.random(x.shape) < 0.6).astype(dtype)
    mask[3, 2] = 0.0                                # all-masked rows
    mask[4] = 0.0
    return x, mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmaxes_equal_last_axis_max_reference(dtype):
    x, mask = _softmax_inputs(dtype)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    assert np.array_equal(ad.softmax_rows(Tensor(x, dtype=dtype)).data,
                          e / e.sum(axis=-1, keepdims=True))
    assert np.array_equal(ad.log_softmax(Tensor(x, dtype=dtype)).data,
                          shifted - np.log(e.sum(axis=-1, keepdims=True)))

    live = mask > 0
    neg_inf = np.where(live, x, -np.inf)
    c = neg_inf.max(axis=-1, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    z = mask * np.exp(neg_inf - c)
    r = z.sum(axis=-1, keepdims=True)
    ref = np.where(r > 0, z / np.where(r > 0, r, 1.0), 0.0)
    out = ad.masked_softmax(Tensor(x, dtype=dtype), Tensor(mask, dtype=dtype)).data
    assert np.array_equal(out, ref)
    assert np.array_equal(out[4], np.zeros_like(out[4]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_backward_equals_textbook_bytes(dtype):
    """Both input gradients equal, byte for byte, the textbook backward that
    zeroes dz on all-masked rows by multiplying it with the row's indicator.
    The upstream gradient is negative there, so a zero of the wrong sign
    would show in ``tobytes`` (``array_equal`` treats -0.0 and +0.0 alike)."""
    x, mask = _softmax_inputs(dtype)
    g = np.random.default_rng(23).standard_normal(x.shape).astype(dtype)
    g[3, 2] = -np.abs(g[3, 2])
    g[4] = -np.abs(g[4])
    with Tape() as tape:
        attn = ad.masked_softmax(Tensor(x, requires_grad=True, dtype=dtype),
                                 Tensor(mask, requires_grad=True, dtype=dtype)).data
    [(_, _, backward_fn)] = tape.entries
    got_scores, got_mask = backward_fn(g)

    neg_inf = np.where(mask > 0, x, -np.inf)
    c = neg_inf.max(axis=-1, keepdims=True)
    e = np.exp(neg_inf - np.where(np.isfinite(c), c, 0.0))
    z = mask * e
    r = z.sum(axis=-1, keepdims=True)
    dz = (g - (g * attn).sum(axis=-1, keepdims=True)) / np.where(r > 0, r, 1.0)
    dz *= r > 0
    for got, want in ((got_scores, dz * z), (got_mask, dz * e)):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert np.signbit(got_scores[4]).any()


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
def test_linear_equals_matmul_plus_bias(f64, x_shape):
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    weights = Tensor(rng.standard_normal(x_shape[:-1] + (3,)))

    def grads(op):
        with Tape() as tape:
            y = op()
            loss = ad.tsum(ad.mul(y, weights))
        n_entries = len(tape.entries)
        got = ad.backward(tape, loss)
        return y.data, [got[t] for t in (x, w, b)], n_entries

    fused, fused_grads, fused_entries = grads(lambda: ad.linear(x, w, b))
    ref, ref_grads, ref_entries = grads(lambda: ad.add(ad.matmul(x, w), b))
    assert np.array_equal(fused, ref)
    for g, r in zip(fused_grads, ref_grads):
        assert np.allclose(g, r, rtol=0, atol=1e-12)
    assert fused_entries == ref_entries - 1


def test_linear_shape_errors():
    with pytest.raises(DimensionError):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
    with pytest.raises(DimensionError):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


def test_primitive_gradcheck_suite_passes():
    """Every registered case passes finite differences, so a case added to
    ``gradcheck`` runs here and not only under ``smap gradcheck``."""
    checks = run_primitive_suite(instances=10)
    assert [name for name, _, _ in checks] == list(primitive_cases(np.random.default_rng(0)))
    assert [(name, detail) for name, ok, detail in checks if not ok] == []
    assert all(detail.endswith(" over 10 instances") for _, _, detail in checks)


def test_every_checked_op_keeps_float32():
    """At float32 no op's forward output or input gradient becomes float64."""
    with ad.precision(np.float32):
        for name, make in primitive_cases(np.random.default_rng(23)).items():
            tensors, fn = make()
            with Tape() as tape:
                loss = fn(tensors)
            assert loss.data.dtype == np.float32, name
            for out, inputs, backward_fn in tape.entries:
                assert out.dtype == np.float32, name
                for t, g in zip(inputs, backward_fn(np.ones(out.shape, dtype=out.dtype))):
                    if g is not None and t.requires_grad:
                        assert np.asarray(g).dtype == np.float32, name
                        assert np.shape(g) == t.shape, name


def _captured(fn) -> list:
    """The values a backward function's closure holds, through nested closures
    and the items of lists and tuples."""
    held, todo = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    while todo:
        v = todo.pop()
        if isinstance(v, (list, tuple)):
            todo.extend(v)
        elif getattr(v, "__closure__", None) is not None:
            todo.extend(cell.cell_contents for cell in v.__closure__)
        else:
            held.append(v)
    return held


def assert_tape_keeps_no_intermediate(tape: Tape) -> None:
    """Outputs are Nodes, inputs are Nodes or leaf Tensors that take
    gradients, and no backward closure holds a Tensor."""
    produced = {node.node_id for node, _, _ in tape.entries}
    for node, inputs, backward_fn in tape.entries:
        assert isinstance(node, ad.Node)
        for t in inputs:
            if isinstance(t, Tensor):
                assert t.requires_grad and t.node_id not in produced
            else:
                assert isinstance(t, ad.Node)
        assert not any(isinstance(v, Tensor) for v in _captured(backward_fn)), \
            backward_fn.__qualname__


def test_tape_keeps_only_what_backward_reads():
    for name, make in primitive_cases(np.random.default_rng(25)).items():
        tensors, fn = make()
        with Tape() as tape:
            fn(tensors)
        assert tape.entries, name
        assert_tape_keeps_no_intermediate(tape)


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_agent_tapes_keep_only_what_backward_reads(kind):
    policy = make_policy(kind, TrunkConfig(), seed=2)
    obs = np.random.default_rng(26).random((3, 4, 16, 16))
    with Tape() as tape:
        policy.evaluate_actions(obs, np.arange(3), mode="train")
    assert_tape_keeps_no_intermediate(tape)


def test_transpose_is_a_view_and_ops_leave_inputs_intact():
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    before = x.data.copy()
    with Tape() as tape:
        xt = ad.transpose(x)
        y = ad.layer_norm(ad.relu(ad.linear(xt, Tensor(np.ones((4, 5))), Tensor(np.ones(5)))),
                          Tensor(np.ones(5)), Tensor(np.zeros(5)))
        loss = ad.tsum(ad.square(y))
    assert np.shares_memory(xt.data, x.data)
    ad.backward(tape, loss)
    assert np.array_equal(x.data, before)
