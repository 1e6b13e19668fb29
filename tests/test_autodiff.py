import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smap import autodiff as ad
from smap.autodiff import Tape, Tensor
from smap.errors import DimensionError
from smap.gradcheck import (analytic_grads, max_rel_error_coordinatewise, primitive_cases,
                            run_primitive_suite)


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
    ad.backward(tape, loss)
    assert np.allclose(x.grad, [2 / 3, 4 / 3, 2.0], atol=1e-12)


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ad.div(Tensor([1.0, 2.0]), Tensor([1.0, 0.0]))


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(9.0).reshape(1, 3, 3))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = ad.conv2d(x, k, stride=1)
    assert np.array_equal(out.data, x.data)


def test_conv2d_ones_block():
    x = Tensor(np.ones((1, 4, 4)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = ad.conv2d(x, k, stride=2)
    assert np.array_equal(out.data, np.full((1, 2, 2), 4.0))


def test_conv2d_geometry_error():
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 2, 2))), stride=2)


def test_conv2d_gradient_oracle(f64):
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    err = max_rel_error_coordinatewise(
        lambda ts: ad.tsum(ad.square(ad.conv2d(ts[0], ts[1], stride=1))), [x, k])
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


@pytest.mark.parametrize("c_in,k,stride,size", [(4, 2, 2, 8), (3, 3, 1, 6),
                                                (3, 3, 2, 7), (1, 3, 2, 7)])
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
        ad.backward(tape, loss)
        results.append((out.data, x.grad, kt.grad))
    for got_cl, got, ref in zip(*results, reference):
        assert np.allclose(got_cl, got, rtol=0, atol=1e-12)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)


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
    for p in policy.params.values():
        p.zero_grad()

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


def test_backward_scalar_leaf():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        pass
    ad.backward(tape, x)
    assert x.grad == 1.0


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
    ad.backward(tape, loss)
    assert other.grad is None


def test_gradient_accumulation_and_replay():
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = ad.tsum(ad.square(x))
    ad.backward(tape, loss)
    first = x.grad.copy()
    ad.backward(tape, loss)
    assert np.allclose(x.grad, 2 * first)
    x.zero_grad()
    ad.backward(tape, loss)
    assert np.array_equal(x.grad, first)


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
    ad.backward(tape, loss)
    assert x.grad.tolist() == [1.0, 2.0, 3.0]


def test_adam_converges_on_quadratic():
    from smap.optim import Adam

    x = Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
    opt = Adam([x], lr=0.1)
    for _ in range(300):
        with Tape() as tape:
            loss = ad.tsum(ad.square(x))
        opt.zero_grad()
        ad.backward(tape, loss)
        opt.step()
    assert np.all(np.abs(x.data) < 1e-2)


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


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
def test_linear_equals_matmul_plus_bias(f64, x_shape):
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    weights = Tensor(rng.standard_normal(x_shape[:-1] + (3,)))

    def grads(op):
        for t in (x, w, b):
            t.zero_grad()
        with Tape() as tape:
            y = op()
            loss = ad.tsum(ad.mul(y, weights))
        ad.backward(tape, loss)
        return y.data, [t.grad.copy() for t in (x, w, b)], len(tape.entries)

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
    results = run_primitive_suite(instances=10)
    assert [r.name for r in results] == list(primitive_cases(np.random.default_rng(0)))
    assert [(r.name, r.worst_rel_error) for r in results if not r.passed] == []


def test_every_checked_op_keeps_float32():
    """At float32 no op's forward output or input gradient becomes float64."""
    with ad.precision(np.float32):
        for name, make in primitive_cases(np.random.default_rng(23)).items():
            tensors, fn = make()
            with Tape() as tape:
                loss = fn(tensors)
            assert loss.data.dtype == np.float32, name
            for out, inputs, backward_fn in tape.entries:
                assert out.data.dtype == np.float32, name
                for t, g in zip(inputs, backward_fn(np.ones_like(out.data))):
                    if g is not None and t.requires_grad:
                        assert np.asarray(g).dtype == np.float32, name


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
