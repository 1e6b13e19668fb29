import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smap import autodiff as ad
from smap import paths as pathmod
from smap.autodiff import Tape, Tensor
from smap.errors import ConfigError
from smap.oracles import count_paths_bruteforce


def _mask_set(layer_masks, out_mask):
    layers = [Tensor(np.asarray(m, dtype=np.float64)[None], dtype=np.float64)
              for m in layer_masks]
    out = Tensor(np.asarray(out_mask, dtype=np.float64).reshape(1, 1, -1), dtype=np.float64)
    return layers + [out]


def test_identity_mask_single_layer():
    ms = _mask_set([np.eye(2)], [1.0, 1.0])
    pm = pathmod.path_matrix(ms)
    assert np.array_equal(pm.a.data[0], 2 * np.eye(2))
    assert np.array_equal(pm.a_out.data[0, 0], [2.0, 2.0])
    assert float(pm.total.data[0]) == 4.0


def test_all_ones_single_layer():
    ms = _mask_set([np.ones((2, 2))], [1.0, 1.0])
    pm = pathmod.path_matrix(ms)
    assert np.array_equal(pm.a_out.data[0, 0], [3.0, 3.0])
    assert float(pm.total.data[0]) == 6.0
    assert pm.mu == 6.0


def test_all_zeros_only_residual_paths():
    ms = _mask_set([np.zeros((3, 3)), np.zeros((3, 3))], [0.0, 0.0, 0.0])
    pm = pathmod.path_matrix(ms)
    assert np.array_equal(pm.a.data[0], np.eye(3))
    assert float(pm.total.data[0]) == 0.0


def test_max_paths_values():
    assert pathmod.max_paths(2, 1) == 6.0
    assert pathmod.max_paths(16, 2) == 4624.0
    assert pathmod.max_paths(7, 0) == 7.0


def test_max_paths_validates():
    with pytest.raises(ConfigError):
        pathmod.max_paths(0, 1)


def test_mu_consistency_with_all_ones():
    for n in range(1, 9):
        for layers in range(0, 5):
            ms = _mask_set([np.ones((n, n))] * layers, np.ones(n))
            assert float(pathmod.path_matrix(ms).total.data[0]) == \
                pathmod.max_paths(n, layers)


def test_mask_loss_zero_at_target():
    ms = _mask_set([np.ones((2, 2))], [1.0, 1.0])
    pm = pathmod.path_matrix(ms)
    assert pathmod.mask_loss(pathmod.path_fraction(pm), 1.0).item() == 0.0


def test_mask_loss_dense_network_alpha_005():
    ms = _mask_set([np.ones((4, 4))] * 2, np.ones(4))
    pm = pathmod.path_matrix(ms)
    assert abs(pathmod.mask_loss(pathmod.path_fraction(pm), 0.05).item() - 0.9025) < 1e-12


def test_mask_loss_alpha_range_checked():
    ms = _mask_set([np.ones((2, 2))], [1.0, 1.0])
    pm = pathmod.path_matrix(ms)
    with pytest.raises(ConfigError):
        pathmod.mask_loss(pathmod.path_fraction(pm), 1.5)


def test_relevance_example():
    layer = np.eye(3)
    layer[:, 2] = 0.0
    ms = _mask_set([layer], [1.0, 1.0, 0.0])
    rel = pathmod.effective_input_relevance(pathmod.path_matrix(ms))
    assert rel.tolist() == [[True, True, False]]


def test_relevance_all_open_and_all_masked():
    ms = _mask_set([np.ones((4, 4))], np.ones(4))
    assert pathmod.effective_input_relevance(pathmod.path_matrix(ms)).all()
    ms = _mask_set([np.ones((4, 4))], np.zeros(4))
    assert not pathmod.effective_input_relevance(pathmod.path_matrix(ms)).any()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 24 - 1))
def test_path_counts_match_bruteforce(bits):
    rng = np.random.default_rng(bits)
    n = int(rng.integers(1, 5))
    n_layers = int(rng.integers(0, 4))
    layer_masks = [(rng.random((n, n)) < rng.random()).astype(float)
                   for _ in range(n_layers)]
    out_mask = (rng.random(n) < rng.random()).astype(float)
    pm = pathmod.path_matrix(_mask_set(layer_masks, out_mask))
    brute = count_paths_bruteforce(layer_masks, out_mask.reshape(1, -1))
    assert np.array_equal(pm.a_out.data[0, 0].astype(np.int64), brute)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 24 - 1))
def test_opening_an_edge_never_reduces_paths(bits):
    rng = np.random.default_rng(bits)
    n = int(rng.integers(2, 5))
    n_layers = int(rng.integers(1, 4))
    layer_masks = [(rng.random((n, n)) < 0.5).astype(float) for _ in range(n_layers)]
    out_mask = (rng.random(n) < 0.7).astype(float)
    before = float(pathmod.path_matrix(_mask_set(layer_masks, out_mask)).total.data[0])
    layer = int(rng.integers(0, n_layers))
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    layer_masks[layer][i, j] = 1.0
    after = float(pathmod.path_matrix(_mask_set(layer_masks, out_mask)).total.data[0])
    assert after >= before


def test_binary_masks_give_integer_counts():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        masks = [(rng.random((n, n)) < 0.5).astype(float) for _ in range(2)]
        out = (rng.random(n) < 0.5).astype(float)
        pm = pathmod.path_matrix(_mask_set(masks, out))
        assert np.all(pm.a.data >= 0)
        assert np.array_equal(pm.a.data, np.round(pm.a.data))
        assert 0.0 <= float(pm.total.data[0]) <= pm.mu


def test_gradient_flows_through_straight_through_masks(f64):
    from smap.attention import sample_mask_values
    from smap.rng import stream

    logits = Tensor(np.zeros((1, 3, 3)), requires_grad=True)
    out_logits = Tensor(np.zeros((1, 1, 3)), requires_grad=True)
    with Tape() as tape:
        _, hard = sample_mask_values(logits, "train",
                                     stream(0, "a").logistic(size=logits.shape))
        _, out_hard = sample_mask_values(out_logits, "train",
                                         stream(0, "b").logistic(size=out_logits.shape))
        pm = pathmod.path_matrix([hard, out_hard])
        loss = pathmod.mask_loss(pathmod.path_fraction(pm), 0.3)
    grads = ad.backward(tape, loss)
    assert logits in grads and np.any(grads[logits] != 0)
    assert out_logits in grads and np.any(grads[out_logits] != 0)
