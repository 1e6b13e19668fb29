import numpy as np
import pytest

from smap import autodiff as ad
from smap import tokenizer
from smap.autodiff import Tensor
from smap.errors import DimensionError
from smap.gradcheck import analytic_grads, fd_coordinate, rel_error
from smap.rng import stream
from smap.tokenizer import (D_TOKEN, N_TOKENS, RECEPTIVE_FIELDS, encode_positions,
                            init_extractor, tokenize)


def test_origin_encoding_is_sin_zero_cos_one():
    enc = encode_positions()
    first = enc[0]
    # layout per half: sin block then cos block
    assert np.allclose(first[0:8], 0.0)
    assert np.allclose(first[8:16], 1.0)
    assert np.allclose(first[16:24], 0.0)
    assert np.allclose(first[24:32], 1.0)


def test_same_row_shares_row_half():
    enc = encode_positions()
    assert np.array_equal(enc[1][:16], enc[2][:16])      # tokens (0,1) and (0,2)
    assert not np.array_equal(enc[1][16:], enc[2][16:])


def test_encodings_pairwise_distinct():
    enc = encode_positions()
    dists = np.linalg.norm(enc[:, None, :] - enc[None, :, :], axis=-1)
    off_diag = dists[~np.eye(16, dtype=bool)]
    assert off_diag.min() > 0


def test_default_geometry_gives_16_tokens():
    assert (N_TOKENS, D_TOKEN) == (16, 32)
    assert len(RECEPTIVE_FIELDS) == N_TOKENS
    covered = np.zeros((16, 16), dtype=int)
    for r0, r1, c0, c1 in RECEPTIVE_FIELDS:
        covered[r0:r1, c0:c1] += 1
    assert np.all(covered == 1)      # tiles with no gaps or overlaps


def test_zero_weights_give_pure_positional_tokens(f64):
    params = init_extractor(stream(0, "init"))
    for t in params.values():
        t.data = np.zeros_like(t.data)
    obs = Tensor(np.zeros((1, 4, 16, 16)))
    tokens = tokenize(obs, params)
    assert np.allclose(tokens.data[0], encode_positions())
    with pytest.raises(DimensionError):         # an unbatched observation
        tokenize(Tensor(obs.data[0]), params)


def test_channel_permutation_symmetry(f64):
    rng = np.random.default_rng(0)
    params = init_extractor(stream(1, "init"))
    obs = rng.random((1, 4, 16, 16))
    perm = [2, 0, 3, 1]
    params_p = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in params.items()}
    params_p["extractor.conv0.w"].data = params["extractor.conv0.w"].data[:, perm]
    out = tokenize(Tensor(obs), params).data
    out_p = tokenize(Tensor(obs[:, perm]), params_p).data
    assert np.allclose(out, out_p, atol=1e-12)


def test_receptive_field_locality(f64):
    rng = np.random.default_rng(1)
    params = init_extractor(stream(2, "init"))
    obs = rng.random((1, 4, 16, 16))
    base = tokenize(Tensor(obs), params).data[0]
    token = 5
    r0, r1, c0, c1 = RECEPTIVE_FIELDS[token]
    outside = obs.copy()
    outside[0, :, (r1 + 1) % 16, (c1 + 1) % 16] += 3.0
    moved = tokenize(Tensor(outside), params).data[0]
    assert np.array_equal(moved[token], base[token])
    inside = obs.copy()
    inside[0, :, r0, c0] += 3.0
    moved_in = tokenize(Tensor(inside), params).data[0]
    assert not np.array_equal(moved_in[token], base[token])


def test_tokenize_differentiable(f64):
    rng = np.random.default_rng(2)
    params = init_extractor(stream(3, "init"))
    obs = Tensor(rng.random((1, 4, 16, 16)) + 0.5, requires_grad=True)
    tensors = [obs] + list(params.values())

    def loss_fn(ts):
        return ad.tsum(ad.square(tokenize(ts[0], params)))

    grads = analytic_grads(loss_fn, tensors)
    worst = 0.0
    picker = np.random.default_rng(3)
    for wi, t in enumerate(tensors):
        for _ in range(5):
            idx = tuple(picker.integers(0, s) for s in t.shape)
            fd = fd_coordinate(loss_fn, tensors, wi, idx)
            worst = max(worst, rel_error(float(grads[wi][idx]), fd))
    assert worst < 1e-5


def test_tokenize_deterministic():
    params = init_extractor(stream(4, "init"))
    obs = Tensor(np.random.default_rng(5).random((1, 4, 16, 16)))
    a = tokenize(obs, params).data
    b = tokenize(obs, params).data
    assert np.array_equal(a, b)


def test_cached_geometry_equals_fresh_values_and_is_read_only():
    assert RECEPTIVE_FIELDS == tuple((4 * r, 4 * r + 4, 4 * c, 4 * c + 4)
                                     for r in range(4) for c in range(4))
    fresh = tokenizer._position_table.__wrapped__(np.float64)
    assert fresh.shape == (N_TOKENS, D_TOKEN)
    for dtype in (np.float32, np.float64):
        with ad.precision(dtype):
            enc = encode_positions()
            assert enc is encode_positions() and enc.dtype == dtype
        assert np.array_equal(enc, fresh.astype(dtype))
        with pytest.raises(ValueError):
            enc[0, 0] = 1.0
