import struct

import numpy as np
import pytest

from smap import checkpoint
from smap.autodiff import Tensor
from smap.checkpoint import MAGIC, load_into, load_params, save_params


def _params(dtype):
    rng = np.random.default_rng(0)
    return {
        "layer.w": Tensor(rng.standard_normal((3, 4)), dtype=dtype, requires_grad=True),
        "layer.b": Tensor(rng.standard_normal(4), dtype=dtype, requires_grad=True),
        "scalar": Tensor(rng.standard_normal(()), dtype=dtype, requires_grad=True),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roundtrip_bit_exact(tmp_path, dtype):
    params = _params(dtype)
    path = tmp_path / "ck.smap"
    save_params(path, params)
    loaded = load_params(path)
    for name, t in params.items():
        assert loaded[name].dtype == t.data.dtype
        assert np.array_equal(loaded[name], t.data)
        assert loaded[name].tobytes() == t.data.tobytes()


def test_write_cut_short_leaves_no_checkpoint(tmp_path, monkeypatch):
    """A checkpoint appears only whole, by the rename that ends the write."""
    path = tmp_path / "ck.smap"

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        save_params(path, _params(np.float32))
    assert not path.exists()
    monkeypatch.undo()
    save_params(path, _params(np.float32))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.smap"]


def test_magic_prefix(tmp_path):
    path = tmp_path / "ck.smap"
    save_params(path, _params(np.float32))
    assert path.read_bytes()[:5] == MAGIC


def test_load_into_restores(tmp_path):
    params = _params(np.float32)
    path = tmp_path / "ck.smap"
    save_params(path, params)
    fresh = _params(np.float32)
    for t in fresh.values():
        t.data = np.zeros_like(t.data)
    load_into(path, fresh)
    for name in params:
        assert np.array_equal(fresh[name].data, params[name].data)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.smap"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_params(path)


def test_name_mismatch_rejected(tmp_path):
    params = _params(np.float32)
    path = tmp_path / "ck.smap"
    save_params(path, params)
    wrong = {"other": Tensor(np.zeros(3))}
    with pytest.raises(ValueError, match="mismatch"):
        load_into(path, wrong)


@pytest.mark.parametrize("case", ["short_length_field", "short_manifest", "short_data",
                                  "unknown_dtype", "negative_dim", "fractional_dim",
                                  "string_dim", "trailing_bytes", "null_manifest",
                                  "number_manifest", "object_manifest", "repeated_name",
                                  "list_name"])
def test_malformed_checkpoint_raises_value_error(tmp_path, case):
    path = tmp_path / "ck.smap"
    save_params(path, _params(np.float32))
    full = path.read_bytes()
    # manifest edits keep its length, so the length field stays valid
    raw = {"short_length_field": MAGIC + b"\x10\x00",
           "short_manifest": full[:len(MAGIC) + 4 + 3],
           "short_data": full[:-1],
           "unknown_dtype": full.replace(b'"f4"', b'"i4"'),
           "negative_dim": full.replace(b"[3, 4]", b"[-1]  "),
           "fractional_dim": full.replace(b"[3, 4]", b"[1.5] "),
           "string_dim": full.replace(b"[3, 4]", b'["12"]'),
           "trailing_bytes": full + bytes(4),
           "null_manifest": MAGIC + struct.pack("<I", 4) + b"null",
           "number_manifest": MAGIC + struct.pack("<I", 2) + b"42",
           "object_manifest": MAGIC + struct.pack("<I", 2) + b"{}",
           "repeated_name": full.replace(b'"layer.b"', b'"layer.w"'),
           "list_name": full.replace(b'"layer.b"', b'["lay.b"]')}[case]
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        load_params(path)

