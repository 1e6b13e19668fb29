"""Parameter checkpoints.

Layout: the magic string ``SMAP1``, a little-endian uint32 manifest length,
a JSON manifest listing (name, shape, dtype) per tensor, then the raw
little-endian scalar data in manifest order. Round-trips are bit-exact.
A checkpoint is written to a ``.part`` file renamed into place: it is whole.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor

MAGIC = b"SMAP1"

_DTYPE_TAGS = {np.dtype(np.float32): "f4", np.dtype(np.float64): "f8"}
_TAG_DTYPES = {v: np.dtype("<" + v) for v in _DTYPE_TAGS.values()}


def save_params(path, params: dict[str, Tensor]) -> None:
    manifest = []
    blobs = []
    for name, t in params.items():
        tag = _DTYPE_TAGS.get(t.data.dtype)
        if tag is None:
            raise ValueError(f"cannot checkpoint dtype {t.data.dtype} for {name!r}")
        manifest.append({"name": name, "shape": list(t.shape), "dtype": tag})
        blobs.append(np.ascontiguousarray(t.data, dtype="<" + tag).tobytes())
    header = json.dumps(manifest).encode("utf-8")
    part = f"{path}.part"
    with open(part, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)
    os.replace(part, path)


def load_params(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; ValueError for any malformed file."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path} is not a parameter checkpoint (bad magic)")
    off = len(MAGIC) + 4
    hlen = struct.unpack_from("<I", raw, len(MAGIC))[0] if len(raw) >= off else None
    if hlen is None or off + hlen > len(raw):
        raise ValueError(f"{path} is truncated (short header)")
    manifest = json.loads(raw[off:off + hlen].decode("utf-8"))
    if not isinstance(manifest, list):
        raise ValueError(f"{path}: the manifest is not a list")
    off += hlen
    out: dict[str, np.ndarray] = {}
    for entry in manifest:
        try:
            name, shape, dtype = entry["name"], tuple(entry["shape"]), _TAG_DTYPES[entry["dtype"]]
        except (KeyError, TypeError) as e:
            raise ValueError(f"{path}: bad manifest entry {entry!r}") from e
        if not isinstance(name, str) or name in out:
            raise ValueError(f"{path}: bad or repeated tensor name {name!r}")
        if not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"{path}: bad shape {list(shape)} for {name!r}")
        count = math.prod(shape)
        if off + count * dtype.itemsize > len(raw):
            raise ValueError(f"{path} is truncated (short data for {name!r})")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(shape)
        out[name] = arr.astype(dtype.newbyteorder("="))
        off += count * dtype.itemsize
    if off != len(raw):
        raise ValueError(f"{path} has {len(raw) - off} bytes after the last tensor")
    return out


def load_into(path, params: dict[str, Tensor]) -> None:
    loaded = load_params(path)
    missing = set(params) - set(loaded)
    extra = set(loaded) - set(params)
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, t in params.items():
        arr = loaded[name]
        if arr.shape != t.shape:
            raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {t.shape}")
        t.data = arr.astype(t.data.dtype)
