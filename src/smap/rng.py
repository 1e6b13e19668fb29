"""Deterministic random streams.

Every consumer of randomness gets its own named stream derived from the
experiment seed, so adding a consumer never perturbs the draws seen by the
others. Draws that a later computation must replay, such as a sample's mask
noise, are stored with what they produced, not drawn again.
"""

from __future__ import annotations

import zlib

import numpy as np


def _purpose_key(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


def stream(seed: int, purpose: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=(_purpose_key(purpose), 0))
    return np.random.default_rng(ss)

