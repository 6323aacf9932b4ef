"""The run's randomness: seeds hashed from labels, and numbered RNG streams.

A config seed is combined with labels (view, model family, fold, row id) into
derived seeds, and with stream numbers (tree, bootstrap replicate) into
generators, so every random draw is a fixed function of the config.
"""

from __future__ import annotations

import hashlib

import numpy as np


def hash_seed(*parts, nbytes: int = 4) -> int:
    """Big-endian integer of the blake2b digest of the parts joined by ':'."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=nbytes).digest()
    return int.from_bytes(digest, "big")


def stream_rng(seed, *streams) -> np.random.Generator:
    """PCG64 generator keyed by the low 32 bits of ``seed`` and the stream numbers."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *streams])
