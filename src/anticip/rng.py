"""Counter-based random streams addressed by (seed, stream index).

Philox is a counter-based generator, so a (seed, index) pair fully names a
stream: its output is platform-stable, reproducible, and independent of every
other index. Trial partitions can therefore run in any order, or concurrently,
without changing a single drawn value.
"""
from __future__ import annotations

import numpy as np


def check_seed(seed: int, name: str = "seed") -> int:
    """`seed` when it lies in [0, 2^64), else ValueError: seeds are never wrapped."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2^64) (got {seed})")
    return seed


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for stream `index` of the family keyed by `seed`."""
    key = np.array([check_seed(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
