"""Counter-based random streams addressed by (seed, stream index).

Philox is a counter-based generator, so a (seed, index) pair fully names a
stream: its output is platform-stable, reproducible, and independent of every
other index. Trial partitions can therefore run in any order, or concurrently,
without changing a single drawn value. The key and the counter are the whole
state of a stream, so re-keying one generator gives exactly the stream a fresh
one would: a run of chunks owns one generator and re-keys it per chunk.
"""
from __future__ import annotations

import numbers

import numpy as np


def check_seed(seed: int, name: str = "seed") -> int:
    """`seed` when it is an integer in [0, 2^64), else ValueError: seeds are never
    wrapped or truncated, and a bool is no seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"{name}: {seed!r} is not an integer")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2^64) (got {seed})")
    return seed


def stream(seed: int, index: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for stream `index` of the family keyed by `seed`: a fresh one, or
    the Philox generator `reuse` set to key (seed, index), counter 0 and an empty
    buffer, which skips a new generator's entropy read that the key discards."""
    key = np.array([check_seed(seed), index], dtype=np.uint64)
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=key))
    reuse.bit_generator.state = {"bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
                                 "state": {"counter": np.zeros(4, np.uint64), "key": key},
                                 "buffer": np.zeros(4, np.uint64)}
    return reuse
