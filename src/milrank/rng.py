"""Deterministic random streams.

Every random draw in the package flows through a Philox counter-based
generator keyed by a tuple of non-negative integers, so results are
bit-reproducible across runs and platforms for a given seed.  The first
element of the key is the user seed; the second is a stream tag that keeps
unrelated uses of the same seed decorrelated.
"""

from __future__ import annotations

import numpy as np

STREAM_INIT = 1
STREAM_DROPOUT = 2
STREAM_SAMPLER = 3
STREAM_SYNTH = 4


def derive_rng(*key: int) -> np.random.Generator:
    """Return a generator keyed by the integer tuple ``key``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=list(key))))


def mix_to_seed(*key: int) -> int:
    """Collapse an integer tuple into a single u64 seed, deterministically."""
    return int(np.random.SeedSequence(entropy=list(key)).generate_state(1, dtype=np.uint64)[0])
