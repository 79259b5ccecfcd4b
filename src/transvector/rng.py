"""Deterministic randomness.

Every random draw in the package flows from a single 64-bit seed through
counter-based Philox streams keyed by (seed, stream id), so independent
subsystems can draw without sharing mutable state and a rerun with the same
seed reproduces every sample bit for bit regardless of thread count.
"""

from __future__ import annotations

import numpy as np

from .exactla import div

# Fixed stream ids; adding new consumers means appending here, never renumbering.
STREAM_CONDITION_Y = 1
STREAM_CONDITION_X = 2
STREAM_LEMMA = 3
STREAM_SERIES = 4
STREAM_ROOTS_GENERIC = 5
STREAM_SEARCH = 6
STREAM_GEOMETRY = 7


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)))


def rational_vector(gen: np.random.Generator, n: int,
                    max_num: int = 4, denominators=(1, 2, 3)) -> tuple:
    """Small random rational vector of canonical exact scalars, never the
    zero vector.

    Entries p/q with |p| <= max_num, q from `denominators`.  Small entries keep
    exact-arithmetic blowup in iterated brackets manageable.
    """
    while True:
        nums = gen.integers(-max_num, max_num + 1, size=n)
        dens = gen.choice(denominators, size=n)
        if np.any(nums != 0):
            return tuple(div(int(p), int(q)) for p, q in zip(nums, dens))


def odd_int_vector(gen: np.random.Generator, n: int, max_abs: int = 9) -> tuple:
    """Vector of odd Python ints in [-max_abs, max_abs]."""
    half = (max_abs + 1) // 2
    ks = gen.integers(-half, half, size=n)
    return tuple(2 * int(k) + 1 for k in ks)

