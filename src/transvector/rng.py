"""Deterministic randomness.

Every random draw in the package flows from a single 64-bit seed through
counter-based Philox streams keyed by (seed, stream id), so independent
subsystems can draw without sharing mutable state and a rerun with the same
seed reproduces every sample bit for bit regardless of thread count.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed stream ids; adding new consumers means appending here, never
# renumbering (ids 2, 4, 6 and 7 belonged to retired consumers).
STREAM_CONDITION_Y = 1
STREAM_LEMMA = 3
STREAM_ROOTS_GENERIC = 5

# rational_vector draws p/q with |p| <= RATIONAL_NUM and q in
# RATIONAL_DENOMINATORS, returned as integers over RATIONAL_SCALE
RATIONAL_NUM = 4
RATIONAL_DENOMINATORS = np.array((1, 2, 3))
RATIONAL_SCALE = math.lcm(*RATIONAL_DENOMINATORS.tolist())


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)))


def rational_vector(gen: np.random.Generator, n: int) -> np.ndarray:
    """Small random rational vector q, never zero, returned as the integer
    vector RATIONAL_SCALE * q.

    Small entries keep exact-arithmetic blowup in iterated brackets
    manageable.
    """
    while True:
        nums = gen.integers(-RATIONAL_NUM, RATIONAL_NUM + 1, size=n)
        # the same draws as gen.choice(RATIONAL_DENOMINATORS, size=n)
        dens = RATIONAL_DENOMINATORS[gen.integers(0, len(RATIONAL_DENOMINATORS), size=n)]
        if np.any(nums != 0):
            return nums * (RATIONAL_SCALE // dens)


def odd_int_vector(gen: np.random.Generator, n: int, max_abs: int = 9) -> tuple:
    """Vector of odd Python ints in [-max_abs, max_abs]."""
    half = (max_abs + 1) // 2
    ks = gen.integers(-half, half, size=n)
    return tuple(2 * int(k) + 1 for k in ks)

