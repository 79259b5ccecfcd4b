"""Deterministic randomness.

Every random draw in the package flows from a single 64-bit seed through
counter-based Philox streams keyed by (seed, stream id), so independent
subsystems can draw without sharing mutable state and a rerun with the same
seed reproduces every sample bit for bit regardless of thread count.
Random Y for the exact checks come from rational_vectors, one block draw per
round, bit for bit the vectors and the generator state of drawing them one at
a time.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed stream ids; adding new consumers means appending here, never
# renumbering (ids 2, 4, 6 and 7 belonged to retired consumers).
STREAM_CONDITION_Y = 1
STREAM_LEMMA = 3
STREAM_ROOTS_GENERIC = 5

# rational_vectors draws p/q with |p| <= RATIONAL_NUM and q in
# RATIONAL_DENOMINATORS, returned as integers over RATIONAL_SCALE
RATIONAL_NUM = 4
RATIONAL_DENOMINATORS = np.array((1, 2, 3))
RATIONAL_SCALE = math.lcm(*RATIONAL_DENOMINATORS.tolist())


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)))


def rational_vectors(gen: np.random.Generator, n: int, samples: int) -> np.ndarray:
    """(samples, n) int64 stack of small random rational vectors q, none of
    them zero, each row returned as the integer vector RATIONAL_SCALE * q.

    A draw is a row of n numerators in [-RATIONAL_NUM, RATIONAL_NUM] and n
    indices into RATIONAL_DENOMINATORS.  Each round draws the rows still
    needed with one array-bounded gen.integers call, keeps in order the rows
    with a nonzero numerator, and draws the deficit again.  numpy fills
    array-bounded integers element by element in C order with the same
    bounded 32-bit draw as a scalar-bounded call, so the rows and the
    generator state afterwards are those of drawing one vector at a time and
    redrawing a zero vector on the spot.  Small entries keep exact-arithmetic
    blowup in iterated brackets manageable.
    """
    if n == 0 and samples:
        raise ValueError("cannot draw a nonzero vector of length 0")
    lo = np.repeat((-RATIONAL_NUM, 0), n)
    hi = np.repeat((RATIONAL_NUM + 1, len(RATIONAL_DENOMINATORS)), n)
    blocks, need = [np.zeros((0, n), dtype=np.int64)], samples
    while need:
        draw = gen.integers(lo, hi, size=(need, 2 * n))
        nums, dens = draw[:, :n], RATIONAL_DENOMINATORS[draw[:, n:]]
        keep = nums.any(axis=1)
        blocks.append((nums * (RATIONAL_SCALE // dens))[keep])
        need -= int(keep.sum())
    return np.concatenate(blocks)


def odd_int_vector(gen: np.random.Generator, n: int) -> tuple:
    """Vector of odd Python ints in [-9, 9]."""
    ks = gen.integers(-5, 5, size=n)
    return tuple(2 * int(k) + 1 for k in ks)

