"""The block draw of random Y against the per-sample loop it replaces.

`rng.rational_vectors` draws every vector of a round with one array-bounded
`gen.integers` call and redraws the zero vectors at the end.  The reference
below draws one vector at a time, redrawing a zero vector on the spot; the
two must give the same vectors and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from transvector import rng
from transvector.catalog import build_pair, negative_control
from transvector.extension import sample_ys


def _reference_vectors(gen, n, samples):
    """(vectors, redraws) drawn one vector at a time."""
    rows, redraws = [], 0
    for _ in range(samples):
        while True:
            nums = gen.integers(-rng.RATIONAL_NUM, rng.RATIONAL_NUM + 1, size=n)
            dens = rng.RATIONAL_DENOMINATORS[
                gen.integers(0, len(rng.RATIONAL_DENOMINATORS), size=n)]
            if np.any(nums != 0):
                rows.append(nums * (rng.RATIONAL_SCALE // dens))
                break
            redraws += 1
    return np.reshape(rows, (samples, n)), redraws


def _state(gen):
    """The generator state, counter and buffer included, as comparable text."""
    return repr(gen.bit_generator.state)


def _reference_ys(s, gen, samples):
    """(Y, redraws): the reference vectors times the basis of s, before
    sample_ys divides each row by a positive integer."""
    coords, redraws = _reference_vectors(gen, s.dim, samples)
    return coords.astype(object) @ s.basis_rows, redraws


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_draw_is_the_per_sample_loop(n):
    redraws = 0
    for seed in range(12):
        block_gen, ref_gen = rng.stream(seed, 1), rng.stream(seed, 1)
        got = rng.rational_vectors(block_gen, n, 64)
        want, r = _reference_vectors(ref_gen, n, 64)
        redraws += r
        assert got.shape == (64, n) and got.dtype == np.int64
        assert np.array_equal(got, want), seed
        assert _state(block_gen) == _state(ref_gen), seed
        assert block_gen.integers(0, 2 ** 31) == ref_gen.integers(0, 2 ** 31)
    if n == 1:
        # one numerator in nine is zero: the redraws above were exercised
        assert redraws > 0


def _exact_spaces():
    _, control, _ = negative_control()
    spaces = [control] + [build_pair(sid, pair).s for sid, pair in (
        ("su21", "real-form"), ("so31", "geodesic-plane"),
        ("su31", "real-form"), ("su31", "complex-hyperplane"))]
    assert sorted(s.dim for s in spaces) == [1, 2, 2, 3, 4]
    return spaces


@pytest.mark.parametrize("s", _exact_spaces(), ids=lambda s: "dim%d" % s.dim)
def test_sample_ys_matches_the_per_sample_loop(s):
    """Exact Y are the reference vectors times the basis, up to the positive
    integer sample_ys divides out; the control (dim 1) redraws."""
    redraws = 0
    for seed in range(8):
        gen, ref_gen = rng.stream(seed, rng.STREAM_CONDITION_Y), rng.stream(
            seed, rng.STREAM_CONDITION_Y)
        got = sample_ys(s, gen, 64)
        want, r = _reference_ys(s, ref_gen, 64)
        redraws += r
        assert _state(gen) == _state(ref_gen)
        assert got.dtype == np.int64
        for g, w in zip(got, want):
            # g is w divided by a positive integer: the same direction
            k = next(i for i, c in enumerate(w) if c != 0)
            assert g[k] * w[k] > 0 and all(gi * w[k] == wi * g[k] for gi, wi in zip(g, w))
    if s.dim == 1:
        assert redraws > 0


def test_a_zero_length_vector_is_refused():
    with pytest.raises(ValueError):
        rng.rational_vectors(rng.stream(0, 1), 0, 1)
    assert rng.rational_vectors(rng.stream(0, 1), 3, 0).shape == (0, 3)


@pytest.mark.parametrize("n, samples", [(1, 4), (2, 4), (3, 4), (4, 4), (1, 0), (3, 0)])
def test_lemma_sized_and_empty_draws_are_the_per_sample_loop(n, samples):
    """lemma draws 4 samples; at n = 1 a round of 4 holds a zero row about
    two times in five, so both the first round returned as drawn and the
    redraws run.  No sample is a (0, n) int64 stack that draws nothing."""
    redraws = 0
    for seed in range(24):
        block_gen, ref_gen = rng.stream(seed, rng.STREAM_LEMMA), rng.stream(
            seed, rng.STREAM_LEMMA)
        got = rng.rational_vectors(block_gen, n, samples)
        want, r = _reference_vectors(ref_gen, n, samples)
        redraws += r
        assert got.shape == (samples, n) and got.dtype == np.int64
        assert np.array_equal(got, want), seed
        assert _state(block_gen) == _state(ref_gen), seed
    if n == 1 and samples:
        assert 0 < redraws
