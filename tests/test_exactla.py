"""Exact rational linear algebra: every answer is certified by substitution."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector.exactla import (SpanSolver, frac, invert, mat_vec, nullspace, rank,
                                 rref, sylvester_pivot)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(n_rows, n_cols):
    return st.lists(
        st.lists(rationals, min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows,
    ).map(lambda rows: tuple(tuple(r) for r in rows))


@given(matrices(4, 5))
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_in_the_kernel(m):
    basis = nullspace(m)
    for v in basis:
        assert not any(mat_vec(m, v))
    # rank-nullity on the same matrix
    assert rank(m) + len(basis) == 5


@given(matrices(4, 4))
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip_or_singular(m):
    inv = invert(m)
    if inv is None:
        assert rank(m) < 4
    else:
        m, inv = np.array(m, dtype=object), np.array(inv, dtype=object)
        assert np.array_equal(m @ inv, np.eye(4, dtype=int))
        assert np.array_equal(inv @ m, np.eye(4, dtype=int))


@given(matrices(3, 3))
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(m):
    r, _ = rref(list(m))
    r2, _ = rref([list(row) for row in r])
    assert tuple(map(tuple, r)) == tuple(map(tuple, r2))


@given(matrices(5, 3), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_span_solver_contains_its_members(m, coeffs):
    cols = list(zip(*m))
    solver = SpanSolver(cols)
    v = tuple(sum(c * col[i] for c, col in zip(coeffs, cols))
              for i in range(5))
    assert solver.contains(v)
    # the integer row operations: past the rank they annihilate v, and with
    # independent columns row j gives coefficient j times the lcm of the
    # denominators of row_ops[j]
    coords = solver.int_row_ops @ np.array(v, dtype=object)
    assert not coords[solver.rank:].any()
    if solver.independent:
        scales = [math.lcm(*(x.denominator for x in row)) for row in solver.row_ops]
        assert list(coords[:3]) == [s * c for s, c in zip(scales, coeffs)]


def _reference_rref(rows):
    """Plain Fraction Gauss-Jordan: normalise the pivot row, clear the
    column everywhere else.  The oracle the fraction-free rref must match."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(int(x) if x.denominator == 1 else x for x in row)
            for row in m], pivots


_huge = st.tuples(st.sampled_from((-1, 1)), st.integers(2 ** 64, 2 ** 80)).map(
    lambda t: t[0] * t[1])
mixed_scalars = st.one_of(
    st.just(0), st.integers(-4, 4), rationals, _huge,
    st.builds(Fraction, _huge, st.integers(1, 2 ** 70)))


@st.composite
def mixed_matrices(draw):
    """Wide, tall and square int/Fraction matrices, some entries past 2^64,
    with an optional zero column, zero row and dependent row."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    m = [[draw(mixed_scalars) for _ in range(k)] for _ in range(n)]
    if n and k:
        if draw(st.booleans()):
            j = draw(st.integers(0, k - 1))
            for row in m:
                row[j] = 0
        if draw(st.booleans()):
            m[draw(st.integers(0, n - 1))] = [0] * k
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            fa, fb = draw(rationals), draw(st.integers(-3, 3))
            m[draw(st.integers(0, n - 1))] = [
                fa * x + fb * y for x, y in zip(m[a], m[b])]
    return m


@given(mixed_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_fraction_gauss_jordan(m):
    red, pivots = rref(m)
    ref, ref_pivots = _reference_rref(m)
    assert pivots == ref_pivots
    assert red == ref
    # canonical scalars: an int whenever the value is integral
    assert [[type(x) for x in row] for row in red] == [
        [type(x) for x in row] for row in ref]


def test_rref_divides_each_pivot_row_by_a_signed_pivot():
    assert rref([[-2, 1, 4]]) == ([(1, Fraction(-1, 2), -2)], [0])
    assert rref([[2, 1], [6, 4]]) == ([(1, 0), (0, 1)], [0, 1])
    assert rref([[np.int64(3), np.int64(1)]]) == ([(1, Fraction(1, 3))], [0])
    assert type(rref([[np.int64(2), np.int64(4)]])[0][0][1]) is int


@pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(1.0)])
def test_float_entries_are_refused(bad):
    with pytest.raises(TypeError):
        rref([[1, 2], [3, bad]])
    with pytest.raises(TypeError):
        nullspace([[Fraction(1, 3), bad, 1]])
    with pytest.raises(TypeError):
        SpanSolver([(1, 0, 2), (0, bad, 1)])


def test_definiteness_uses_exact_pivots():
    assert sylvester_pivot(((frac(2), frac(1)), (frac(1), frac(2)))) is None
    assert sylvester_pivot(((frac(1), frac(2)), (frac(2), frac(1)))) is not None
    # semidefinite is not definite
    assert sylvester_pivot(((frac(1), frac(1)), (frac(1), frac(1)))) is not None



def test_sylvester_pivot_is_the_first_nonpositive_pivot_with_its_row():
    """On seeded symmetric integer matrices, definite or not: None exactly
    when every eigenvalue is positive; otherwise (p, w) with p <= 0, w sym
    w^T = p exactly, w_k = 1 and w zero past k, where the leading minors
    of orders up to k are positive and the minor of order k + 1 is p times
    the one before it."""
    gen = np.random.default_rng(7)
    failures = 0
    for _ in range(300):
        n = int(gen.integers(1, 6))
        a = gen.integers(-3, 4, size=(n, n))
        sym = a + a.T + int(gen.integers(-2, 9)) * np.eye(n, dtype=int)
        found = sylvester_pivot(sym.astype(object).tolist())
        if found is None:
            assert np.linalg.eigvalsh(sym).min() > 0
            continue
        failures += 1
        p, w = found
        w = np.array(w, dtype=object)
        assert p <= 0 and w @ sym.astype(object) @ w == p
        k = max(i for i in range(n) if w[i] != 0)
        assert w[k] == 1
        minors = [round(np.linalg.det(sym[:m, :m])) if m else 1 for m in range(k + 2)]
        assert all(m > 0 for m in minors[:k + 1])
        assert minors[k + 1] == p * minors[k]
    assert 50 < failures < 250
