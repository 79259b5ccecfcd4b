"""Exact rational linear algebra: every answer is certified by substitution."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from transvector.exactla import (SpanSolver, frac, identity, invert,
                                 is_positive_definite, mat_mul, mat_vec,
                                 nullspace, qmat_comm, qmat_realify, Qi,
                                 rank, rref, solve)

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
        assert mat_mul(m, inv) == identity(4)
        assert mat_mul(inv, m) == identity(4)


@given(matrices(3, 3))
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(m):
    r, _ = rref(list(m))
    r2, _ = rref([list(row) for row in r])
    assert tuple(map(tuple, r)) == tuple(map(tuple, r2))


@given(matrices(5, 3), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_span_solver_coordinates_reproduce_members(m, coeffs):
    cols = list(zip(*m))
    solver = SpanSolver(cols)
    v = tuple(sum(c * col[i] for c, col in zip(coeffs, cols))
              for i in range(5))
    assert solver.contains(v)
    if solver.independent:
        coords = solver.coordinates(v)
        rebuilt = tuple(
            sum(c * col[i] for c, col in zip(coords, cols))
            for i in range(5))
        assert rebuilt == v


def test_solve_certifies_by_substitution():
    m = ((frac(2), frac(1)), (frac(1), frac(3)))
    b = (frac(1), frac(0))
    x = solve(m, b)
    assert mat_vec(m, x) == b
    assert x == (Fraction(3, 5), Fraction(-1, 5))


def test_definiteness_uses_exact_pivots():
    assert is_positive_definite(((frac(2), frac(1)), (frac(1), frac(2))))
    assert not is_positive_definite(((frac(1), frac(2)), (frac(2), frac(1))))
    # semidefinite is not definite
    assert not is_positive_definite(((frac(1), frac(1)), (frac(1), frac(1))))


def test_gaussian_rationals_commutator_and_flattening():
    i = Qi(0, 1)
    a = ((Qi(0, 0), i), (i, Qi(0, 0)))
    b = ((Qi(1, 0), Qi(0, 0)), (Qi(0, 0), Qi(-1, 0)))
    c = qmat_comm(a, b)
    # [a, b] = ab - ba with exact Gaussian entries
    assert c == ((Qi(0, 0), Qi(0, -2)), (Qi(0, 2), Qi(0, 0)))
    # coordinate flattening is linear and lays out re block then im block
    assert qmat_realify(((Qi(1, 2), Qi(3, -4)),)) == (1, 3, 2, -4)
    flat_sum = qmat_realify(tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)))
    assert flat_sum == tuple(
        x + y for x, y in zip(qmat_realify(a), qmat_realify(b)))
