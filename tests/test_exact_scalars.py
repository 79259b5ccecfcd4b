"""Canonical exact scalars: an int whenever integral, a Fraction only when a
denominator remains.  On the catalog algebras (integer structure constants)
the whole exact path must run on Python ints; rational data stays exact."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector import rng
from transvector.catalog import (build_pair, build_space, list_pairs,
                                 negative_control)
from transvector.exactla import SpanSolver, div, frac, nullspace, rank, rref
from transvector.extension import sample_ys
from transvector.liealg import AlgebraVector
from transvector.subspaces import Subspace

CATALOG = ("su21", "su31", "so31", "sl3r")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.one_of(st.integers(-50, 50), rationals,
                    rationals.map(lambda q: "%d/%d" % (q.numerator, q.denominator)))


def _canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _all_ints(values) -> bool:
    """Every entry is a Python int; an int64 array counts as integer."""
    if isinstance(values, np.ndarray):
        return values.dtype == np.int64 or _all_ints(values.flat)
    return all(type(c) is int for c in values)


def _subspaces(space_id):
    """Every exact subspace the certify path sees on this algebra."""
    if space_id == "sl3r":
        _, s, _ = negative_control()
        return [s]
    return [build_pair(space_id, p).s for p in list_pairs()[space_id]]


@pytest.mark.parametrize("space_id", CATALOG)
def test_catalog_exact_path_runs_on_ints(space_id):
    a = build_space(space_id)
    assert all(_all_ints(entry.values()) for entry in a.table.values())
    assert all(_all_ints(row) for row in a.theta)
    assert _all_ints(a.killing_exact)
    assert _all_ints(a.k_basis) and _all_ints(a.p_basis)
    subspaces = [Subspace(a, a.k_basis), Subspace(a, a.p_basis)] + _subspaces(space_id)
    for s in subspaces:
        assert _all_ints(s.null_rows)
    gen = rng.stream(5, rng.STREAM_CONDITION_Y)
    for s in _subspaces(space_id):
        ys = sample_ys(s, gen, 2)
        x = a.vector(a.p_basis[-1])
        assert _all_ints(ys)
        chain = a.ad_chain(ys, x.row(), 2 * len(a.p_basis) + 1)
        assert _all_ints(chain)
        assert _all_ints((chain @ a.ad_stack(x.row()[None])[0]).flat)


@given(scalars)
@settings(max_examples=200, deadline=None)
def test_frac_is_canonical(x):
    q = frac(x)
    assert _canonical(q)
    assert q == Fraction(x)


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_rref_and_nullspace_return_canonical_scalars(m):
    red, _ = rref(m)
    assert all(_canonical(x) for row in red for x in row)
    assert all(_canonical(x) for v in nullspace(m) for x in v)


@given(rationals, rationals.filter(bool))
@settings(max_examples=100, deadline=None)
def test_div_is_exact_and_canonical(a, b):
    for p, q in ((a, b), (frac(a), frac(b)), (a.numerator, b.numerator)):
        r = div(p, q)
        assert _canonical(r)
        assert r == Fraction(p) / Fraction(q)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=2),
       st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_integer_membership_rows_agree_with_rank(cols, v):
    """Scaling the rows past the rank to integers keeps membership exact."""
    solver = SpanSolver(cols)
    assert solver.contains(tuple(v)) == (rank(cols + [v]) == rank(cols))


def test_floats_never_enter_the_exact_path():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        AlgebraVector((1, 0.5))
    with pytest.raises(TypeError):
        build_space("su21").vector((1.0,) + (0,) * 7)


def test_rational_data_stays_exact():
    """A rational X and a rational subspace run in mixed int/Fraction
    arithmetic and certify the same membership as their integer multiples."""
    a = build_space("su21")
    s = Subspace(a, [a.from_labels({"P1": Fraction(1, 2)}),
                     a.from_labels({"P2": Fraction(2, 3)})])
    x = a.from_labels({"Q1": Fraction(1, 2), "Q2": Fraction(1, 3)})
    assert type(x.coeffs[a.labels.index("Q1")]) is Fraction
    y = s.basis[0] + s.basis[1]
    for v in a.ad_chain(y.row()[None], x.row(), 7)[0, 1::2]:   # [X, ad_Y^(2n+1) X] lies in s
        term = a.bracket(x, a.vector(v))
        assert s.contains(term) == (True, 0.0)
        assert s.contains(term.scale(6)) == (True, 0.0)
        assert all(_canonical(c) for c in term.coeffs)
