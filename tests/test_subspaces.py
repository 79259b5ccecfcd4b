"""Subspace predicates: Lie triple systems, reflectivity, totally real."""

from __future__ import annotations

import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_vector, zero
from transvector.catalog import (build_pair, build_space, complex_structure_matrix,
                                 list_pairs, negative_control)
from transvector.exactla import rank
from transvector.liealg import float_tol
from transvector.roots import maximal_abelian, restricted_root_decomposition
from transvector.subspaces import Subspace


def test_span_membership_and_coordinates(sl2r):
    H, E, F = (basis_vector(sl2r, i) for i in range(3))
    s = Subspace(sl2r, [E + F])
    member, res = s.contains((E + F).scale(3))
    assert member and res == 0
    member, res = s.contains(E)
    assert not member and res > 0
    assert s.member_from_coordinates((-2,)) == (E + F).scale(-2)


def test_empty_subspace_is_a_valid_triple_system(sl2r):
    s = Subspace(sl2r, [])
    assert s.dim == 0
    ok, _ = s.is_lie_triple_system()
    assert ok
    member, res = s.contains(zero(sl2r))
    assert member and res == 0
    member, _ = s.contains(basis_vector(sl2r, 0))
    assert not member


def test_span_of_h_is_reflective_in_sl2r(sl2r):
    H = basis_vector(sl2r, 0)
    s = Subspace(sl2r, [H])
    ok, report = s.is_lie_triple_system()
    assert ok
    ok, report = s.is_reflective()
    assert ok, report


def test_k_vector_is_rejected_from_p_subspace_predicates(sl2r):
    E, F = basis_vector(sl2r, 1), basis_vector(sl2r, 2)
    s = Subspace(sl2r, [E - F])  # lies in k, not p
    with pytest.raises(ValueError):
        s.orthocomplement_in_p()
    with pytest.raises(ValueError, match="is_reflective requires a subspace of p"):
        s.is_reflective()


def test_the_sl3r_control_is_not_reflective():
    """span(S12) is a triple system, but its complement in p is not:
    [[H1, S13], S23] has an S12 component."""
    ok, report = negative_control()[1].is_reflective()
    assert not ok
    assert (report["dim"], report["codim"]) == (1, 4)
    assert report["triple_system"] == {"holds": True, "witness": None}
    assert report["complement_triple_system"]["holds"] is False
    assert report["complement_triple_system"]["witness"]["triple"] == (0, 2, 3)


def _reflective_by_brackets(s) -> bool:
    """Reflectivity as the bracket rules it once was tested by, on basis
    vectors: with c the complement of s in p, [[u, v], w] lies in c when
    an odd number of u, v, w is drawn from c, and in s otherwise.  That
    holds the two triple systems and the crosswise inclusions [[s,c],s] in
    c and [[s,c],c] in s."""
    a, c = s.algebra, s.orthocomplement_in_p()
    vectors = [(v, 0) for v in s.basis] + [(v, 1) for v in c.basis]
    return all((c if (i + j + k) % 2 else s).contains(a.bracket(a.bracket(u, v), w))[0]
               for u, i in vectors for v, j in vectors for w, k in vectors)


def _root_spaces(sid):
    a = build_space(sid)
    return [Subspace(a, rows) for _, rows in
            sorted(restricted_root_decomposition(a, maximal_abelian(a)).p_spaces.items())]


def _p_basis_spans(sid):
    a = build_space(sid)
    return [Subspace(a, a.p_basis[list(at)]) for r in range(1, len(a.p_basis))
            for at in itertools.combinations(range(len(a.p_basis)), r)]


def test_reflectivity_agrees_with_the_crosswise_bracket_rules():
    """is_reflective tests the two triple systems alone; the crosswise
    inclusions follow by proof.  The full bracket rules agree with its
    verdict on every catalog pair, every p_lambda of su21, su31, so31 and
    sl3r, and every span of p-basis vectors of sl3r, some reflective and
    some not."""
    subspaces = ([build_pair(sid, pair).s for sid, pair in CATALOG]
                 + [s for sid in ("su21", "su31", "so31", "sl3r") for s in _root_spaces(sid)]
                 + _p_basis_spans("sl3r"))
    verdicts = [s.is_reflective()[0] for s in subspaces]
    assert verdicts == [_reflective_by_brackets(s) for s in subspaces]
    assert True in verdicts and False in verdicts


def test_orthocomplement_in_p_is_b_orthogonal(su21_real_form):
    entry = su21_real_form
    comp = entry.s.orthocomplement_in_p()
    a = entry.algebra
    assert comp.dim == len(a.p_basis) - entry.s.dim
    for u in entry.s.basis:
        for v in comp.basis:
            assert a.killing_form(u, v) == 0


def test_real_form_is_totally_real_and_hyperplane_is_not(
        su21_real_form, su21_complex_hyperplane):
    jm = complex_structure_matrix(su21_real_form.algebra)
    assert su21_real_form.s.is_totally_real(jm) is True
    assert su21_complex_hyperplane.s.is_totally_real(jm) is False


def test_complex_structure_check_rejects_non_square_roots(su21):
    # passing theta (squares to +1 on p, not -1) must be refused
    with pytest.raises(ValueError):
        Subspace(su21, [su21.p_basis[0]]).is_totally_real(su21.theta)


def test_non_triple_system_reports_a_witness(sl3r):
    # pairs of off-diagonal symmetric directions close (rank-one triples),
    # but all three together force the diagonal: [[S13,S23],S12] = 2*H1
    s = Subspace(sl3r, [sl3r.from_labels({lab: 1})
                        for lab in ("S12", "S13", "S23")])
    ok, report = s.is_lie_triple_system()
    assert not ok
    assert report  # witness triple with the escaping bracket


def test_cached_triple_system_verdict_equals_a_fresh_one(sl3r, su21_real_form):
    """The pass runs once per subspace; what each subspace keeps is the
    verdict and witness a fresh instance computes, and two subspaces on one
    algebra keep their own."""
    bad = Subspace(sl3r, [sl3r.from_labels({lab: 1}) for lab in ("S12", "S13", "S23")])
    good = Subspace(sl3r, [sl3r.from_labels({"S12": 1})])
    for s in (bad, good, su21_real_form.s, bad, good, su21_real_form.s):
        assert s.is_lie_triple_system() == Subspace(s.algebra, s.basis).is_lie_triple_system()
    assert [s.is_lie_triple_system()[0] for s in (bad, good)] == [False, True]
    outside_p = Subspace(sl3r, [sl3r.vector(sl3r.k_basis[0])])
    for _ in range(2):
        with pytest.raises(ValueError):
            outside_p.is_lie_triple_system()


def test_a_j_that_is_not_b_orthogonal_is_refused(su21):
    """J P1 = 2 Q1, J Q1 = -1/2 P1, J P2 = Q2, J Q2 = -P2 squares to -1 on p
    but stretches P1 and shrinks Q1, so B(J v, J v) != B(v, v)."""
    at = {lab: i for i, lab in enumerate(su21.labels)}
    jm = [[0] * su21.dim for _ in range(su21.dim)]
    for src, dst, c in (("P1", "Q1", 2), ("Q1", "P1", Fraction(-1, 2)),
                        ("P2", "Q2", 1), ("Q2", "P2", -1)):
        jm[at[dst]][at[src]] = c
    s = Subspace(su21, [su21.from_labels({"P1": 1})])
    with pytest.raises(ValueError, match="J is not B-orthogonal"):
        s.is_totally_real(jm)


CATALOG = [(sid, pair) for sid, pairs in list_pairs().items() for pair in pairs]


@pytest.mark.parametrize("sid, pair", CATALOG, ids=["%s-%s" % c for c in CATALOG])
def test_orthocomplement_is_the_span_of_the_normal_frame(sid, pair):
    """The exact complement of each catalog s in p has the codimension of s,
    pairs to exactly 0 with s, and holds every vector of the normal frame."""
    entry = build_pair(sid, pair)
    a = entry.algebra
    comp = entry.s.orthocomplement_in_p()
    assert comp.basis_rows.dtype == object
    assert comp.dim == len(a.p_basis) - entry.s.dim == len(entry.normal_frame)
    assert not np.count_nonzero(entry.s.basis_rows @ a.killing_exact @ comp.basis_rows.T)
    for v in entry.normal_frame:
        assert comp.contains(v) == (True, 0.0)


def test_a_float_basis_is_refused(su21_real_form):
    """A Subspace is exact: float vectors or float rows raise, and there is
    no mode to ask for."""
    a, s = su21_real_form.algebra, su21_real_form.s
    for basis in ([tuple(b.to_array()) for b in s.basis], s.basis_rows.astype(float)):
        with pytest.raises(TypeError, match="refusing silent float"):
            Subspace(a, basis)
    assert list(inspect.signature(Subspace).parameters) == ["algebra", "basis"]
    assert not hasattr(s, "mode")


def _float_copy_membership(s, vs):
    """(outside, residuals) of the float64 rows vs measured the way a float
    copy of s measured them: a projector from the float basis and
    B_theta, residual norms through the float einsum, held against
    float_tol of each row's norm."""
    a = s.algebra
    rows = np.array([v.to_array() for v in s.basis])
    pair = rows @ a.btheta_float
    q = np.eye(a.dim) - pair.T @ np.linalg.inv(pair @ rows.T) @ rows

    def norms(w):
        return np.sqrt(np.maximum(np.einsum("...i,ij,...j->...", w, a.btheta_exact.astype(float), w), 0.0))

    res = norms(vs @ q)
    return res > float_tol(norms(vs)), res


@pytest.mark.parametrize("sid, pair", [("sl2r", None), ("su21", "real-form"),
                                       ("su21", "complex-hyperplane"), ("su31", "real-form")])
def test_float_rows_read_the_bits_of_a_float_copy(sl2r, sid, pair):
    """Float rows inside and outside s get the outside mask and residual
    bits that a float copy of s gave them."""
    if pair is None:
        s = Subspace(sl2r, [basis_vector(sl2r, 0)])
    else:
        s = build_pair(sid, pair).s
    a = s.algebra
    gen = np.random.default_rng(5)
    inside = gen.standard_normal((6, s.dim)) @ s.basis_rows.astype(float)
    rows = np.concatenate([inside, gen.standard_normal((6, a.dim))]).reshape(3, 4, a.dim)
    outside, res = s.membership(rows)
    want_outside, want_res = _float_copy_membership(s, rows)
    assert np.array_equal(outside, want_outside)
    assert np.array_equal(res.view(np.uint64), want_res.view(np.uint64))
    assert not outside.reshape(-1)[:6].any() and outside.reshape(-1)[6:].all()


# Fraction(a, b) of two small ints: far cheaper to draw than st.fractions
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _bases_and_vectors(draw, d=8):
    """Rational rows (up to d of them, a combination of the others appended
    now and then) and three test vectors: a random one, a combination of
    the rows, and that combination moved along one coordinate."""
    row = st.lists(rationals, min_size=d, max_size=d)
    rows = draw(st.lists(row, max_size=d))
    if 0 < len(rows) < d and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)])
    coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)]
    at, step = draw(st.integers(0, d - 1)), draw(st.builds(Fraction, st.sampled_from((-2, -1, 1, 2)), st.integers(1, 4)))
    moved = [m + step * (j == at) for j, m in enumerate(member)]
    return rows, [draw(row), member, moved]


@given(_bases_and_vectors())
@settings(max_examples=150, deadline=None)
def test_exact_membership_agrees_with_the_rank_oracle(su21, case):
    """The null rows of an exact subspace decide v in span(basis) exactly
    when rank(basis + [v]) == rank(basis); a dependent basis is refused."""
    basis, vectors = case
    if rank(basis) < len(basis):
        with pytest.raises(ValueError, match="^subspace basis is linearly dependent$"):
            Subspace(su21, basis)
        return
    s = Subspace(su21, basis)
    assert s.null_rows.shape == (su21.dim - len(basis), su21.dim)
    assert all(type(x) is int for x in s.null_rows.flat)
    outside, res = s.membership(np.array(vectors, dtype=object))
    for v, out, r in zip(vectors, outside, res):
        member = rank(basis + [v]) == rank(basis)
        assert out == (not member) and (r == 0) == member
        assert s.contains(su21.vector(v))[0] == member
