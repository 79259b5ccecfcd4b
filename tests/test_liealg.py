"""Structured algebra layer against sl(2,R) closed forms.

Oracle values are hand-derived from the matrix model H = diag(1,-1),
E = E12, F = E21: Killing form B(X,Y) = 4 tr(XY), so B(H,H) = 8 and
B(E,F) = 4; theta(X) = -X^T swaps E and -F.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector.liealg import MODE_FLOAT, StructuredLieAlgebra, validate_algebra

small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _vec(a, strategy):
    return st.lists(strategy, min_size=a.dim, max_size=a.dim).map(a.vector)


def test_bracket_table_matches_matrix_model(sl2r):
    H, E, F = (sl2r.basis_vector(i) for i in range(3))
    assert sl2r.bracket(H, E).coeffs == (0, 2, 0)
    assert sl2r.bracket(H, F).coeffs == (0, 0, -2)
    assert sl2r.bracket(E, F).coeffs == (1, 0, 0)
    assert sl2r.bracket(E, E).is_zero()


def test_killing_form_closed_values(sl2r):
    H, E, F = (sl2r.basis_vector(i) for i in range(3))
    assert sl2r.killing_form(H, H) == 8
    assert sl2r.killing_form(E, F) == 4
    assert sl2r.killing_form(H, E) == 0
    assert sl2r.killing_form(E, E) == 0


def test_cartan_split_and_membership(sl2r):
    H, E, F = (sl2r.basis_vector(i) for i in range(3))
    k_part, p_part = sl2r.cartan_split(E)
    # theta(E) = -F, so E = (E - F)/2 + (E + F)/2
    assert k_part.coeffs == (0, Fraction(1, 2), Fraction(-1, 2))
    assert p_part.coeffs == (0, Fraction(1, 2), Fraction(1, 2))
    assert sl2r.in_p(H)
    assert sl2r.in_p(E + F)
    assert sl2r.in_k(E - F)
    assert not sl2r.in_p(E)


def test_jacobi_operator_pinned_example(sl2r):
    H = sl2r.basis_vector(0)
    v = sl2r.basis_vector(1) + sl2r.basis_vector(2)  # E + F
    out = sl2r.jacobi_operator(H, v)
    assert out.coeffs == (0, -4, -4)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_jacobi_operator_is_negative_semidefinite_on_p(sl2r, data):
    # B(jacobi(c,v), v) = B([c,v],[c,v]) <= 0 because [c,v] lands in k,
    # where B is negative definite; nonpositive curvature in operator form
    c = data.draw(_vec(sl2r, small_rats))
    v = data.draw(_vec(sl2r, small_rats))
    _, cp = sl2r.cartan_split(c)
    _, vp = sl2r.cartan_split(v)
    val = sl2r.killing_form(sl2r.jacobi_operator(cp, vp), vp)
    assert val <= 0
    assert val == sl2r.killing_form(sl2r.bracket(cp, vp), sl2r.bracket(cp, vp))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_theta_is_an_exact_involutive_automorphism(sl2r, data):
    x = data.draw(_vec(sl2r, small_rats))
    y = data.draw(_vec(sl2r, small_rats))
    tx, ty = sl2r.apply_theta(x), sl2r.apply_theta(y)
    assert sl2r.apply_theta(tx).coeffs == x.coeffs
    assert sl2r.apply_theta(sl2r.bracket(x, y)).coeffs == sl2r.bracket(tx, ty).coeffs
    # B_theta(x, x) = -B(x, theta x) > 0 away from zero
    if not x.is_zero():
        assert -sl2r.killing_form(x, tx) > 0


def test_ad_power_matches_repeated_bracket(sl2r):
    H = sl2r.basis_vector(0)
    x = sl2r.basis_vector(1) + sl2r.basis_vector(2)
    y = sl2r.vector([Fraction(1, 2), 3, Fraction(-2, 3)])
    w = x
    for k in range(1, 6):
        w = sl2r.bracket(H, w)
        assert sl2r.ad_chain(H, x, k)[k].coeffs == w.coeffs

    # the exact chain is the repeated bracket, entry by entry
    chain = sl2r.ad_chain(y, x, 6)
    assert len(chain) == 7 and chain[0] == x
    w = x
    for k in range(1, 7):
        w = sl2r.bracket(y, w)
        assert chain[k] == w

    # the float chain agrees with the exact chain converted to float
    fchain = sl2r.ad_chain(y.astype(MODE_FLOAT), x.astype(MODE_FLOAT), 6)
    for exact, approx in zip(chain, fchain):
        assert approx.mode == MODE_FLOAT
        want = exact.to_array()
        assert np.max(np.abs(approx.to_array() - want)) <= 1e-12 * np.max(np.abs(want))
    assert sl2r.ad_chain(y.astype(MODE_FLOAT), x.astype(MODE_FLOAT), 6)[6] == fchain[6]

    with pytest.raises(ValueError):
        sl2r.ad_chain(y, x.astype(MODE_FLOAT), 3)
    with pytest.raises(ValueError):
        sl2r.ad_chain(y.astype(MODE_FLOAT), x, 2)


def test_validation_is_exact_zero(sl2r):
    rep = validate_algebra(sl2r)
    assert rep.passed
    assert all(r == 0 for r in rep.residuals.values())
    assert rep.dims == {"d": 3, "k": 1, "p": 2}


def _sl2_like(ef_bracket):
    # [H,E] = 2E, [H,F] = -2F, [E,F] = ef_bracket as coefficients over (H,E,F)
    brackets = {
        (0, 1): {1: 2},
        (0, 2): {2: -2},
        (1, 2): ef_bracket,
    }
    theta = ((-1, 0, 0), (0, 0, -1), (0, -1, 0))
    return StructuredLieAlgebra(["H", "E", "F"], brackets, theta, name="probe")


def test_rescaled_bracket_table_still_validates():
    # [E,F] = 2H is sl(2,R) with F rescaled; a correct validator accepts it
    rep = validate_algebra(_sl2_like({0: 2}))
    assert rep.passed


def test_jacobi_violation_is_rejected_with_witness():
    # [E,F] = H + E breaks the Jacobi identity: the cyclic sum over
    # (H, E, F) equals 2E
    rep = validate_algebra(_sl2_like({0: 1, 1: 1}))
    assert not rep.passed
    assert any("jacobi" in k for k in rep.witnesses)
    witness = next(v for k, v in rep.witnesses.items() if "jacobi" in k)
    assert witness  # names the offending triple and the nonzero cyclic sum


def test_non_involutive_theta_is_rejected():
    brackets = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    theta = ((-1, 0, 0), (0, 0, -1), (0, -2, 0))  # squares to diag(1,2,2)-ish
    rep = validate_algebra(StructuredLieAlgebra(["H", "E", "F"], brackets,
                                                theta, name="badtheta"))
    assert not rep.passed


def test_float_mode_round_trips_through_exact_table(sl2r):
    x = sl2r.vector((0.5, -1.25, 2.0), MODE_FLOAT)
    y = sl2r.vector((1.0, 0.0, 3.0), MODE_FLOAT)
    exact = sl2r.bracket(
        sl2r.vector((Fraction(1, 2), Fraction(-5, 4), 2)),
        sl2r.vector((1, 0, 3)))
    got = sl2r.bracket(x, y)
    assert got.mode == MODE_FLOAT
    assert got.to_array() == pytest.approx([float(c) for c in exact.coeffs])


def test_format_vector_round_trip_label_text(sl2r):
    v = sl2r.from_labels({"H": Fraction(3, 2), "F": -1})
    assert sl2r.format_vector(v) == "3/2*H - F"
    assert sl2r.format_vector(sl2r.zero()) == "0"
