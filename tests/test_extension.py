"""Extension condition, bracket lemma, and the covariant-derivative series.

The sl(2,R) anchor: s = span(H), X = E + F, Y = sH.  Then
ad_Y^2 X = 4s^2 X, every odd bracket [X, ad_Y^{2n+1} X] is a multiple of H,
and [Z^k, Z^p] for Z = e^{-ad_Y} X is exactly -sinh(4s) H (hand-derived:
Z = cosh(2s)(E+F) - sinh(2s)(E-F), [E-F, E+F] = 2H... twice).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector.catalog import build_pair, negative_control
from transvector.errors import ConfigError
from transvector.extension import (_normal_pairing, condition_holds, nabla_zz,
                                   normal_field_check, verify_lemma_conclusion)
from transvector.liealg import MODE_EXACT, MODE_FLOAT
from transvector.subspaces import Subspace


@pytest.fixture(scope="module")
def sl2_pair(sl2r):
    s = Subspace(sl2r, [sl2r.basis_vector(0)])           # span(H)
    x = sl2r.basis_vector(1) + sl2r.basis_vector(2)      # E + F
    return sl2r, s, x


def test_condition_holds_exactly_on_su21_pairs():
    for pair_name in ("real-form", "complex-hyperplane"):
        entry = build_pair("su21", pair_name)
        verdict = condition_holds(entry.s, entry.x_default, samples=8, seed=3)
        assert verdict.holds
        assert verdict.mode == "exact-sampled"
        assert all(r == 0.0 for r in verdict.per_n_worst_residual)
        assert verdict.witness is None


def test_negative_control_fails_at_the_first_bracket(sl3r):
    _, s, x = negative_control()
    verdict = condition_holds(s, x, samples=4, seed=0)
    assert not verdict.holds
    w = verdict.witness
    assert w["n"] == 0
    # the witness is an exact certificate: rebuild the vector and re-check
    vec = sl3r.vector([Fraction(c) for c in w["vector"]])
    member, res = s.contains(vec)
    assert not member and res > 0


def _condition_terms(a, x, y, n_max):
    """[X, ad_Y^{2n+1} X] for n = 0..n_max, read off the stacked chain."""
    odd = a.ad_chain(y.row()[None], x.row(), 2 * n_max + 1)[0, 1::2]
    return [a.vector(t @ a.ad_stack(x.row()[None])[0], x.mode) for t in odd]


def test_condition_terms_scale_quadratically_in_x(sl2_pair):
    a, s, x = sl2_pair
    y = s.basis[0].scale(Fraction(3, 2))
    base = _condition_terms(a, x, y, 3)
    scaled = _condition_terms(a, x.scale(Fraction(5, 2)), y, 3)
    for t, u in zip(base, scaled):
        assert u.coeffs == t.scale(Fraction(25, 4)).coeffs


@given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_odd_brackets_stay_in_s_for_su21_real_form(c1, c2):
    entry = build_pair("su21", "real-form")
    y = entry.s.basis[0].scale(c1) + entry.s.basis[1].scale(c2)
    for term in _condition_terms(entry.algebra, entry.x_default, y, 3):
        member, res = entry.s.contains(term)
        assert member and res == 0


def test_lemma_conclusion_certified_on_sl2r(sl2_pair):
    a, s, x = sl2_pair
    y = s.basis[0].scale(2)
    check, = verify_lemma_conclusion(s, x, y.row()[None], n_max=4, m_max=4)
    assert check.passed
    assert check.worst_residual == 0.0
    # every conclusion pair (n, m) up to the declared bounds was exercised
    assert len(check.conclusion_residuals) == 25
    assert len(check.aux_residuals) == 25


def test_lemma_reports_hypothesis_violation_not_falsification(sl3r):
    _, s, x = negative_control()
    y = s.basis[0]
    check, = verify_lemma_conclusion(s, x, y.row()[None], n_max=2, m_max=2)
    assert check.status == "hypothesis_violated"
    assert not check.passed
    assert check.hypothesis_failures


def test_nabla_routes_agree_exactly_in_rational_arithmetic(sl2_pair):
    a, s, x = sl2_pair
    rep = nabla_zz(s, x, s.basis[0], truncation=8)
    # same rational terms summed in two different orders: identical results
    assert rep.route_difference == 0.0
    assert rep.member


@pytest.fixture(scope="module")
def sl2_pair_float(sl2r):
    s = Subspace(sl2r, [sl2r.basis_vector(0).astype(MODE_FLOAT)])
    x = (sl2r.basis_vector(1) + sl2r.basis_vector(2)).astype(MODE_FLOAT)
    return sl2r, s, x


def test_nabla_zz_matches_minus_sinh4_h(sl2_pair_float):
    a, s, x = sl2_pair_float
    rep = nabla_zz(s, x, s.basis[0], truncation=12)
    assert rep.converged
    expected = np.array([-math.sinh(4.0), 0.0, 0.0])
    assert np.max(np.abs(rep.value.to_array() - expected)) <= 1e-12
    assert rep.route_difference <= 10.0 * max(rep.tail_bound, 1e-13)
    assert rep.member and rep.membership_residual <= 1e-10


def test_nabla_zz_tail_bound_formula(sl2_pair_float):
    a, s, x = sl2_pair_float
    K = 6
    rep = nabla_zz(s, x, s.basis[0], truncation=K)
    ad_norm = float(np.linalg.norm(
        np.asarray(a.ad_matrix(s.basis[0]), dtype=float), 2))
    want = ad_norm ** (2 * K + 2) / math.factorial(2 * K + 2) * float(
        np.linalg.norm(x.to_array()))
    assert rep.tail_bound == pytest.approx(want, rel=1e-12)


def test_unconverged_truncation_is_flagged(sl2_pair_float):
    a, s, x = sl2_pair_float
    y = s.basis[0].scale(4.0)  # ||ad_Y|| = 16; K = 2 cannot resolve it
    rep = nabla_zz(s, x, y, truncation=2)
    assert not rep.converged
    assert rep.warnings


def test_normal_field_pairing_vanishes_exactly(sl2_pair):
    a, s, x = sl2_pair
    assert normal_field_check(s, x, s.basis[0].scale(Fraction(5, 3))) == 0.0


def test_normal_field_check_rejects_non_orthogonal_x(sl2_pair):
    a, s, x = sl2_pair
    with pytest.raises(ValueError):
        normal_field_check(s, s.basis[0], s.basis[0])


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
def test_the_first_offending_pairing_in_basis_order_is_reported(mode):
    """s = span(P1, P2, P3) in su(3,1) and X = Q1 + 2 P2 + 3 P3: P1 pairs to
    0 with X, P2 to 2 B(P2, P2) = 32 and P3 to 48.  The first nonzero
    pairing is the second one, and the refusal names it."""
    entry = build_pair("su31", "real-form")
    a = entry.algebra
    s = Subspace(a, [b.astype(mode) for b in entry.s.basis], mode)
    x = a.from_labels({"Q1": 1, "P2": 2, "P3": 3}, mode)
    assert _normal_pairing(s, x) == 32
    assert _normal_pairing(s, a.from_labels({"Q1": 1}, mode)) is None
    with pytest.raises(ConfigError, match=r"^X is not B-orthogonal to s \(pairing %s\)$"
                       % ("32" if mode == MODE_EXACT else r"32\.0")):
        normal_field_check(s, x, s.basis[0])


def test_non_orthogonal_x_is_flagged_but_still_checked(sl2_pair):
    # B(H, H) = 8 != 0: the algebraic condition is still decidable, but the
    # verdict must carry the geometric warning
    a, s, x = sl2_pair
    verdict = condition_holds(s, s.basis[0], samples=2, seed=0)
    assert verdict.warnings
    assert verdict.holds  # ad_H H = 0, all terms vanish


def test_float_non_orthogonal_x_is_flagged_and_rejected(sl2_pair_float):
    # B(H, H) = 8 is far outside the float tolerance; a pairing of 8e-13 is not
    a, s, x = sl2_pair_float
    verdict = condition_holds(s, s.basis[0], samples=2, seed=0)
    assert verdict.warnings and verdict.holds
    nearly_normal = x + s.basis[0].scale(1e-13)
    assert not condition_holds(s, nearly_normal, samples=2, seed=0).warnings
    with pytest.raises(ValueError, match="not B-orthogonal"):
        normal_field_check(s, s.basis[0], s.basis[0])
    assert normal_field_check(s, nearly_normal, s.basis[0]) <= 1e-9


def test_mode_mismatch_is_an_error(sl2_pair):
    a, s, x = sl2_pair
    with pytest.raises(ValueError):
        condition_holds(s, x.astype(MODE_FLOAT), samples=2)
