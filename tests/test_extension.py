"""Extension condition, bracket lemma, and the covariant-derivative series.

The sl(2,R) anchor: s = span(H), X = E + F, Y = sH.  Then
ad_Y^2 X = 4s^2 X, every odd bracket [X, ad_Y^{2n+1} X] is a multiple of H,
and [Z^k, Z^p] for Z = e^{-ad_Y} X is exactly -sinh(4s) H (hand-derived:
Z = cosh(2s)(E+F) - sinh(2s)(E-F), [E-F, E+F] = 2H... twice).
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_vector
from transvector import extension, rng
from transvector.catalog import build_pair, list_pairs, negative_control
from transvector.errors import ConfigError, LemmaFalsified
from transvector.extension import (_NOT_NORMAL, ConditionVerdict, LemmaCheck,
                                   _normal_pairing, condition_holds, nabla_zz,
                                   sample_ys, verify_lemma_conclusion)
from transvector.liealg import MODE_EXACT, coeff_strings
from transvector.subspaces import Subspace


@pytest.fixture(scope="module")
def sl2_pair(sl2r):
    s = Subspace(sl2r, [basis_vector(sl2r, 0)])           # span(H)
    x = basis_vector(sl2r, 1) + basis_vector(sl2r, 2)      # E + F
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
    return [a.vector(t @ a.ad_stack(x.row()[None])[0]) for t in odd]


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


def test_an_escaping_auxiliary_chain_raises_lemma_falsified(sl2_pair, monkeypatch):
    """The auxiliary chain ad_Y [ad_Y^{2n}X, ad_Y^{2m}X] leaves s only if the
    lemma is false.  With E added to every auxiliary term, residue and
    exact, the first Y raises at (n, m) = (0, 0), and the residual is that
    of E off span(H)."""
    a, s, x = sl2_pair
    plain, e = extension._lemma_terms, basis_vector(a, 1)

    def escaping(*args):
        hypothesis, conclusion, auxiliary = plain(*args)
        return hypothesis, conclusion, auxiliary + e.row().astype(auxiliary.dtype)

    monkeypatch.setattr(extension, "_lemma_terms", escaping)
    ys = sample_ys(s, rng.stream(1, rng.STREAM_LEMMA), 2)
    with pytest.raises(LemmaFalsified, match=r"^auxiliary chain ad_Y\[ad_Y\^0X, "
                                             r"ad_Y\^0X\] escaped s") as info:
        verify_lemma_conclusion(s, x, ys, n_max=1, m_max=1)
    assert info.value.detail == {"n": 0, "m": 0, "kind": "auxiliary",
                                 "y": coeff_strings(a.vector(ys[0])),
                                 "residual": s.contains(e)[1]}
    assert s.contains(e)[1] > 0


def test_nabla_zz_matches_minus_sinh4_h(sl2_pair):
    a, s, x = sl2_pair
    rep = nabla_zz(s, x, s.basis[0].to_array(), truncation=12)
    assert rep.converged
    expected = np.array([-math.sinh(4.0), 0.0, 0.0])
    assert np.max(np.abs(rep.value - expected)) <= 1e-12
    assert rep.route_difference <= 10.0 * max(rep.tail_bound, 1e-13)
    assert rep.member and rep.membership_residual <= 1e-10


def test_nabla_zz_tail_bound_formula(sl2_pair):
    a, s, x = sl2_pair
    K = 6
    rep = nabla_zz(s, x, s.basis[0].to_array(), truncation=K)
    ad_norm = float(np.linalg.norm(
        np.asarray(a.ad_matrix(s.basis[0]), dtype=float), 2))
    want = ad_norm ** (2 * K + 2) / math.factorial(2 * K + 2) * float(
        np.linalg.norm(x.to_array()))
    assert rep.tail_bound == pytest.approx(want, rel=1e-12)


def test_unconverged_truncation_is_flagged(sl2_pair):
    a, s, x = sl2_pair
    y = s.basis[0].to_array() * 4.0   # ||ad_Y|| = 16; K = 2 cannot resolve it
    rep = nabla_zz(s, x, y, truncation=2)
    assert not rep.converged
    assert rep.warnings


def test_the_first_offending_pairing_in_basis_order_is_reported():
    """s = span(P1, P2, P3) in su(3,1) and X = Q1 + 2 P2 + 3 P3: P1 pairs to
    0 with X, P2 to 2 B(P2, P2) = 32 and P3 to 48.  The first nonzero
    pairing is the second one, and the verdict carries the warning."""
    entry = build_pair("su31", "real-form")
    a, s = entry.algebra, entry.s
    x = a.from_labels({"Q1": 1, "P2": 2, "P3": 3})
    assert _normal_pairing(s, x) == 32
    assert _normal_pairing(s, a.from_labels({"Q1": 1})) is None
    assert condition_holds(s, x, samples=1).warnings == (_NOT_NORMAL,)
    assert condition_holds(s, a.from_labels({"Q1": 1}), samples=1).warnings == ()


def test_non_orthogonal_x_is_flagged_but_still_checked(sl2_pair):
    # B(H, H) = 8 != 0: the algebraic condition is still decidable, but the
    # verdict must carry the geometric warning
    a, s, x = sl2_pair
    verdict = condition_holds(s, s.basis[0], samples=2, seed=0)
    assert verdict.warnings
    assert verdict.holds  # ad_H H = 0, all terms vanish


CATALOG = [(sid, pair) for sid, pairs in list_pairs().items() for pair in pairs]
CATALOG_IDS = ["%s-%s" % c for c in CATALOG]


@pytest.mark.parametrize("sid, pair", CATALOG, ids=CATALOG_IDS)
def test_catalog_x_grid_is_exactly_normal_to_s(sid, pair):
    """Every normal_frame vector pairs to exactly 0 with s, and so does
    every X in their span; a basis vector of s does not, and its first
    pairing is its own B(b, b)."""
    entry = build_pair(sid, pair)
    s = entry.s
    for x in entry.normal_frame:
        assert _normal_pairing(s, x) is None
    b = s.basis[0]
    assert _normal_pairing(s, b) == entry.algebra.killing_form(b, b) != 0


@pytest.mark.parametrize("sid, pair", CATALOG, ids=CATALOG_IDS)
def test_catalog_verdicts_report_the_exact_modes(sid, pair):
    """The modes are class constants, not fields a caller could set, and
    the reports print them."""
    assert "mode" not in {f.name for f in dataclasses.fields(ConditionVerdict)}
    assert "mode" not in {f.name for f in dataclasses.fields(LemmaCheck)}
    entry = build_pair(sid, pair)
    s, x = entry.s, entry.x_default
    verdict = condition_holds(s, x, samples=2, seed=1)
    assert verdict.holds and verdict.as_dict()["mode"] == "exact-sampled"
    ys = sample_ys(s, rng.stream(1, rng.STREAM_CONDITION_Y), 2)
    checks = verify_lemma_conclusion(s, x, ys, n_max=1, m_max=1)
    assert [c.as_dict()["mode"] for c in checks] == [MODE_EXACT, MODE_EXACT]
    assert all(c.passed for c in checks)


def test_a_plan_lives_and_dies_with_its_subspace():
    """The condition and the lemma keep their plan on s and nowhere else:
    once the caller drops s, reference counting frees it (the cyclic
    collector is off), plan included."""
    entry = build_pair("su21", "real-form")
    s, x = Subspace(entry.algebra, entry.s.basis), entry.x_default
    gc.disable()
    try:
        assert condition_holds(s, x, samples=2, seed=0).holds
        ys = sample_ys(s, rng.stream(0, rng.STREAM_LEMMA), 2)
        assert all(c.passed for c in verify_lemma_conclusion(s, x, ys, n_max=1, m_max=1))
        assert "certify_plan" in vars(s)
        dropped = weakref.ref(s)
        del s
        assert dropped() is None
    finally:
        gc.enable()


def test_a_warning_and_a_refusal_stay_with_their_x():
    """On one s (su21 real-form), X = Q1 is normal and Q1 + P1 is not: the
    warning of the one never reaches the verdict of the other, run before
    or after it, and each verdict equals that on a plan of its own.  An X
    outside p is refused every time, before and after an admitted one."""
    entry = build_pair("su21", "real-form")
    a = entry.algebra
    s = Subspace(a, entry.s.basis)
    normal, tilted = a.from_labels({"Q1": 1}), a.from_labels({"Q1": 1, "P1": 1})
    outside_p = a.vector(a.k_basis[0])
    verdicts = []
    for x in (normal, tilted, normal, tilted):
        with pytest.raises(ConfigError, match="^X must lie in p$"):
            condition_holds(s, outside_p, samples=2, seed=1)
        verdicts.append(condition_holds(s, x, samples=2, seed=1).as_dict())
        assert verdicts[-1] == condition_holds(Subspace(a, entry.s.basis), x, samples=2,
                                               seed=1).as_dict()
    assert [v["warnings"] for v in verdicts] == [(), (_NOT_NORMAL,)] * 2
