"""The chain bound b = min(N, dim p - 1), N = |Sigma+| (extension.chain_bound).

The condition and the lemma evaluate their terms only up to b and leave the
rest to the proof of the extension module docstring.  The tests here prove
the closed-form N that catalog.build_space attaches against the certified
root datum on every accepted id, show that b is exactly what the chains
need (the Krylov rank of ad_Y^2 on X is b + 1), and hold the reports the
short range gives to those of the full range: the witness position of the
condition, and the lemma's fallback when a term within b leaves s.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import basis_vector
from transvector import extension, rng
from transvector.catalog import (MAX_SL_N, build_pair, build_space, negative_control,
                                 parse_space_id)
from transvector.errors import ConfigError, LemmaFalsified
from transvector.exactla import rank
from transvector.extension import (chain_bound, condition_holds, sample_ys,
                                   verify_lemma_conclusion)
from transvector.liealg import ChainResidues, StructuredLieAlgebra
from transvector.roots import maximal_abelian, restricted_root_decomposition
from transvector.subspaces import Subspace

# every id parse_space_id accepts: su(n,1) for one digit n >= 1, so(n,1) for
# one digit n >= 2, sl(n,R) for 2 <= n <= MAX_SL_N
ACCEPTED_IDS = (["su%d1" % n for n in range(1, 10)] + ["so%d1" % n for n in range(2, 10)]
                + ["sl%dr" % n for n in range(2, MAX_SL_N + 1)])


def test_the_accepted_ids_are_the_23_of_the_grammar():
    assert len(ACCEPTED_IDS) == 23
    for sid in ACCEPTED_IDS:
        parse_space_id(sid)
    for sid in ("su01", "so01", "so11", "su101", "sl1r", "sl%dr" % (MAX_SL_N + 1)):
        with pytest.raises(ConfigError):
            parse_space_id(sid)


@pytest.mark.parametrize("sid", ACCEPTED_IDS)
def test_the_closed_form_root_count_is_that_of_the_certified_datum(sid):
    a = build_space(sid)
    rd = restricted_root_decomposition(a, maximal_abelian(a))
    assert a.root_count == len(rd.positive)
    assert chain_bound(a) == min(a.root_count, len(a.p_basis) - 1)


@pytest.mark.parametrize("sid", ["su21", "su31", "so31", "sl3r", "sl2r"])
def test_the_krylov_rank_of_ad_y_squared_is_the_chain_bound_plus_one(sid):
    """At random exact Y and X in p, X, ad_Y^2 X, ..., (ad_Y^2)^(dim p) X
    span b + 1 dimensions: at most b + 1 is what the proof uses, and at
    least b + 1 means no smaller bound would do."""
    a = build_space(sid)
    p = a.p_basis
    gen = np.random.default_rng(11)
    b = chain_bound(a)
    for _ in range(3):
        y, x = (gen.integers(-99, 100, size=len(p)).astype(object) @ p for _ in range(2))
        even = a.ad_chain(y[None], x, 2 * len(p))[0, 0::2]
        assert rank(even.tolist()) == b + 1


def test_an_algebra_without_a_root_count_takes_the_cayley_hamilton_bound(sl3r):
    bare = StructuredLieAlgebra(sl3r.labels, sl3r.table, sl3r.theta)
    assert bare.root_count is None
    assert chain_bound(bare) == len(bare.p_basis) - 1


def _full_range_verdict(s, x, ys):
    """(checked, (sample, n) of the first term outside s or None), the
    condition's terms n <= dim p read sample by sample."""
    a = s.algebra
    n_max, checked = len(a.p_basis), 0
    odd = a.ad_chain(ys, x.row(), 2 * n_max + 1)[:, 1::2]
    outside, _ = s.membership(odd @ a.ad_stack(x.row()[None])[0])
    for i, row in enumerate(outside):
        for n, out in enumerate(row):
            checked += 1
            if out:
                return checked, (i, n)
    return checked, None


def test_checked_counts_the_full_range_of_the_samples_before_the_witness(monkeypatch):
    """On su(2,1) real-form with X = Q1 + P1, sampled (2 samples, below
    the lattice's 6 points), a zero Y puts every term in s and P1 fails at
    n = 0: the witness comes from the second sample, after the dim p + 1
    terms of the first, not the b + 1 it evaluated."""
    entry = build_pair("su21", "real-form")
    a, s = entry.algebra, entry.s
    x = a.from_labels({"Q1": 1, "P1": 1})
    ys = np.array([[0] * a.dim, s.basis_rows[0]], dtype=np.int64)
    monkeypatch.setattr(extension, "sample_ys", lambda *args: ys)
    verdict = condition_holds(s, x, samples=2, seed=0)
    checked, (i, n) = _full_range_verdict(s, x, ys)
    assert chain_bound(a) < len(a.p_basis)
    assert (verdict.checked, verdict.witness["n"]) == (checked, n) == (len(a.p_basis) + 2, 0)
    assert verdict.witness["y"] == [str(c) for c in ys[i]]
    assert len(verdict.per_n_worst_residual) == len(a.p_basis) + 1


def _full_range_lemma(s, x, ys, n_max, m_max):
    """The lemma on the full range, every term decided, with no short cut."""
    pair = s.certify_plan.pair(s, x)[1]
    r = ChainResidues(pair, ys, 2 * (n_max + m_max) + 1)
    return extension._lemma_checks(s, x, ys, r, n_max, m_max)


def test_a_hypothesis_failure_within_the_bound_gives_the_full_range_report():
    """The sl3r control (b = 3) fails its hypothesis at m = 0; at the CLI's
    n_max = m_max = 4 the report is the one of the full range, every
    hypothesis residual up to m = 8 included."""
    a, s, x = negative_control()
    ys = sample_ys(s, rng.stream(2, rng.STREAM_LEMMA), 3)
    checks = verify_lemma_conclusion(s, x, ys, n_max=4, m_max=4)
    want = _full_range_lemma(s, x, ys, 4, 4)
    assert [c.as_dict() for c in checks] == [c.as_dict() for c in want]
    assert all(c.status == "hypothesis_violated" for c in checks)
    assert all(len(c.hypothesis_residuals) == 9 for c in checks)
    assert 2 * chain_bound(a) + 1 < 17


def test_a_falsified_lemma_raises_what_the_full_range_raises(sl2r, monkeypatch):
    """With E added to every auxiliary term, the sl(2,R) anchor (b = 1)
    raises at n_max = m_max = 3 what the full range raises."""
    s = Subspace(sl2r, [basis_vector(sl2r, 0)])                    # span(H)
    x = basis_vector(sl2r, 1) + basis_vector(sl2r, 2)              # E + F
    plain, e = extension._lemma_terms, basis_vector(sl2r, 1)

    def escaping(*args):
        hypothesis, conclusion, auxiliary = plain(*args)
        return hypothesis, conclusion, auxiliary + e.row().astype(auxiliary.dtype)

    monkeypatch.setattr(extension, "_lemma_terms", escaping)
    ys = sample_ys(s, rng.stream(4, rng.STREAM_LEMMA), 2)
    with pytest.raises(LemmaFalsified) as short:
        verify_lemma_conclusion(s, x, ys, n_max=3, m_max=3)
    with pytest.raises(LemmaFalsified) as full:
        _full_range_lemma(s, x, ys, 3, 3)
    assert str(short.value) == str(full.value)
    assert short.value.detail == full.value.detail
    assert chain_bound(sl2r) == 1


@pytest.mark.parametrize("sid, pair, n_max, m_max", [
    ("su21", "real-form", 4, 4), ("su31", "complex-hyperplane", 2, 3),
    ("so31", "geodesic-plane", 3, 1)])
def test_a_passing_lemma_is_the_full_range_report(sid, pair, n_max, m_max):
    """Every term within b in s: each check is the full range's, with a
    zero residual for every term of the requested range."""
    entry = build_pair(sid, pair)
    s, x = entry.s, entry.x_default
    ys = sample_ys(s, rng.stream(0, rng.STREAM_LEMMA), 2)
    checks = verify_lemma_conclusion(s, x, ys, n_max=n_max, m_max=m_max)
    want = _full_range_lemma(s, x, ys, n_max, m_max)
    assert [c.as_dict() for c in checks] == [c.as_dict() for c in want]
    assert all(c.passed for c in checks)
