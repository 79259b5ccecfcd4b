"""The stacked chain against a reference built from single brackets.

`ad_chain` evaluates x, ad_y x, ..., ad_y^top x for a whole stack of Y at
once, and the extension condition, the lemma and the root examples read
their terms and memberships off that one array.  Every test here rebuilds
the same quantities one bracket and one membership test at a time, in the
order the condition has always used: sample by sample, n = 0, 1, ... within
a sample, stopping at the first term outside s.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
import pytest

from transvector import rng
from transvector.algfile import parse_algebra_file
from transvector.catalog import build_pair, negative_control
from transvector.cli import load_subspace_file
from transvector.extension import (condition_holds, sample_ys,
                                   verify_lemma_conclusion)
from transvector.liealg import ChainResidues

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _rational_pair():
    """su21 with every structure constant halved (rational algebra)."""
    a = parse_algebra_file(os.path.join(GOLDEN, "su21half.alg"))
    s = load_subspace_file(a, os.path.join(GOLDEN, "su21-real-form.json"))
    return s, a.from_labels({"Q1": 1})


def _cases():
    su21 = build_pair("su21", "real-form")
    su31 = build_pair("su31", "complex-hyperplane")
    _, control_s, control_x = negative_control()
    return {"su21": (su21.s, su21.x_default),
            "su31": (su31.s, su31.x_default),
            "control": (control_s, control_x),
            "rational": _rational_pair()}


CASES = _cases()
# the float chain still runs in the transported-field series (nabla_zz)
CHAIN_CASES = [*sorted(CASES), "su21-float"]


def _chain_inputs(name, seed, k):
    """(s, x, ys) for a chain test, x a coefficient row: the exact X and k Y
    from sample_ys for an exact case; for su21-float, the float64 X and k
    standard normal s-coordinates times the basis rounded to float."""
    gen = rng.stream(seed, rng.STREAM_CONDITION_Y)
    if name != "su21-float":
        s, x = CASES[name]
        return s, x.row(), sample_ys(s, gen, k)
    s, x = CASES["su21"]
    return s, x.to_array(), gen.standard_normal((k, s.dim)) @ s.basis_rows.astype(float)


def _reference_chain(a, y, x, top):
    chain = [x]
    for _ in range(top):
        chain.append(a.bracket(y, chain[-1]))
    return chain


def _reference_condition(s, x, ys, n_max):
    """(checked, witness (sample, n, term, residual) or None, per-n worst
    residual) from iterated a.bracket and s.contains."""
    a = s.algebra
    worst = [0.0] * (n_max + 1)
    checked = 0
    for i, row in enumerate(ys):
        chain = _reference_chain(a, a.vector(row), x, 2 * n_max + 1)
        for n in range(n_max + 1):
            term = a.bracket(x, chain[2 * n + 1])
            member, res = s.contains(term)
            checked += 1
            worst[n] = max(worst[n], res)
            if not member:
                return checked, (i, n, term, res), worst
    return checked, None, worst


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_stacked_chain_is_the_iterated_bracket(name):
    """Every chain against iterated exact brackets of the same inputs
    (Fraction(float) is exact): equal for an exact case, and within 1e-9
    of each term's largest entry, cast to float, for the float64 one."""
    s, x, ys = _chain_inputs(name, 2, 5)
    a = s.algebra
    top = 2 * len(a.p_basis) + 1
    chain = a.ad_chain(ys, x, top)
    assert chain.shape == (5, top + 1, a.dim)
    exact = x.dtype == object
    assert chain.dtype in ((np.int64, object) if exact else (np.float64,))
    for row, y in zip(chain, ys):
        want = _reference_chain(a, a.vector(map(Fraction, y)), a.vector(map(Fraction, x)),
                                top)
        if exact:
            assert [a.vector(v) for v in row] == want
        else:
            want = np.array([w.to_array() for w in want])
            assert (np.abs(row - want).max(axis=1)
                    <= 1e-9 * np.abs(want).max(axis=1)).all()


@pytest.mark.parametrize("name", sorted(CASES))
def test_membership_masks_match_single_contains(name):
    """Stacked membership of the bracket terms [X, ad_Y^(2n+1) X] agrees
    with s.contains term by term, mask and residual."""
    s, x = CASES[name]
    a = s.algebra
    n_max = len(a.p_basis)
    ys = sample_ys(s, rng.stream(3, rng.STREAM_CONDITION_Y), 4)
    odd = a.ad_chain(ys, x.row(), 2 * n_max + 1)[:, 1::2]
    outside, res = s.membership(odd @ a.ad_stack(x.row()[None])[0])
    assert outside.shape == res.shape == (4, n_max + 1)
    for i, row in enumerate(ys):
        chain = _reference_chain(a, a.vector(row), x, 2 * n_max + 1)
        for n in range(n_max + 1):
            member, r = s.contains(a.bracket(x, chain[2 * n + 1]))
            assert outside[i, n] == (not member), (i, n)
            assert res[i, n] == r
    # the control's terms leave s: the masks above were not trivially False
    assert outside.any() == name.startswith("control")


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("samples", [0, 1, 6])
def test_condition_verdict_matches_the_term_by_term_reference(name, samples):
    s, x = CASES[name]
    a = s.algebra
    n_max = len(a.p_basis)
    verdict = condition_holds(s, x, samples=samples, seed=5)
    ys = sample_ys(s, rng.stream(5, rng.STREAM_CONDITION_Y), samples)
    checked, witness, worst = _reference_condition(s, x, ys, n_max)
    assert verdict.checked == checked
    assert verdict.holds == (witness is None)
    assert verdict.per_n_worst_residual == worst
    if witness is not None:
        i, n, term, res = witness
        w = verdict.witness
        assert w["n"] == n
        assert w["residual"] == res
        assert w["y"] == [str(c) for c in a.vector(ys[i]).coeffs]
        assert w["vector"] == [str(c) for c in term.coeffs]


def test_control_witness_is_the_first_failing_sample():
    """Every sample of the sl(3,R) control fails at n = 0, so the witness
    must come from sample 0 and `checked` must be 1."""
    s, x = CASES["control"]
    verdict = condition_holds(s, x, samples=16, seed=0)
    ys = sample_ys(s, rng.stream(0, rng.STREAM_CONDITION_Y), 16)
    assert verdict.checked == 1
    assert verdict.witness["y"] == [str(c) for c in ys[0]]
    assert len({tuple(y) for y in ys}) > 1     # a later sample would differ


def test_lemma_hypothesis_failures_match_the_reference():
    s, x = CASES["control"]
    a = s.algebra
    ys = sample_ys(s, rng.stream(1, rng.STREAM_LEMMA), 3)
    checks = verify_lemma_conclusion(s, x, ys, n_max=2, m_max=1)
    assert len(checks) == 3
    for check, row in zip(checks, ys):
        chain = _reference_chain(a, a.vector(row), x, 7)
        want = [s.contains(a.bracket(x, chain[2 * m + 1])) for m in range(4)]
        assert check.hypothesis_residuals == [r for _, r in want]
        assert check.hypothesis_failures == [{"m": m, "residual": r}
                                             for m, (ok, r) in enumerate(want) if not ok]
        assert check.status == "hypothesis_violated"


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_one_y_alone_gives_the_row_it_gives_in_a_stack(name):
    s, x, ys = _chain_inputs(name, 7, 6)
    a = s.algebra
    top = 2 * len(a.p_basis) + 1
    stacked = a.ad_chain(ys, x, top)
    for i in range(len(ys)):
        alone = a.ad_chain(ys[i:i + 1], x, top)[0]
        if x.dtype.kind == "f":
            assert np.array_equal(alone.view(np.uint64), stacked[i].view(np.uint64))
        else:
            assert np.array_equal(alone, stacked[i])


def test_int64_chain_matches_the_object_oracle_across_2_63():
    """su21 lemma chains (top 17) pass 2^63: under the kernel's bound the
    top-9 chains run in plain int64 and the top-17 ones modulo primes, and
    every residue is that of the iterated brackets."""
    s, x = CASES["su21"]
    a = s.algebra
    ys = sample_ys(s, rng.stream(1, rng.STREAM_LEMMA), 4)
    want = [_reference_chain(a, a.vector(y), x, 17) for y in ys]
    assert max(abs(c) for row in want for v in row for c in v.coeffs).bit_length() > 63
    for top, modular in ((9, False), (17, True)):
        r = ChainResidues(a, ys, x.row(), top, s.null_rows)
        assert bool(r.primes) == modular and r.chain.dtype == np.int64
        assert r.bound >= max(abs(c) for row in want for v in row[:top + 1] for c in v.coeffs)
        for k, p in enumerate(r.primes or (None,)):
            for row, ref in zip(r.chain[k], want):
                exact = np.array([v.coeffs for v in ref[:top + 1]], dtype=object)
                assert np.array_equal(row, exact if p is None else exact % p)


def test_rational_algebra_chain_stays_on_object():
    """ad_chain keeps Fractions on a rational table; the kernel runs on
    L C (L = 2 for su21half), whose chain terms are L^t times the exact
    ones."""
    s, x = CASES["rational"]
    a = s.algebra
    ys = sample_ys(s, rng.stream(0, rng.STREAM_CONDITION_Y), 3)
    chain = a.ad_chain(ys, x.row(), 5)
    assert a.structure_exact.dtype == object and chain.dtype == object
    for row, y in zip(chain, ys):
        assert [a.vector(v) for v in row] == _reference_chain(a, a.vector(y), x, 5)
    r = ChainResidues(a, ys, x.row(), 5, s.null_rows)
    scaled = chain * np.array([2 ** t for t in range(6)], dtype=object)[:, None]
    assert all(c.denominator == 1 for c in scaled.flat)
    assert np.array_equal(r.chain[0], scaled if not r.primes else scaled % r.primes[0])


def test_condition_membership_leaves_int64_when_the_product_outgrows_it():
    """X scaled by 2^32 keeps the n = 0 chain in int64, but scales the
    membership product by 2^64, which int64 would wrap to exactly 0 and so
    let the control pass."""
    s, x = CASES["control"]
    big = x.scale(2 ** 32)
    ys = sample_ys(s, rng.stream(0, rng.STREAM_CONDITION_Y), 4)
    r = ChainResidues(s.algebra, ys, big.row(), 1, s.null_rows)
    assert r.primes and r.outside(r.chain[:, :, 1::2], r.ad(r.x)).all()
    verdict = condition_holds(s, big, samples=4, seed=0)
    checked, (_, n, term, res), _ = _reference_condition(s, big, ys,
                                                         len(s.algebra.p_basis))
    assert not verdict.holds and verdict.checked == checked == 1
    assert verdict.witness["vector"] == [str(c) for c in term.coeffs]
    assert verdict.witness["residual"] == res > 0
