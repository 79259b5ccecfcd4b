"""The residue kernel (liealg.ChainResidues) against the Python-int path.

The condition and the lemma decide membership from int64 residues modulo
primes whose product exceeds twice a proven bound on every residual, or in
plain int64 when that bound fits.  The oracle here is the exact path one
bracket at a time: iterated a.bracket on Python ints and Fractions, and
s.contains for each term.  Tables are the catalog's, scaled by integer and
rational factors (a scaled table is again a Lie algebra with the same
subspaces), so the bounds reach past 2^63 and past 2^120.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_residues, zero
from transvector import extension, liealg, rng
from transvector.catalog import build_pair, negative_control
from transvector.errors import LemmaFalsified
from transvector.extension import (condition_holds, sample_ys,
                                   verify_lemma_conclusion)
from transvector.liealg import ChainResidues, StructuredLieAlgebra, residue_primes
from transvector.subspaces import Subspace


def _pairs():
    pairs = {"%s-%s" % k: build_pair(*k) for k in (
        ("su21", "real-form"), ("su21", "complex-hyperplane"),
        ("so31", "geodesic-plane"), ("su31", "real-form"))}
    pairs = {k: (e.s, e.x_default) for k, e in pairs.items()}
    _, s, x = negative_control()
    pairs["control"] = (s, x)
    return pairs


PAIRS = _pairs()


def _scaled(s, x, scale):
    """(s, x) on the table scaled by scale: [u, v]' = scale [u, v], a Lie
    algebra with the same Theta, p and Lie triple systems."""
    a = s.algebra
    b = StructuredLieAlgebra(
        a.labels, {ij: {k: scale * c for k, c in e.items()} for ij, e in a.table.items()},
        a.theta, name=a.name)
    return Subspace(b, [b.vector(v.coeffs) for v in s.basis]), b.vector(x.coeffs)


def _chain(a, y, x, top):
    chain = [x]
    for _ in range(top):
        chain.append(a.bracket(y, chain[-1]))
    return chain


def _reference_condition(s, x, ys, n_max):
    """(holds, checked, witness (i, n, term, residual) or None)."""
    a = s.algebra
    checked = 0
    for i, row in enumerate(ys):
        chain = _chain(a, a.vector(row), x, 2 * n_max + 1)
        for n in range(n_max + 1):
            term = a.bracket(x, chain[2 * n + 1])
            member, res = s.contains(term)
            checked += 1
            if not member:
                return False, checked, (i, n, term, res)
    return True, checked, None


def _reference_lemma(s, x, y, n_max, m_max):
    """The as_dict of the LemmaCheck for one Y, term by term."""
    a = s.algebra
    y = a.vector(y)
    chain = _chain(a, y, x, 2 * (n_max + m_max) + 1)
    hyp = [s.contains(a.bracket(x, chain[2 * m + 1])) for m in range(n_max + m_max + 1)]
    out = {"hypothesis_residuals": [r for _, r in hyp],
           "hypothesis_failures": [{"m": m, "residual": r}
                                   for m, (ok, r) in enumerate(hyp) if not ok]}
    if out["hypothesis_failures"]:
        return dict(out, status="hypothesis_violated", conclusion_residuals={},
                    aux_residuals={})
    keys = ["%d,%d" % nm for nm in np.ndindex(n_max + 1, m_max + 1)]
    con = [s.contains(a.bracket(chain[2 * n], chain[2 * m + 1]))
           for n, m in np.ndindex(n_max + 1, m_max + 1)]
    aux = [s.contains(a.bracket(y, a.bracket(chain[2 * n], chain[2 * m])))
           for n, m in np.ndindex(n_max + 1, m_max + 1)]
    assert all(ok for ok, _ in con + aux)          # the lemma is a theorem
    return dict(out, status="passed",
                conclusion_residuals=dict(zip(keys, (r for _, r in con))),
                aux_residuals=dict(zip(keys, (r for _, r in aux))))


def _random_x(a, gen, magnitude):
    """A nonzero X in p: a random integer or rational combination of the p
    basis, its coefficients up to magnitude."""
    while True:
        coeffs = [Fraction(int(gen.integers(-magnitude, magnitude + 1)),
                           int(gen.integers(1, 4))) for _ in a.p_basis]
        x = sum((a.vector(p).scale(c) for p, c in zip(a.p_basis, coeffs)), zero(a))
        if not x.is_zero():
            return x


def _check_against_the_oracle(name, scale, x_seed, x_magnitude, y_magnitude):
    """Condition and lemma on the scaled pair, with its own X (x_seed None)
    or a random X in p; returns the largest kernel bound seen."""
    s, x = _scaled(*PAIRS[name], scale)
    a = s.algebra
    gen = np.random.default_rng(x_seed or 0)
    if x_seed is not None:
        x = _random_x(a, gen, x_magnitude)
    n_max = len(a.p_basis)
    verdict = condition_holds(s, x, samples=2, seed=x_seed or 0)
    ys = sample_ys(s, rng.stream(x_seed or 0, rng.STREAM_CONDITION_Y), 2)
    holds, checked, witness = _reference_condition(s, x, ys, n_max)
    assert (verdict.holds, verdict.checked) == (holds, checked)
    if witness:
        i, n, term, res = witness
        assert verdict.witness == {"y": [str(c) for c in a.vector(ys[i]).coeffs], "n": n,
                                   "vector": [str(c) for c in term.coeffs],
                                   "residual": res}
        assert verdict.per_n_worst_residual == [res if k == n else 0.0
                                                for k in range(n_max + 1)]
    else:
        assert verdict.witness is None and not any(verdict.per_n_worst_residual)

    # lemma on Y with rational coordinates of up to y_magnitude
    coords = [[Fraction(int(gen.integers(-y_magnitude, y_magnitude + 1)),
                        int(gen.integers(1, 4))) for _ in s.basis] for _ in range(2)]
    ys = np.array([s.member_from_coordinates(c).coeffs for c in coords], dtype=object)
    checks = verify_lemma_conclusion(s, x, ys, n_max=1, m_max=1)
    for check, y in zip(checks, ys):
        got = check.as_dict()
        want = _reference_lemma(s, x, y, 1, 1)
        assert {k: got[k] for k in want} == want
    return max(chain_residues(a, ys, x.row(), 5, s.null_rows).bound,
               chain_residues(a, ys, x.row(), 2 * n_max + 1, s.null_rows).bound)


@pytest.mark.parametrize("scale, past", [
    (1, 0), (Fraction(1, 2), 0), (2 ** 12, 63), (Fraction(2 ** 13, 3), 63),
    (2 ** 30, 120), (Fraction(3, 2 ** 30), 0)])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_kernel_agrees_with_the_python_int_path(name, scale, past):
    bound = max(_check_against_the_oracle(name, scale, None, 0, 3),
                _check_against_the_oracle(name, scale, 7, 5, 3))
    assert bound >= 2 ** past


@given(name=st.sampled_from(sorted(PAIRS)),
       scale=st.one_of(st.integers(1, 2 ** 40), st.integers(-2 ** 20, -1),
                       st.fractions(0, 2 ** 20, max_denominator=2 ** 20).filter(bool)),
       x_seed=st.one_of(st.none(), st.integers(0, 2 ** 31)),
       x_magnitude=st.sampled_from([1, 7, 2 ** 20, 2 ** 50]),
       y_magnitude=st.sampled_from([1, 5, 2 ** 30]))
@settings(max_examples=30, deadline=None)
def test_kernel_agrees_with_the_python_int_path_on_random_tables(
        name, scale, x_seed, x_magnitude, y_magnitude):
    _check_against_the_oracle(name, scale, x_seed, x_magnitude, y_magnitude)


def test_kernel_agrees_where_a_squared_residual_passes_float64():
    """A control example of the random-table search: a lemma residual of
    about 2^512, whose square (about 2^1025) once raised NumericalBreakdown
    on both paths."""
    _check_against_the_oracle("control", 198_825_635_868, 0, 2 ** 50, 2 ** 30)


def _exact_residuals(a, ys, x, top, null):
    """max |[u, v] @ null.T| over a + b <= top and |[y, [u, v]] @ null.T| over
    a + b < top, with every chain entry, on Python ints."""
    worst = 0
    for y in ys:
        y = a.vector(y)
        chain = _chain(a, y, a.vector(x), top)
        vals = [abs(c) for v in chain for c in v.coeffs]
        for i in range(top + 1):
            for j in range(top + 1 - i):
                w = a.bracket(chain[i], chain[j])
                vals += [abs(c) for c in np.array(w.coeffs, dtype=object) @ null.T]
                if i + j < top:
                    w = a.bracket(y, w)
                    vals += [abs(c) for c in np.array(w.coeffs, dtype=object) @ null.T]
        worst = max(worst, max(vals))
    return worst


@given(name=st.sampled_from(sorted(PAIRS)), scale=st.integers(1, 2 ** 30),
       x_scale=st.integers(1, 2 ** 40), y_scale=st.integers(1, 2 ** 40),
       null_scale=st.integers(1, 2 ** 40), top=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_the_bound_majorises_every_residual(name, scale, x_scale, y_scale,
                                            null_scale, top, seed):
    """bound covers each term the condition and the lemma test; every factor
    of it (|x| twice, c^top, the table's and the null rows' sums) is driven
    large by one of the scales."""
    s, x = _scaled(*PAIRS[name], scale)
    a = s.algebra
    gen = np.random.default_rng(seed)
    x = _random_x(a, gen, 3).scale(x_scale)
    x = a.vector(np.array(x.coeffs, dtype=object) * math.lcm(*(
        getattr(c, "denominator", 1) for c in x.coeffs)))
    basis = [b.coeffs for b in s.basis]
    ys = np.array([[sum(int(gen.integers(-3, 4)) * y_scale * b[k] for b in basis)
                    for k in range(a.dim)] for _ in range(2)], dtype=object)
    null = s.null_rows * null_scale
    r = chain_residues(a, ys, x.row(), top, null)
    assert r.bound >= _exact_residuals(a, ys, x.row(), top, null)
    product = math.prod(r.primes)
    assert (not r.primes and r.bound < 2 ** 63) or product > 2 * r.bound


def test_the_primes_are_prime_and_keep_products_in_int64():
    primes = residue_primes(2 ** 2000)
    assert len(primes) > len(liealg._PRIMES)          # the table is extended
    assert list(primes) == sorted(set(primes), reverse=True)
    for p in primes:
        assert liealg.RESIDUE_PRIME_LIMIT > p > 2 ** 25
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
        assert 2 ** 11 * (p - 1) ** 2 < 2 ** 63
    assert residue_primes(2 ** 63 - 1) == ()
    for bound in (2 ** 63, 2 ** 98, 3 ** 100):
        primes = residue_primes(bound)
        # the fewest primes whose product exceeds 2 bound
        assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])


@pytest.mark.parametrize("k", [4, 5, 6])
def test_dropping_a_prime_misses_a_residual_divisible_by_the_rest(k):
    """The control's [X, ad_Y X] leaves s; with the null rows scaled by the
    product F of the first k - 1 primes its residual is F times a small
    vector, so it is 0 modulo each of them and only the k-th prime sees it."""
    s, x = PAIRS["control"]
    a = s.algebra
    f = math.prod(liealg._PRIMES[:k - 1])
    r = chain_residues(a, s.basis_rows, x.row(), 1, s.null_rows * f)
    assert r.primes == liealg._PRIMES[:k]
    term = r.mul(r.chain[:, :, 1:], r.ad(r.x))
    assert r.outside(term).all()
    assert not r.mul(term, r.null)[:-1].any()   # zero modulo the rest


@pytest.mark.parametrize("scale", [1, 2 ** 40])
def test_a_term_outside_s_with_the_hypothesis_held_raises_it_exactly(monkeypatch, scale):
    """The lemma is a theorem, so its raise is reached by blinding the
    hypothesis: on the control every row then passes it, and the first row
    with a conclusion (else auxiliary) term outside s must raise that term
    and its exact residual, on the plain path and modulo primes."""
    s, x = _scaled(*PAIRS["control"], scale)
    a = s.algebra
    terms = extension._lemma_terms

    def blind(*args):
        hypothesis, conclusion, auxiliary = terms(*args)
        return hypothesis * 0, conclusion, auxiliary

    monkeypatch.setattr(extension, "_lemma_terms", blind)
    ys = sample_ys(s, rng.stream(3, rng.STREAM_CONDITION_Y), 3)
    assert bool(chain_residues(a, ys, x.row(), 5, s.null_rows).primes) == (scale > 1)
    with pytest.raises(LemmaFalsified) as raised:
        verify_lemma_conclusion(s, x, ys, n_max=1, m_max=1)

    want = None
    for y in ys:
        chain = _chain(a, a.vector(y), x, 5)
        nm = list(np.ndindex(2, 2))
        con = [a.bracket(chain[2 * n], chain[2 * m + 1]) for n, m in nm]
        aux = [a.bracket(a.vector(y), a.bracket(chain[2 * n], chain[2 * m])) for n, m in nm]
        for kind, vs in (("conclusion", con), ("auxiliary", aux)):
            out = [k for k, v in enumerate(vs) if not s.contains(v)[0]]
            if out:
                n, m = nm[out[0]]
                want = {"n": n, "m": m, "y": [str(c) for c in a.vector(y).coeffs],
                        "residual": s.contains(vs[out[0]])[1]}
                if kind == "conclusion":
                    want["vector"] = [str(c) for c in vs[out[0]].coeffs]
                else:
                    want["kind"] = "auxiliary"
                break
        if want:
            break
    assert want is not None
    assert raised.value.detail == want


def _against_a_fresh_plan(s, x, ys, n_max, m_max):
    """The lemma on s, whose plan may have served other calls, equals the
    lemma on a copy of s with a plan of its own, and so do the operands its
    ChainResidues takes; returns their primes."""
    fresh = Subspace(s.algebra, s.basis)
    top = 2 * (n_max + m_max) + 1
    warm, cold = (ChainResidues(t.certify_plan.pair(t, x)[1], ys, top) for t in (s, fresh))
    assert warm.primes == cold.primes
    for name in ("vals", "null", "x", "form"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name))
    assert ([c.as_dict() for c in verify_lemma_conclusion(s, x, ys, n_max, m_max)]
            == [c.as_dict() for c in verify_lemma_conclusion(fresh, x, ys, n_max, m_max)])
    return warm.primes


def test_a_plan_equals_a_fresh_one_as_its_primes_grow_and_shrink():
    """One X on one s, the lemma's reach n_max + m_max going 4, 9, 16, 9, 4
    (top 9, 19, 33): 0 primes, then 3, then 5, then back to 3 and 0.  A
    single prime never suffices, its product being below 2^64.  Every call
    on the plan, whose lifts were built for the primes of the call before,
    equals one on a plan built for it, and so does the condition on X
    scaled past int64 and back."""
    s, x = _scaled(*PAIRS["su21-real-form"], 1)       # a subspace of its own
    ys = sample_ys(s, rng.stream(0, rng.STREAM_LEMMA), 2)
    counts = [len(_against_a_fresh_plan(s, x, ys, reach - reach // 2, reach // 2))
              for reach in (4, 9, 16, 9, 4)]
    assert counts == [0, 3, 5, 3, 0]
    for scale in (1, 2 ** 16, 2 ** 40, 2 ** 16, 1):
        big = x.scale(scale)
        want = condition_holds(Subspace(s.algebra, s.basis), big, samples=2, seed=0)
        assert condition_holds(s, big, samples=2, seed=0).as_dict() == want.as_dict()


def test_the_widest_lemma_reads_past_the_precomputed_primes():
    """su31 complex-hyperplane at --samples 4 --n-max 31 --m-max 31 needs 29
    primes, past the 16 of liealg._PRIMES; on a plan warmed at a shorter
    prefix it equals the lemma on a plan of its own, and so does the shorter
    prefix afterwards."""
    entry = build_pair("su31", "complex-hyperplane")
    s, x = Subspace(entry.algebra, entry.s.basis), entry.x_default
    ys = sample_ys(s, rng.stream(0, rng.STREAM_LEMMA), 4)
    short = _against_a_fresh_plan(s, x, ys, 4, 4)
    assert len(_against_a_fresh_plan(s, x, ys, 31, 31)) == 29 > len(liealg._PRIMES)
    assert _against_a_fresh_plan(s, x, ys, 4, 4) == short
