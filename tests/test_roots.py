"""Restricted root decompositions against hand-derived oracles.

Pinned structures (positive roots as multisets of p-multiplicities):
  sl(2,R): one root, p-dim 1, m = 0
  su(2,1): {lambda: 2, 2 lambda: 1}, m = 1   (rank one, CH^2)
  su(3,1): {lambda: 4, 2 lambda: 1}, m = 4   (rank one, CH^3)
  so(3,1): one root, p-dim 2, m = 1          (rank one, RH^3)
  sl(3,R): A_2 system, three positive roots each p-dim 1, m = 0
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import basis_vector, rebased, scaled_at, upper_ones
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector import rng, roots
from transvector.algfile import parse_algebra_file, serialize_algebra
from transvector.catalog import SPACE_IDS, build_space
from transvector.cli import run
from transvector.data import algebra_path
from transvector.errors import ConfigError
from transvector.exactla import div, frac, nullspace, rank
from transvector.extension import sample_ys
from transvector.liealg import MODE_EXACT
from transvector.roots import (_eigen_candidates, _lex_positive,
                               build_root_space_examples, maximal_abelian,
                               restricted_root_decomposition, root_label,
                               verify_commutation_rules)
from transvector.subspaces import Subspace


def _decomp(a):
    asub = maximal_abelian(a)
    return asub, restricted_root_decomposition(a, asub, seed=0)


def _spans_rows(space, rows) -> bool:
    """Whether the Subspace space was built on exactly the rows of rows."""
    return space.basis_rows.tolist() == rows.tolist()


def _p_mults(rd):
    return sorted(len(rd.p_spaces[lam]) for lam in rd.positive)


def test_sl2r_root_datum(sl2r):
    asub, rd = _decomp(sl2r)
    assert asub.dim == 1
    assert rd.mode == MODE_EXACT
    assert len(rd.positive) == 1
    lam = rd.positive[0]
    assert len(rd.p_spaces[lam]) == 1
    assert len(rd.k_spaces[lam]) == 1
    assert len(rd.m) == 0
    # k_lambda = span(E - F), p_lambda = span(E + F)
    member, res = Subspace(sl2r, rd.p_spaces[lam]).contains(
        basis_vector(sl2r, 1) + basis_vector(sl2r, 2))
    assert member and res == 0
    member, res = Subspace(sl2r, rd.k_spaces[lam]).contains(
        basis_vector(sl2r, 1) - basis_vector(sl2r, 2))
    assert member and res == 0


@pytest.mark.parametrize("space_id,rank,mults,m_dim", [
    ("su21", 1, [1, 2], 1),
    ("su31", 1, [1, 4], 4),
    ("so31", 1, [2], 1),
    ("sl3r", 2, [1, 1, 1], 0),
])
def test_catalog_root_systems(space_id, rank, mults, m_dim):
    a = build_space(space_id)
    asub, rd = _decomp(a)
    assert asub.dim == rank
    assert rd.mode == MODE_EXACT
    assert _p_mults(rd) == mults
    assert len(rd.m) == m_dim
    # k- and p-multiplicities agree root by root
    for lam in rd.positive:
        assert len(rd.k_spaces[lam]) == len(rd.p_spaces[lam])
    # dimension bookkeeping: g = m + a + sum over +-lambda of (k + p)
    total = len(rd.m) + rd.a.dim + 2 * sum(
        len(rd.p_spaces[lam]) for lam in rd.positive)
    assert total == a.dim


GOLDEN = Path(__file__).parent / "golden"


def _roots_sources():
    """The catalog spaces, the bundled sl2r.alg and every golden .alg file
    that roots accepts."""
    sources = ["su21", "su31", "so31", "sl2r", "sl3r", algebra_path("sl2r")]
    for path in sorted(GOLDEN.glob("*.alg")):
        try:
            _decomp(parse_algebra_file(str(path)))
        except ConfigError:
            continue
        sources.append(str(path))
    return sources


@pytest.mark.parametrize("source", _roots_sources(), ids=os.path.basename)
def test_roots_pair_up_and_the_root_spaces_fill_k_and_p(source):
    """What _decompose_with_h proves from Theta instead of testing it: with
    lambda, -lambda is a root, and g_lambda and g_-lambda have k- and
    p-parts of the same dimensions (each g_mu found here as the joint
    kernel of the ad_b - mu(b) over the a-basis); and dim m + sum dim
    k_lambda = dim k, dim a + sum dim p_lambda = dim p."""
    a = parse_algebra_file(source) if source.endswith(".alg") else build_space(source)
    _, rd = _decomp(a)
    ad = a.ad_stack(rd.a.basis_rows).transpose(0, 2, 1)       # ad_b on columns
    eye = np.eye(a.dim, dtype=object)

    def k_p_dims(mu):
        space = nullspace(np.concatenate([m - c * eye for m, c in zip(ad, mu)]))
        theta = space @ a.theta_exact.T
        return rank((space + theta).tolist()), rank((space - theta).tolist())

    dims = {mu: k_p_dims(mu) for mu in rd.roots}
    for mu in rd.roots:
        neg = tuple(-c for c in mu)
        assert neg in dims and dims[neg] == dims[mu]
    for lam in rd.positive:
        assert (len(rd.k_spaces[lam]), len(rd.p_spaces[lam])) == dims[lam]
    assert len(rd.m) + sum(len(rd.k_spaces[lam]) for lam in rd.positive) == len(a.k_basis)
    assert rd.a.dim + sum(len(rd.p_spaces[lam]) for lam in rd.positive) == len(a.p_basis)


def test_su21_double_root_is_twice_the_simple_root():
    a = build_space("su21")
    _, rd = _decomp(a)
    lams = sorted(rd.positive, key=lambda f: [abs(c) for c in f])
    assert len(lams) == 2
    assert tuple(2 * c for c in lams[0]) == lams[1]


def test_commutation_rules_have_exact_zero_residuals():
    for space_id in ("su21", "sl3r"):
        a = build_space(space_id)
        _, rd = _decomp(a)
        rules = verify_commutation_rules(rd)
        assert rules["passed"], rules
        for rule in rules["rules"].values():
            assert rule["worst_residual"] == 0.0


def test_root_space_example_bundles_pass():
    a = build_space("su21")
    _, rd = _decomp(a)
    xs = [rd.a.member_from_coordinates(c) for c in ((Fraction(3, 2),), (-2,))]
    for lam in rd.positive:
        bundles = build_root_space_examples(rd, lam, xs, samples=4, seed=2)
        assert [bundle.x for bundle in bundles] == xs
        for bundle in bundles:
            assert bundle.passed
            assert bundle.verdict.holds


def test_root_space_example_checks_every_chain_power(monkeypatch):
    """Per Y draw, ad_Y^k X goes to k_lambda for odd k = 1..2n+1 and to
    a + p_{2 lambda} for even k = 2..2n+2, with n = dim p, once a term
    with n <= |Sigma+| is outside (here the first odd one, by a patch)."""
    a = build_space("su21")
    _, rd = _decomp(a)
    lam = rd.positive[0]
    x = rd.a.member_from_coordinates((Fraction(3, 2),))
    n_max = len(a.p_basis)
    seen = []
    membership = Subspace.membership

    def record(self, vs):
        if vs.shape[:2] == (2, n_max + 1):       # the chain stacks of 2 draws
            seen.append((self, vs))
        outside, res = membership(self, vs)
        if vs.shape[:2] == (2, len(rd.positive) + 1) and _spans_rows(self, rd.k_spaces[lam]):
            outside = outside.copy()
            outside[0, 0] = True
        return outside, res

    monkeypatch.setattr(Subspace, "membership", record)
    build_root_space_examples(rd, lam, [x], samples=2, seed=5)

    ys = sample_ys(Subspace(a, rd.p_spaces[lam]), rng.stream(5, rng.STREAM_LEMMA), 2)
    want_odd, want_even = [], []
    for row in ys:
        y, w = a.vector(row), x
        for k in range(1, 2 * n_max + 3):
            w = a.bracket(y, w)
            (want_odd if k % 2 else want_even).append(w)
    (odd_target, odd), (even_target, even) = seen
    assert _spans_rows(odd_target, rd.k_spaces[lam])
    assert even_target.dim == rd.a.dim + len(rd.p_spaces.get(tuple(2 * c for c in lam), []))
    assert len(want_even) == 2 * (n_max + 1)
    assert [a.vector(v) for v in odd.reshape(-1, a.dim)] == want_odd
    assert [a.vector(v) for v in even.reshape(-1, a.dim)] == want_even


def test_root_space_example_decides_the_chains_up_to_the_root_count(monkeypatch):
    """With every term up to n = |Sigma+| = N inside its target, the chains
    are evaluated to ad_Y^(2N+2) X alone, and the bundle is the one of the
    full chains: both in their targets, worst residuals 0."""
    a = build_space("su21")
    _, rd = _decomp(a)
    lam = rd.positive[0]
    x = rd.a.member_from_coordinates((Fraction(3, 2),))
    n, n_max = len(rd.positive), len(a.p_basis)
    assert n < n_max
    shapes = []
    membership = Subspace.membership

    def record(self, vs):
        if len(vs) == 2:                         # a stack of chains per draw
            shapes.append(vs.shape[:2])
        return membership(self, vs)

    monkeypatch.setattr(Subspace, "membership", record)
    [bundle] = build_root_space_examples(rd, lam, [x], samples=2, seed=5)
    assert shapes == [(2, n + 1)] * 2
    assert bundle.odd_chain_in_k_lambda and bundle.even_chain_in_a_plus_p2
    assert bundle.odd_chain_worst == bundle.even_chain_worst == 0.0


def test_example_rejects_x_outside_a():
    a = build_space("su21")
    _, rd = _decomp(a)
    outside = next(v for v in (a.vector(c) for c in a.p_basis)
                   if not rd.a.contains(v)[0])
    with pytest.raises(ValueError, match="X must lie in a"):
        build_root_space_examples(rd, rd.positive[0], [rd.a.basis[0], outside], samples=2)


def test_non_maximal_abelian_subspace_is_rejected(sl3r):
    # span(S12) is abelian but not maximal (rank of sl(3,R) is 2)
    small = Subspace(sl3r, [sl3r.from_labels({"S12": 1})])
    with pytest.raises(ValueError):
        restricted_root_decomposition(sl3r, small, seed=0)


def test_maximal_abelian_is_really_abelian_and_in_p():
    for space_id in ("su21", "so31", "sl3r"):
        a = build_space(space_id)
        asub = maximal_abelian(a)
        assert asub.in_p()
        for u in asub.basis:
            for v in asub.basis:
                assert a.bracket(u, v).is_zero()


def _space_basis_for(rd, targets, zero_target, nu):
    """The basis rows of the space of nu: zero_target at nu = 0, else the
    target rows of +-nu, or none when +-nu is not a root."""
    if all(c == 0 for c in nu):
        return zero_target
    key = nu if _lex_positive(nu) else tuple(-c for c in nu)
    return targets.get(key, np.zeros((0, rd.algebra.dim), dtype=object))


def _rules_without_memo(rd):
    """verify_commutation_rules with a fresh target Subspace for every rule
    and pair: the oracle for its coordinate decision over the blocks."""
    report = {"mode": rd.mode, "rules": {}, "passed": True}
    rules = (("k.p->p", rd.k_spaces, rd.p_spaces, rd.p_spaces, rd.a.basis_rows),
             ("k.k->k", rd.k_spaces, rd.k_spaces, rd.k_spaces, rd.m),
             ("p.p->k", rd.p_spaces, rd.p_spaces, rd.k_spaces, rd.m))
    for name, left, right, targets, zero_target in rules:
        worst, witness, holds = 0.0, None, True
        for lam in rd.positive:
            for mu in rd.positive:
                basis = []
                for nu in (tuple(x + y for x, y in zip(lam, mu)),
                           tuple(x - y for x, y in zip(lam, mu))):
                    basis.extend(_space_basis_for(rd, targets, zero_target, nu))
                target = Subspace(rd.algebra, basis)
                brackets = right[mu] @ rd.algebra.ad_stack(left[lam])
                outside, res = target.membership(brackets)
                worst = max(worst, float(res.max(initial=0.0)))
                if outside.any() and witness is None:
                    holds = False
                    witness = {"rule": name, "lambda": root_label(lam),
                               "mu": root_label(mu), "residual": float(res[outside][0])}
        report["rules"][name] = {"holds": holds, "worst_residual": worst,
                                 "witness": witness}
        report["passed"] = report["passed"] and holds
    return report


def _broken(rd):
    """k and p swapped and m dropped: W no longer spans g (when m != 0)
    and the rules fail, so witnesses appear."""
    return dataclasses.replace(rd, k_spaces=rd.p_spaces, p_spaces=rd.k_spaces,
                               m=rd.m[:0])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("space_id", ["sl2r", "so31", "su21", "sl3r", "su31"])
def test_commutation_rules_match_the_per_pair_oracle(space_id, seed):
    """The coordinate decision over the blocks of the datum reports what a
    fresh target Subspace per rule and pair reports, on the datum and on
    the broken one, whose witnesses and residuals come from the targets
    built for its failing pairs."""
    a = build_space(space_id)
    rd = restricted_root_decomposition(a, maximal_abelian(a), seed=seed)
    report = verify_commutation_rules(rd)
    assert report["passed"] and report == _rules_without_memo(rd)
    broken = _broken(rd)
    report = verify_commutation_rules(broken)
    assert report == _rules_without_memo(broken)
    # on sl2r m = 0 and the swap maps each rule into itself
    assert report["passed"] == (space_id == "sl2r")
    assert all((r["witness"] is None) == r["holds"] for r in report["rules"].values())


def test_commutation_rules_catch_mislabelled_blocks():
    """sl3r with the p-spaces of two roots swapped: W still spans g and is
    a basis, but brackets land in the blocks of the wrong roots."""
    a = build_space("sl3r")
    _, rd = _decomp(a)
    lam, mu = rd.positive[:2]
    swapped = dataclasses.replace(rd, p_spaces={**rd.p_spaces, lam: rd.p_spaces[mu],
                                                mu: rd.p_spaces[lam]})
    report = verify_commutation_rules(swapped)
    assert report == _rules_without_memo(swapped)
    assert not report["passed"]


def _with_k_rows(rd, rows_of):
    """The k_spaces of rd with the rows of its first root of multiplicity
    above 1 replaced by rows_of(those rows)."""
    lam = next(lam for lam in rd.positive if len(rd.k_spaces[lam]) > 1)
    return {**rd.k_spaces, lam: rows_of(rd.k_spaces[lam])}


@pytest.mark.parametrize("blocks", [
    # a listed twice
    lambda rd: {"m": rd.a.basis_rows},
    # every k_lambda equal to p_lambda
    lambda rd: {"k_spaces": rd.p_spaces},
    # a k_lambda whose first row is listed twice: one row too many for g
    lambda rd: {"k_spaces": _with_k_rows(rd, lambda k: np.concatenate([k, k[:1]]))},
    # a k_lambda whose last row repeats its first: as many rows as g has
    # dimensions, but dependent
    lambda rd: {"k_spaces": _with_k_rows(rd, lambda k: np.concatenate([k[:-1], k[:1]]))},
], ids=["blocks%d" % i for i in range(4)])
def test_commutation_rules_refuse_dependent_blocks(blocks):
    """Blocks that are not independent are no decomposition of g, and
    _decompose_with_h never yields them: ValueError, not a report.  The
    datum holds its blocks as plain rows, so no Subspace constructor
    refuses a dependent k_lambda first: the check over W is the one proof."""
    a = build_space("su21")
    _, rd = _decomp(a)
    bad = dataclasses.replace(rd, **blocks(rd))
    with pytest.raises(ValueError, match="not independent"):
        verify_commutation_rules(bad)


@pytest.mark.parametrize("space_id,calls", [("sl3r", 6), ("su21", 4)])
def test_commutation_rules_take_ad_of_each_root_space_once(count_calls, space_id,
                                                           calls):
    """One ad stack per (k or p, lambda): 27 calls on sl3r and 12 on su21
    when each (lambda, mu, rule) took its own."""
    a = build_space(space_id)
    _, rd = _decomp(a)
    taken = count_calls(type(a), "ad_stack", lambda self, ys: len(ys))
    report = verify_commutation_rules(rd)
    assert len(taken) == calls == 2 * len(rd.positive)
    assert report == _rules_without_memo(rd)


@pytest.mark.parametrize("space_id", ["sl2r", "so31", "su21", "sl3r", "su31"])
def test_plain_roots_builds_the_maximal_abelian_subspace_alone(tmp_path, count_calls,
                                                              space_id):
    """A plain roots request reads membership only on a: m, k_lambda and
    p_lambda stay rows, so the one Subspace it builds is a (4 to 8 when
    each block was a Subspace)."""
    build_space(space_id)
    built = count_calls(Subspace, "__init__", lambda self, algebra, basis: basis)
    assert run(["roots", "--space", space_id, "--out", str(tmp_path / "r.json")]) == 0
    a = build_space(space_id)
    assert len(built) == 1
    assert _spans_rows(Subspace(a, built[0]), maximal_abelian(a).basis_rows)


@pytest.mark.parametrize("space_id", ["so31", "su21", "sl3r"])
def test_roots_examples_build_per_root_what_does_not_depend_on_x(tmp_path, count_calls,
                                                                  space_id):
    """roots --examples draws Y once per positive root and builds p_lambda,
    k_lambda and a + p_{2 lambda} once per root, not once for each of the
    five X of its grid; with a, that is every Subspace the request builds."""
    a = build_space(space_id)
    _, rd = _decomp(a)
    built = count_calls(Subspace, "__init__",
                        lambda self, algebra, basis: np.asarray(basis).tolist())
    draws = count_calls(roots, "sample_ys", lambda s, gen, samples: s.basis_rows.tolist())
    assert run(["roots", "--space", space_id, "--examples", "--samples", "1",
                "--out", str(tmp_path / "r.json")]) == 0
    want = [rd.a.basis_rows.tolist()]
    for lam in rd.positive:
        two_lam = tuple(2 * c for c in lam)
        even = rd.a.basis_rows.tolist() + rd.p_spaces.get(two_lam, rd.m[:0]).tolist()
        want += [rd.p_spaces[lam].tolist(), rd.k_spaces[lam].tolist(), even]
    assert built == want
    assert draws == [rd.p_spaces[lam].tolist() for lam in rd.positive]


# -- the roots contract on rebased catalog algebras --------------------------

REFUSAL = "restricted roots are not rational on the maximal abelian subspace"


def _roots_on(a, directory):
    """(exit status, report, stderr) of roots --algebra-file on a written
    through serialize_algebra into directory."""
    path = os.path.join(str(directory), "rebased.alg")
    serialize_algebra(a, path)
    out, err = os.path.join(str(directory), "report.json"), io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run(["roots", "--algebra-file", path, "--out", out])
    with open(out) as fh:
        return status, json.load(fh), err.getvalue()


@st.composite
def _rebased_catalog(draw, scale=True):
    """A catalog space in a unimodular upper triangular integer basis,
    sometimes (never when scale is false) with one basis vector scaled by
    1/q."""
    a = build_space(draw(st.sampled_from(["sl2r", "so21", "sl3r", "su21", "so31", "su31"])))
    d = a.dim
    upper = draw(st.lists(st.integers(-1, 1), min_size=d * (d - 1) // 2,
                          max_size=d * (d - 1) // 2))
    m = np.eye(d, dtype=int).astype(object)
    m[np.triu_indices(d, 1)] = upper
    if scale and draw(st.booleans()):
        m[draw(st.integers(0, d - 1))] *= Fraction(1, draw(st.integers(2, 200)))
    return rebased(a, m)


@settings(max_examples=30, deadline=None)
@given(a=_rebased_catalog())
def test_roots_on_a_rebased_algebra_is_exact_or_refused(tmp_path_factory, a):
    """Exit 0 with an exact datum whose rules pass, or exit 2 with the
    refusal; never a failed rule, a traceback or anything on stderr."""
    status, report, err = _roots_on(a, tmp_path_factory.mktemp("rebased"))
    assert err == ""
    assert status in (0, 2), report
    if status == 0:
        assert report["results"]["datum"]["mode"] == "exact"
        assert report["results"]["rules"]["passed"]
    else:
        assert REFUSAL in report["results"]["error"]


@pytest.mark.parametrize("space_id", ["so31", "sl3r"])
def test_irrational_roots_exit_2_with_the_refusal(tmp_path, space_id):
    """so31 in this basis ended in a traceback from the float64 fallback,
    and sl3r in failed commutation rules on rationalized float roots."""
    a = build_space(space_id)
    status, report, err = _roots_on(rebased(a, upper_ones(a.dim)), tmp_path)
    assert (status, err) == (2, "")
    assert report["results"]["kind"] == "config"
    assert REFUSAL in report["results"]["error"]


def test_roots_with_denominator_97_decompose_exactly(tmp_path):
    """Scaling P1 by 1/97 puts 97 in the denominators of ad_H, past the 64
    of the rationalized float eigenvalues: only the k/D candidates find
    the roots."""
    status, report, err = _roots_on(rebased(build_space("su21"), scaled_at(8, 4, 97)),
                                    tmp_path)
    assert (status, err) == (0, "")
    assert report["results"]["datum"]["mode"] == "exact"
    assert report["results"]["datum"]["positive"] == ["(2/97)", "(1/97)"]
    assert report["results"]["rules"]["passed"]


# -- the eigenvalue candidates ------------------------------------------------

def _union_candidates(ad):
    """Every candidate of both rationalizations, at any D: each float
    eigenvalue e rationalized with denominator at most 64, and k/D for k
    the integer nearest D e."""
    den = math.lcm(*(c.denominator for c in ad.flat))
    eigs = [Fraction(float(e.real)) for e in np.linalg.eigvals(ad.astype(float))]
    return sorted({frac(e.limit_denominator(64)) for e in eigs}
                  | {div(round(den * e), den) for e in eigs})


def _kernel_total(a, ad, candidates):
    return sum(len(nullspace(ad - mu * np.eye(a.dim, dtype=object))) for mu in candidates)


def _first_h(a, seed=0):
    """The first H that restricted_root_decomposition draws."""
    asub = maximal_abelian(a)
    gen = rng.stream(seed, rng.STREAM_ROOTS_GENERIC)
    return asub.member_from_coordinates(rng.odd_int_vector(gen, asub.dim))


def _assert_candidates(a, ad):
    """The candidates of ad and its D: at D = 1 the integer members of the
    union, else the union, with kernels that account for as much of g as
    the union's."""
    den = math.lcm(*(c.denominator for c in ad.flat))
    union = _union_candidates(ad)
    candidates = _eigen_candidates(ad)
    assert candidates == ([mu for mu in union if type(mu) is int] if den == 1 else union)
    assert _kernel_total(a, ad, candidates) == _kernel_total(a, ad, union)
    return candidates, den


@pytest.mark.parametrize("space_id", SPACE_IDS)
def test_integer_ad_h_candidates_are_rounded_eigenvalues(space_id):
    """An integer ad_H has a monic integer characteristic polynomial: the
    rounded float eigenvalues are all the candidates needed, and their
    kernels fill g for the H that was drawn."""
    a = build_space(space_id)
    _, rd = _decomp(a)
    ad = a.ad_matrix(rd.generic_h)
    candidates, den = _assert_candidates(a, ad)
    assert den == 1
    assert _kernel_total(a, ad, candidates) == a.dim


@settings(max_examples=20, deadline=None)
@given(a=_rebased_catalog(scale=False))
def test_rebased_integer_files_lose_no_candidate(a):
    """The integer files of the rebased survey, at the first H drawn (whose
    ad_H has D > 1 when the a-basis found has denominators): the kernels
    of the union, whether the roots are rational on a or not."""
    _assert_candidates(a, a.ad_matrix(_first_h(a)))


@pytest.mark.parametrize("name", ["scaled-su21.alg", "su21half.alg"])
def test_rational_ad_h_keeps_both_rationalizations(name):
    """D > 1: the candidates stay the union of both rationalizations, so
    these files take the Fraction path and decompose as before."""
    a = parse_algebra_file(str(GOLDEN / name))
    _, rd = _decomp(a)
    ad = a.ad_matrix(rd.generic_h)
    candidates, den = _assert_candidates(a, ad)
    assert den > 1
    assert _kernel_total(a, ad, candidates) == a.dim


def test_rational_jacobi_is_refused_before_any_eigenvalue():
    """rational-jacobi.alg fails validation, so roots never draws H on it
    and its golden cannot depend on the candidates."""
    with pytest.raises(ConfigError, match="fails validation"):
        parse_algebra_file(str(GOLDEN / "rational-jacobi.alg"))


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_roots_on_sl6r_finds_a_generic_element(tmp_path, seed):
    """In rank 5 the first GENERIC_RETRIES draws, with coefficients in [-9,
    9], rarely separate the 30 roots of sl(6,R): `roots --space sl6r` ended
    in a ValueError traceback on each of these seeds.  The later draws
    widen the range."""
    out = tmp_path / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run(["roots", "--space", "sl6r", "--seed", str(seed), "--out", str(out)])
    report = json.loads(out.read_text())
    assert (status, err.getvalue()) == (0, "")
    assert len(report["results"]["datum"]["positive"]) == 15
    assert report["results"]["rules"]["passed"]


def test_no_generic_element_exits_2(tmp_path, monkeypatch, sl3r):
    """A subspace that is not maximal abelian has no generic element: after
    every draw the CLI exits 2 naming it, where it once ended in a
    ValueError traceback."""
    small = Subspace(sl3r, [sl3r.from_labels({"S12": 1})])
    monkeypatch.setattr("transvector.cli.maximal_abelian", lambda a: small)
    out = tmp_path / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run(["roots", "--space", "sl3r", "--out", str(out)])
    results = json.loads(out.read_text())["results"]
    assert (status, err.getvalue(), results["kind"]) == (2, "", "config")
    assert results["error"].startswith(
        "algebra sl3r: no generic element of a found in %d draws; the subspace "
        "is not maximal abelian" % (2 * roots.GENERIC_RETRIES))


def test_the_first_draws_of_h_keep_their_range():
    """sl5r at seed 0 finds its generic H on the last draw with coefficients
    in [-9, 9]; the wider draws come only after it, so every datum found
    within those draws is unchanged."""
    a = build_space("sl5r")
    asub, rd = _decomp(a)
    gen = rng.stream(0, rng.STREAM_ROOTS_GENERIC)
    draws = [rng.odd_int_vector(gen, asub.dim) for _ in range(roots.GENERIC_RETRIES)]
    assert all(max(map(abs, d)) <= 9 for d in draws)
    assert rd.generic_h.coeffs == asub.member_from_coordinates(draws[-1]).coeffs
