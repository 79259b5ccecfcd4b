"""Restricted root decompositions relative to a maximal abelian subspace of p.

Strategy: pick a generic H in a (random small odd integer coefficients,
seeded), decompose g into exact eigenspaces of ad_H, read each root off as
the scalar action of the a-basis, and certify everything after the fact in
exact arithmetic: kernels are exact, scalar action is verified on every
eigenspace basis vector, and the zero eigenspace must split as m + a (its
p-part exceeding a proves the input was not maximal abelian).

Eigenvalues are located by float64 eigensolve, rationalized, then re-verified
exactly; if the exact certification cannot account for the full dimension
(irrational roots), the decomposition falls back to float64 clustering at
1e-8 and the datum is tagged float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .exactla import SpanSolver, div, frac
from .extension import ConditionVerdict, condition_holds, sample_ys
from .liealg import (MODE_EXACT, MODE_FLOAT, AlgebraVector, StructuredLieAlgebra,
                     coeff_strings, kernel_rows)
from .subspaces import Subspace

GENERIC_RETRIES = 8
FLOAT_CLUSTER_TOL = 1e-8


def maximal_abelian(a: StructuredLieAlgebra) -> Subspace:
    """Greedy maximal abelian subspace of p, exact.

    Each round solves the full commutation system against the current basis,
    so the loop ends exactly when the centralizer of the span inside p equals
    the span; that is the maximality certificate.  The first round's
    centralizer is all of p, so the greedy pick starts at the first p-basis
    vector.
    """
    p = np.array(a.p_basis, dtype=object).reshape(-1, a.dim)
    if not len(p):
        raise ValueError("algebra has no p part")
    chosen = p[:1]
    while True:
        # the centralizer of the span inside p: the coordinates c over the
        # p-basis with [b, c @ p] = 0, one row per chosen b and entry
        brackets = p @ a.ad_stack(chosen)                   # [b, p_j] at (b, j)
        centralizer = kernel_rows(brackets.transpose(0, 2, 1).reshape(-1, len(p))) @ p
        span = SpanSolver(chosen.tolist())
        picked = next((v for v in centralizer if not span.contains(v)), None)
        if picked is None:
            return Subspace(a, chosen, MODE_EXACT)
        chosen = np.vstack([chosen, picked])


@dataclass
class RootDatum:
    """Restricted roots of (g, a) with certified root spaces."""

    algebra: StructuredLieAlgebra
    a: Subspace
    m: Subspace
    roots: tuple                 # all functionals, as tuples over the a-basis
    positive: tuple              # the lexicographically positive half
    k_spaces: dict               # functional -> Subspace (k_lambda)
    p_spaces: dict               # functional -> Subspace (p_lambda)
    multiplicities: dict         # functional -> dim g_lambda
    mode: str
    generic_h: AlgebraVector
    seed: int

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "a_dim": self.a.dim,
            "m_dim": self.m.dim,
            "roots": [root_label(r) for r in self.roots],
            "positive": [root_label(r) for r in self.positive],
            "multiplicities": {root_label(r): self.multiplicities[r]
                               for r in self.positive},
            "p_dims": {root_label(r): self.p_spaces[r].dim for r in self.positive},
            "k_dims": {root_label(r): self.k_spaces[r].dim for r in self.positive},
            "seed": self.seed,
            "generic_h": coeff_strings(self.generic_h),
        }


def root_label(functional) -> str:
    return "(" + ",".join(str(c) for c in functional) + ")"


def _eigen_candidates(ad_float: np.ndarray):
    """Rational candidates p/q, q <= 64, for the (real) spectrum of an exact
    matrix."""
    return sorted({frac(Fraction(float(e.real)).limit_denominator(64))
                   for e in np.linalg.eigvals(ad_float)})


def _scalar_action(a: StructuredLieAlgebra, asub: Subspace, space: np.ndarray):
    """Exact scalar eigenvalue of ad_b on the rows of `space` for each basis
    vector b of asub, or None.  Each [b, v] is compared with v at the first
    nonzero entry of v, by cross-multiplication."""
    w = space @ a.ad_stack(asub.basis_rows)               # [b, v] at (b, v)
    rows, pivots = np.arange(len(space)), (space != 0).argmax(axis=1)
    den, num = space[rows, pivots], w[:, rows, pivots]
    if not ((w * den[:, None] == num[..., None] * space).all()
            and (num * den[0] == num[:, :1] * den).all()):
        return None
    return tuple(div(n, den[0]) for n in num[:, 0])


def restricted_root_decomposition(a: StructuredLieAlgebra, asub: Subspace,
                                  seed: int = 0) -> RootDatum:
    """Simultaneous eigenspace decomposition for ad of the a-basis."""
    if not asub.in_p():
        raise ValueError("a must be contained in p")
    gen = rng.stream(seed, rng.STREAM_ROOTS_GENERIC)
    last_error = None
    for _ in range(GENERIC_RETRIES):
        coeffs = rng.odd_int_vector(gen, asub.dim)
        h = asub.member_from_coordinates(coeffs)
        try:
            return _decompose_with_h(a, asub, h, seed)
        except _NotGeneric as e:
            last_error = e
            continue
        except _NeedsFloat:
            return _decompose_float(a, asub, h, seed)
    raise ValueError(
        "no generic element found after %d attempts; the subspace is not "
        "maximal abelian (%s)" % (GENERIC_RETRIES, last_error))


class _NotGeneric(Exception):
    pass


class _NeedsFloat(Exception):
    pass


def _decompose_with_h(a, asub, h, seed) -> RootDatum:
    d = a.dim
    ad = a.ad_matrix(h)
    spaces = {}
    total = 0
    for mu in _eigen_candidates(ad.astype(float)):
        ker = kernel_rows(ad - mu * np.eye(d, dtype=object))
        if len(ker):
            spaces[mu] = ker
            total += len(ker)
    if total != d:
        # exact certification cannot account for the whole space
        raise _NeedsFloat()

    k_zero, p_zero = _split_zero_space(a, spaces.get(0, np.zeros((0, d), dtype=object)))
    if len(p_zero) != asub.dim:
        raise _NotGeneric("centralizer of H meets p in dimension %d > dim a = %d"
                          % (len(p_zero), asub.dim))
    for v in p_zero:
        if not asub.solver.contains(v):
            raise _NotGeneric("centralizer p-part escapes a")

    functionals = {}
    for mu, ker in spaces.items():
        if mu == 0:
            continue
        lam = _scalar_action(a, asub, ker)
        if lam is None:
            raise _NotGeneric("eigenvalue %s mixes distinct roots" % mu)
        # consistency: the functional must reproduce mu on H
        hcoords = asub.solver.coordinates(h.coeffs)
        if sum(c * l for c, l in zip(hcoords, lam)) != mu:
            raise _NotGeneric("scalar action inconsistent with eigenvalue")
        functionals[mu] = lam

    distinct = set(functionals.values())
    if len(distinct) != len(functionals):
        raise _NotGeneric("two eigenvalues carry one functional")

    by_func = {lam: spaces[mu] for mu, lam in functionals.items()}
    for lam in by_func:
        neg = tuple(-c for c in lam)
        if neg not in by_func:
            raise ValueError("root set is not symmetric: missing -%s" % (lam,))

    positive = sorted((lam for lam in by_func if _lex_positive(lam)), reverse=True)
    k_spaces, p_spaces, mult = {}, {}, {}
    for lam in positive:
        basis = by_func[lam]
        tv = basis @ a.theta_exact.T
        k_spaces[lam] = Subspace(a, basis + tv, MODE_EXACT)
        p_spaces[lam] = Subspace(a, basis - tv, MODE_EXACT)
        if k_spaces[lam].dim != p_spaces[lam].dim:
            raise ValueError("k/p multiplicity mismatch at %s" % (lam,))
        mult[lam] = len(basis)

    m_sub = Subspace(a, k_zero, MODE_EXACT)
    roots = tuple(sorted(by_func.keys(), reverse=True))
    datum = RootDatum(algebra=a, a=asub, m=m_sub, roots=roots,
                      positive=tuple(positive), k_spaces=k_spaces,
                      p_spaces=p_spaces, multiplicities=mult,
                      mode=MODE_EXACT, generic_h=h, seed=seed)
    _check_dimensions(datum)
    return datum


def _split_zero_space(a, zero_space: np.ndarray):
    """Exact bases of V_0 ∩ k and V_0 ∩ p (V_0 is theta-stable), as rows.

    A vector v = c @ z of V_0 (rows z) has theta v = sign * v exactly when
    its coordinates c solve (z theta^T - sign z)^T c = 0."""
    tz = zero_space @ a.theta_exact.T
    return tuple(kernel_rows((tz - sign * zero_space).T) @ zero_space for sign in (1, -1))


def _lex_positive(lam) -> bool:
    for c in lam:
        if c != 0:
            return c > 0
    return False


def _check_dimensions(rd: RootDatum):
    a = rd.algebra
    dim_k = len(a.k_basis)
    dim_p = len(a.p_basis)
    k_sum = rd.m.dim + sum(rd.k_spaces[lam].dim for lam in rd.positive)
    p_sum = rd.a.dim + sum(rd.p_spaces[lam].dim for lam in rd.positive)
    if k_sum != dim_k or p_sum != dim_p:
        raise ValueError("dimension bookkeeping failed: k %d vs %d, p %d vs %d"
                         % (k_sum, dim_k, p_sum, dim_p))


def _decompose_float(a, asub, h, seed) -> RootDatum:
    """Clustering fallback when exact certification fails; verdicts downgrade."""
    ad = a.ad_matrix(h).astype(float)
    eigs = np.linalg.eigvals(ad).real
    clusters: list[list[float]] = []
    for e in sorted(eigs):
        if clusters and abs(e - clusters[-1][-1]) <= FLOAT_CLUSTER_TOL:
            clusters[-1].append(e)
        else:
            clusters.append([e])
    h_f = h.astype(MODE_FLOAT)
    theta = a.theta_float
    k_spaces, p_spaces, mult = {}, {}, {}
    functionals = []
    m_basis = None
    a_float = Subspace(a, [b.astype(MODE_FLOAT) for b in asub.basis], MODE_FLOAT)
    ad_basis = [a.ad_matrix(b).astype(float) for b in asub.basis]
    for cl in clusters:
        mu = float(np.mean(cl))
        _, s, vt = np.linalg.svd(ad - mu * np.eye(a.dim))
        ker = vt[(s > 1e-9 * max(1.0, abs(mu))).sum():].T
        if ker.shape[1] == 0:
            continue
        if abs(mu) <= FLOAT_CLUSTER_TOL:
            # zero block: split into m and the a certificate
            kvecs = []
            for j in range(ker.shape[1]):
                v = ker[:, j]
                kpart = 0.5 * (v + theta @ v)
                if np.linalg.norm(kpart) > 1e-8:
                    kvecs.append(kpart)
            m_basis = kvecs
            continue
        lam = tuple(float(v.T @ (adb @ v)) / float(v.T @ v)
                    for adb in ad_basis
                    for v in [ker[:, 0]])
        if not _lex_positive_float(lam):
            continue
        kvecs, pvecs = [], []
        for j in range(ker.shape[1]):
            v = ker[:, j]
            kvecs.append(v + theta @ v)
            pvecs.append(v - theta @ v)
        lam_key = tuple(Fraction(x).limit_denominator(10 ** 6) for x in lam)
        functionals.append(lam_key)
        k_spaces[lam_key] = Subspace(
            a, [AlgebraVector(tuple(v), MODE_FLOAT) for v in _orthonormal(kvecs)],
            MODE_FLOAT)
        p_spaces[lam_key] = Subspace(
            a, [AlgebraVector(tuple(v), MODE_FLOAT) for v in _orthonormal(pvecs)],
            MODE_FLOAT)
        mult[lam_key] = 2 * ker.shape[1]  # g_lambda + g_-lambda halves
    m_sub = Subspace(a, [AlgebraVector(tuple(v), MODE_FLOAT) for v in (m_basis or [])],
                     MODE_FLOAT)
    positive = tuple(sorted(functionals, reverse=True))
    roots = positive + tuple(tuple(-c for c in lam) for lam in positive)
    return RootDatum(algebra=a, a=a_float, m=m_sub, roots=roots,
                     positive=positive, k_spaces=k_spaces, p_spaces=p_spaces,
                     multiplicities={k: v // 2 for k, v in mult.items()},
                     mode=MODE_FLOAT, generic_h=h_f, seed=seed)


def _orthonormal(vecs):
    if not vecs:
        return []
    m = np.stack(vecs, axis=1)
    q, r = np.linalg.qr(m)
    keep = np.abs(np.diag(r)) > 1e-9
    return [q[:, j] for j in range(q.shape[1]) if keep[j]]


def _lex_positive_float(lam) -> bool:
    for c in lam:
        if abs(c) > FLOAT_CLUSTER_TOL:
            return c > 0
    return False


def verify_commutation_rules(rd: RootDatum) -> dict:
    """All three bracket rules over Sigma+ x Sigma+, with p_0 = a, k_0 = m.

    Any failure here indicates a decomposition bug, so the report carries a
    witness; residuals are exactly zero in exact mode.  k.k->k and p.p->k
    share their targets, and (lambda, mu) and (mu, lambda) give the same
    one, so each distinct target basis is built into a Subspace once, and
    ad of each left space once per lambda.
    """
    report = {"mode": rd.mode, "rules": {}, "passed": True}
    spans = {}
    ad_k, ad_p = ({lam: rd.algebra.ad_stack(spaces[lam].basis_rows)
                   for lam in rd.positive} for spaces in (rd.k_spaces, rd.p_spaces))
    rules = (
        ("k.p->p", ad_k, rd.p_spaces, rd.p_spaces, rd.a),
        ("k.k->k", ad_k, rd.k_spaces, rd.k_spaces, rd.m),
        ("p.p->k", ad_p, rd.p_spaces, rd.k_spaces, rd.m),
    )
    for name, ad_left, right, targets, zero_target in rules:
        worst = 0.0
        witness = None
        holds = True
        for lam in rd.positive:
            for mu in rd.positive:
                target_basis = []
                for nu in (tuple(x + y for x, y in zip(lam, mu)),
                           tuple(x - y for x, y in zip(lam, mu))):
                    target_basis.extend(_space_basis_for(rd, targets, zero_target, nu))
                key = tuple(v.coeffs for v in target_basis)
                target = spans.get(key)
                if target is None:
                    target = spans[key] = Subspace(rd.algebra, target_basis, rd.mode)
                # [x, y] for x in the left space, y in the right one
                brackets = right[mu].basis_rows @ ad_left[lam]
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


def _space_basis_for(rd: RootDatum, targets, zero_target, nu):
    if all(c == 0 for c in nu):
        return list(zero_target.basis)
    key = nu if _lex_positive(nu) else tuple(-c for c in nu)
    sp = targets.get(key)
    return list(sp.basis) if sp is not None else []


@dataclass
class RootExampleBundle:
    """Certificates for the pair (s = p_lambda, X in a)."""

    lam: tuple
    x: AlgebraVector
    lts_holds: bool
    odd_chain_in_k_lambda: bool
    even_chain_in_a_plus_p2: bool
    odd_chain_worst: float
    even_chain_worst: float
    verdict: ConditionVerdict = None
    samples: int = 0
    seed: int = 0

    @property
    def passed(self) -> bool:
        return (self.lts_holds and self.odd_chain_in_k_lambda
                and self.even_chain_in_a_plus_p2 and self.verdict.holds)

    def as_dict(self) -> dict:
        return {
            "lambda": root_label(self.lam),
            "x": coeff_strings(self.x),
            "lts_holds": self.lts_holds,
            "odd_chain_in_k_lambda": self.odd_chain_in_k_lambda,
            "even_chain_in_a_plus_p2": self.even_chain_in_a_plus_p2,
            "odd_chain_worst": self.odd_chain_worst,
            "even_chain_worst": self.even_chain_worst,
            "condition": self.verdict.as_dict(),
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }


def build_root_space_example(rd: RootDatum, lam, x: AlgebraVector,
                             samples: int = 8, seed: int = 0) -> RootExampleBundle:
    """Certify the canonical example s = p_lambda with X in a: the triple
    system property, the odd chains ad_Y^{2n+1}X in k_lambda, the even chains
    ad_Y^{2n}X in a + p_{2 lambda}, and the extension condition itself."""
    lam = tuple(lam)
    if lam not in rd.p_spaces:
        raise ValueError("functional %s is not a positive root" % (lam,))
    if x.is_zero():
        raise ValueError("X must be nonzero")
    member, _ = rd.a.contains(x)
    if not member:
        raise ValueError("X must lie in a")

    a = rd.algebra
    s = rd.p_spaces[lam]
    lts_holds, _ = s.is_lie_triple_system()

    two_lam = tuple(2 * c for c in lam)
    even_target_basis = list(rd.a.basis)
    if two_lam in rd.p_spaces:
        even_target_basis += list(rd.p_spaces[two_lam].basis)
    even_target = Subspace(a, even_target_basis, rd.mode)
    odd_target = rd.k_spaces[lam]

    n_max = len(a.p_basis)
    ys = sample_ys(s, rng.stream(seed, rng.STREAM_LEMMA), samples)
    chain = a.ad_chain(ys, x.row(), 2 * n_max + 2)
    odd, even = chain[:, 1::2], chain[:, 2::2]
    odd_out, odd_res = odd_target.membership(odd)
    even_out, even_res = even_target.membership(even)
    odd_ok, even_ok = not odd_out.any(), not even_out.any()
    odd_worst = float(odd_res.max(initial=0.0))
    even_worst = float(even_res.max(initial=0.0))

    verdict = condition_holds(s, x, samples=samples, seed=seed)
    return RootExampleBundle(lam=lam, x=x, lts_holds=lts_holds,
                             odd_chain_in_k_lambda=odd_ok,
                             even_chain_in_a_plus_p2=even_ok,
                             odd_chain_worst=odd_worst,
                             even_chain_worst=even_worst,
                             verdict=verdict, samples=samples, seed=seed)
