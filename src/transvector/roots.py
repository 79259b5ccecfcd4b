"""Restricted root decompositions relative to a maximal abelian subspace of p.

Strategy: pick a generic H in a (random odd integer coefficients, seeded,
from a range that widens after GENERIC_RETRIES draws), decompose g into
exact eigenspaces of ad_H, read each root off as the scalar action of the
a-basis, and certify the datum after the fact in exact arithmetic.  Three
checks remain: the exact kernels must account for all of g, the p-part of
the zero eigenspace must have dimension dim a and lie in a (a larger one
proves the input was not maximal abelian), and the scalar action is
verified on every eigenspace basis vector.  What they imply, given that
Theta is an involutive automorphism (validate's theta_involution and
theta_automorphism), is proved in _decompose_with_h, not tested: each
eigenvalue is its functional at H, distinct eigenvalues carry distinct
functionals, the roots come in pairs +-lambda of equal multiplicity, k_lambda
and p_lambda both have dimension dim g_lambda, and the dimensions of m, a
and the root spaces add up to those of k and p.

Eigenvalue candidates come from one float64 eigensolve of ad_H: each
eigenvalue e gives p/q = e rationalized with q <= 64, and k/D, with D the
lcm of the denominators of ad_H and k the integer nearest D e.  D ad_H is an
integer matrix, so its characteristic polynomial is monic with integer
coefficients and its rational eigenvalues are integers: every rational
eigenvalue of ad_H whose float image lies within 1/(2D) of it is a
candidate.  At D = 1 the rounded eigenvalues are all of them: a
rationalization of e that is an integer is the integer nearest e.  Each
candidate's kernel is then computed exactly.  When those kernels do not
account for all of g, the decomposition is refused with a ConfigError (CLI
exit 2): the restricted roots are not rational on a (or one lies 1/(2D) or
more from its float image).  There is no float64 datum.

The commutation rules are decided in the basis the datum adapts to g: the
rows of m, a and every k_lambda, p_lambda form a basis W of g, and each
rule's target is a union of these blocks, so a bracket lies in it exactly
when it lies in span(W) and its coordinates over W vanish outside the
target's blocks.  One SpanSolver over W gives both tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .errors import ConfigError
from .exactla import SpanSolver, clear_denominators, div, frac, nullspace
from .extension import ConditionVerdict, condition_holds, sample_ys
from .liealg import MODE_EXACT, AlgebraVector, StructuredLieAlgebra, canonical, coeff_strings
from .subspaces import Subspace

GENERIC_RETRIES = 8


def maximal_abelian(a: StructuredLieAlgebra) -> Subspace:
    """Greedy maximal abelian subspace of p, exact.

    Each round solves the full commutation system against the current basis,
    so the loop ends exactly when the centralizer of the span inside p equals
    the span; that is the maximality certificate.  The first round's
    centralizer is all of p, so the greedy pick starts at the first p-basis
    vector.
    """
    p = a.p_basis
    if not len(p):
        raise ValueError("algebra has no p part")
    chosen = p[:1]
    while True:
        # the centralizer of the span inside p: the coordinates c over the
        # p-basis with [b, c @ p] = 0, one row per chosen b and entry
        brackets = p @ a.ad_stack(chosen)                   # [b, p_j] at (b, j)
        centralizer = nullspace(brackets.transpose(0, 2, 1).reshape(-1, len(p))) @ p
        span = SpanSolver(chosen)
        picked = next((v for v in centralizer if not span.contains(v)), None)
        if picked is None:
            return Subspace(a, chosen)
        chosen = np.vstack([chosen, picked])


@dataclass
class RootDatum:
    """Restricted roots of (g, a) with certified root spaces.

    a is a Subspace, since it is read for membership; m and every k_lambda,
    p_lambda are (r, d) dtype=object arrays of canonical exact rows.  That
    the blocks are independent is proved once, by verify_commutation_rules'
    SpanSolver over all of them."""

    algebra: StructuredLieAlgebra
    a: Subspace
    m: np.ndarray                # rows of m
    roots: tuple                 # all functionals, as tuples over the a-basis
    positive: tuple              # the lexicographically positive half
    k_spaces: dict               # functional -> rows of k_lambda
    p_spaces: dict               # functional -> rows of p_lambda
    generic_h: AlgebraVector
    seed: int
    mode = MODE_EXACT            # every datum is certified exactly

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "a_dim": self.a.dim,
            "m_dim": len(self.m),
            "roots": [root_label(r) for r in self.roots],
            "positive": [root_label(r) for r in self.positive],
            # dim g_lambda = dim p_lambda (_decompose_with_h)
            "multiplicities": {root_label(r): len(self.p_spaces[r])
                               for r in self.positive},
            "p_dims": {root_label(r): len(self.p_spaces[r]) for r in self.positive},
            "k_dims": {root_label(r): len(self.k_spaces[r]) for r in self.positive},
            "seed": self.seed,
            "generic_h": coeff_strings(self.generic_h),
        }


def root_label(functional) -> str:
    return "(" + ",".join(str(c) for c in functional) + ")"


def _eigen_candidates(ad: np.ndarray):
    """Rational candidates for the (real) spectrum of an exact matrix, from
    its float eigenvalues e.  With D the lcm of the matrix's denominators,
    the candidates are k/D for k the integer nearest D e and, when D > 1,
    e rationalized with denominator at most 64.  At D = 1 the rational
    eigenvalues are integers, and a denominator-64 rationalization that is
    an integer is the integer nearest e, so rounding alone finds them."""
    den = math.lcm(*(c.denominator for c in ad.flat))
    eigs = np.linalg.eigvals(ad.astype(float)).real.tolist()
    if den == 1:
        return sorted(set(map(round, eigs)))
    eigs = [Fraction(e) for e in eigs]
    return sorted({frac(e.limit_denominator(64)) for e in eigs}
                  | {div(round(den * e), den) for e in eigs})


def _scalar_action(ad_a: np.ndarray, space: np.ndarray):
    """Exact scalar eigenvalue of ad_b on the rows of `space` for each ad_b
    of the stack ad_a (ad of the a-basis), or None.  Each [b, v] is
    compared with v at the first nonzero entry of v, by
    cross-multiplication."""
    w = space @ ad_a                                        # [b, v] at (b, v)
    rows, pivots = np.arange(len(space)), (space != 0).argmax(axis=1)
    den, num = space[rows, pivots], w[:, rows, pivots]
    if not ((w * den[:, None] == num[..., None] * space).all()
            and (num * den[0] == num[:, :1] * den).all()):
        return None
    return tuple(div(n, den[0]) for n in num[:, 0])


def restricted_root_decomposition(a: StructuredLieAlgebra, asub: Subspace,
                                  seed: int = 0) -> RootDatum:
    """Simultaneous eigenspace decomposition for ad of the a-basis; a
    ConfigError when the restricted roots are not rational on asub, or
    when no draw of H is generic (asub is not maximal abelian)."""
    if not asub.in_p():
        raise ValueError("a must be contained in p")
    gen = rng.stream(seed, rng.STREAM_ROOTS_GENERIC)
    last_error = None
    for attempt in range(2 * GENERIC_RETRIES):
        # the first GENERIC_RETRIES draws have coefficients in [-9, 9]; each
        # later draw doubles the range, since in higher rank a small range
        # rarely separates every root
        half = 5 << max(0, attempt + 1 - GENERIC_RETRIES)
        coeffs = rng.odd_int_vector(gen, asub.dim, half)
        h = asub.member_from_coordinates(coeffs)
        try:
            return _decompose_with_h(a, asub, h, seed)
        except _NotGeneric as e:
            last_error = e
    raise ConfigError(
        "algebra %s: no generic element of a found in %d draws; the subspace is "
        "not maximal abelian (%s)" % (a.name, 2 * GENERIC_RETRIES, last_error))


class _NotGeneric(Exception):
    pass


def _decompose_with_h(a, asub, h, seed) -> RootDatum:
    """The exact decomposition by the eigenspaces of ad_H, for H in asub.

    The facts of the datum below follow from the checks made here and from
    validate's theta_involution and theta_automorphism (Theta^2 = 1 and
    Theta[x, y] = [Theta x, Theta y], exactly), which tests/test_acceptance.py
    criterion 1 checks on every catalog table and parse_algebra_file on
    every file; they are not tested again.  Write V_mu = ker(ad_H - mu).

    _scalar_action certifies that each a-basis vector b acts on V_mu as a
    scalar lambda_b; since ad_H = sum c_b ad_b, the eigenvalue is sum c_b
    lambda_b = lambda(H) = mu.  So distinct eigenvalues carry distinct
    functionals.

    H lies in p, so Theta H = -H and Theta ad_H Theta^-1 = ad_(Theta H) =
    -ad_H: Theta maps V_mu onto V_-mu, and [b, Theta v] = -Theta[b, v] =
    -lambda_b Theta v.  So -lambda is a root whenever lambda is, with the
    same multiplicity (Helgason, ch. VII, section 2).

    V_0 is Theta-stable, and Theta, whose minimal polynomial divides
    x^2 - 1, is diagonalizable on it: V_0 = m + p_zero, and p_zero = a is
    checked here.  For lambda positive, V_lambda + V_-lambda is
    Theta-stable too and splits into its +1 and -1 eigenspaces, the images
    of 1 + Theta and 1 - Theta, which are k_lambda and p_lambda, spanned by
    the rows v + Theta v and v - Theta v over a basis of V_lambda (Theta v
    lies in V_-lambda, which meets V_lambda in 0).  Each has dimension at
    most dim V_lambda and together they have 2 dim V_lambda, so both have
    dimension dim V_lambda.  The kernels account for all of g, so g is the
    direct sum of V_0 and these Theta-stable pairs, and k = m + sum
    k_lambda, p = a + sum p_lambda, dimensions included.

    m and every k_lambda, p_lambda are returned as canonical exact rows, not
    Subspaces: the spanning sets above are bases by this proof, and
    verify_commutation_rules checks it once for all the blocks together."""
    d = a.dim
    ad = a.ad_matrix(h)
    spaces = {}
    total = 0
    for mu in _eigen_candidates(ad):
        ker = nullspace(ad - mu * np.eye(d, dtype=object))
        if len(ker):
            spaces[mu] = ker
            total += len(ker)
    if total != d:
        raise ConfigError(
            "algebra %s: its restricted roots are not rational on the maximal "
            "abelian subspace; the rational eigenvalues of ad_H account for %d "
            "of the %d dimensions of g" % (a.name, total, d))

    k_zero, p_zero = _split_zero_space(a, spaces.get(0, np.zeros((0, d), dtype=object)))
    if len(p_zero) != asub.dim:
        raise _NotGeneric("centralizer of H meets p in dimension %d > dim a = %d"
                          % (len(p_zero), asub.dim))
    if asub.membership(p_zero)[0].any():
        raise _NotGeneric("centralizer p-part escapes a")

    by_func = {}
    ad_a = a.ad_stack(asub.basis_rows)
    for mu, ker in spaces.items():
        if mu == 0:
            continue
        lam = _scalar_action(ad_a, ker)
        if lam is None:
            raise _NotGeneric("eigenvalue %s mixes distinct roots" % mu)
        by_func[lam] = ker

    positive = sorted((lam for lam in by_func if _lex_positive(lam)), reverse=True)
    k_spaces, p_spaces = {}, {}
    for lam in positive:
        basis = by_func[lam]
        tv = basis @ a.theta_exact.T
        k_spaces[lam] = canonical(basis + tv)
        p_spaces[lam] = canonical(basis - tv)

    return RootDatum(algebra=a, a=asub, m=canonical(k_zero),
                     roots=tuple(sorted(by_func, reverse=True)),
                     positive=tuple(positive), k_spaces=k_spaces,
                     p_spaces=p_spaces, generic_h=h, seed=seed)


def _split_zero_space(a, zero_space: np.ndarray):
    """Exact bases of V_0 ∩ k and V_0 ∩ p (V_0 is theta-stable), as rows.

    Each row z of V_0 is first cleared of its denominators, which keeps the
    span and spares both products the Fractions of the rows.  A vector v = c @ z of V_0 has
    theta v = sign * v exactly when its coordinates c solve
    (z theta^T - sign z)^T c = 0."""
    z = np.array([clear_denominators(r) for r in zero_space],
                 dtype=object).reshape(zero_space.shape)
    tz = z @ a.theta_exact.T
    return tuple(nullspace((tz - sign * z).T) @ z for sign in (1, -1))


def _lex_positive(lam) -> bool:
    for c in lam:
        if c != 0:
            return c > 0
    return False


def verify_commutation_rules(rd: RootDatum) -> dict:
    """All three bracket rules over Sigma+ x Sigma+, with p_0 = a, k_0 = m.

    The rows of m, a and every k_lambda, p_lambda form a basis W of g
    (_decompose_with_h), and the target of (lambda, mu), the spaces of
    lambda +- mu with m or a at nu = 0, is a union of its blocks.  So a
    bracket lies in its target exactly when the null rows of one
    SpanSolver over W annihilate it (it lies in span(W)) and its
    coordinates over W vanish outside the target's blocks.  Each rule is
    one product of all its brackets with the solver's row operations, each
    row scaled to ints (which keeps every zero), read through one column
    mask per (lambda, mu); ad of each left space is taken once per lambda.
    Blocks that are not independent are no decomposition: ValueError.  The
    datum holds m, k_lambda and p_lambda as plain rows, and each block is a
    subset of W, so that check is the one proof that every block is
    independent.

    Any failure here indicates a decomposition bug, so the report carries a
    witness: a failing (lambda, mu) alone builds its target Subspace, from
    the rows of W in its blocks, to measure the residuals (the B_theta
    norms off the target, exact before the cast, whatever its basis); they
    are exactly zero everywhere else.
    """
    a = rd.algebra
    blocks = {"m": rd.m, "a": rd.a.basis_rows}
    for lam in rd.positive:
        blocks["k", lam], blocks["p", lam] = rd.k_spaces[lam], rd.p_spaces[lam]
    w_rows = np.concatenate(list(blocks.values()))
    solver = SpanSolver(w_rows)
    if not solver.independent:
        raise ValueError("the blocks m, a, k_lambda and p_lambda of the datum are "
                         "not independent, so they are no decomposition of g")
    # column j < dim W of v @ ops is the j-th coordinate of v over W, times a
    # positive scale; the columns past dim W are its null-row products
    ops = solver.int_row_ops.T
    columns, start = {}, 0
    for key, rows in blocks.items():
        columns[key] = slice(start, start + len(rows))
        start += len(rows)
    masks = {key: _target_columns(rd, columns, *key) for key in (("p", "a"), ("k", "m"))}

    report = {"mode": rd.mode, "rules": {}, "passed": True}
    ad_k, ad_p = ({lam: a.ad_stack(spaces[lam]) for lam in rd.positive}
                  for spaces in (rd.k_spaces, rd.p_spaces))
    rules = (
        ("k.p->p", ad_k, rd.p_spaces, "p", "a"),
        ("k.k->k", ad_k, rd.k_spaces, "k", "m"),
        ("p.p->k", ad_p, rd.p_spaces, "k", "m"),
    )
    at = np.arange(len(rd.positive))
    for name, ad_left, right, kind, zero in rules:
        # [x, y] at (x, y) for x over every left space and y over every
        # right one, in the order of Sigma+, and the root index of each
        brackets = (np.concatenate([right[mu] for mu in rd.positive])
                    @ np.concatenate([ad_left[lam] for lam in rd.positive]))
        left_at = np.repeat(at, [len(ad_left[lam]) for lam in rd.positive])
        right_at = np.repeat(at, [len(right[mu]) for mu in rd.positive])
        outside = ((brackets @ ops != 0)
                   & ~masks[kind, zero][left_at[:, None], right_at]).any(axis=-1)
        rows, cols = np.nonzero(outside)
        worst = 0.0
        witness = None
        for i, j in sorted(set(zip(left_at[rows].tolist(), right_at[cols].tolist()))):
            lam, mu = rd.positive[i], rd.positive[j]
            target = Subspace(a, w_rows[masks[kind, zero][i, j, :len(w_rows)]])
            out, res = target.membership(brackets[left_at == i][:, right_at == j])
            worst = max(worst, float(res.max(initial=0.0)))
            if out.any() and witness is None:
                witness = {"rule": name, "lambda": root_label(lam),
                           "mu": root_label(mu), "residual": float(res[out][0])}
        report["rules"][name] = {"holds": witness is None, "worst_residual": worst,
                                 "witness": witness}
        report["passed"] = report["passed"] and witness is None
    return report


def _target_columns(rd: RootDatum, columns: dict, kind: str, zero: str) -> np.ndarray:
    """(L, L, d) bool over Sigma+ x Sigma+, true at the columns of the
    blocks of the target of (lambda, mu): the block (kind, +-nu) for nu =
    lambda +- mu, and the block zero at nu = 0."""
    mask = np.zeros((len(rd.positive),) * 2 + (rd.algebra.dim,), dtype=bool)
    for i, lam in enumerate(rd.positive):
        for j, mu in enumerate(rd.positive):
            for nu in (tuple(x + y for x, y in zip(lam, mu)),
                       tuple(x - y for x, y in zip(lam, mu))):
                if any(nu):
                    key = kind, nu if _lex_positive(nu) else tuple(-c for c in nu)
                else:
                    key = zero
                if key in columns:
                    mask[i, j, columns[key]] = True
    return mask


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
    verdict: ConditionVerdict

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
            "samples": self.verdict.samples,
            "seed": self.verdict.seed,
            "passed": self.passed,
        }


def build_root_space_examples(rd: RootDatum, lam, xs, samples: int = 8,
                              seed: int = 0) -> list:
    """Certify the canonical example s = p_lambda with each X of xs in a:
    the triple system property, the odd chains ad_Y^{2n+1}X in k_lambda
    (n <= dim p), the even chains ad_Y^{2n}X in a + p_{2 lambda} (1 <= n <=
    dim p + 1), and the extension condition itself; one bundle per X, in
    the order of xs.

    What does not depend on X is built once for the root: the Subspaces of
    s (with its triple-system verdict and certify plan), k_lambda and
    a + p_{2 lambda}, built from the rows of the datum, and the Y draw.

    The chains are evaluated up to n = N = |Sigma+| of the datum first: by
    the proof of the extension module, every term past it is a combination
    of the terms of the same parity with 1 <= n <= N, and both targets are
    subspaces, so the chains lie in them when those terms do, and every
    residual is 0.  Only when a term up to N lies outside are the chains
    evaluated to n = dim p, and their residuals read there."""
    lam = tuple(lam)
    if lam not in rd.p_spaces:
        raise ValueError("functional %s is not a positive root" % (lam,))
    for x in xs:
        if x.is_zero():
            raise ValueError("X must be nonzero")
        if not rd.a.contains(x)[0]:
            raise ValueError("X must lie in a")

    a = rd.algebra
    s = Subspace(a, rd.p_spaces[lam])
    lts_holds, _ = s.is_lie_triple_system()
    odd_target = Subspace(a, rd.k_spaces[lam])
    two_lam = tuple(2 * c for c in lam)
    even_rows = rd.a.basis_rows
    if two_lam in rd.p_spaces:
        even_rows = np.concatenate([even_rows, rd.p_spaces[two_lam]])
    even_target = Subspace(a, even_rows)
    ys = sample_ys(s, rng.stream(seed, rng.STREAM_LEMMA), samples)

    def memberships(x, n_max):
        # ad_Y^{2n+1}X, n <= n_max, against k_lambda; ad_Y^{2n}X, 1 <= n <= n_max + 1,
        # against a + p_{2 lambda}
        chain = a.ad_chain(ys, x.row(), 2 * n_max + 2)
        return odd_target.membership(chain[:, 1::2]), even_target.membership(chain[:, 2::2])

    bundles = []
    for x in xs:
        (odd_out, odd_res), (even_out, even_res) = memberships(x, len(rd.positive))
        if odd_out.any() or even_out.any():
            (odd_out, odd_res), (even_out, even_res) = memberships(x, len(a.p_basis))
        bundles.append(RootExampleBundle(
            lam=lam, x=x, lts_holds=lts_holds,
            odd_chain_in_k_lambda=not odd_out.any(),
            even_chain_in_a_plus_p2=not even_out.any(),
            odd_chain_worst=float(odd_res.max(initial=0.0)),
            even_chain_worst=float(even_res.max(initial=0.0)),
            verdict=condition_holds(s, x, samples=samples, seed=seed)))
    return bundles
