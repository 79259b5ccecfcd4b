"""The extension condition [X, ad_Y^{2n+1} X] in s, its bracket lemma, and
the transported-field series.

The condition is a polynomial identity of odd degree in Y, not a multilinear
one, so checking it on a basis of s proves nothing.  Instead Y ranges over
seeded random rational samples: a polynomial that vanishes at a random
rational point is, with overwhelming probability, the zero polynomial
(Schwartz-Zippel), and in exact arithmetic each individual evaluation is a
certificate.  Failures are always certificates: a witness (Y, n) with a
nonzero residual vector stays a counterexample under re-evaluation.

The n quantifier is finite for each Y: ad_Y^2 preserves p and satisfies its
characteristic polynomial there, so every odd power ad_Y^{2n+1} with
n >= dim p is a rational combination of the tested ones; N_max = dim p.

Scaling note: [X, ad_{cY}^{2n+1} X] = c^{2n+1} [X, ad_Y^{2n+1} X], so
membership is invariant under rescaling Y.  Exact sampling exploits this by
clearing denominators: Y is a vector of Python ints, so on an algebra with
integer structure constants and an integral X every iterated bracket and
every membership test runs on ints (exactla.frac keeps scalars canonical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng
from .errors import LemmaFalsified
from .exactla import clear_denominators
from .liealg import MODE_EXACT, MODE_FLOAT, AlgebraVector, float_tol
from .subspaces import Subspace


@dataclass
class ConditionVerdict:
    """Outcome of the sampled extension-condition check."""

    holds: bool
    mode: str                      # exact-sampled | float-sampled
    n_max: int
    samples: int
    seed: int
    checked: int = 0
    per_n_worst_residual: list = field(default_factory=list)
    witness: dict | None = None
    warnings: tuple = ()

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "mode": self.mode,
            "n_max": self.n_max,
            "samples": self.samples,
            "seed": self.seed,
            "checked": self.checked,
            "per_n_worst_residual": list(self.per_n_worst_residual),
            "witness": self.witness,
            "warnings": list(self.warnings),
        }


@dataclass
class LemmaCheck:
    """Brute-force certification of the bracket lemma for one (s, X, Y)."""

    status: str                    # passed | hypothesis_violated
    mode: str
    n_max: int
    m_max: int
    hypothesis_residuals: list = field(default_factory=list)
    hypothesis_failures: list = field(default_factory=list)
    conclusion_residuals: dict = field(default_factory=dict)
    aux_residuals: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def worst_residual(self) -> float:
        pools = (self.hypothesis_residuals,
                 self.conclusion_residuals.values(),
                 self.aux_residuals.values())
        return max((r for pool in pools for r in pool), default=0.0)

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "mode": self.mode,
            "n_max": self.n_max,
            "m_max": self.m_max,
            "hypothesis_residuals": list(self.hypothesis_residuals),
            "hypothesis_failures": list(self.hypothesis_failures),
            "conclusion_residuals": dict(self.conclusion_residuals),
            "aux_residuals": dict(self.aux_residuals),
            "worst_residual": self.worst_residual,
        }


@dataclass
class SeriesReport:
    """Both evaluations of [Z^k, Z^p] for Z = e^{-ad_Y} X, with diagnostics."""

    value: AlgebraVector
    double_value: AlgebraVector
    route_difference: float
    tail_bound: float
    member: bool
    membership_residual: float
    converged: bool
    truncation: int
    mode: str
    warnings: tuple = ()

    def as_dict(self) -> dict:
        return {
            "value": [_num_str(c) for c in self.value.coeffs],
            "route_difference": self.route_difference,
            "tail_bound": self.tail_bound,
            "member": self.member,
            "membership_residual": self.membership_residual,
            "converged": self.converged,
            "truncation": self.truncation,
            "mode": self.mode,
            "warnings": list(self.warnings),
        }


def _num_str(c):
    """Exact scalars (int or Fraction) print exactly, floats through repr."""
    return repr(float(c)) if isinstance(c, float) else str(c)


def _require_pair(s: Subspace, x: AlgebraVector, check_lts=True):
    a = s.algebra
    if x.mode != s.mode:
        raise ValueError("X mode %s does not match subspace mode %s" % (x.mode, s.mode))
    if not s.in_p():
        raise ValueError("s must be contained in p")
    if not a.in_p(x):
        raise ValueError("X must lie in p")
    if check_lts:
        ok, witness = s.is_lie_triple_system()
        if not ok:
            raise ValueError("s is not a Lie triple system; witness: %r" % (witness,))


_NOT_NORMAL = {
    MODE_EXACT: "X has a nonzero component along s (B(X, s) != 0); "
                "the geometric statement wants X normal",
    MODE_FLOAT: "X has a nonzero component along s within float tolerance",
}


def _normal_pairing(s: Subspace, x: AlgebraVector):
    """First pairing B(b, X) over the basis of s that is nonzero (exact) or
    above the float tolerance; None when X is B-orthogonal to s."""
    a = s.algebra
    for b in s.basis:
        val = a.killing_form(b, x)
        if s.mode == MODE_EXACT:
            if val != 0:
                return val
        elif abs(val) > float_tol(a.btheta_norm(b) * a.btheta_norm(x)):
            return val
    return None


def _sample_y(s: Subspace, gen) -> AlgebraVector:
    if s.mode == MODE_EXACT:
        coords = rng.rational_vector(gen, s.dim)
        y = s.member_from_coordinates(coords)
        return s.algebra.vector(clear_denominators(y.coeffs))
    coords = gen.standard_normal(s.dim)
    return s.member_from_coordinates(tuple(float(c) for c in coords))


def condition_terms(s: Subspace, x: AlgebraVector, y: AlgebraVector, n_max: int):
    """Yield (n, [X, ad_Y^{2n+1} X]) for n = 0..n_max."""
    a = s.algebra
    chain = a.ad_chain(y, x, 2 * n_max + 1)
    for n in range(n_max + 1):
        yield n, a.bracket(x, chain[2 * n + 1])


def condition_holds(s: Subspace, x: AlgebraVector, samples: int = 64,
                    seed: int = 0, n_max: int | None = None) -> ConditionVerdict:
    """Sampled check of [X, ad_Y^{2n+1} X] in s over random Y in s."""
    _require_pair(s, x)
    a = s.algebra
    if n_max is None:
        n_max = len(a.p_basis)
    warnings = () if _normal_pairing(s, x) is None else (_NOT_NORMAL[s.mode],)
    mode = "exact-sampled" if s.mode == MODE_EXACT else "float-sampled"
    verdict = ConditionVerdict(holds=True, mode=mode, n_max=n_max,
                               samples=samples, seed=seed,
                               per_n_worst_residual=[0.0] * (n_max + 1),
                               warnings=warnings)
    if s.dim == 0:
        return verdict
    gen = rng.stream(seed, rng.STREAM_CONDITION_Y)
    for _ in range(samples):
        y = _sample_y(s, gen)
        for n, term in condition_terms(s, x, y, n_max):
            member, res = s.contains(term)
            verdict.checked += 1
            verdict.per_n_worst_residual[n] = max(verdict.per_n_worst_residual[n], res)
            if not member:
                verdict.holds = False
                verdict.witness = {
                    "y": [_num_str(c) for c in y.coeffs],
                    "n": n,
                    "vector": [_num_str(c) for c in term.coeffs],
                    "residual": res,
                }
                return verdict
    return verdict


def verify_lemma_conclusion(s: Subspace, x: AlgebraVector, y: AlgebraVector,
                            n_max: int = 4, m_max: int = 4) -> LemmaCheck:
    """Brute-force the lemma: hypothesis [X, ad_Y^{2m+1}X] in s for
    m <= n_max + m_max, then conclusion [ad_Y^{2n}X, ad_Y^{2m+1}X] in s and
    the auxiliary chain ad_Y [ad_Y^{2n}X, ad_Y^{2m}X] in s.

    A conclusion or auxiliary failure while the hypothesis held raises
    LemmaFalsified; nothing in this package catches it.
    """
    _require_pair(s, x)
    if y.mode != s.mode:
        raise ValueError("Y mode does not match subspace mode")
    a = s.algebra
    check = LemmaCheck(status="passed",
                       mode=s.mode, n_max=n_max, m_max=m_max)

    powers = a.ad_chain(y, x, 2 * (n_max + m_max) + 1)

    for m in range(n_max + m_max + 1):
        term = a.bracket(x, powers[2 * m + 1])
        member, res = s.contains(term)
        check.hypothesis_residuals.append(res)
        if not member:
            check.hypothesis_failures.append({"m": m, "residual": res})
    if check.hypothesis_failures:
        check.status = "hypothesis_violated"
        return check

    for n in range(n_max + 1):
        for m in range(m_max + 1):
            term = a.bracket(powers[2 * n], powers[2 * m + 1])
            member, res = s.contains(term)
            check.conclusion_residuals["%d,%d" % (n, m)] = res
            if not member:
                raise LemmaFalsified(
                    "bracket [ad_Y^%dX, ad_Y^%dX] escaped s with the hypothesis "
                    "satisfied (residual %g); this contradicts the bracket lemma"
                    % (2 * n, 2 * m + 1, res),
                    detail={"n": n, "m": m,
                            "y": [_num_str(c) for c in y.coeffs],
                            "vector": [_num_str(c) for c in term.coeffs],
                            "residual": res})

    for n in range(n_max + 1):
        for m in range(m_max + 1):
            inner = a.bracket(powers[2 * n], powers[2 * m])
            term = a.bracket(y, inner)
            member, res = s.contains(term)
            check.aux_residuals["%d,%d" % (n, m)] = res
            if not member:
                raise LemmaFalsified(
                    "auxiliary chain ad_Y[ad_Y^%dX, ad_Y^%dX] escaped s with the "
                    "hypothesis satisfied (residual %g)" % (2 * n, 2 * m, res),
                    detail={"n": n, "m": m, "kind": "auxiliary",
                            "y": [_num_str(c) for c in y.coeffs],
                            "residual": res})
    return check


def _series_terms(a, x: AlgebraVector, y: AlgebraVector, top: int):
    """u_j = (-ad_Y)^j X / j! for j = 0..top."""
    return [v.scale(Fraction((-1) ** j, math.factorial(j)))
            for j, v in enumerate(a.ad_chain(y, x, top))]


def nabla_zz(s: Subspace, x: AlgebraVector, y: AlgebraVector,
             truncation: int = 12) -> SeriesReport:
    """[Z^k, Z^p] for Z = e^{-ad_Y} X, both as the split of the truncated
    exponential series and as the double series over odd/even parts, plus the
    factorial tail bound and the membership residual against s."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    _require_pair(s, x, check_lts=False)
    if y.mode != x.mode:
        raise ValueError("Y mode does not match X mode")
    a = s.algebra
    K = truncation
    terms = _series_terms(a, x, y, 2 * K + 1)

    z = terms[0]
    for t in terms[1:]:
        z = z + t
    zk, zp = a.cartan_split(z)
    value = a.bracket(zk, zp)

    warnings = []
    z_norm = a.btheta_norm(z)
    last_norm = a.btheta_norm(terms[-1])
    converged = last_norm <= 1e-14 * max(z_norm, 1e-300)
    if not converged:
        warnings.append(
            "series truncation K=%d kept a last term at %.3g of the running "
            "norm; result not converged" % (K, last_norm / max(z_norm, 1e-300)))

    # Independent summation order: the double series over (even, odd) pairs.
    # Signs: Z^k = -sum odd terms, Z^p = sum even terms, so
    # [Z^k, Z^p] = sum_{n,m} [ad^{2n}X, ad^{2m+1}X] / ((2n)! (2m+1)!).
    # terms[j] carries (-1)^j, hence [terms[2n], -terms[2m+1]] sums to it.
    double = a.zero(x.mode)
    for n in range(K + 1):
        for m in range(K + 1):
            double = double + a.bracket(terms[2 * m + 1], terms[2 * n])
    route_difference = a.btheta_norm(value - double)

    ad_f = a.ad_matrix(y.astype(MODE_FLOAT))
    ad_norm = float(np.linalg.norm(ad_f, 2))
    x_norm = float(np.linalg.norm(x.to_array()))
    tail_bound = ad_norm ** (2 * K + 2) / math.factorial(2 * K + 2) * x_norm

    member, membership_residual = s.contains(value)
    return SeriesReport(value=value, double_value=double,
                        route_difference=route_difference,
                        tail_bound=tail_bound, member=member,
                        membership_residual=membership_residual,
                        converged=converged, truncation=K, mode=x.mode,
                        warnings=tuple(warnings))


def normal_field_check(s: Subspace, x: AlgebraVector, y: AlgebraVector,
                       truncation: int = 12) -> float:
    """Worst |B(Z^p, v)| over basis v of s, for Z^p the even series.

    Requires X B-orthogonal to s and s a Lie triple system; under those
    hypotheses each term pairs to zero (B(ad_Y^{2n}X, v) = B(X, ad_Y^{2n}v)
    and ad_Y^{2n}v stays in s), independently of the extension condition.
    """
    _require_pair(s, x)
    a = s.algebra
    pairing = _normal_pairing(s, x)
    if pairing is not None:
        raise ValueError("X is not B-orthogonal to s (pairing %s)" % _num_str(pairing))

    terms = _series_terms(a, x, y, 2 * truncation)
    zp = terms[0]
    for n in range(1, truncation + 1):
        zp = zp + terms[2 * n]
    worst = 0.0
    for b in s.basis:
        worst = max(worst, abs(float(a.killing_form(zp, b))))
    return worst


def search_counterexample(a, candidates, x_grid, samples: int = 16,
                          seed: int = 0, n_max: int | None = None):
    """Condition check over a candidate x grid; returns the failing pairs.

    Each candidate must be a Lie triple system (the condition is only
    meaningful there).  Deterministic for fixed seed.
    """
    failures = []
    for ci, s in enumerate(candidates):
        if s.algebra is not a:
            raise ValueError("candidate %d belongs to a different algebra" % ci)
        for xi, x in enumerate(x_grid):
            verdict = condition_holds(s, x, samples=samples, seed=seed, n_max=n_max)
            if not verdict.holds:
                failures.append({"candidate": ci, "x_index": xi,
                                 "x": [_num_str(c) for c in x.coeffs],
                                 "verdict": verdict})
    return failures
