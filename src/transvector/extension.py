"""The extension condition [X, ad_Y^{2n+1} X] in s, its bracket lemma, and
the transported-field series.

The condition is a polynomial identity of odd degree in Y, not a multilinear
one, so checking it on a basis of s proves nothing.  Instead Y ranges over
seeded random rational samples: a polynomial that vanishes at a random
rational point is, with overwhelming probability, the zero polynomial
(Schwartz-Zippel), and in exact arithmetic each individual evaluation is a
certificate.  Failures are always certificates: a witness (Y, n) with a
nonzero residual vector stays a counterexample under re-evaluation.

The n quantifier is finite for each Y, and the terms above the bound
b = chain_bound(g) are decided by proof, not evaluated.  Every Y in p is
Ad(k)H for some k in K and H in a maximal abelian a (Helgason, Differential
Geometry, Lie Groups, and Symmetric Spaces, ch. V, Thm 6.7), so ad_Y^2 on p
is conjugate to ad_H^2 on p, which is diagonal on p = a + sum p_lambda, 0
on a and lambda(H)^2 on p_lambda.  So the minimal polynomial of ad_Y^2 on p
is x q(x) with deg q <= N = |Sigma+| (root_count, which the catalog builds
in closed form).  Without N, Cayley-Hamilton gives the same shape with
deg q <= dim p - 1: ad_Y^2 preserves p (Theta is an involutive
automorphism, which validate certifies) and kills Y, so its characteristic
polynomial on p has no constant term.  Take b = min(N, dim p - 1).  For
n >= 1 the remainder of x^n modulo x q(x) has no constant term either, so
(ad_Y^2)^n is a combination of (ad_Y^2)^j, 1 <= j <= b, with coefficients
depending on Y.  Applied to X, and then ad_Y, it makes ad_Y^{2n} X and
ad_Y^{2n+1} X combinations of the terms of index 2j and 2j + 1, 1 <= j <= b.
Membership in s is linear, and each term of the condition and the lemma is
linear in each chain vector it brackets, so a term with an index above b
lies in s when the terms with indices up to b do, pointwise in Y.

The condition and the lemma evaluate their terms only up to b, and report
the paper's range all the same: n_max, checked and the residual lists
describe n <= dim p for the condition and the requested n_max, m_max for
the lemma, the terms above b decided by the proof.  A term outside s within
b is found where the full range would find it first (condition_holds), or
sends the request down the full range (verify_lemma_conclusion), so every
report is the one the full range gives term by term.

Scaling note: [X, ad_{cY}^{2n+1} X] = c^{2n+1} [X, ad_Y^{2n+1} X], so
membership is invariant under rescaling Y.  Exact sampling exploits this by
clearing denominators: Y is an integer row (int64 from sample_ys).  The
exact zero tests of the condition and the lemma run on machine integers
through liealg.ChainResidues, which scales X and a rational table to
integers the same way: in plain int64 when its proven bound on every
residual fits, and modulo enough primes that "every residue is 0" proves
"the residual is 0" otherwise (multimodular arithmetic, von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 5).  Only what a report prints, the
witness and the residuals of terms outside s, is evaluated on Python ints.

What the condition and the lemma derive from (s, X) alone is derived once
and kept in s's CertifyPlan: per subspace the integer-scaled basis Y is
drawn on, per X (one slot, the last X admitted) the normal-pairing warning
and the pair's liealg.PairResidues, which holds X cleared to integers and
the residue lifts of the table, the null rows, X, ad_X and the condition's
form ad_X null.T for the last primes asked.  That is sound because none of
it depends on Y or on the seed, and s does not change: a request draws its
Y and computes ad_Y, the bound, its primes, the chain, the membership
products and any witness as before, and reads the same lifts a new plan
would build.  Catalog pairs, cached by build_pair, reuse their
plan across requests, and so does a --s subspace on a catalog space, which
the CLI keeps in one slot keyed by the algebra and the exact basis rows of
the file; a subspace on a file algebra, or built by any other caller,
keeps its own plan and drops it with itself.

The transported-field series (nabla_zz) is a measurement, not a
certificate: it takes an exact X in p and a float64 row Y and runs in
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng
from .errors import ConfigError, LemmaFalsified
from .liealg import (MODE_EXACT, AlgebraVector, ChainResidues, PairResidues, abs_col_sum,
                     canonical, coeff_strings, int64_exact)
from .subspaces import Subspace


@dataclass
class ConditionVerdict:
    """Outcome of the sampled extension-condition check."""

    mode = "exact-sampled"         # random Y, each term decided exactly
    holds: bool
    n_max: int
    samples: int
    seed: int
    checked: int = 0
    per_n_worst_residual: list = field(default_factory=list)
    witness: dict | None = None
    warnings: tuple = ()

    def as_dict(self) -> dict:
        return {**vars(self), "mode": self.mode}


@dataclass
class LemmaCheck:
    """Brute-force certification of the bracket lemma for one (s, X, Y)."""

    mode = MODE_EXACT
    status: str                    # passed | hypothesis_violated
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
        return {**vars(self), "mode": self.mode, "worst_residual": self.worst_residual}


@dataclass
class SeriesReport:
    """[Z^k, Z^p] for Z = e^{-ad_Y} X as a float64 row, its distance from
    the double-series evaluation, and diagnostics.  tail_bound bounds only
    the first term that the truncated series of Z omits, not the error of
    value: the bracket multiplies Z's error by the other argument's ad, so
    value is off by about (||ad Z^k|| + ||ad Z^p||) times it."""

    value: np.ndarray
    route_difference: float
    tail_bound: float
    member: bool
    membership_residual: float
    converged: bool
    truncation: int
    warnings: tuple = ()


def _require_pair(s: Subspace, x: AlgebraVector, certify=True):
    """Refuse a pair the callers cannot take: s in p and X in p, and for
    certify (the condition and the lemma) s a Lie triple system."""
    a = s.algebra
    if not s.in_p():
        raise ConfigError("s must be contained in p")
    if not a.in_p(x):
        raise ConfigError("X must lie in p")
    if certify:
        ok, witness = s.is_lie_triple_system()
        if not ok:
            raise ConfigError("s is not a Lie triple system; witness: %r" % (witness,))


_NOT_NORMAL = ("X has a nonzero component along s (B(X, s) != 0); "
               "the geometric statement wants X normal")


def _normal_pairing(s: Subspace, x: AlgebraVector):
    """First nonzero pairing B(b, X) over the basis of s; None when X is
    B-orthogonal to s."""
    pairing = s.basis_rows @ s.algebra.killing_exact @ x.row()
    hits = np.flatnonzero(pairing)
    return pairing[hits[0]] if hits.size else None


class CertifyPlan:
    """What condition_holds, verify_lemma_conclusion and sample_ys derive
    from (s, X) alone.  Each subspace keeps its own (Subspace.certify_plan)
    and drops it with itself: a catalog pair's lives as long as the
    process, a catalog-space --s subspace's as long as it holds the CLI's
    one slot, and one on a file algebra goes with its request.

    Per s: the basis scaled to integers by the lcm den of its denominators,
    int64 when every Y = draws @ basis and the scale den RATIONAL_SCALE
    provably fit int64 (int64_exact), dtype=object otherwise.  Per X, in
    one slot keyed by X's exact coefficients: the warnings of its verdict
    and X against the null rows of s as ChainResidues takes them
    (PairResidues), whose lifts a run of requests on that X shares.  The
    slot is filled only once _require_pair has admitted (s, X); s does not
    change, so a filled slot stands for an admitted pair, and a refused one
    is refused anew on every call.  Nothing here depends on Y or on the
    seed, so a request on a plan that served others gives the bytes it
    gives on a new one.
    """

    def __init__(self, s: Subspace):
        den = math.lcm(*(c.denominator for c in s.basis_rows.flat))
        basis = canonical(s.basis_rows * den)
        self.scale = den * rng.RATIONAL_SCALE
        if self.scale < 2 ** 63 and int64_exact(rng.RATIONAL_NUM * rng.RATIONAL_SCALE,
                                                abs_col_sum(basis)):
            basis = basis.astype(np.int64)
        self.basis = basis
        self._slot = None

    def pair(self, s: Subspace, x: AlgebraVector):
        """(warnings, PairResidues) of X on s, this plan's subspace."""
        if self._slot is None or self._slot[0] != x.coeffs:
            _require_pair(s, x)
            warnings = () if _normal_pairing(s, x) is None else (_NOT_NORMAL,)
            self._slot = (x.coeffs, warnings, PairResidues(s.algebra, s.null_rows, x.row()))
        return self._slot[1:]


def sample_ys(s: Subspace, gen, samples: int) -> np.ndarray:
    """(samples, d) stack of random Y in s, each drawn in turn from gen.

    Exact Y are integer rows: the rational block draw with its denominators
    cleared, assembled as one product with the integer-scaled basis of s
    (CertifyPlan).  They are int64 when int64_exact bounds that product and
    the scale fits, which holds for every catalog subspace, and dtype=object
    Python ints otherwise.
    """
    plan = s.certify_plan
    draws = rng.rational_vectors(gen, s.dim, samples)
    w = draws.astype(plan.basis.dtype, copy=False) @ plan.basis
    # Y = w / scale; dividing w by its gcd with that scale leaves Y times
    # the lcm of its denominators
    g = np.gcd(np.gcd.reduce(w, axis=1), plan.scale)
    return w // g[:, None]


def chain_bound(a) -> int:
    """b = min(N, dim p - 1), N = a.root_count, or dim p - 1 when N is not
    known: the largest n whose terms the condition and the lemma evaluate
    (module docstring)."""
    b = len(a.p_basis) - 1
    return max(0, b if a.root_count is None else min(a.root_count, b))


def condition_holds(s: Subspace, x: AlgebraVector, samples: int = 64,
                    seed: int = 0) -> ConditionVerdict:
    """Sampled check of [X, ad_Y^{2n+1} X] in s over random Y in s, for
    n <= n_max = dim p.  Only the terms n <= b = chain_bound are evaluated;
    the proof of the module docstring decides the rest.

    Every (sample, n <= b) term is evaluated in one stacked pass on
    ChainResidues, admitted (fit) as the stacks of the full range would be;
    the verdict reads them in sample-major order and stops at the first term
    outside s, which is the witness.  By the proof a sample with a term
    outside s has one with n <= b, so that is the first term outside s of
    the full range too, and `checked` counts the terms of the full range up
    to it, (dim p + 1) per sample before it.  The witness alone is
    evaluated exactly.
    """
    warnings, pair = s.certify_plan.pair(s, x)
    a = s.algebra
    n_max = len(a.p_basis)
    verdict = ConditionVerdict(holds=True, n_max=n_max,
                               samples=samples, seed=seed,
                               per_n_worst_residual=[0.0] * (n_max + 1),
                               warnings=warnings)
    if s.dim == 0:
        return verdict
    ys = sample_ys(s, rng.stream(seed, rng.STREAM_CONDITION_Y), samples)
    b = chain_bound(a)
    r = ChainResidues(pair, ys, 2 * b + 1)
    r.fit("--samples", 2 * n_max + 1)
    hits = np.flatnonzero(r.outside(r.chain[:, :, 1::2], r.form))
    res = np.zeros((len(ys), n_max + 1))
    verdict.checked = res.size
    if hits.size:
        i, n = divmod(int(hits[0]), b + 1)
        verdict.checked = i * (n_max + 1) + n + 1
        xrow = x.row()
        odd = a.ad_chain(ys[i:i + 1], xrow, 2 * n + 1)[0, -1]
        term = a.vector(odd @ a.ad_stack(xrow))     # [X, v] = v @ ad_X
        _, res[i, n] = s.contains(term)
        verdict.holds = False
        verdict.witness = {
            "y": coeff_strings(a.vector(ys[i])),
            "n": n,
            "vector": coeff_strings(term),
            "residual": float(res[i, n]),
        }
    # res is nonzero at the witness alone, the last term checked
    verdict.per_n_worst_residual = [float(r) for r in res.max(axis=0, initial=0.0)]
    return verdict


def _lemma_terms(chain, ad_x, ad_y, ad, mul, n_max: int, m_max: int):
    """The hypothesis [X, ad_Y^{2m+1}X] (m <= n_max + m_max), the conclusion
    [ad_Y^{2n}X, ad_Y^{2m+1}X] and the auxiliary ad_Y [ad_Y^{2n}X,
    ad_Y^{2m}X] (n <= n_max, m <= m_max) of every chain of the stack chain
    (..., S, top + 1, d), given ad_x (..., d, d) of its X, ad_y (..., S, d,
    d) of its Y, ad (the stack of ad_u) and mul (the product): exact or
    residue."""
    even, odd = chain[..., 0::2, :], chain[..., 1::2, :]
    ad_even = ad(even[..., :n_max + 1, :])       # [ad_Y^{2n}X, v] = v @ ad_even[..., n]
    hypothesis = mul(odd, ad_x)
    conclusion = mul(odd[..., None, :m_max + 1, :], ad_even)
    auxiliary = mul(mul(even[..., None, :m_max + 1, :], ad_even), ad_y[..., None, :, :])
    return hypothesis, conclusion, auxiliary


def _lemma_keys(n_max: int, m_max: int) -> list:
    """The "n,m" keys of a LemmaCheck's conclusion and auxiliary residuals."""
    return ["%d,%d" % nm for nm in np.ndindex(n_max + 1, m_max + 1)]


def verify_lemma_conclusion(s: Subspace, x: AlgebraVector, ys: np.ndarray,
                            n_max: int = 4, m_max: int = 4) -> list:
    """Brute-force the lemma for every row Y of the stack ys (S, d), each a
    Y in s as sample_ys draws them: the hypothesis [X, ad_Y^{2m+1}X] in s
    for m <= n_max + m_max, then the conclusion [ad_Y^{2n}X, ad_Y^{2m+1}X]
    in s and the auxiliary chain ad_Y [ad_Y^{2n}X, ad_Y^{2m}X] in s.
    Returns one LemmaCheck per row.

    Membership is decided on ChainResidues, admitted (fit) as the stacks of
    the full range.  First only the terms with indices up to b =
    chain_bound are decided: the hypothesis for m <= min(n_max + m_max, b),
    the conclusion and the auxiliary for n <= min(n_max, b) and
    m <= min(m_max, b).  When all of them lie in s, every term of the range
    does (module docstring), and each row gets the passed LemmaCheck with
    every residual of the range 0.  Otherwise the whole range is decided
    term by term, and only what a report prints is evaluated exactly: the
    hypothesis terms of the rows that fail it, in one stacked pass, and the
    terms of the row raised below.

    A conclusion or auxiliary failure while the hypothesis held raises
    LemmaFalsified, for the first such row; cli.run reports it as exit
    status 1 with kind "lemma-falsified".
    """
    _, pair = s.certify_plan.pair(s, x)
    b = chain_bound(s.algebra)
    top = 2 * (n_max + m_max) + 1
    r = ChainResidues(pair, ys, 2 * min(n_max + m_max, b) + 1)
    r.fit("--samples, --n-max and --m-max", top, vectors=(n_max + 1) * (m_max + 1),
          ads=n_max + 1)
    keys = _lemma_keys(n_max, m_max)
    if not any(r.outside(v).any() for v in _lemma_terms(
            r.chain, r.ad_x, r.ad_y, r.ad, r.mul, min(n_max, b), min(m_max, b))):
        return [LemmaCheck(status="passed", n_max=n_max, m_max=m_max,
                           hypothesis_residuals=[0.0] * (n_max + m_max + 1),
                           conclusion_residuals=dict.fromkeys(keys, 0.0),
                           aux_residuals=dict.fromkeys(keys, 0.0)) for _ in ys]
    if r.top < top:
        r = ChainResidues(pair, ys, top)
    return _lemma_checks(s, x, ys, r, n_max, m_max)


def _lemma_checks(s: Subspace, x: AlgebraVector, ys: np.ndarray, r: ChainResidues,
                  n_max: int, m_max: int) -> list:
    """verify_lemma_conclusion on the full range, every term decided on r,
    the ChainResidues of ys up to top = 2 (n_max + m_max) + 1."""
    keys = _lemma_keys(n_max, m_max)
    a = s.algebra
    xrow = x.row()
    top = r.top
    hyp_out, con_out, aux_out = (r.outside(v) for v in _lemma_terms(
        r.chain, r.ad_x, r.ad_y, r.ad, r.mul, n_max, m_max))
    hyp_res, con_res, aux_res = (np.zeros(o.shape) for o in (hyp_out, con_out, aux_out))
    bad = np.flatnonzero(hyp_out.any(axis=-1))
    if bad.size:
        odd = a.ad_chain(ys[bad], xrow, top)[:, 1::2]
        hyp_res[bad] = s.membership(odd @ a.ad_stack(xrow))[1]

    checks = []
    for i, y in enumerate(ys):
        check = LemmaCheck(status="passed", n_max=n_max, m_max=m_max)
        checks.append(check)
        check.hypothesis_residuals = [float(r) for r in hyp_res[i]]
        check.hypothesis_failures = [{"m": int(m), "residual": float(hyp_res[i, m])}
                                     for m in np.flatnonzero(hyp_out[i])]
        if check.hypothesis_failures:
            check.status = "hypothesis_violated"
            continue
        check.conclusion_residuals = dict(zip(keys, map(float, con_res[i].flat)))
        check.aux_residuals = dict(zip(keys, map(float, aux_res[i].flat)))
        if not (con_out[i].any() or aux_out[i].any()):
            continue
        row = ys[i:i + 1]
        _, con, aux = _lemma_terms(a.ad_chain(row, xrow, top), a.ad_stack(xrow),
                                   a.ad_stack(row.astype(xrow.dtype)), a.ad_stack,
                                   np.matmul, n_max, m_max)
        con_res[i], aux_res[i] = s.membership(con[0])[1], s.membership(aux[0])[1]
        y_str = coeff_strings(a.vector(y))
        if con_out[i].any():
            n, m = divmod(int(np.argmax(con_out[i])), m_max + 1)
            term = a.vector(con[0, n, m])
            raise LemmaFalsified(
                "bracket [ad_Y^%dX, ad_Y^%dX] escaped s with the hypothesis "
                "satisfied (residual %g); this contradicts the bracket lemma"
                % (2 * n, 2 * m + 1, con_res[i, n, m]),
                detail={"n": n, "m": m, "y": y_str,
                        "vector": coeff_strings(term),
                        "residual": float(con_res[i, n, m])})
        if aux_out[i].any():
            n, m = divmod(int(np.argmax(aux_out[i])), m_max + 1)
            raise LemmaFalsified(
                "auxiliary chain ad_Y[ad_Y^%dX, ad_Y^%dX] escaped s with the "
                "hypothesis satisfied (residual %g)" % (2 * n, 2 * m, aux_res[i, n, m]),
                detail={"n": n, "m": m, "kind": "auxiliary",
                        "y": y_str, "residual": float(aux_res[i, n, m])})
    return checks


def _series_terms(a, x: AlgebraVector, y: np.ndarray, top: int) -> np.ndarray:
    """u_j = (-ad_Y)^j X / j! for j = 0..top, as a (top + 1, d) float64 array."""
    chain = a.ad_chain(y[None], x.to_array(), top)[0]
    coeffs = np.array([Fraction((-1) ** j, math.factorial(j)) for j in range(top + 1)],
                      dtype=float)
    return chain * coeffs[:, None]


def nabla_zz(s: Subspace, x: AlgebraVector, y: np.ndarray,
             truncation: int = 12) -> SeriesReport:
    """[Z^k, Z^p] for Z = e^{-ad_Y} X, both as the split of the truncated
    exponential series and as the double series over odd/even parts, plus the
    factorial tail bound and the membership residual against s.  X is exact
    and lies in p; Y is a float64 coefficient row, and the series runs in
    float64.

    The series of Z keeps the terms j <= 2K + 1, K = truncation, and
    tail_bound = ||ad_Y||_2^(2K+2) ||X||_2 / (2K + 2)! bounds the first term
    it omits, not the whole tail and not the error of the reported
    [Z^k, Z^p]: an error e in Z moves the bracket by about
    [e, Z^p] + [Z^k, e], so that error is about (||ad Z^k|| + ||ad Z^p||)
    times tail_bound."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    _require_pair(s, x, certify=False)
    a = s.algebra
    K = truncation
    terms = _series_terms(a, x, y, 2 * K + 1)

    z = terms.sum(axis=0)
    tz = a.theta_float @ z
    zk, zp = (z + tz) * 0.5, (z - tz) * 0.5              # the Cartan split
    value = zp @ a.ad_stack(zk[None])[0]                  # [Z^k, Z^p]

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
    pairs = terms[None, 0::2] @ a.ad_stack(terms[1::2])   # [terms[2m+1], terms[2n]] at (m, n)
    double = pairs.transpose(1, 0, 2).reshape(-1, a.dim).sum(axis=0)
    route_difference = a.btheta_norm(value - double)

    ad_norm = float(np.linalg.norm(a.ad_stack(y[None])[0].T, 2))
    x_norm = float(np.linalg.norm(x.to_array()))
    tail_bound = ad_norm ** (2 * K + 2) / math.factorial(2 * K + 2) * x_norm

    outside, res = s.membership(value[None])
    return SeriesReport(value=value, route_difference=route_difference,
                        tail_bound=tail_bound, member=not outside[0],
                        membership_residual=float(res[0]),
                        converged=converged, truncation=K,
                        warnings=tuple(warnings))
