"""The extension condition [X, ad_Y^{2n+1} X] in s, its bracket lemma, and
the transported-field series.

The condition is a polynomial identity of odd degree in Y, not a multilinear
one, so checking it on a basis of s proves nothing.  It is decided on the
principal lattice of s instead, a proof for every Y in s.  Fix X and write
Y = sum c_i b_i over the basis b_1..b_k of s.  For each n, the residual of
[X, ad_Y^{2n+1} X] against s (its product with the null rows of s) is a
vector of homogeneous polynomials of degree 2n + 1 in c.  By the bound
below only n <= b is evaluated, so every degree is at most D = 2b + 1.  The
principal lattice {c in N^k : sum c = D} has C(D + k - 1, k - 1) points and
is unisolvent for the polynomials of degree <= D on the hyperplane sum c = D
(Chung & Yao, On lattices admitting unique Lagrange interpolations, SIAM J.
Numer. Anal. 14, 1977).  So a residual that vanishes on every lattice point
vanishes on that hyperplane, and by homogeneity on every c with sum c != 0, a
dense set: it is the zero polynomial.  One chain per point serves every n.

condition_holds takes the lattice when its point count P is at most
--samples, so no request evaluates more Y than it asked for; its verdict is
exact-complete, with samples = P and no seed.  Past P it draws --samples
seeded random rational Y and its verdict is exact-sampled: each evaluation
is a certificate, and a polynomial that vanishes at a random rational point
is, with overwhelming probability, the zero polynomial (Schwartz-Zippel).
Failures are always certificates: a witness (Y, n) with a nonzero residual
vector stays a counterexample under re-evaluation.

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
membership is invariant under rescaling Y.  Both the lattice and the sample
exploit this: a lattice Y is divided by the gcd of its integer entries, and a
sampled one has its denominators cleared, so every Y is an integer row.  The
exact zero tests of the condition and the lemma run on machine integers
through liealg.ChainResidues, which scales X and a rational table to
integers the same way: in plain int64 when its proven bound on every
residual fits, and modulo enough primes that "every residue is 0" proves
"the residual is 0" otherwise (multimodular arithmetic, von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 5).  Only what a report prints, the
witness and the residuals of terms outside s, is evaluated on Python ints.

What the condition and the lemma derive from (s, X) alone is derived once
and kept in s's CertifyPlan: per subspace the integer-scaled basis Y is
drawn on and the lattice Y stack, per X (one slot, the last X admitted) the
normal-pairing warning, the pair's liealg.PairResidues, which holds X
cleared to integers and the residue lifts of the table, the null rows, X,
ad_X and the condition's form ad_X null.T for the last primes asked, and the
exact-complete verdict once a request has decided it.  That is sound because
none of it depends on a sampled Y or on the seed, and s does not change: a
sampled request draws its Y and computes ad_Y, the bound, its primes, the
chain, the membership products and any witness as before, and reads the
same lifts a new plan would build; a complete one reads the verdict a new
plan would decide.  Catalog pairs, cached by build_pair, reuse their plan
across requests, and so does a --s subspace on a catalog space, which the
CLI keeps in one slot keyed by the algebra and the exact basis rows of the
file; a subspace on a file algebra, or built by any other caller, keeps its
own plan and drops it with itself.

The transported-field series (nabla_zz) is a measurement, not a
certificate: it takes an exact X in p and a float64 row Y and runs in
float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import rng
from .errors import ConfigError, LemmaFalsified
from .liealg import (MODE_EXACT, AlgebraVector, ChainResidues, PairResidues, abs_col_sum,
                     canonical, coeff_strings, int64_exact)
from .subspaces import Subspace

_NO_RESIDUALS = MappingProxyType({})


@dataclass
class ConditionVerdict:
    """Outcome of the sampled extension-condition check: samples random Y
    drawn from seed."""

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


@dataclass(frozen=True)
class CompleteVerdict:
    """Outcome of the extension condition decided on the principal lattice
    of s, for every Y in s (module docstring): samples is the lattice point
    count, and there is no seed.  checked, per_n_worst_residual and witness
    read as in ConditionVerdict.  Frozen all the way down (tuples and a
    read-only witness), since the plan keeps one per (s, X) and every
    request on them returns it; as_dict hands out plain lists and dicts."""

    mode = "exact-complete"        # every Y, by the lattice
    seed = None
    holds: bool
    n_max: int
    samples: int
    checked: int
    per_n_worst_residual: tuple
    witness: MappingProxyType | None
    warnings: tuple

    def as_dict(self) -> dict:
        w = self.witness
        return {"holds": self.holds, "n_max": self.n_max, "samples": self.samples,
                "seed": self.seed, "checked": self.checked,
                "per_n_worst_residual": list(self.per_n_worst_residual),
                "witness": None if w is None else {**w, "y": list(w["y"]),
                                                   "vector": list(w["vector"])},
                "warnings": self.warnings, "mode": self.mode}


@dataclass(frozen=True)
class LemmaCheck:
    """Brute-force certification of the bracket lemma for one (s, X, Y).
    Frozen all the way down (tuples and read-only mappings):
    verify_lemma_conclusion shares one record across the rows of a passed
    stack.  as_dict hands out plain lists and dicts."""

    mode = MODE_EXACT
    status: str                    # passed | hypothesis_violated
    n_max: int
    m_max: int
    hypothesis_residuals: tuple = ()
    hypothesis_failures: tuple = ()         # read-only {"m", "residual"} mappings
    conclusion_residuals: MappingProxyType = field(default_factory=lambda: _NO_RESIDUALS)
    aux_residuals: MappingProxyType = field(default_factory=lambda: _NO_RESIDUALS)

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
        return {"status": self.status, "n_max": self.n_max, "m_max": self.m_max,
                "hypothesis_residuals": list(self.hypothesis_residuals),
                "hypothesis_failures": [dict(f) for f in self.hypothesis_failures],
                "conclusion_residuals": dict(self.conclusion_residuals),
                "aux_residuals": dict(self.aux_residuals),
                "mode": self.mode, "worst_residual": self.worst_residual}


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
    provably fit int64 (int64_exact), dtype=object otherwise; the degree
    D = 2 chain_bound + 1 and the point count lattice_size of its principal
    lattice, and the lattice Y stack (lattice), built on first use.  Per X,
    in one slot keyed by X's exact coefficients: the warnings of its
    verdict, X against the null rows of s as ChainResidues takes them
    (PairResidues), whose lifts a run of requests on that X shares, and its
    CompleteVerdict once decided.  The slot is filled only once
    _require_pair has admitted (s, X); s does not change, so a filled slot
    stands for an admitted pair, and a refused one is refused anew on every
    call.  Nothing here depends on a sampled Y or on the seed, so a request
    on a plan that served others gives the bytes it gives on a new one.
    """

    def __init__(self, s: Subspace):
        den = math.lcm(*(c.denominator for c in s.basis_rows.flat))
        basis = canonical(s.basis_rows * den)
        self.scale = den * rng.RATIONAL_SCALE
        if self.scale < 2 ** 63 and int64_exact(rng.RATIONAL_NUM * rng.RATIONAL_SCALE,
                                                abs_col_sum(basis)):
            basis = basis.astype(np.int64)
        self.basis = basis
        self.degree = 2 * chain_bound(s.algebra) + 1
        self.lattice_size = math.comb(self.degree + s.dim - 1, s.dim - 1) if s.dim else 0
        self._slot = None

    @cached_property
    def lattice(self) -> np.ndarray:
        """(lattice_size, d) stack of the Y c @ basis over the points c of
        the principal lattice (principal_lattice, in its order), each divided
        by the gcd of its entries.  int64 when int64_exact bounds the product
        (every |c| <= degree), dtype=object otherwise."""
        basis = self.basis
        if basis.dtype == object or not int64_exact(self.degree, abs_col_sum(basis)):
            basis = basis.astype(object)
        w = principal_lattice(len(basis), self.degree).astype(basis.dtype) @ basis
        return w // np.gcd.reduce(w, axis=1)[:, None]

    def pair(self, s: Subspace, x: AlgebraVector):
        """(warnings, PairResidues) of X on s, this plan's subspace."""
        return self._admit(s, x)[1:3]

    def complete(self, s: Subspace, x: AlgebraVector) -> CompleteVerdict:
        """The CompleteVerdict of X on s, decided on the lattice by the first
        request on X and kept in its slot."""
        slot = self._admit(s, x)
        if slot[3] is None:
            slot[3] = _complete_verdict(s, x, *slot[1:3], self.lattice)
        return slot[3]

    def _admit(self, s: Subspace, x: AlgebraVector) -> list:
        """X's slot [coefficients, warnings, PairResidues, CompleteVerdict or
        None], filled anew when X is not the last X admitted."""
        if self._slot is None or self._slot[0] != x.coeffs:
            _require_pair(s, x)
            warnings = () if _normal_pairing(s, x) is None else (_NOT_NORMAL,)
            self._slot = [x.coeffs, warnings, PairResidues(s.algebra, s.null_rows, x.row()),
                          None]
        return self._slot


def principal_lattice(k: int, degree: int) -> np.ndarray:
    """(C(degree + k - 1, k - 1), k) int64 stack of the points c in N^k with
    sum c = degree, in descending lexicographic order (degree e_1 first).
    Each point is a placement of k - 1 bars among degree + k - 1 slots; its
    entries are the runs of slots between the bars."""
    slots = degree + k - 1
    bars = np.array(list(itertools.combinations(range(slots), k - 1)),
                    dtype=np.int64).reshape(math.comb(slots, k - 1), k - 1)
    edges = np.column_stack([np.full(len(bars), -1), bars, np.full(len(bars), slots)])
    return np.diff(edges, axis=1)[::-1] - 1


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
                    seed: int = 0) -> ConditionVerdict | CompleteVerdict:
    """[X, ad_Y^{2n+1} X] in s for n <= n_max = dim p: for every Y in s on
    the principal lattice when its point count is at most samples, over
    samples random Y in s drawn from seed otherwise (module docstring).  Only
    the terms n <= b = chain_bound are evaluated; the proof of the module
    docstring decides the rest.

    The lattice verdict depends on (s, X) alone: the first request on X
    decides it and the plan keeps it, so a later request returns the same
    frozen CompleteVerdict whatever samples (at least the point count) and
    seed it gives.  The sampled verdict is decided anew each time."""
    plan = s.certify_plan
    if s.dim and plan.lattice_size <= samples:
        return plan.complete(s, x)
    warnings, pair = plan.pair(s, x)
    n_max = len(s.algebra.p_basis)
    verdict = ConditionVerdict(holds=True, n_max=n_max,
                               samples=samples, seed=seed,
                               per_n_worst_residual=[0.0] * (n_max + 1),
                               warnings=warnings)
    if s.dim == 0:
        return verdict
    ys = sample_ys(s, rng.stream(seed, rng.STREAM_CONDITION_Y), samples)
    verdict.checked, verdict.per_n_worst_residual, verdict.witness = _decide(s, x, pair, ys)
    verdict.holds = verdict.witness is None
    return verdict


def _complete_verdict(s: Subspace, x: AlgebraVector, warnings: tuple, pair: PairResidues,
                      ys: np.ndarray) -> CompleteVerdict:
    """The CompleteVerdict of X on s, the lattice Y stack ys."""
    checked, worst, witness = _decide(s, x, pair, ys)
    if witness is not None:
        witness = MappingProxyType({**witness, "y": tuple(witness["y"]),
                                    "vector": tuple(witness["vector"])})
    return CompleteVerdict(holds=witness is None, n_max=len(s.algebra.p_basis),
                           samples=len(ys), checked=checked,
                           per_n_worst_residual=tuple(worst), witness=witness,
                           warnings=warnings)


def _decide(s: Subspace, x: AlgebraVector, pair: PairResidues, ys: np.ndarray):
    """(checked, per_n_worst_residual, witness or None) of the condition
    over the Y stack ys (S, d).

    Every (Y, n <= b) term is evaluated in one stacked pass on
    ChainResidues, admitted (fit) as the stacks of the full range would be;
    the verdict reads them in Y-major order and stops at the first term
    outside s, which is the witness.  By the proof a Y with a term outside s
    has one with n <= b, so that is the first term outside s of the full
    range too, and `checked` counts the terms of the full range up to it,
    (dim p + 1) per Y before it.  The witness alone is evaluated exactly."""
    a = s.algebra
    n_max = len(a.p_basis)
    b = chain_bound(a)
    r = ChainResidues(pair, ys, 2 * b + 1)
    r.fit("--samples", 2 * n_max + 1)
    hits = np.flatnonzero(r.outside(r.chain[:, :, 1::2], r.form))
    if not hits.size:
        return len(ys) * (n_max + 1), [0.0] * (n_max + 1), None
    i, n = divmod(int(hits[0]), b + 1)
    xrow = x.row()
    odd = a.ad_chain(ys[i:i + 1], xrow, 2 * n + 1)[0, -1]
    term = a.vector(odd @ a.ad_stack(xrow))     # [X, v] = v @ ad_X
    _, residual = s.contains(term)
    # the residual is nonzero at the witness alone, the last term checked
    worst = [0.0] * (n_max + 1)
    worst[n] = residual
    witness = {"y": coeff_strings(a.vector(ys[i])), "n": n,
               "vector": coeff_strings(term), "residual": residual}
    return i * (n_max + 1) + n + 1, worst, witness


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
    return ["%d,%d" % (n, m) for n in range(n_max + 1) for m in range(m_max + 1)]


def verify_lemma_conclusion(s: Subspace, x: AlgebraVector, ys: np.ndarray,
                            n_max: int = 4, m_max: int = 4) -> list:
    """Brute-force the lemma for every row Y of the stack ys (S, d), each a
    Y in s as sample_ys draws them: the hypothesis [X, ad_Y^{2m+1}X] in s
    for m <= n_max + m_max, then the conclusion [ad_Y^{2n}X, ad_Y^{2m+1}X]
    in s and the auxiliary chain ad_Y [ad_Y^{2n}X, ad_Y^{2m}X] in s.
    Returns one LemmaCheck per row; on the passed path below every row is
    the same frozen record, since every row has the same keys and every
    residual 0.

    Membership is decided on ChainResidues, admitted (fit) as the stacks of
    the full range.  First only the terms with indices up to b =
    chain_bound are decided: the hypothesis for m <= min(n_max + m_max, b),
    the conclusion and the auxiliary for n <= min(n_max, b) and
    m <= min(m_max, b).  When all of them lie in s, every term of the range
    does (module docstring), and each row gets the one passed LemmaCheck
    with every residual of the range 0.  Otherwise the whole range is decided
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
    if not any(r.outside(v).any() for v in _lemma_terms(
            r.chain, r.ad_x, r.ad_y, r.ad, r.mul, min(n_max, b), min(m_max, b))):
        keys = _lemma_keys(n_max, m_max)
        zeros = MappingProxyType(dict.fromkeys(keys, 0.0))
        return [LemmaCheck(status="passed", n_max=n_max, m_max=m_max,
                           hypothesis_residuals=(0.0,) * (n_max + m_max + 1),
                           conclusion_residuals=zeros, aux_residuals=zeros)] * len(ys)
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
        hypothesis_residuals = tuple(map(float, hyp_res[i]))
        failures = tuple(MappingProxyType({"m": int(m), "residual": float(hyp_res[i, m])})
                         for m in np.flatnonzero(hyp_out[i]))
        if failures:
            checks.append(LemmaCheck(status="hypothesis_violated", n_max=n_max,
                                     m_max=m_max, hypothesis_residuals=hypothesis_residuals,
                                     hypothesis_failures=failures))
            continue
        if not (con_out[i].any() or aux_out[i].any()):
            checks.append(LemmaCheck(
                status="passed", n_max=n_max, m_max=m_max,
                hypothesis_residuals=hypothesis_residuals,
                conclusion_residuals=MappingProxyType(dict(zip(keys, map(float,
                                                                     con_res[i].flat)))),
                aux_residuals=MappingProxyType(dict(zip(keys, map(float, aux_res[i].flat))))))
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
