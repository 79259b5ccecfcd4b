"""Structured real semisimple Lie algebras with Cartan involution.

The algebra is the data (basis labels, sparse bracket table, involution
matrix Theta); everything else (Killing form, eigenspace bases k and p,
adjoint matrices, curvature) is derived from it, never entered by hand.

Scalar discipline: one scalar kind per object.  An AlgebraVector is exact:
every coefficient is a canonical exact scalar (exactla.frac: a Python int
when integral, else a fractions.Fraction; a float is a TypeError), so
algebraic predicates are certificates; on the catalog's integer structure
constants the exact paths never build a Fraction.  Float data is a plain
float64 coefficient row of shape (d,), what the geometry layer and the
transported-field series compute with; AlgebraVector.to_array gives it.  A
subspace (subspaces.Subspace) is exact only, and float64 rows are measured
against its exact span.

Validation is exact only.  The structure tensor C, Theta, the Killing
matrix and the realified realization images are numpy arrays; their dtype
follows from the data (exact_dtype): int64 when every entry is an int and
no sum validate forms can overflow, object (Python ints and Fractions)
otherwise.  validate checks a rational table as the integer table L C (L the
lcm of its denominators) and divides each residual back by its power of L.
The float64 caches are these arrays cast to float.  The
eigenspace bases k_basis and p_basis are the dtype=object rows of
exactla.nullspace of Theta - I and Theta + I; every exact kernel here and
in the subspace and root layers comes from that one function.

Conventions fixed here and asserted by tests:
  - theta-eigenspaces: k for +1, p for -1; B = trace(ad . ad) is negative
    definite on k and positive definite on p (noncompact type).
  - curvature on p: R(u,v)w = [[u,v],w], the sign that makes the Jacobi
    operator jacobi(c,v) = R(c,v)c = -ad_c^2 v negative semidefinite in B.
  - B_theta(x,y) = -B(x, theta y) is the positive definite residual norm on
    all of g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .exactla import (
    SpanSolver,
    clear_denominators,
    frac,
    is_negative_definite,
    is_positive_definite,
    nullspace,
    rank,
)

# The "mode" labels of the reports: exact certificates, float64 measurements.
MODE_EXACT = "exact"
MODE_FLOAT = "float64"

# Scale-aware tolerance of the float64 membership test (Subspace.membership).
FLOAT_EPS = 1e-9


def float_tol(scale: float) -> float:
    return FLOAT_EPS * (1.0 + scale)


def _exact(x):
    """Canonical exact scalar of an entry of an exact array (int64 or object)."""
    return int(x) if isinstance(x, np.integer) else frac(x)


canonical = np.frompyfunc(frac, 1, 1)     # elementwise frac, dtype=object


def _unscaled(x, scale: int):
    """The canonical exact scalar x / scale of an entry x of an exact array."""
    return _exact(x) if scale == 1 else frac(Fraction(_exact(x), scale))


def _as_float(x, scale: int = 1) -> float:
    """x / scale for an exact scalar x, rounded once to a float."""
    return float(x) if scale == 1 else float(_unscaled(x, scale))


def _max_abs(m: np.ndarray, scale: int = 1) -> float:
    return _as_float(np.max(np.abs(m), initial=0), scale)


def abs_col_sum(m: np.ndarray) -> int:
    """max_k sum_j |m[..., j, k]| of an integer array, as a Python int."""
    return int(np.abs(m).sum(axis=-2).max(initial=0))


def int64_exact(u_max: int, col_sum: int) -> bool:
    """The int64 product rule of StructuredLieAlgebra.exact_dtype, for
    u_max = max|u| and col_sum = abs_col_sum(m)."""
    return max(1, u_max) * col_sum < 2 ** 63


# Residue arithmetic runs modulo primes below 2^26: d (p - 1)^2 < 2^63 for
# every d <= 2^11, so a dot product of two residue vectors of length d never
# leaves int64.  An algebra of larger d could not hold its d^3 table anyway.
RESIDUE_PRIME_LIMIT = 2 ** 26


def _primes_below(n: int):
    """The primes between sqrt(n) and n, largest first: the numbers with no
    prime factor up to sqrt(n)."""
    sieve = np.ones(math.isqrt(n) + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(len(sieve)) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    small = np.flatnonzero(sieve)
    for m in range(n - 1, len(sieve), -1):
        if (m % small).all():
            yield m


_PRIMES = tuple(itertools.islice(_primes_below(RESIDUE_PRIME_LIMIT), 16))

# The most int64 elements the residue stacks of one ChainResidues request
# may hold together (256 MiB).  At every count cap the catalog needs at most
# 2.6e6: su31 complex-hyperplane lemma --samples 4 --n-max 31 --m-max 31,
# with 29 primes, a (29, 4, 1024, 15) stack of conclusion terms and a
# (29, 4, 32, 225) stack of ad matrices.
RESIDUE_BUDGET = 2 ** 25

# The most elements a block of validate's realization commutators holds,
# d (2N)^2 per basis index in it, one index at least: su(4,1) checks every
# index in one block of 57600, su(9,1) one index at a time (39600 each).
COMMUTATOR_BLOCK = 2 ** 16


def residue_primes(bound: int) -> tuple:
    """The moduli for integers r with |r| <= bound: () when bound < 2^63,
    where int64 holds r exactly, else the fewest primes below
    RESIDUE_PRIME_LIMIT, largest first, whose product P exceeds 2 bound.
    Then r = 0 exactly when r = 0 modulo every one of them: P divides r and
    |r| < P (Chinese remainder theorem)."""
    primes, product = [], 1
    if bound >= 2 ** 63:
        for p in itertools.chain(_PRIMES, _primes_below(_PRIMES[-1])):
            primes.append(p)
            product *= p
            if product > 2 * bound:
                break
    return tuple(primes)


@dataclass(frozen=True)
class AlgebraVector:
    """Exact coefficient vector over the algebra basis: every entry goes
    through exactla.frac, so a float entry is a TypeError."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(frac, self.coeffs)))

    def __len__(self):
        return len(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return AlgebraVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return AlgebraVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return AlgebraVector(tuple(-a for a in self.coeffs))

    def scale(self, c):
        c = frac(c)
        return AlgebraVector(tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_array(self) -> np.ndarray:
        """The float64 coefficient row, each entry rounded once."""
        return np.array([float(c) for c in self.coeffs], dtype=float)

    def row(self) -> np.ndarray:
        """Coefficients as a dtype=object stack row."""
        return np.array(self.coeffs, dtype=object)

    def _check(self, other):
        if not isinstance(other, AlgebraVector):
            raise TypeError("expected AlgebraVector")
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")


def coeff_strings(v: AlgebraVector) -> list:
    """The coefficients of v as report strings."""
    return [str(c) for c in v.coeffs]


@dataclass(frozen=True, eq=False)
class MatrixRealization:
    """Concrete matrices for the basis, with the group-level involution data.

    `re` and `im` hold the real and imaginary parts of the basis images as
    (d, N, N) exact arrays: int64, or dtype=object of canonical exact
    scalars.  Validation casts them to the algebra's exact_dtype.

    `signature`, when present, is the diagonal of the invariance matrix J:
    group elements satisfy g^dagger J g = J (su(n,1), so(n,1)).  When absent
    the group is cut out by det g = 1 alone (sl(n,R)).  In both cases the
    group involution is theta(g) = (g^dagger)^{-1}, whose differential
    X -> -X^dagger must restrict to Theta on the realized algebra.
    """

    size: int
    re: np.ndarray
    im: np.ndarray
    signature: tuple | None = None
    unimodular: bool = True

    def realified(self, dtype) -> np.ndarray:
        """Images as real 2N x 2N blocks [[A, -B], [B, A]] of A + iB: a ring
        map under which the conjugate transpose becomes the transpose."""
        re, im = self.re.astype(dtype), self.im.astype(dtype)
        return np.block([[re, -im], [im, re]])

    @cached_property
    def images_complex(self) -> np.ndarray:
        out = np.empty(self.re.shape, dtype=complex)
        out.real, out.imag = self.re.astype(float), self.im.astype(float)
        return out

    @cached_property
    def j_matrix(self) -> np.ndarray | None:
        if self.signature is None:
            return None
        return np.diag(np.array(self.signature, dtype=complex))


@dataclass
class ValidationReport:
    """Exact residuals (max |entry|, as floats) and verdicts from
    StructuredLieAlgebra.validate; it passes when every check holds and
    every residual is 0."""

    name: str
    dims: dict
    residuals: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values()) and not any(self.residuals.values())

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "dims": dict(self.dims),
            "residuals": dict(self.residuals),
            "checks": dict(self.checks),
            "witnesses": dict(self.witnesses),
            "passed": self.passed,
        }


class StructuredLieAlgebra:
    """Real semisimple Lie algebra given by a sparse bracket table.

    brackets maps (i, j) with i < j to the coefficient vector of [e_i, e_j],
    as a mapping {k: coeff}; antisymmetry is built into the layout.  theta is
    the d x d Cartan involution matrix acting on coefficient columns.
    """

    def __init__(self, labels, brackets, theta, realization=None, name=""):
        self.labels = tuple(str(x) for x in labels)
        self.dim = len(self.labels)
        self.name = name or "g"
        table = {}
        for (i, j), entry in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError("bracket table key (%d, %d) must have 0 <= i < j < d" % (i, j))
            cleaned = {int(k): frac(c) for k, c in dict(entry).items() if frac(c) != 0}
            if any(not 0 <= k < self.dim for k in cleaned):
                raise ValueError("bracket coefficient index out of range at (%d, %d)" % (i, j))
            if cleaned:
                table[(i, j)] = cleaned
        self.table = table
        self.theta = tuple(tuple(frac(x) for x in row) for row in theta)
        if len(self.theta) != self.dim or any(len(r) != self.dim for r in self.theta):
            raise ValueError("theta must be d x d")
        self.realization = realization

    # -- construction helpers ------------------------------------------------

    def vector(self, coeffs) -> AlgebraVector:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.dim:
            raise ValueError("expected %d coefficients, got %d" % (self.dim, len(coeffs)))
        return AlgebraVector(coeffs)

    def zero(self) -> AlgebraVector:
        return self.vector((0,) * self.dim)

    def basis_vector(self, i: int) -> AlgebraVector:
        return self.vector(tuple(1 if j == i else 0 for j in range(self.dim)))

    def from_labels(self, combo: dict) -> AlgebraVector:
        """Vector from {label: coefficient}."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        coeffs = [0] * self.dim
        for lab, c in combo.items():
            coeffs[index[lab]] = c
        return self.vector(coeffs)

    def format_vector(self, v: AlgebraVector) -> str:
        parts = []
        for c, lab in zip(v.coeffs, self.labels):
            if c == 0:
                continue
            if c == 1:
                parts.append(lab)
            elif c == -1:
                parts.append("-" + lab)
            else:
                parts.append("%s*%s" % (c, lab))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    # -- derived structure ---------------------------------------------------

    @cached_property
    def exact_dtype(self):
        """int64 when every entry of the table, Theta and the realization is
        an int and 4 n^4 m^4 < 2^63 (n = max(d, 2N), m = the largest |entry|,
        at least 1), which bounds every sum validate forms; object otherwise
        (rational or huge entries), so the exact arrays never round.

        Past validate, int64 is used under one product rule (int64_exact): a
        product u @ m of integer arrays runs in int64 only when
        max(1, max|u|) times the largest absolute column sum of m is below
        2^63, which bounds every product, every partial sum and every entry
        of m.  ChainResidues forms ad_Y in int64 under it, and runs its
        chains and products in plain int64 when its residual bound passes
        it, modulo primes otherwise; extension.sample_ys assembles Y under
        it."""
        return self._dtype_at(1)

    def _dtype_at(self, scale: int):
        """exact_dtype's rule for the table and the realization images
        scaled by scale, with Theta and the signature as they are."""
        entries = [c for entry in self.table.values() for c in entry.values()]
        n = self.dim
        real = self.realization
        if real is not None:
            n = max(n, 2 * real.size)
            entries += real.re.ravel().tolist() + real.im.ravel().tolist()
        if scale != 1:
            entries = [frac(x * scale) for x in entries]
        entries += [x for row in self.theta for x in row]
        if real is not None:
            entries += list(real.signature or ())
        if not all(type(x) is int for x in entries):
            return object
        m = max(1, max(map(abs, entries), default=1))
        return np.int64 if 4 * n ** 4 * m ** 4 < 2 ** 63 else object

    @cached_property
    def structure_scale(self) -> int:
        """L, the lcm of the structure constants' denominators: L C is an
        integer table, and L = 1 for an integer one."""
        if self.exact_dtype is np.int64:        # every entry is an int
            return 1
        return math.lcm(*(c.denominator for entry in self.table.values()
                          for c in entry.values()))

    @cached_property
    def _integer_structure(self):
        """(vals, col_sum): the nonzero constants of _structure_columns
        times L = structure_scale (int64 for an int64 table, else Python
        ints), and max_k sum_{i,j} |L C[i, j, k]| as a Python int.  The
        table L C has ad_y^t x scaled by L^t, a nonzero constant, so every
        zero test on its chains and brackets is that of C."""
        _, vals, _, _ = self._structure_columns
        scale = self.structure_scale
        if scale != 1:
            vals = np.array([int(v * scale) for v in vals], dtype=object)
        col_sum = np.abs(self.structure_exact.reshape(-1, self.dim)).sum(axis=0)
        return vals, int(col_sum.max(initial=0) * scale)

    @cached_property
    def structure_exact(self) -> np.ndarray:
        """C[i, j, k] = coefficient of e_k in [e_i, e_j], exact_dtype."""
        return self._structure_times(1, self.exact_dtype)

    def _structure_times(self, scale: int, dtype) -> np.ndarray:
        """scale C as a (d, d, d) array of dtype; scale is 1 or a multiple
        of structure_scale."""
        d = self.dim
        c = np.zeros((d, d, d), dtype=dtype)
        for (i, j), entry in self.table.items():
            for k, coef in entry.items():
                if scale != 1:
                    coef = int(coef * scale)
                c[i, j, k] = coef
                c[j, i, k] = -coef
        return c

    @cached_property
    def theta_exact(self) -> np.ndarray:
        return np.array(self.theta, dtype=self.exact_dtype)

    @cached_property
    def killing_exact(self) -> np.ndarray:
        """B_ij = trace(ad_i ad_j), with (ad_i)_ba = C[i, a, b]."""
        c = self.structure_exact
        return np.einsum("iab,jba->ij", c, c)

    @cached_property
    def btheta_exact(self) -> np.ndarray:
        """Matrix of B_theta(x, y) = -B(x, theta y), positive definite on g."""
        return -(self.killing_exact @ self.theta_exact)

    @cached_property
    def k_basis(self) -> np.ndarray:
        """Basis of the +1 eigenspace of theta, as exact rows (dim k, d)."""
        return nullspace(self.theta_exact - np.eye(self.dim, dtype=int))

    @cached_property
    def p_basis(self) -> np.ndarray:
        """Basis of the -1 eigenspace of theta, as exact rows (dim p, d)."""
        return nullspace(self.theta_exact + np.eye(self.dim, dtype=int))

    # float caches for the geometry layer

    @cached_property
    def killing_float(self) -> np.ndarray:
        return self.killing_exact.astype(float)

    @cached_property
    def theta_float(self) -> np.ndarray:
        return self.theta_exact.astype(float)

    @cached_property
    def btheta_float(self) -> np.ndarray:
        return self.btheta_exact.astype(float)

    # -- core operations -----------------------------------------------------

    def bracket(self, x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
        """Commutator [x, y] = y @ ad_x."""
        self._own(x), self._own(y)
        return AlgebraVector(tuple(y.row() @ self.ad_stack(x.row()[None])[0]))

    def ad_matrix(self, y: AlgebraVector) -> np.ndarray:
        """Exact matrix of ad_y on coefficient columns, m[k, j] = [y, e_j]_k."""
        self._own(y)
        return self.ad_stack(y.row()[None])[0].T

    @cached_property
    def _structure_columns(self):
        """The nonzero C[i, j, k] as (i, C[i, j, k]) pairs sorted by the
        column j*d + k, the start of each column's run, and its column."""
        d = self.dim
        c = self.structure_exact.reshape(d, d * d)
        cols, rows = np.nonzero(c.T)
        starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])[:len(cols)]
        return rows, c[rows, cols], starts, cols[starts]

    def ad_stack(self, ys: np.ndarray, vals=None) -> np.ndarray:
        """ad_y of every row y of the stack ys (..., d), as a (..., d, d)
        array with [y, v] = v @ ad[...], in the dtype of ys: one product of
        ys with the nonzero structure constants, summed per (j, k).  vals
        replaces those constants (in the order of _structure_columns, with
        leading axes that broadcast against ys), as ChainResidues does."""
        rows, exact_vals, starts, cols = self._structure_columns
        vals = exact_vals if vals is None else vals
        out = np.zeros(ys.shape[:-1] + (self.dim ** 2,), dtype=ys.dtype)
        if len(rows):
            out[..., cols] = np.add.reduceat(ys[..., rows] * vals, starts, axis=-1)
        return out.reshape(ys.shape[:-1] + (self.dim, self.dim))

    def ad_chain(self, ys: np.ndarray, x: np.ndarray, top: int) -> np.ndarray:
        """The chains x, ad_y x, ..., ad_y^top x for every row y of the stack
        ys (S, d), as one (S, top + 1, d) array.

        An exact x (dtype=object) gives an exact chain on Python ints and
        Fractions; its ys are dtype=object or the int64 rows of
        extension.sample_ys.  Float64 ys and x give a float64 chain.  The
        zero tests of the condition and the lemma run on ChainResidues
        instead; this chain serves witnesses, residuals, the series and the
        root examples.  One Y is a stack of one, and its row has the same
        values alone or in a stack.
        """
        if top < 0:
            raise ValueError("power must be nonnegative")
        if ys.ndim != 2 or ys.shape[1] != self.dim or x.shape != (self.dim,):
            raise ValueError("ad_chain takes an (S, %d) stack and a %d-vector"
                             % (self.dim, self.dim))
        if (ys.dtype.kind, x.dtype.kind) not in (("O", "O"), ("i", "O"), ("f", "f")):
            raise ValueError("ad_chain takes an exact (dtype=object) x with "
                             "dtype=object or int64 ys, or two float64 arrays, "
                             "got %s and %s" % (ys.dtype, x.dtype))
        ys = ys.astype(x.dtype, copy=False)
        ad = self.ad_stack(ys)
        chain = np.empty((len(ys), top + 1, self.dim), dtype=ys.dtype)
        chain[:, 0] = x
        for t in range(top):
            chain[:, t + 1] = (chain[:, t, None] @ ad)[:, 0]
        return chain

    def killing_form(self, x: AlgebraVector, y: AlgebraVector):
        """B(x, y) as a canonical exact scalar."""
        self._own(x), self._own(y)
        return _exact(x.row() @ self.killing_exact @ y.row())

    def btheta_norm(self, v: np.ndarray) -> float:
        """sqrt B_theta(v, v) of a float64 coefficient row."""
        return math.sqrt(max(0.0, float(v @ self.btheta_float @ v)))

    def apply_theta(self, v: AlgebraVector) -> AlgebraVector:
        self._own(v)
        return AlgebraVector(tuple(self.theta_exact @ v.row()))

    def cartan_split(self, v: AlgebraVector):
        """(k_part, p_part) with respect to theta."""
        tv = self.apply_theta(v)
        return (v + tv).scale(Fraction(1, 2)), (v - tv).scale(Fraction(1, 2))

    def in_p(self, v: AlgebraVector) -> bool:
        return self.apply_theta(v) == -v

    def curvature_tensor(self, u: AlgebraVector, v: AlgebraVector,
                         w: AlgebraVector) -> AlgebraVector:
        """R(u,v)w = [[u,v],w] on p.

        Sign fixed so that the Jacobi operator R(c,v)c equals -ad_c^2 v,
        which is B-negative-semidefinite on p (nonpositive curvature);
        asserted by tests on the catalog algebras.
        """
        for z in (u, v, w):
            if not self.in_p(z):
                raise ValueError("curvature_tensor operands must lie in p")
        return self.bracket(self.bracket(u, v), w)

    def _own(self, v):
        if len(v.coeffs) != self.dim:
            raise ValueError("vector has dimension %d, algebra has %d"
                             % (len(v.coeffs), self.dim))

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Every axiom the extension theorem presumes, checked exactly.

        Each algebraic check is one tensor expression over the exact arrays
        (dtype exact_dtype), and each residual is the exact max |entry| of
        its expression, reported as a float.  Jacobi runs one basis index
        at a time and the realization commutators in blocks of at most
        COMMUTATOR_BLOCK elements (or one index), so memory stays O(d^3 +
        d N^2) whatever d a file declares.  Bracket parity follows from an
        exact involutive automorphism and is computed only without one.

        A rational table is checked as the integer table L C, L =
        structure_scale, with the realization images times L: a residual
        of degree k in the table and the images is L^k times the
        algebra's there, and is divided back exactly.  The arrays take
        exact_dtype's rule on the scaled entries, so a small rational table
        with L-integral images runs in int64.
        """
        d = self.dim
        scale = self.structure_scale
        if scale == 1:
            dtype = self.exact_dtype
            c, th, b = self.structure_exact, self.theta_exact, self.killing_exact
        else:
            dtype = self._dtype_at(scale)
            c = self._structure_times(scale, dtype)
            th = np.array(self.theta, dtype=dtype)
            b = np.einsum("iab,jba->ij", c, c)          # L^2 B
        rep = ValidationReport(name=self.name, dims={"d": d})

        # Antisymmetry is structural (the table stores i < j only); recorded
        # as an explicit zero so reports always carry the entry.
        rep.residuals["antisymmetry"] = 0.0
        self._check_jacobi(rep, c, scale ** 2)

        involution = bool(np.array_equal(th @ th, np.eye(d, dtype=int)))
        rep.checks["theta_involution"] = involution
        # theta[e_i, e_j] - [theta e_i, theta e_j], the second term contracted
        # over r, then s, each on the last axis: [s, k, r] -> [k, i, s] -> [i, j, k]
        rot = (1, 2, 0)
        auto = c @ th.T - ((c.transpose(rot) @ th).transpose(rot) @ th).transpose(rot)
        rep.residuals["theta_automorphism"] = _max_abs(auto, scale)
        rep.residuals["killing_symmetry"] = _max_abs(b - b.T, scale ** 2)
        rep.residuals["killing_theta_invariance"] = _max_abs(th.T @ b @ th - b,
                                                             scale ** 2)
        rep.residuals["killing_invariance"] = _max_abs(
            np.einsum("ija,ak->ijk", c, b) + np.einsum("ika,ja->ijk", c, b),
            scale ** 3)
        rep.checks["killing_nondegenerate"] = rank(b.tolist()) == d

        if involution:
            kb, pb = self.k_basis, self.p_basis
            rep.dims["k"] = len(kb)
            rep.dims["p"] = len(pb)
            rep.checks["eigenspace_split"] = len(kb) + len(pb) == d
            rep.checks["killing_negdef_on_k"] = (
                is_negative_definite(kb @ b @ kb.T) if len(kb) else True)
            rep.checks["killing_posdef_on_p"] = (
                is_positive_definite(pb @ b @ pb.T) if len(pb) else False)

            # [k, k] and [p, p] lie in k, [k, p] in p: the span solver's row
            # operations past the rank (unscaled) annihilate the target on
            # every bracket.  With theta^2 = I, auto = 0 proves it: theta[x, y]
            # = [theta x, theta y] is [x, y] for x, y both in k or both in p
            # and -[x, y] for x in k, y in p, so the parity residual is 0.
            worst = 0
            if auto.any():
                k_tail, p_tail = (np.array(sv.row_ops[sv.rank:], dtype=object).reshape(-1, d)
                                  for sv in (SpanSolver(kb), SpanSolver(pb)))
                vals = None if scale == 1 else self._integer_structure[0]
                for left, right, tail in ((kb, kb, k_tail), (kb, pb, p_tail), (pb, pb, k_tail)):
                    worst = max(worst, _max_abs(right @ self.ad_stack(left, vals) @ tail.T,
                                                scale))
            rep.residuals["bracket_parity"] = float(worst)
        else:
            rep.checks["eigenspace_split"] = False

        if self.realization is not None:
            self._check_realization(rep, c, th, scale, dtype)
        return rep

    def _check_jacobi(self, rep: ValidationReport, c: np.ndarray, scale: int):
        """Cyclic sum [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] of
        the table c, divided by scale, one i at a time over j, k > i; the
        witness is the first worst i < j < k triple in lexicographic order."""
        d = self.dim
        worst, witness = 0, None
        for i in range(d - 2):
            s = slice(i + 1, None)
            jac = (c[s, s] @ c[i]
                   + np.einsum("ka,jab->jkb", c[s, i], c[s])
                   + np.einsum("ja,kab->jkb", c[i, s], c[s]))
            # (k, j) mirrors (j, k), so the first row-major maximum has j < k
            mags = np.abs(jac).max(axis=2)
            at = int(np.argmax(mags))
            if mags.flat[at] > worst:
                worst = mags.flat[at]
                j, k = divmod(at, d - i - 1)
                witness = {
                    "triple": [self.labels[i], self.labels[i + 1 + j],
                               self.labels[i + 1 + k]],
                    "residual": [str(_unscaled(x, scale)) for x in jac[j, k]],
                }
        rep.residuals["jacobi"] = _as_float(worst, scale)
        if witness:
            rep.witnesses["jacobi"] = witness

    def _check_realization(self, rep: ValidationReport, c: np.ndarray,
                           th: np.ndarray, scale: int, dtype):
        """The realization against the table c = scale C and Theta th, both
        of dtype, on the images times scale: the commutators scale by
        scale^2, the involution residual by scale, and the group relations,
        homogeneous linear equations, not at all."""
        real, d = self.realization, self.dim
        r = real.realified(dtype) if scale == 1 else canonical(
            real.realified(object) * scale).astype(dtype)
        worst, step = 0, max(1, COMMUTATOR_BLOCK // r.size)
        for lo in range(0, d, step):
            # [R_i, R_j] - sum_k C[i, j, k] R_k for every j and each i of a block
            ri = r[lo:lo + step, None]
            diff = ri @ r - r @ ri - np.tensordot(c[lo:lo + step], r, 1)
            worst = max(worst, np.max(np.abs(diff)))
        rep.residuals["realization_commutators"] = _as_float(worst, scale ** 2)

        # d(theta)(X) = -X^dagger must match the declared Theta columnwise;
        # on realified blocks the conjugate transpose is the transpose.
        rep.residuals["realization_involution"] = _max_abs(
            r.transpose(0, 2, 1) + np.einsum("ri,rab->iab", th, r), scale)

        n = real.size
        re_im = r[:, :, :n].reshape(d, 2, n, n)      # the A and B of A + iB
        ok = not (real.unimodular and np.einsum("kxaa->kx", re_im).any())
        if real.signature is not None:
            jm = np.diag(np.array(real.signature * 2, dtype=r.dtype))
            ok = ok and not (r.transpose(0, 2, 1) @ jm + jm @ r).any()
        rep.checks["realization_algebra_relations"] = bool(ok)


class ChainResidues:
    """The chains x, ad_y x, ..., ad_y^top x (top >= 1) of an exact stack ys
    (S, d) as int64 residues, and the test of vectors built from them
    against the integer rows null (r, d) whose common kernel is a subspace.

    Rational data is made integral first: each row of ys and x is scaled by
    the lcm of its denominators, and the table by that of its constants
    (_integer_structure).  Every chain term, and every bracket of terms,
    is then a nonzero multiple of the unscaled one, with the same membership.

    bound majorises every |[u, v] @ null.T| for u = ad_y^a x, v = ad_y^b x
    with a + b <= top, every |[y, [u, v]] @ null.T| with a + b < top, and
    every entry and partial sum formed on the way: for c = abs_col_sum(ad_y)
    over the stack, |ad_y^t x| <= |x| c^t; ad_u has column sums at most
    |u| C_1, C_1 the table's column sum; the null rows have absolute row
    sums at most n_1.  So bound = |x| c^top * |x| C_1 n_1, each factor at
    least 1.

    primes = residue_primes(bound).  Every array has a leading axis with
    one residue per prime, each entry in [0, p), and a vector is zero
    exactly when all its residues are: x (k, d), chain (k, S, top + 1, d),
    ad_y (k, S, d, d), the table and null.T.  Products of two residue
    arrays sum d terms below (p - 1)^2.  When there are no primes that axis
    has length 1 and holds the exact values in plain int64, which the
    bound keeps from overflowing, and nothing is reduced.

    The constructor computes the primes and lifts only x, the table and
    null; chain and ad_y are built on first use, so a caller can refuse
    (fit) the stacks its options ask for before any of them exists.
    """

    def __init__(self, algebra: StructuredLieAlgebra, ys: np.ndarray,
                 x: np.ndarray, top: int, null: np.ndarray):
        if top < 1:
            raise ValueError("ChainResidues takes top >= 1")
        if ys.dtype == object:
            ys = np.array([clear_denominators(y) for y in ys],
                          dtype=object).reshape(ys.shape)
        x = np.array(clear_denominators(x), dtype=object)
        vals, col_sum = algebra._integer_structure
        kind = np.int64 if int64_exact(int(np.abs(ys).max(initial=0)), col_sum) else object
        ad_y = algebra.ad_stack(ys.astype(kind, copy=False), vals.astype(kind, copy=False))
        x_max, c, null_sum = max(1, max(map(abs, x))), abs_col_sum(ad_y), abs_col_sum(null.T)
        self.bound = (x_max * max(1, c) ** top
                      * x_max * max(1, col_sum) * max(1, null_sum))
        self.primes = residue_primes(self.bound)
        self._mods = np.array(self.primes, dtype=np.int64)
        self.algebra, self.top, self._ad_y = algebra, top, ad_y
        self.vals = self._lift(vals)
        self.null = self._lift(null.T)
        self.x = self._lift(x)

    def fit(self, options: str, vectors: int = 0, ads: int = 0):
        """Refuse, with a ConfigError naming options, when the residue
        stacks a request builds would hold more than RESIDUE_BUDGET elements
        together: the chain or a stack of `vectors` vectors per Y, whichever
        is longer, plus ad_y or a stack of `ads` ad matrices per Y.  An ad
        matrix counts d^2 elements, or the table's nonzero constants when
        they are more (ad_stack's product).  Decided on the shapes, before
        any is built."""
        d, nonzero = self.algebra.dim, len(self.algebra._structure_columns[0])
        shapes = [(len(self.x), len(self._ad_y), count, size)
                  for count, size in ((max(vectors, self.top + 1), d),
                                      (max(ads, 1), max(d * d, nonzero)))]
        total = sum(math.prod(shape) for shape in shapes)
        if total > RESIDUE_BUDGET:
            raise ConfigError(
                "%s: residue stacks of shapes %s and %s hold %d int64 elements, "
                "more than the %d allowed" % (options, *shapes, total, RESIDUE_BUDGET))

    @cached_property
    def ad_y(self) -> np.ndarray:
        return self._lift(self._ad_y)

    @cached_property
    def chain(self) -> np.ndarray:
        chain = np.empty((len(self.x), len(self._ad_y), self.top + 1, self.algebra.dim),
                         dtype=np.int64)
        chain[:, :, 0] = self.x[:, None]
        for t in range(self.top):
            chain[:, :, t + 1] = self.mul(chain[:, :, t, None], self.ad_y)[:, :, 0]
        return chain

    def _lift(self, a: np.ndarray) -> np.ndarray:
        """An exact integer array as a (k, ...) int64 residue stack."""
        if not self.primes:
            return a.astype(np.int64)[None]
        return (a[None] % self._mods.reshape((-1,) + (1,) * a.ndim)).astype(np.int64)

    def _reduce(self, a: np.ndarray) -> np.ndarray:
        if not self.primes:
            return a
        return a % self._mods.reshape((-1,) + (1,) * (a.ndim - 1))

    def mul(self, u: np.ndarray, m: np.ndarray) -> np.ndarray:
        """u @ m of a residue stack and a right operand, reduced.  A matrix
        shared by every row (m of shape (k, d, e)) takes one product
        per prime."""
        if m.ndim == 3:
            flat = u.reshape(len(u), -1, u.shape[-1]) @ m
            return self._reduce(flat).reshape(u.shape[:-1] + m.shape[-1:])
        return self._reduce(u @ m)

    def ad(self, v: np.ndarray) -> np.ndarray:
        """ad_u of every vector u of the residue stack v (k, ..., d), as
        (k, ..., d, d) with [u, w] = w @ ad_u, reduced."""
        vals = self.vals.reshape((len(self.vals),) + (1,) * (v.ndim - 2) + (-1,))
        return self._reduce(self.algebra.ad_stack(v, vals))

    def outside(self, v: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
        """The mask (...) of the vectors of the residue stack v (k, ..., d),
        or of v @ m for a matrix m (k, d, d) shared by every row, outside
        the subspace: those with a nonzero residue of v @ null.T."""
        null = self.null if m is None else self.mul(m, self.null)
        return (self.mul(v, null) != 0).any(axis=-1).any(axis=0)
