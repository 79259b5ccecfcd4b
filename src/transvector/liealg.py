"""Structured real semisimple Lie algebras with Cartan involution.

The algebra is the data (basis labels, sparse bracket table, involution
matrix Theta); everything else (Killing form, eigenspace bases k and p,
adjoint matrices, curvature) is derived from it, never entered by hand.

Scalar discipline: two modes.  "exact" keeps every coefficient a canonical
exact scalar (exactla.frac: a Python int when integral, else a
fractions.Fraction), so algebraic predicates are certificates; on the
catalog's integer structure constants the exact paths never build a
Fraction.  "float64" is reserved for the geometry layer and explicit
conversions.  Mixing modes in one operation is an error, not a coercion.

Validation is exact only.  The structure tensor C, Theta, the Killing
matrix and the realified realization images are numpy arrays; their dtype
follows from the data (exact_dtype): int64 when every entry is an int and
no sum validate forms can overflow, object (Python ints and Fractions)
otherwise.  The float64 caches are these arrays cast to float.

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

from .exactla import (
    SpanSolver,
    clear_denominators,
    frac,
    is_negative_definite,
    is_positive_definite,
    nullspace,
    rank,
)

MODE_EXACT = "exact"
MODE_FLOAT = "float64"

# Scale-aware float membership tolerance, used uniformly by the float paths.
FLOAT_EPS = 1e-9


def float_tol(scale: float) -> float:
    return FLOAT_EPS * (1.0 + scale)


def _exact(x):
    """Canonical exact scalar of an entry of an exact array (int64 or object)."""
    return int(x) if isinstance(x, np.integer) else frac(x)


def _canonical(m: np.ndarray) -> tuple:
    return tuple(tuple(map(_exact, row)) for row in m)


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m), initial=0))


def kernel_rows(m: np.ndarray) -> np.ndarray:
    """Basis of {c : m @ c = 0} for an exact matrix m (r, n), as the rows of
    a dtype=object array (k, n); the identity when m has no rows."""
    if not len(m):
        return np.eye(m.shape[1], dtype=object)
    null = nullspace(m.tolist())
    return np.array(null, dtype=object).reshape(len(null), m.shape[1])


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
    """Coefficient vector over the algebra basis, tagged with its scalar mode."""

    coeffs: tuple
    mode: str = MODE_EXACT

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_FLOAT):
            raise ValueError("unknown scalar mode %r" % (self.mode,))
        if self.mode == MODE_EXACT:
            object.__setattr__(
                self, "coeffs", tuple(map(frac, self.coeffs)))
        else:
            object.__setattr__(
                self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __len__(self):
        return len(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return AlgebraVector(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.mode)

    def __sub__(self, other):
        self._check(other)
        return AlgebraVector(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.mode)

    def __neg__(self):
        return AlgebraVector(tuple(-a for a in self.coeffs), self.mode)

    def scale(self, c):
        if self.mode == MODE_EXACT:
            c = frac(c)
        else:
            c = float(c)
        return AlgebraVector(tuple(c * a for a in self.coeffs), self.mode)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def astype(self, mode: str) -> "AlgebraVector":
        if mode == self.mode:
            return self
        if mode == MODE_FLOAT:
            return AlgebraVector(tuple(float(c) for c in self.coeffs), MODE_FLOAT)
        raise ValueError("cannot promote float64 coefficients back to exact")

    def to_array(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs], dtype=float)

    def row(self) -> np.ndarray:
        """Coefficients as a stack row: dtype=object exact, float64 float."""
        return np.array(self.coeffs, dtype=object if self.mode == MODE_EXACT else float)

    def _check(self, other):
        if not isinstance(other, AlgebraVector):
            raise TypeError("expected AlgebraVector")
        if self.mode != other.mode:
            raise ValueError("mixed scalar modes: %s vs %s" % (self.mode, other.mode))
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")


def coeff_strings(v: AlgebraVector) -> list:
    """The coefficients of v as report strings: exact scalars through str,
    floats through repr."""
    return [str(c) if v.mode == MODE_EXACT else repr(c) for c in v.coeffs]


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
    validate_algebra; it passes when every check holds and every residual
    is 0."""

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

    def vector(self, coeffs, mode=MODE_EXACT) -> AlgebraVector:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.dim:
            raise ValueError("expected %d coefficients, got %d" % (self.dim, len(coeffs)))
        return AlgebraVector(coeffs, mode)

    def zero(self, mode=MODE_EXACT) -> AlgebraVector:
        return self.vector((0,) * self.dim, mode)

    def basis_vector(self, i: int, mode=MODE_EXACT) -> AlgebraVector:
        return self.vector(tuple(1 if j == i else 0 for j in range(self.dim)), mode)

    def from_labels(self, combo: dict, mode=MODE_EXACT) -> AlgebraVector:
        """Vector from {label: coefficient}."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        coeffs = [0] * self.dim
        for lab, c in combo.items():
            coeffs[index[lab]] = c
        return self.vector(coeffs, mode)

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
        entries = [c for entry in self.table.values() for c in entry.values()]
        entries += [x for row in self.theta for x in row]
        n = self.dim
        real = self.realization
        if real is not None:
            n = max(n, 2 * real.size)
            entries += real.re.ravel().tolist() + real.im.ravel().tolist()
            entries += list(real.signature or ())
        if not all(type(x) is int for x in entries):
            return object
        m = max(1, max(map(abs, entries), default=1))
        return np.int64 if 4 * n ** 4 * m ** 4 < 2 ** 63 else object

    @cached_property
    def _integer_structure(self):
        """(vals, col_sum): the nonzero constants of _structure_columns
        times the lcm L of their denominators (int64 for an int64 table,
        else Python ints), and max_k sum_{i,j} |L C[i, j, k]| as a Python
        int.  The table L C has ad_y^t x scaled by L^t, a nonzero constant,
        so every zero test on its chains and brackets is that of C."""
        _, vals, _, _ = self._structure_columns
        scale = 1
        if vals.dtype == object:
            scale = math.lcm(*(v.denominator for v in vals))
            vals = np.array([int(v * scale) for v in vals], dtype=object)
        col_sum = np.abs(self.structure_exact.reshape(-1, self.dim)).sum(axis=0)
        return vals, int(col_sum.max(initial=0) * scale)

    @cached_property
    def structure_exact(self) -> np.ndarray:
        """C[i, j, k] = coefficient of e_k in [e_i, e_j], exact_dtype."""
        d = self.dim
        c = np.zeros((d, d, d), dtype=self.exact_dtype)
        for (i, j), entry in self.table.items():
            for k, coef in entry.items():
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
    def killing(self):
        """Killing matrix as rows of canonical exact scalars."""
        return _canonical(self.killing_exact)

    @cached_property
    def btheta_exact(self) -> np.ndarray:
        """Matrix of B_theta(x, y) = -B(x, theta y), positive definite on g."""
        return -(self.killing_exact @ self.theta_exact)

    @cached_property
    def k_basis(self):
        """Basis of the +1 eigenspace of theta (exact coefficient vectors)."""
        rows = [tuple(self.theta[i][j] - int(i == j) for j in range(self.dim))
                for i in range(self.dim)]
        return tuple(nullspace(rows))

    @cached_property
    def p_basis(self):
        """Basis of the -1 eigenspace of theta."""
        rows = [tuple(self.theta[i][j] + int(i == j) for j in range(self.dim))
                for i in range(self.dim)]
        return tuple(nullspace(rows))

    @cached_property
    def k_solver(self) -> SpanSolver:
        return SpanSolver(self.k_basis)

    @cached_property
    def p_solver(self) -> SpanSolver:
        return SpanSolver(self.p_basis)

    # float caches for the geometry layer

    @cached_property
    def structure_tensor(self) -> np.ndarray:
        """C[i, j, :] = coefficients of [e_i, e_j], float64."""
        return self.structure_exact.astype(float)

    @cached_property
    def killing_float(self) -> np.ndarray:
        return self.killing_exact.astype(float)

    @cached_property
    def theta_float(self) -> np.ndarray:
        return self.theta_exact.astype(float)

    @cached_property
    def btheta_float(self) -> np.ndarray:
        return self.btheta_exact.astype(float)

    @cached_property
    def p_basis_float(self) -> np.ndarray:
        """d x dim_p column matrix of the p basis."""
        return np.array([[float(x) for x in vecp] for vecp in self.p_basis]).T

    # -- core operations -----------------------------------------------------

    def bracket(self, x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
        """Commutator, bilinear extension of the table."""
        self._own(x), self._own(y)
        if x.mode != y.mode:
            raise ValueError("mixed scalar modes in bracket")
        if x.mode == MODE_FLOAT:
            out = np.einsum("i,j,ijk->k", x.to_array(), y.to_array(),
                            self.structure_tensor)
            return AlgebraVector(tuple(out), MODE_FLOAT)
        return AlgebraVector(self._bracket_exact(x.coeffs, y.coeffs), MODE_EXACT)

    def _bracket_exact(self, u, v):
        acc = [0] * self.dim
        nzu = [(i, c) for i, c in enumerate(u) if c != 0]
        nzv = [(j, c) for j, c in enumerate(v) if c != 0]
        for i, ci in nzu:
            for j, cj in nzv:
                if i == j:
                    continue
                entry = self.table.get((i, j) if i < j else (j, i))
                if entry is None:
                    continue
                f = ci * cj if i < j else -ci * cj
                for k, c in entry.items():
                    acc[k] += f * c
        return tuple(acc)

    def ad_matrix(self, y: AlgebraVector) -> np.ndarray:
        """Matrix of ad_y on coefficient columns, m[k, j] = [y, e_j]_k, in
        the dtype of y.row()."""
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

    def _form(self, exact: np.ndarray, floats: np.ndarray, x: AlgebraVector,
              y: AlgebraVector):
        """x^T m y for the exact or float64 matrix m of the vectors' mode: a
        canonical exact scalar, or a float."""
        self._own(x), self._own(y)
        if x.mode != y.mode:
            raise ValueError("mixed scalar modes in a bilinear form")
        if x.mode == MODE_FLOAT:
            return float(x.row() @ floats @ y.row())
        return _exact(x.row() @ exact @ y.row())

    def killing_form(self, x: AlgebraVector, y: AlgebraVector):
        return self._form(self.killing_exact, self.killing_float, x, y)

    def btheta_form(self, x: AlgebraVector, y: AlgebraVector):
        """Positive definite form -B(x, theta y)."""
        return self._form(self.btheta_exact, self.btheta_float, x, y)

    def btheta_norm(self, x: AlgebraVector) -> float:
        return math.sqrt(max(0.0, float(self.btheta_form(x, x))))

    def apply_theta(self, v: AlgebraVector) -> AlgebraVector:
        self._own(v)
        theta = self.theta_float if v.mode == MODE_FLOAT else self.theta_exact
        return AlgebraVector(tuple(theta @ v.row()), v.mode)

    def cartan_split(self, v: AlgebraVector):
        """(k_part, p_part) with respect to theta."""
        tv = self.apply_theta(v)
        return (v + tv).scale(Fraction(1, 2)), (v - tv).scale(Fraction(1, 2))

    def in_p(self, v: AlgebraVector) -> bool:
        tv = self.apply_theta(v)
        if v.mode == MODE_EXACT:
            return all(a == -b for a, b in zip(tv.coeffs, v.coeffs))
        arr, tarr = v.to_array(), tv.to_array()
        return bool(np.max(np.abs(tarr + arr)) <= float_tol(float(np.max(np.abs(arr), initial=0.0))))

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
        its expression, reported as a float.  Jacobi and the realization
        commutators run one basis index at a time, so memory stays
        O(d^3 + d N^2) whatever d a file declares.
        """
        d = self.dim
        c, th, b = self.structure_exact, self.theta_exact, self.killing_exact
        rep = ValidationReport(name=self.name, dims={"d": d})

        # Antisymmetry is structural (the table stores i < j only); recorded
        # as an explicit zero so reports always carry the entry.
        rep.residuals["antisymmetry"] = 0.0
        self._check_jacobi(rep)

        involution = bool(np.array_equal(th @ th, np.eye(d, dtype=int)))
        rep.checks["theta_involution"] = involution
        rep.residuals["theta_automorphism"] = _max_abs(
            np.einsum("ijk,lk->ijl", c, th)
            - np.einsum("ri,sj,rsk->ijk", th, th, c, optimize=True))
        rep.residuals["killing_symmetry"] = _max_abs(b - b.T)
        rep.residuals["killing_theta_invariance"] = _max_abs(th.T @ b @ th - b)
        rep.residuals["killing_invariance"] = _max_abs(
            np.einsum("ija,ak->ijk", c, b) + np.einsum("ika,ja->ijk", c, b))
        rep.checks["killing_nondegenerate"] = rank(self.killing) == d

        if involution:
            kb, pb = self.k_basis, self.p_basis
            rep.dims["k"] = len(kb)
            rep.dims["p"] = len(pb)
            rep.checks["eigenspace_split"] = len(kb) + len(pb) == d
            kb_m, pb_m = (np.array(v, dtype=object).reshape(-1, d) for v in (kb, pb))
            rep.checks["killing_negdef_on_k"] = (
                is_negative_definite(kb_m @ b @ kb_m.T) if kb else True)
            rep.checks["killing_posdef_on_p"] = (
                is_positive_definite(pb_m @ b @ pb_m.T) if pb else False)

            # [k, k] and [p, p] lie in k, [k, p] in p: the solver rows past
            # the rank (unscaled) annihilate the target on every bracket
            worst = 0
            for left, right, solver in ((kb_m, kb_m, self.k_solver),
                                        (kb_m, pb_m, self.p_solver),
                                        (pb_m, pb_m, self.k_solver)):
                tail = np.array(solver._t[solver.rank:], dtype=object).reshape(-1, d)
                worst = max(worst, _max_abs(right @ self.ad_stack(left) @ tail.T))
            rep.residuals["bracket_parity"] = float(worst)
        else:
            rep.checks["eigenspace_split"] = False

        if self.realization is not None:
            self._check_realization(rep)
        return rep

    def _check_jacobi(self, rep: ValidationReport):
        """Cyclic sum [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]],
        one i at a time over j, k > i; the witness is the first worst
        i < j < k triple in lexicographic order."""
        c, d = self.structure_exact, self.dim
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
                    "residual": [str(_exact(x)) for x in jac[j, k]],
                }
        rep.residuals["jacobi"] = float(worst)
        if witness:
            rep.witnesses["jacobi"] = witness

    def _check_realization(self, rep: ValidationReport):
        real, d = self.realization, self.dim
        c, th, r = self.structure_exact, self.theta_exact, real.realified(self.exact_dtype)
        worst = 0
        for i in range(d):
            # [R_i, R_j] - sum_k C[i, j, k] R_k for every j
            diff = r[i] @ r - r @ r[i] - np.einsum("jk,kab->jab", c[i], r)
            worst = max(worst, np.max(np.abs(diff)))
        rep.residuals["realization_commutators"] = float(worst)

        # d(theta)(X) = -X^dagger must match the declared Theta columnwise;
        # on realified blocks the conjugate transpose is the transpose.
        rep.residuals["realization_involution"] = _max_abs(
            r.transpose(0, 2, 1) + np.einsum("ri,rab->iab", th, r))

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
        self.algebra = algebra
        self.ad_y = self._lift(ad_y)
        self.vals = self._lift(vals)
        self.null = self._lift(null.T)
        self.x = self._lift(x)
        self.chain = np.empty((len(self.x), len(ys), top + 1, algebra.dim), dtype=np.int64)
        self.chain[:, :, 0] = self.x[:, None]
        for t in range(top):
            self.chain[:, :, t + 1] = self.mul(self.chain[:, :, t, None], self.ad_y)[:, :, 0]

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


def validate_algebra(a: StructuredLieAlgebra) -> ValidationReport:
    return a.validate()
