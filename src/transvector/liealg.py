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

Conventions fixed here and asserted by tests:
  - theta-eigenspaces: k for +1, p for -1; B = trace(ad . ad) is negative
    definite on k and positive definite on p (noncompact type).
  - curvature on p: R(u,v)w = [[u,v],w], the sign that makes the Jacobi
    operator jacobi(c,v) = R(c,v)c = -ad_c^2 v negative semidefinite in B.
  - B_theta(x,y) = -B(x, theta y) is the positive definite residual norm on
    all of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactla import (
    SpanSolver,
    frac,
    is_negative_definite,
    is_positive_definite,
    mat_mul,
    mat_transpose,
    mat_vec,
    nullspace,
    qmat,
    qmat_add,
    qmat_comm,
    qmat_conj_t,
    qmat_is_zero,
    qmat_mul,
    qmat_scale,
    qmat_sub,
    qmat_to_complex,
    qmat_trace,
    rank,
    vec_dot,
)

MODE_EXACT = "exact"
MODE_FLOAT = "float64"

# Scale-aware float membership tolerance, used uniformly by the float paths.
FLOAT_EPS = 1e-9


def float_tol(scale: float) -> float:
    return FLOAT_EPS * (1.0 + scale)


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

    def _check(self, other):
        if not isinstance(other, AlgebraVector):
            raise TypeError("expected AlgebraVector")
        if self.mode != other.mode:
            raise ValueError("mixed scalar modes: %s vs %s" % (self.mode, other.mode))
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class MatrixRealization:
    """Concrete matrices for the basis, with the group-level involution data.

    `signature`, when present, is the diagonal of the invariance matrix J:
    group elements satisfy g^dagger J g = J (su(n,1), so(n,1)).  When absent
    the group is cut out by det g = 1 alone (sl(n,R)).  In both cases the
    group involution is theta(g) = (g^dagger)^{-1}, whose differential
    X -> -X^dagger must restrict to Theta on the realized algebra.
    """

    size: int
    images: tuple          # Qi matrices, one per basis element
    signature: tuple | None = None
    unimodular: bool = True

    @cached_property
    def images_complex(self) -> np.ndarray:
        return np.stack([qmat_to_complex(m) for m in self.images])

    @cached_property
    def j_matrix(self) -> np.ndarray | None:
        if self.signature is None:
            return None
        return np.diag(np.array(self.signature, dtype=complex))


@dataclass
class ValidationReport:
    """Residuals and verdicts from validate_algebra."""

    name: str
    mode: str
    dims: dict
    residuals: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def tolerance(self) -> float:
        return 0.0 if self.mode == MODE_EXACT else 1e-12

    @property
    def passed(self) -> bool:
        return (all(self.checks.values())
                and all(r <= self.tolerance for r in self.residuals.values()))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "dims": dict(self.dims),
            "residuals": dict(self.residuals),
            "checks": dict(self.checks),
            "witnesses": dict(self.witnesses),
            "tolerance": self.tolerance,
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
    def ad_columns(self):
        """ad_columns[i][j] = sparse coefficient dict of [e_i, e_j]."""
        cols = [dict() for _ in range(self.dim)]
        for (i, j), entry in self.table.items():
            cols[i][j] = entry
            cols[j][i] = {k: -c for k, c in entry.items()}
        return cols

    @cached_property
    def killing(self):
        """Killing matrix B_ij = trace(ad_i ad_j), exact."""
        d = self.dim
        ad = self.ad_columns
        b = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                s = 0
                for a, vec_i in ad[i].items():
                    col_j = ad[j]
                    for bb, c in vec_i.items():
                        back = col_j.get(bb)
                        if back is not None:
                            ca = back.get(a)
                            if ca is not None:
                                s += c * ca
                b[i][j] = s
                b[j][i] = s
        return tuple(tuple(row) for row in b)

    @cached_property
    def btheta(self):
        """Matrix of B_theta(x, y) = -B(x, theta y), positive definite on g."""
        bt = mat_mul([list(r) for r in self.killing], [list(r) for r in self.theta])
        return tuple(tuple(-x for x in row) for row in bt)

    @cached_property
    def theta_squared_is_identity(self) -> bool:
        sq = mat_mul([list(r) for r in self.theta], [list(r) for r in self.theta])
        return all(sq[i][j] == int(i == j)
                   for i in range(self.dim) for j in range(self.dim))

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
        d = self.dim
        c = np.zeros((d, d, d))
        for (i, j), entry in self.table.items():
            for k, coef in entry.items():
                c[i, j, k] = float(coef)
                c[j, i, k] = -float(coef)
        return c

    @cached_property
    def killing_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.killing])

    @cached_property
    def theta_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.theta])

    @cached_property
    def btheta_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.btheta])

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

    def ad_matrix(self, y: AlgebraVector):
        """Matrix of ad_y on coefficient columns (exact rows or float array)."""
        self._own(y)
        if y.mode == MODE_FLOAT:
            return np.einsum("i,ijk->kj", y.to_array(), self.structure_tensor)
        d = self.dim
        rows = [[0] * d for _ in range(d)]
        for (i, j), entry in self.table.items():
            ci, cj = y.coeffs[i], y.coeffs[j]
            if cj != 0:
                # column i picks up -cj * [e_i, e_j]
                for k, c in entry.items():
                    rows[k][i] -= cj * c
            if ci != 0:
                for k, c in entry.items():
                    rows[k][j] += ci * c
        return [tuple(r) for r in rows]

    def ad_chain(self, y: AlgebraVector, x: AlgebraVector, top: int) -> list:
        """[x, ad_y x, ..., ad_y^top x], in the shared scalar mode of x and y.

        ad_y is built once and applied top times: exact rows through mat_vec,
        float64 as a matrix product.
        """
        if top < 0:
            raise ValueError("power must be nonnegative")
        self._own(x)
        if y.mode != x.mode:
            raise ValueError("mixed scalar modes in ad_chain")
        ad = self.ad_matrix(y)
        chain = [x]
        if x.mode == MODE_FLOAT:
            v = x.to_array()
            for _ in range(top):
                v = ad @ v
                chain.append(AlgebraVector(tuple(v), MODE_FLOAT))
        else:
            v = x.coeffs
            for _ in range(top):
                v = mat_vec(ad, v)
                chain.append(AlgebraVector(v, MODE_EXACT))
        return chain

    def killing_form(self, x: AlgebraVector, y: AlgebraVector):
        self._own(x), self._own(y)
        if x.mode != y.mode:
            raise ValueError("mixed scalar modes in killing_form")
        if x.mode == MODE_FLOAT:
            return float(x.to_array() @ self.killing_float @ y.to_array())
        return sum(c * vec_dot(row, y.coeffs)
                   for c, row in zip(x.coeffs, self.killing))

    def btheta_form(self, x: AlgebraVector, y: AlgebraVector):
        """Positive definite form -B(x, theta y)."""
        self._own(x), self._own(y)
        if x.mode == MODE_FLOAT:
            return float(x.to_array() @ self.btheta_float @ y.to_array())
        return sum(c * vec_dot(row, y.coeffs)
                   for c, row in zip(x.coeffs, self.btheta))

    def btheta_norm(self, x: AlgebraVector) -> float:
        return math.sqrt(max(0.0, float(self.btheta_form(x, x))))

    def apply_theta(self, v: AlgebraVector) -> AlgebraVector:
        self._own(v)
        if v.mode == MODE_FLOAT:
            return AlgebraVector(tuple(self.theta_float @ v.to_array()), MODE_FLOAT)
        return AlgebraVector(mat_vec(self.theta, v.coeffs), MODE_EXACT)

    def cartan_split(self, v: AlgebraVector):
        """(k_part, p_part) with respect to theta."""
        tv = self.apply_theta(v)
        if v.mode == MODE_FLOAT:
            k = (v + tv).scale(0.5)
            p = (v - tv).scale(0.5)
        else:
            half = Fraction(1, 2)
            k = (v + tv).scale(half)
            p = (v - tv).scale(half)
        return k, p

    def in_p(self, v: AlgebraVector) -> bool:
        tv = self.apply_theta(v)
        if v.mode == MODE_EXACT:
            return all(a == -b for a, b in zip(tv.coeffs, v.coeffs))
        arr, tarr = v.to_array(), tv.to_array()
        return bool(np.max(np.abs(tarr + arr)) <= float_tol(float(np.max(np.abs(arr), initial=0.0))))

    def in_k(self, v: AlgebraVector) -> bool:
        tv = self.apply_theta(v)
        if v.mode == MODE_EXACT:
            return tv.coeffs == v.coeffs
        arr, tarr = v.to_array(), tv.to_array()
        return bool(np.max(np.abs(tarr - arr)) <= float_tol(float(np.max(np.abs(arr), initial=0.0))))

    def curvature_tensor(self, u: AlgebraVector, v: AlgebraVector,
                         w: AlgebraVector) -> AlgebraVector:
        """R(u,v)w = [[u,v],w] on p.

        Sign fixed so that the Jacobi operator jacobi(c,v) = R(c,v)c equals
        -ad_c^2 v, which is B-negative-semidefinite on p (nonpositive
        curvature); asserted by tests on the catalog algebras.
        """
        for z in (u, v, w):
            if not self.in_p(z):
                raise ValueError("curvature_tensor operands must lie in p")
        return self.bracket(self.bracket(u, v), w)

    def jacobi_operator(self, c: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
        return self.curvature_tensor(c, v, c)

    def _own(self, v):
        if len(v.coeffs) != self.dim:
            raise ValueError("vector has dimension %d, algebra has %d"
                             % (len(v.coeffs), self.dim))

    # -- validation ------------------------------------------------------------

    def validate(self, mode=MODE_EXACT) -> ValidationReport:
        if mode == MODE_EXACT:
            return self._validate_exact()
        if mode == MODE_FLOAT:
            return self._validate_float()
        raise ValueError("unknown mode %r" % (mode,))

    def _validate_exact(self) -> ValidationReport:
        d = self.dim
        rep = ValidationReport(name=self.name, mode=MODE_EXACT, dims={"d": d})

        # Antisymmetry is structural (the table stores i < j only); recorded
        # as an explicit zero so reports always carry the entry.
        rep.residuals["antisymmetry"] = 0.0

        worst = 0
        witness = None
        basis = [self.basis_vector(i) for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    s = self._bracket_exact(basis[i].coeffs,
                                            self._bracket_exact(basis[j].coeffs, basis[k].coeffs))
                    s = tuple(a + b for a, b in zip(
                        s, self._bracket_exact(basis[j].coeffs,
                                               self._bracket_exact(basis[k].coeffs, basis[i].coeffs))))
                    s = tuple(a + b for a, b in zip(
                        s, self._bracket_exact(basis[k].coeffs,
                                               self._bracket_exact(basis[i].coeffs, basis[j].coeffs))))
                    m = max((abs(x) for x in s), default=0)
                    if m > worst:
                        worst = m
                        witness = {
                            "triple": [self.labels[i], self.labels[j], self.labels[k]],
                            "residual": [str(x) for x in s],
                        }
        rep.residuals["jacobi"] = float(worst)
        if witness:
            rep.witnesses["jacobi"] = witness

        rep.checks["theta_involution"] = self.theta_squared_is_identity

        worst = 0
        for (i, j) in [(i, j) for i in range(d) for j in range(i + 1, d)]:
            lhs = mat_vec(self.theta, self._bracket_exact(basis[i].coeffs, basis[j].coeffs))
            ti = tuple(self.theta[r][i] for r in range(d))
            tj = tuple(self.theta[r][j] for r in range(d))
            rhs = self._bracket_exact(ti, tj)
            m = max((abs(a - b) for a, b in zip(lhs, rhs)), default=0)
            worst = max(worst, m)
        rep.residuals["theta_automorphism"] = float(worst)

        b = self.killing
        rep.residuals["killing_symmetry"] = float(
            max((abs(b[i][j] - b[j][i]) for i in range(d) for j in range(d)), default=0))
        bt = mat_mul(mat_mul(mat_transpose(self.theta), [list(r) for r in b]),
                     [list(r) for r in self.theta])
        rep.residuals["killing_theta_invariance"] = float(
            max((abs(bt[i][j] - b[i][j]) for i in range(d) for j in range(d)), default=0))

        worst = 0
        for i in range(d):
            adi = self.ad_columns[i]
            for j in range(d):
                lhs_vec = adi.get(j, {})
                for k in range(j, d):
                    term1 = sum(c * b[kk][k] for kk, c in lhs_vec.items())
                    term2 = sum(c * b[j][kk] for kk, c in adi.get(k, {}).items())
                    worst = max(worst, abs(term1 + term2))
        rep.residuals["killing_invariance"] = float(worst)

        rep.checks["killing_nondegenerate"] = rank([list(r) for r in b]) == d

        if self.theta_squared_is_identity:
            kb, pb = self.k_basis, self.p_basis
            rep.dims["k"] = len(kb)
            rep.dims["p"] = len(pb)
            rep.checks["eigenspace_split"] = len(kb) + len(pb) == d
            bk = [[self.killing_form(self.vector(x), self.vector(y)) for y in kb] for x in kb]
            bp = [[self.killing_form(self.vector(x), self.vector(y)) for y in pb] for x in pb]
            rep.checks["killing_negdef_on_k"] = is_negative_definite(bk) if kb else True
            rep.checks["killing_posdef_on_p"] = is_positive_definite(bp) if pb else False

            worst = 0
            pairs = [("kk", kb, kb, self.k_solver), ("kp", kb, pb, self.p_solver),
                     ("pp", pb, pb, self.k_solver)]
            for tag, left, right, solver in pairs:
                for x in left:
                    for y in right:
                        z = self._bracket_exact(x, y)
                        w = solver.transform(z)
                        tail = max((abs(t) for t in w[solver.rank:]), default=0)
                        worst = max(worst, tail)
            rep.residuals["bracket_parity"] = float(worst)
        else:
            rep.checks["eigenspace_split"] = False

        if self.realization is not None:
            self._validate_realization_exact(rep)
        return rep

    def _validate_realization_exact(self, rep: ValidationReport):
        real = self.realization
        d = self.dim
        ims = real.images
        worst_comm = 0
        for (i, j) in [(i, j) for i in range(d) for j in range(i + 1, d)]:
            expect = None
            for k, c in self.table.get((i, j), {}).items():
                scaled = qmat_scale(c, ims[k])
                expect = scaled if expect is None else qmat_add(expect, scaled)
            got = qmat_comm(ims[i], ims[j])
            diff = got if expect is None else qmat_sub(got, expect)
            m = max((max(abs(x.re), abs(x.im)) for row in diff for x in row), default=0)
            worst_comm = max(worst_comm, m)
        rep.residuals["realization_commutators"] = float(worst_comm)

        # d(theta)(X) = -X^dagger must match the declared Theta columnwise.
        worst = 0
        for i in range(d):
            lhs = qmat_scale(-1, qmat_conj_t(ims[i]))
            rhs = None
            for r in range(d):
                c = self.theta[r][i]
                if c != 0:
                    scaled = qmat_scale(c, ims[r])
                    rhs = scaled if rhs is None else qmat_add(rhs, scaled)
            diff = lhs if rhs is None else qmat_sub(lhs, rhs)
            m = max((max(abs(x.re), abs(x.im)) for row in diff for x in row), default=0)
            worst = max(worst, m)
        rep.residuals["realization_involution"] = float(worst)

        ok = True
        for im in ims:
            if real.unimodular and qmat_trace(im):
                ok = False
            if real.signature is not None:
                jm = qmat([[real.signature[r] if r == s else 0
                            for s in range(real.size)] for r in range(real.size)])
                rel = qmat_add(qmat_mul(qmat_conj_t(im), jm), qmat_mul(jm, im))
                if not qmat_is_zero(rel):
                    ok = False
        rep.checks["realization_algebra_relations"] = ok

    def _validate_float(self) -> ValidationReport:
        d = self.dim
        rep = ValidationReport(name=self.name, mode=MODE_FLOAT, dims={"d": d})
        c = self.structure_tensor
        rep.residuals["antisymmetry"] = float(np.max(np.abs(c + c.transpose(1, 0, 2)), initial=0.0))
        jac = (np.einsum("jka,iab->ijkb", c, c)
               + np.einsum("kia,jab->ijkb", c, c)
               + np.einsum("ija,kab->ijkb", c, c))
        rep.residuals["jacobi"] = float(np.max(np.abs(jac), initial=0.0))
        th = self.theta_float
        rep.checks["theta_involution"] = bool(np.max(np.abs(th @ th - np.eye(d))) <= 1e-12)
        lhs = np.einsum("ijk,lk->ijl", c, th)
        rhs = np.einsum("ri,sj,rsk->ijk", th, th, c)
        rep.residuals["theta_automorphism"] = float(np.max(np.abs(lhs - rhs), initial=0.0))
        b = self.killing_float
        rep.residuals["killing_symmetry"] = float(np.max(np.abs(b - b.T), initial=0.0))
        rep.residuals["killing_theta_invariance"] = float(np.max(np.abs(th.T @ b @ th - b), initial=0.0))
        inv = np.einsum("ija,ak->ijk", c, b) + np.einsum("ika,ja->ijk", c, b)
        rep.residuals["killing_invariance"] = float(np.max(np.abs(inv), initial=0.0))
        rep.checks["killing_nondegenerate"] = bool(
            np.linalg.matrix_rank(b, tol=1e-10) == d)
        return rep


def validate_algebra(a: StructuredLieAlgebra, mode=MODE_EXACT) -> ValidationReport:
    return a.validate(mode)
