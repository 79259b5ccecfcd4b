"""Subspaces of the algebra and the structural predicates on them:
Lie triple system, reflective, totally real.

Membership in exact mode is a rational linear solve (a certificate);
in float mode a least-squares residual against the scale-aware tolerance
liealg.float_tol(||v||) = 1e-9 * (1 + ||v||).  Residuals are measured in the positive definite form
B_theta, so they are meaningful for vectors anywhere in g, not just in p.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exactla import SpanSolver, invert, mat_vec, nullspace
from .liealg import (
    MODE_EXACT,
    MODE_FLOAT,
    AlgebraVector,
    StructuredLieAlgebra,
    float_tol,
)


class Subspace:
    """Span of independent columns inside a fixed ambient algebra."""

    def __init__(self, algebra: StructuredLieAlgebra, basis, mode=None):
        self.algebra = algebra
        vectors = []
        for b in basis:
            if not isinstance(b, AlgebraVector):
                b = algebra.vector(b, mode or MODE_EXACT)
            vectors.append(b)
        if mode is None:
            mode = vectors[0].mode if vectors else MODE_EXACT
        if any(v.mode != mode for v in vectors):
            raise ValueError("mixed scalar modes in subspace basis")
        for v in vectors:
            if len(v.coeffs) != algebra.dim:
                raise ValueError("basis vector has wrong ambient dimension")
        self.basis = tuple(vectors)
        self.mode = mode
        if self.dim > algebra.dim:
            raise ValueError("more basis vectors than ambient dimensions")
        if mode == MODE_EXACT:
            if self.dim and not self.solver.independent:
                raise ValueError("subspace basis is linearly dependent")
        else:
            if self.dim and np.linalg.matrix_rank(self.basis_array, tol=1e-12) < self.dim:
                raise ValueError("subspace basis is numerically dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def solver(self) -> SpanSolver:
        return SpanSolver([b.coeffs for b in self.basis])

    @cached_property
    def basis_array(self) -> np.ndarray:
        """d x k float column matrix."""
        if not self.basis:
            return np.zeros((self.algebra.dim, 0))
        return np.stack([b.to_array() for b in self.basis], axis=1)

    # Gram data in B_theta for residual computation.
    @cached_property
    def _gram_exact(self):
        bt = self.algebra.btheta
        pair = [tuple(mat_vec(bt, b.coeffs)) for b in self.basis]  # k rows of length d
        gram = [tuple(sum(row[i] * b.coeffs[i] for i in range(self.algebra.dim))
                      for b in self.basis) for row in pair]
        ginv = invert([list(r) for r in gram])
        return pair, ginv

    @cached_property
    def _gram_float(self):
        bt = self.algebra.btheta_float
        pair = self.basis_array.T @ bt            # k x d
        gram = pair @ self.basis_array            # k x k
        return pair, gram

    def _residual_vector(self, v: AlgebraVector) -> AlgebraVector:
        """B_theta-orthogonal component of v relative to the span."""
        if self.dim == 0:
            return v
        if self.mode == MODE_EXACT:
            pair, ginv = self._gram_exact
            rhs = tuple(sum(row[i] * v.coeffs[i] for i in range(len(row)))
                        for row in pair)
            coords = mat_vec(ginv, rhs)
            proj = self.algebra.zero()
            for c, b in zip(coords, self.basis):
                proj = proj + b.scale(c)
            return v - proj
        pair, gram = self._gram_float
        coords = np.linalg.solve(gram, pair @ v.to_array())
        return AlgebraVector(tuple(v.to_array() - self.basis_array @ coords), MODE_FLOAT)

    def contains(self, v: AlgebraVector):
        """(member, residual): exact-mode members have residual exactly 0."""
        if v.mode != self.mode:
            raise ValueError("vector mode %s does not match subspace mode %s"
                             % (v.mode, self.mode))
        if len(v.coeffs) != self.algebra.dim:
            raise ValueError("ambient dimension mismatch")
        if self.mode == MODE_EXACT:
            if self.dim == 0:
                ok = v.is_zero()
            else:
                ok = self.solver.contains(v.coeffs)
            if ok:
                return True, 0.0
            return False, self.algebra.btheta_norm(self._residual_vector(v))
        res = self.algebra.btheta_norm(self._residual_vector(v))
        scale = self.algebra.btheta_norm(v)
        return res <= float_tol(scale), res

    def coordinates(self, v: AlgebraVector):
        if self.mode == MODE_EXACT:
            return self.solver.coordinates(v.coeffs)
        coords, *_ = np.linalg.lstsq(self.basis_array, v.to_array(), rcond=None)
        return tuple(coords)

    def member_from_coordinates(self, coords) -> AlgebraVector:
        out = self.algebra.zero(self.mode)
        for c, b in zip(coords, self.basis):
            out = out + b.scale(c)
        return out

    def in_p(self) -> bool:
        return all(self.algebra.in_p(b) for b in self.basis)

    def _require_p(self, what: str):
        if not self.in_p():
            raise ValueError("%s requires a subspace of p" % what)

    def orthocomplement_in_p(self) -> "Subspace":
        """B-orthogonal complement inside p; B restricted to p is definite."""
        self._require_p("orthocomplement_in_p")
        a = self.algebra
        pb = a.p_basis
        if self.mode == MODE_EXACT:
            if self.dim == 0:
                rows = []
            else:
                bk = a.killing
                rows = [tuple(sum(mat_vec(bk, b.coeffs)[i] * p[i] for i in range(a.dim))
                              for p in pb)
                        for b in self.basis]
            coords = nullspace(rows) if rows else [tuple(int(i == j) for i in range(len(pb)))
                                                   for j in range(len(pb))]
            vectors = []
            for co in coords:
                v = a.zero()
                for c, p in zip(co, pb):
                    v = v + a.vector(p).scale(c)
                vectors.append(v)
            return Subspace(a, vectors, MODE_EXACT)
        pb_f = a.p_basis_float
        pairing = self.basis_array.T @ a.killing_float @ pb_f
        if pairing.size == 0:
            null = np.eye(pb_f.shape[1])
        else:
            _, s, vt = np.linalg.svd(pairing)
            ns = vt[(s > 1e-12).sum():].T
            null = ns
        vectors = [AlgebraVector(tuple(pb_f @ null[:, j]), MODE_FLOAT)
                   for j in range(null.shape[1])]
        return Subspace(a, vectors, MODE_FLOAT)

    def is_lie_triple_system(self):
        """(verdict, witness): [[s,s],s] inside s on basis triples.

        Multilinearity makes basis triples complete, in contrast to the
        extension condition handled elsewhere.
        """
        self._require_p("is_lie_triple_system")
        a = self.algebra
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                inner = a.bracket(self.basis[i], self.basis[j])
                for k in range(self.dim):
                    v = a.bracket(inner, self.basis[k])
                    ok, res = self.contains(v)
                    if not ok:
                        return False, {
                            "triple": (i, j, k),
                            "vector": _coeff_strings(v),
                            "residual": res,
                        }
        return True, None

    def is_reflective(self):
        """(verdict, report): b and its complement are triple systems and the
        mixed double brackets land crosswise: [[b,c],b] in c, [[b,c],c] in b."""
        self._require_p("is_reflective")
        comp = self.orthocomplement_in_p()
        report = {"dim": self.dim, "codim": comp.dim}
        ok_b, wit_b = self.is_lie_triple_system()
        ok_c, wit_c = comp.is_lie_triple_system()
        report["triple_system"] = {"holds": ok_b, "witness": wit_b}
        report["complement_triple_system"] = {"holds": ok_c, "witness": wit_c}

        def mixed(target, tag):
            worst = 0.0
            witness = None
            holds = True
            for x in self.basis:
                for y in comp.basis:
                    inner = self.algebra.bracket(x, y)
                    sources = self.basis if tag == "into_complement" else comp.basis
                    for z in sources:
                        v = self.algebra.bracket(inner, z)
                        member, res = target.contains(v)
                        worst = max(worst, res)
                        if not member and witness is None:
                            holds = False
                            witness = {"vector": _coeff_strings(v), "residual": res}
            return {"holds": holds, "worst_residual": worst, "witness": witness}

        report["mixed_into_complement"] = mixed(comp, "into_complement")
        report["mixed_into_subspace"] = mixed(self, "into_subspace")
        verdict = (ok_b and ok_c
                   and report["mixed_into_complement"]["holds"]
                   and report["mixed_into_subspace"]["holds"])
        return verdict, report

    def is_totally_real(self, jmat) -> bool:
        """True when B(J x, y) = 0 for all basis pairs x, y of this subspace."""
        self._require_p("is_totally_real")
        a = self.algebra
        _check_complex_structure(a, jmat, self.mode)
        for x in self.basis:
            jx = _apply_matrix(a, jmat, x)
            for y in self.basis:
                val = a.killing_form(jx, y)
                if self.mode == MODE_EXACT:
                    if val != 0:
                        return False
                else:
                    if abs(val) > float_tol(a.btheta_norm(jx) * a.btheta_norm(y)):
                        return False
        return True


def _apply_matrix(a: StructuredLieAlgebra, m, v: AlgebraVector) -> AlgebraVector:
    if v.mode == MODE_FLOAT:
        arr = np.asarray(m, dtype=float) if not isinstance(m, np.ndarray) else m
        return AlgebraVector(tuple(arr @ v.to_array()), MODE_FLOAT)
    return AlgebraVector(mat_vec(m, v.coeffs), MODE_EXACT)


def _check_complex_structure(a: StructuredLieAlgebra, jmat, mode):
    """J^2 = -id on p and J orthogonal for B; raises when violated."""
    for p in a.p_basis:
        v = a.vector(p) if mode == MODE_EXACT else a.vector(p).astype(MODE_FLOAT)
        jjv = _apply_matrix(a, jmat, _apply_matrix(a, jmat, v))
        s = jjv + v
        if mode == MODE_EXACT:
            if not s.is_zero():
                raise ValueError("J^2 is not -identity on p")
        else:
            if np.max(np.abs(s.to_array())) > 1e-9:
                raise ValueError("J^2 is not -identity on p within tolerance")
        jv = _apply_matrix(a, jmat, v)
        diff = a.killing_form(jv, jv) - a.killing_form(v, v)
        if mode == MODE_EXACT:
            if diff != 0:
                raise ValueError("J is not B-orthogonal")
        else:
            if abs(diff) > 1e-9 * (1.0 + abs(a.killing_form(v, v))):
                raise ValueError("J is not B-orthogonal within tolerance")


def _coeff_strings(v: AlgebraVector):
    if v.mode == MODE_EXACT:
        return [str(c) for c in v.coeffs]
    return [repr(float(c)) for c in v.coeffs]

