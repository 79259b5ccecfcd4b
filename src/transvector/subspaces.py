"""Subspaces of the algebra and the structural predicates on them:
Lie triple system, reflective, totally real.

Membership takes stacks of coefficient rows.  In exact mode it is one
product with integer rows whose common kernel is the span (a certificate);
in float mode the B_theta-orthogonal residual is held against the
scale-aware tolerance liealg.float_tol(||v||) = 1e-9 * (1 + ||v||).
Residuals are measured in the positive definite form B_theta, so they are
meaningful for vectors anywhere in g, not just in p.
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
            if self.dim and np.linalg.matrix_rank(self.basis_rows, tol=1e-12) < self.dim:
                raise ValueError("subspace basis is numerically dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def solver(self) -> SpanSolver:
        return SpanSolver([b.coeffs for b in self.basis])

    @cached_property
    def basis_rows(self) -> np.ndarray:
        """(k, d) stack of the basis: dtype=object exact, float64 float."""
        kind = object if self.mode == MODE_EXACT else float
        return np.array([b.coeffs for b in self.basis], dtype=kind).reshape(-1, self.algebra.dim)

    @cached_property
    def _pairing(self):
        """(P, G^-1): P = basis @ B_theta (k, d) and the inverse of the Gram
        matrix G = P @ basis^T, dtype=object exact, float64 float."""
        kind = object if self.mode == MODE_EXACT else float
        pair = self.basis_rows @ np.array(self.algebra.btheta, dtype=kind)
        gram = pair @ self.basis_rows.T
        if kind is object:
            return pair, np.array(invert(gram), dtype=object).reshape(gram.shape)
        return pair, np.linalg.inv(gram)

    @cached_property
    def _projector(self) -> np.ndarray:
        """Q (d, d, float64) with v @ Q the B_theta-orthogonal component of v
        off the span."""
        pair, inv = self._pairing
        return np.eye(self.algebra.dim) - pair.T @ inv @ self.basis_rows

    @cached_property
    def null_rows(self) -> np.ndarray:
        """(r, d) dtype=object integer rows whose common kernel is the span
        (exact mode): the solver's rows past the rank, or the identity for
        the zero subspace."""
        d = self.algebra.dim
        if not self.dim:
            return np.eye(d, dtype=object)
        return np.array(self.solver._null_rows, dtype=object).reshape(-1, d)

    def _norms(self, vs: np.ndarray, pairing=None) -> np.ndarray:
        """B_theta norms of the rows of vs, as floats; with pairing = (P,
        G^-1), of their components off the span, |v|^2 - w G^-1 w^T for
        w = v @ P^T, which exact arithmetic gives exactly."""
        q = np.einsum("...i,ij,...j->...", vs, np.array(self.algebra.btheta, dtype=vs.dtype), vs)
        if pairing is not None:
            w = vs @ pairing[0].T
            q = q - np.einsum("...i,ij,...j->...", w, pairing[1], w)
        return np.sqrt(np.maximum(q.astype(float), 0.0))

    def membership(self, vs: np.ndarray):
        """(outside, residuals) for the rows of the stack vs (..., d): the
        mask of the rows that leave the span, and their B_theta residual
        norms as floats.  Exact rows are decided by one product with the
        integer null rows; members read exactly 0.0 and only the rows outside
        are measured.  Float rows are all projected, and a row is outside
        when its residual exceeds float_tol of its norm."""
        if self.mode == MODE_EXACT:
            outside = (vs @ self.null_rows.T != 0).any(axis=-1)
            res = np.zeros(outside.shape)
            if outside.any():
                res[outside] = self._norms(vs[outside], self._pairing if self.dim else None)
            return outside, res
        res = self._norms(vs @ self._projector)
        return res > float_tol(self._norms(vs)), res

    def contains(self, v: AlgebraVector):
        """(member, residual): exact-mode members have residual exactly 0."""
        if v.mode != self.mode:
            raise ValueError("vector mode %s does not match subspace mode %s"
                             % (v.mode, self.mode))
        if len(v.coeffs) != self.algebra.dim:
            raise ValueError("ambient dimension mismatch")
        outside, res = self.membership(v.row()[None])
        return not outside[0], float(res[0])

    def coordinates(self, v: AlgebraVector):
        if self.mode == MODE_EXACT:
            return self.solver.coordinates(v.coeffs)
        coords, *_ = np.linalg.lstsq(self.basis_rows.T, v.to_array(), rcond=None)
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
        pairing = self.basis_rows @ a.killing_float @ pb_f
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
        """(verdict, witness): [[s,s],s] inside s on basis triples, all in one
        stacked pass; the witness is the first failing (i < j, k).  A
        subspace does not change, so the pass runs once per instance.

        Multilinearity makes basis triples complete, in contrast to the
        extension condition handled elsewhere.
        """
        return self._lie_triple_system

    @cached_property
    def _lie_triple_system(self):
        self._require_p("is_lie_triple_system")
        a, b = self.algebra, self.basis_rows
        i, j = np.triu_indices(self.dim, 1)
        inner = (b[j, None] @ a.ad_stack(b[i]))[:, 0]       # [b_i, b_j], i < j
        triples = b @ a.ad_stack(inner)                     # [[b_i, b_j], b_c]
        outside, res = self.membership(triples)
        for p, c in zip(*np.nonzero(outside)):
            return False, {"triple": (int(i[p]), int(j[p]), int(c)),
                           "vector": _coeff_strings(a.vector(triples[p, c], self.mode)),
                           "residual": float(res[p, c])}
        return True, None

    def is_reflective(self):
        """(verdict, report): b and its complement are triple systems and the
        mixed double brackets land crosswise: [[b,c],b] in c, [[b,c],c] in b."""
        self._require_p("is_reflective")
        a = self.algebra
        comp = self.orthocomplement_in_p()
        report = {"dim": self.dim, "codim": comp.dim}
        ok_b, wit_b = self.is_lie_triple_system()
        ok_c, wit_c = comp.is_lie_triple_system()
        report["triple_system"] = {"holds": ok_b, "witness": wit_b}
        report["complement_triple_system"] = {"holds": ok_c, "witness": wit_c}
        inner = (comp.basis_rows @ a.ad_stack(self.basis_rows)).reshape(-1, a.dim)

        def mixed(target, sources):
            v = sources @ a.ad_stack(inner)       # [[x, y], z] at (x*codim + y, z)
            outside, res = target.membership(v)
            witness = None
            for at in zip(*np.nonzero(outside)):
                witness = {"vector": _coeff_strings(a.vector(v[at], self.mode)),
                           "residual": float(res[at])}
                break
            return {"holds": not outside.any(), "worst_residual": float(res.max(initial=0.0)),
                    "witness": witness}

        report["mixed_into_complement"] = mixed(comp, self.basis_rows)
        report["mixed_into_subspace"] = mixed(self, comp.basis_rows)
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
        return AlgebraVector(tuple(np.asarray(m, dtype=float) @ v.to_array()), MODE_FLOAT)
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

