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

import math
from functools import cached_property

import numpy as np

from .errors import NumericalBreakdown
from .exactla import SpanSolver, clear_denominators, frac, invert
from .liealg import (
    MODE_EXACT,
    AlgebraVector,
    StructuredLieAlgebra,
    coeff_strings,
    float_tol,
    kernel_rows,
)


def _exact_root(v) -> float:
    """sqrt(max(v, 0)) of an exact scalar as a float, v scaled by an even
    power of two below 2^1024 before the cast (the bits of
    np.sqrt(float(v)) wherever float(v) is finite); OverflowError when the
    root is past float64."""
    k = max(0, int(v).bit_length() // 2 - 511)
    return math.ldexp(math.sqrt(max(v / 4 ** k, 0)), k)


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
        exact = self.mode == MODE_EXACT
        a = self.algebra
        pair = self.basis_rows @ (a.btheta_exact if exact else a.btheta_float)
        gram = pair @ self.basis_rows.T
        if exact:
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
        w = v @ P^T, which exact arithmetic gives exactly.  An exact square
        past float64 is rooted before the cast; a norm past float64 raises
        NumericalBreakdown."""
        q = np.einsum("...i,ij,...j->...", vs, self.algebra.btheta_exact.astype(vs.dtype), vs)
        if pairing is not None:
            w = vs @ pairing[0].T
            q = q - np.einsum("...i,ij,...j->...", w, pairing[1], w)
        try:
            q = q.astype(float)
        except OverflowError:
            try:
                return np.array([_exact_root(v) for v in q.ravel()]).reshape(q.shape)
            except OverflowError:
                bits = int(max(map(abs, q.ravel()))).bit_length()
                raise NumericalBreakdown("a squared B_theta residual of about 2^%d "
                                         "overflows float64" % bits) from None
        return np.sqrt(np.maximum(q, 0.0))

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
        kind = object if self.mode == MODE_EXACT else float
        return self.algebra.vector(np.array(coords, dtype=kind) @ self.basis_rows, self.mode)

    def in_p(self) -> bool:
        return all(self.algebra.in_p(b) for b in self.basis)

    def _require_p(self, what: str):
        if not self.in_p():
            raise ValueError("%s requires a subspace of p" % what)

    def orthocomplement_in_p(self) -> "Subspace":
        """B-orthogonal complement inside p; B restricted to p is definite.
        Its basis is c @ p for the coordinates c over the p-basis that pair
        to zero with every basis vector: an exact kernel, or the right
        singular vectors of the float pairing past its numerical rank."""
        self._require_p("orthocomplement_in_p")
        a = self.algebra
        p, killing = _p_rows(a, self.mode), _killing(a, self.mode)
        pairing = self.basis_rows @ killing @ p.T          # B(b_i, p_j)
        if self.mode == MODE_EXACT or not self.dim:
            null = kernel_rows(pairing)
        else:
            _, sv, vt = np.linalg.svd(pairing)
            null = vt[(sv > 1e-12).sum():]
        return Subspace(a, null @ p, self.mode)

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
                           "vector": coeff_strings(a.vector(triples[p, c], self.mode)),
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
                witness = {"vector": coeff_strings(a.vector(v[at], self.mode)),
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
        """True when B(J x, y) = 0 for all basis pairs x, y of this subspace,
        exactly or within float_tol of |J x| |y| in B_theta."""
        self._require_p("is_totally_real")
        a, b = self.algebra, self.basis_rows
        jb = b @ _complex_structure(a, jmat, self.mode).T
        pairing = np.abs(jb @ _killing(a, self.mode) @ b.T)
        tol = 0 if self.mode == MODE_EXACT else float_tol(np.outer(self._norms(jb),
                                                                  self._norms(b)))
        return bool((pairing <= tol).all())


def _p_rows(a: StructuredLieAlgebra, mode) -> np.ndarray:
    """The p-basis as rows (dim p, d): dtype=object exact, float64 float."""
    if mode == MODE_EXACT:
        return np.array(a.p_basis, dtype=object).reshape(-1, a.dim)
    return a.p_basis_float.T


def _killing(a: StructuredLieAlgebra, mode) -> np.ndarray:
    return a.killing_exact if mode == MODE_EXACT else a.killing_float


def _complex_structure(a: StructuredLieAlgebra, jmat, mode) -> np.ndarray:
    """c J for jmat = J, once J^2 = -id on p and J is orthogonal for B there
    (exactly, or within 1e-9); raises otherwise.  In exact mode c is the
    lcm of J's denominators, so c J is an integer matrix (and B(c J x, y)
    vanishes with B(J x, y)); in float mode c = 1."""
    exact = mode == MODE_EXACT
    jm = np.array(jmat, dtype=object if exact else float)
    scale = 1
    if exact:
        scale = math.lcm(*(frac(x).denominator for x in jm.flat))
        jm = np.array(clear_denominators(jm.flat), dtype=object).reshape(jm.shape)
    p, killing = _p_rows(a, mode), _killing(a, mode)
    jp = p @ jm.T
    square = np.abs(jp @ jm.T + scale ** 2 * p)
    norms = np.einsum("ij,jk,ik->i", p, killing, p)        # B(v, v)
    stretch = np.abs(np.einsum("ij,jk,ik->i", jp, killing, jp) - scale ** 2 * norms)
    tol, within = (0, "") if exact else (1e-9, " within tolerance")
    if square.max(initial=0) > tol:
        raise ValueError("J^2 is not -identity on p" + within)
    if (stretch > tol * (1 + np.abs(norms))).any():
        raise ValueError("J is not B-orthogonal" + within)
    return jm
