"""Subspaces of the algebra and the structural predicates on them:
Lie triple system, reflective, totally real.

A Subspace is one exact span: its basis is a stack of canonical exact rows
(a float entry is refused), and the exactla.nullspace rows of that stack,
each scaled to ints, prove it independent by their count.  Membership takes
stacks of coefficient rows and branches once, on the kind of the rows;
contains tests one exact AlgebraVector.
Exact rows are decided by one product with those integer null rows (a
certificate).  Float64 rows, the t = 0 check of the geometry layer and the
transported-field series, are measured against the exact span: their
B_theta-orthogonal residual, from a float64 projector built once from the
rounded basis, is held against the scale-aware tolerance
liealg.float_tol(||v||) = 1e-9 * (1 + ||v||).
Residuals are measured in the positive definite form B_theta, so they are
meaningful for vectors anywhere in g, not just in p.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import NumericalBreakdown
from .exactla import clear_denominators, frac, invert, nullspace
from .liealg import AlgebraVector, StructuredLieAlgebra, canonical, coeff_strings, float_tol


def _exact_root(v) -> float:
    """sqrt(max(v, 0)) of an exact scalar as a float, v scaled by an even
    power of two below 2^1024 before the cast (the bits of
    np.sqrt(float(v)) wherever float(v) is finite); OverflowError when the
    root is past float64."""
    k = max(0, int(v).bit_length() // 2 - 511)
    return math.ldexp(math.sqrt(max(v / 4 ** k, 0)), k)


class Subspace:
    """Exact span of independent rows inside a fixed ambient algebra."""

    def __init__(self, algebra: StructuredLieAlgebra, basis):
        self.algebra = algebra
        rows = [b.coeffs if isinstance(b, AlgebraVector) else tuple(b) for b in basis]
        if any(len(r) != algebra.dim for r in rows):
            raise ValueError("basis vector has wrong ambient dimension")
        self.basis_rows = canonical(np.array(rows, dtype=object).reshape(-1, algebra.dim))
        if self.dim > algebra.dim:
            raise ValueError("more basis vectors than ambient dimensions")
        if len(self.null_rows) != algebra.dim - self.dim:
            raise ValueError("subspace basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    @cached_property
    def basis(self) -> tuple:
        """The basis rows as AlgebraVectors."""
        return tuple(self.algebra.vector(r) for r in self.basis_rows)

    @cached_property
    def _pairing(self):
        """(P, G^-1): P = basis @ B_theta (k, d) and the inverse of the Gram
        matrix G = P @ basis^T, dtype=object."""
        pair = self.basis_rows @ self.algebra.btheta_exact
        gram = pair @ self.basis_rows.T
        return pair, np.array(invert(gram), dtype=object).reshape(gram.shape)

    @cached_property
    def _projector(self) -> np.ndarray:
        """Q (d, d, float64) with v @ Q the B_theta-orthogonal component of a
        float row v off the span, built in float64 from the rounded basis."""
        rows = self.basis_rows.astype(float)
        pair = rows @ self.algebra.btheta_float
        return np.eye(self.algebra.dim) - pair.T @ np.linalg.inv(pair @ rows.T) @ rows

    @cached_property
    def null_rows(self) -> np.ndarray:
        """(r, d) dtype=object integer rows whose common kernel is the span:
        the kernel of the basis rows, each row scaled to ints; the identity
        for the zero subspace.  r = d - k exactly when the basis is
        independent."""
        null = nullspace(self.basis_rows)
        return np.array([clear_denominators(v) for v in null], dtype=object).reshape(null.shape)

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
        are measured.  Float64 rows are all projected by _projector, and a
        row is outside when its residual exceeds float_tol of its norm."""
        if vs.dtype.kind == "f":
            res = self._norms(vs @ self._projector)
            return res > float_tol(self._norms(vs)), res
        outside = (vs @ self.null_rows.T != 0).any(axis=-1)
        res = np.zeros(outside.shape)
        if outside.any():
            res[outside] = self._norms(vs[outside], self._pairing if self.dim else None)
        return outside, res

    def contains(self, v: AlgebraVector):
        """(member, residual) of an exact vector; members have residual
        exactly 0."""
        if len(v.coeffs) != self.algebra.dim:
            raise ValueError("ambient dimension mismatch")
        outside, res = self.membership(v.row()[None])
        return not outside[0], float(res[0])

    @cached_property
    def certify_plan(self):
        """The extension.CertifyPlan of this subspace, built on first use;
        it lives and dies with the subspace."""
        from .extension import CertifyPlan      # extension imports this module
        return CertifyPlan(self)

    def member_from_coordinates(self, coords) -> AlgebraVector:
        """coords @ basis for exact coordinates."""
        return self.algebra.vector(np.array(coords).astype(object) @ self.basis_rows)

    def in_p(self) -> bool:
        return self._in_p

    @cached_property
    def _in_p(self) -> bool:
        a = self.algebra
        return not np.count_nonzero(self.basis_rows @ (a.theta_exact + np.eye(a.dim, dtype=int)).T)

    def _require_p(self, what: str):
        if not self.in_p():
            raise ValueError("%s requires a subspace of p" % what)

    def orthocomplement_in_p(self) -> "Subspace":
        """B-orthogonal complement inside p; B restricted to p is definite.
        Its basis is c @ p for the coordinates c over the p-basis that pair
        to zero with every basis vector, the exact kernel of that pairing."""
        self._require_p("orthocomplement_in_p")
        a = self.algebra
        p = a.p_basis
        pairing = self.basis_rows @ a.killing_exact @ p.T      # B(b_i, p_j)
        return Subspace(a, nullspace(pairing) @ p)

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
                           "vector": coeff_strings(a.vector(triples[p, c])),
                           "residual": float(res[p, c])}
        return True, None

    def is_reflective(self):
        """(verdict, report): b and its B-orthocomplement c in p are both Lie
        triple systems.  The crosswise inclusions of reflectivity,
        [[b,c],b] in c and [[b,c],c] in b, then hold by proof.  Take x, y in
        b and z in c: [[x,z],y] lies in [[p,p],p], inside p, and for every w
        in b, B([[x,z],y], w) = B([x,z], [y,w]) = -B(z, [x,[y,w]]) = 0, since
        b is a triple system; so [[x,z],y] lies in c.  With c a triple
        system, the same argument puts [[x,z],z'] in b.  The premises are B
        invariant, [[p,p],p] in p and B definite on p: validate's
        killing_invariance, bracket_parity and killing_posdef_on_p."""
        self._require_p("is_reflective")
        comp = self.orthocomplement_in_p()
        ok_b, wit_b = self.is_lie_triple_system()
        ok_c, wit_c = comp.is_lie_triple_system()
        return ok_b and ok_c, {"dim": self.dim, "codim": comp.dim,
                               "triple_system": {"holds": ok_b, "witness": wit_b},
                               "complement_triple_system": {"holds": ok_c,
                                                            "witness": wit_c}}

    def is_totally_real(self, jmat) -> bool:
        """True when B(J x, y) = 0 exactly for all basis pairs x, y of this
        subspace."""
        self._require_p("is_totally_real")
        a, b = self.algebra, self.basis_rows
        jb = b @ _complex_structure(a, jmat).T
        return not np.count_nonzero(jb @ a.killing_exact @ b.T)


def _complex_structure(a: StructuredLieAlgebra, jmat) -> np.ndarray:
    """c J for jmat = J, once J^2 = -id on p and J is orthogonal for B there;
    raises otherwise.  c is the lcm of J's denominators, so c J is an
    integer matrix (and B(c J x, y) vanishes with B(J x, y))."""
    jm = np.array(jmat, dtype=object)
    scale = math.lcm(*(frac(x).denominator for x in jm.flat))
    jm = np.array(clear_denominators(jm.flat), dtype=object).reshape(jm.shape)
    p, killing = a.p_basis, a.killing_exact
    jp = p @ jm.T
    norms = np.einsum("ij,jk,ik->i", p, killing, p)        # B(v, v)
    if np.count_nonzero(jp @ jm.T + scale ** 2 * p):
        raise ValueError("J^2 is not -identity on p")
    if np.count_nonzero(np.einsum("ij,jk,ik->i", jp, killing, jp) - scale ** 2 * norms):
        raise ValueError("J is not B-orthogonal")
    return jm
