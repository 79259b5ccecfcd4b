"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of row tuples of exact scalars; vectors are
tuples.  An exact scalar is canonical: a Python int whenever it is integral,
a fractions.Fraction only when a real denominator remains (frac is the one
normaliser, div the one exact division).  Every catalog algebra has integer
structure constants, so its exact paths run on ints alone; rational inputs
run the same code in mixed int/Fraction arithmetic.  Catalog algebras have
dimension <= 15, so everything here is plain dense Gauss-Jordan: clarity and
exactness over asymptotics.  Nothing in this module touches floating point.

Complex scalars appear only through Gaussian rationals (the Qi class), used
by matrix realizations with entries a + b*i, a and b rational.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def frac(x):
    """Canonical exact scalar of an int, a string like '3/2' or a Fraction:
    an int when the denominator is 1, else a Fraction.  Floats are refused."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("refusing silent float -> Fraction coercion: %r" % (x,))
    q = x if isinstance(x, Fraction) else Fraction(x)
    return int(q.numerator) if q.denominator == 1 else q


def div(a, b):
    """Exact quotient a / b of exact scalars, canonical (never a float)."""
    return frac(Fraction(a, b))


def vec_dot(a, b):
    return sum(map(operator.mul, a, b))


def clear_denominators(v):
    """v times the lcm of its denominators, as Python ints: the same span
    and the same kernel, so membership and sign tests may use it."""
    lcm = math.lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (lcm // c.denominator) for c in v)


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def rref(rows):
    """Reduced row echelon form, canonical scalars.  Returns (rows, pivot
    column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [div(x, pv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(map(frac, row)) for row in m], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of {x : M x = 0} as a list of vectors, empty if trivial."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def invert(m):
    """Exact inverse, or None if singular."""
    n = len(m)
    aug = [tuple(m[i]) + tuple(int(j == i) for j in range(n)) for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [red[i][n:] for i in range(n)]


def solve(m, b):
    """One solution of M x = b, or None if inconsistent."""
    aug = [tuple(row) + (bv,) for row, bv in zip(m, b)]
    red, pivots = rref(aug)
    ncols = len(m[0]) if m else 0
    if ncols in pivots:  # pivot in the augmented column
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def is_positive_definite(sym) -> bool:
    """Sylvester test via symmetric elimination without pivoting.

    Valid precisely because a positive definite matrix never produces a
    nonpositive leading pivot; any zero or negative pivot disproves
    definiteness on the spot.
    """
    n = len(sym)
    m = [list(row) for row in sym]
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = div(m[i][k], p)
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def is_negative_definite(sym) -> bool:
    return is_positive_definite([tuple(-x for x in row) for row in sym])


class SpanSolver:
    """Membership and coordinates with respect to fixed spanning columns.

    Precomputes row operations T with T*A in reduced echelon form, so each
    query is a single matrix-vector product.  Columns need not be
    independent; coordinates() is only offered when they are.  Membership
    needs only the rows of T past the rank, which annihilate the columns;
    scaling a row does not change its kernel, so each is stored scaled to
    integers and a membership test is integer dot products against zero.
    """

    def __init__(self, columns):
        columns = [tuple(c) for c in columns]
        self.ncols = len(columns)
        self.dim = len(columns[0]) if columns else 0
        for c in columns:
            if len(c) != self.dim:
                raise ValueError("ragged columns")
        d, k = self.dim, self.ncols
        aug = [tuple(columns[j][i] for j in range(k))
               + tuple(int(j == i) for j in range(d))
               for i in range(d)]
        red, pivots = rref(aug)
        self.pivots = [p for p in pivots if p < k]
        self.rank = len(self.pivots)
        self._t = [row[k:] for row in red]
        self._null_rows = [clear_denominators(row) for row in self._t[self.rank:]]
        self.independent = self.rank == k

    def transform(self, v):
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(row, v) for row in self._t)

    def contains(self, v) -> bool:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return not any(vec_dot(row, v) for row in self._null_rows)

    def coordinates(self, v):
        """Coefficients c with A c = v, or None if v is outside the span."""
        if not self.independent:
            raise ValueError("columns are dependent; coordinates are not unique")
        w = self.transform(v)
        if any(x != 0 for x in w[self.rank:]):
            return None
        c = [0] * self.ncols
        for r, pc in enumerate(self.pivots):
            c[pc] = w[r]
        return tuple(c)


# ---------------------------------------------------------------------------
# Gaussian rationals and exact complex matrices.

class Qi:
    """Gaussian rational a + b*i with canonical exact parts (see frac)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", frac(re))
        object.__setattr__(self, "im", frac(im))

    def __setattr__(self, *_):
        raise AttributeError("Qi is immutable")

    def __add__(self, o):
        o = _as_qi(o)
        return Qi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _as_qi(o)
        return Qi(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _as_qi(o) - self

    def __mul__(self, o):
        o = _as_qi(o)
        return Qi(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __eq__(self, o):
        o = _as_qi(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return "Qi(%s, %s)" % (self.re, self.im)


QI0 = Qi(0, 0)


def _as_qi(x) -> Qi:
    if isinstance(x, Qi):
        return x
    return Qi(x)


def qmat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def qmat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = QI0
            for t in range(k):
                x = a[i][t]
                if x:
                    s = s + x * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def qmat_comm(a, b):
    return qmat_sub(qmat_mul(a, b), qmat_mul(b, a))


def qmat_realify(a):
    """Flatten to a real coordinate vector (all re parts, then all im parts)."""
    res = [x.re for row in a for x in row]
    ims = [x.im for row in a for x in row]
    return tuple(res + ims)
