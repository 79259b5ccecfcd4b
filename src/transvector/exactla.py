"""Exact linear algebra over the rationals.

Input matrices are exact: numpy arrays (int64 or dtype=object) or nested
rows of exact scalars.  An exact scalar is canonical: a Python int whenever
it is integral, a fractions.Fraction only when a real denominator remains
(frac is the one normaliser, div the one exact division).  Every catalog
algebra has integer structure constants, so its exact paths run on ints
alone; rational inputs run the same code in mixed int/Fraction arithmetic.
nullspace is the one exact kernel: it returns its basis as the rows of a
dtype=object array, the form every caller stacks and multiplies.  Catalog
algebras have dimension <= 15, so everything here is dense Gauss-Jordan:
clarity and exactness over asymptotics.  Elimination is fraction-free:
each row is scaled to Python ints once (scaling a row keeps its reduced
form), rows are combined on ints and kept primitive by their gcd, and each
pivot row is divided by its pivot once at the end.  Nothing in this module
touches floating point.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import cached_property

import numpy as np

# The most bits a numerator or a denominator read from an input (algebra
# files, --s, --X) may have.  It admits the 2^70 constants of the golden
# huge-*.alg files; a digit run or an exponent that could pass it is refused
# before any int is built from it.
RATIONAL_BITS = 256
_DIGIT_RUN_RE = re.compile(r"[\d_]+")
_EXPONENT_RE = re.compile(r"[eE]([+-]?[\d_]+)")


def frac(x):
    """Canonical exact scalar of an int, a string like '3/2' or a Fraction:
    an int when the denominator is 1, else a Fraction.  Floats are refused."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("refusing silent float -> Fraction coercion: %r" % (x,))
    q = x if isinstance(x, Fraction) else Fraction(x)
    return int(q.numerator) if q.denominator == 1 else q


def bounded(q):
    """q, when its numerator and denominator have at most RATIONAL_BITS
    bits; a ValueError (with no digits of q) otherwise."""
    if max(q.numerator.bit_length(), q.denominator.bit_length()) > RATIONAL_BITS:
        raise ValueError("a rational has a numerator or denominator of more "
                         "than %d bits" % RATIONAL_BITS)
    return q


def parse_rational(x):
    """The canonical exact scalar of an input rational: an int, or a string
    that Fraction reads ('-3', '3/4', '1.5', '2e-3'), within bounded.  A
    digit run of more than RATIONAL_BITS digits or an exponent past
    RATIONAL_BITS raises ValueError before Fraction builds anything."""
    if type(x) is not int:
        if any(len(run) > RATIONAL_BITS for run in _DIGIT_RUN_RE.findall(x)):
            raise ValueError("a rational has more than %d digits in a row" % RATIONAL_BITS)
        exponent = _EXPONENT_RE.search(x)
        if exponent and abs(int(exponent.group(1))) > RATIONAL_BITS:
            raise ValueError("a rational has an exponent past %d" % RATIONAL_BITS)
    return bounded(frac(x))


def div(a, b):
    """Exact quotient a / b of exact scalars, canonical (never a float)."""
    return frac(Fraction(a, b))


def vec_dot(a, b):
    return sum(map(operator.mul, a, b))


_INT = frozenset((int,))


def clear_denominators(v):
    """v times the lcm of its denominators, as Python ints: the same span
    and the same kernel, so membership and sign tests may use it.  Entries
    go through frac, so floats are refused."""
    v = tuple(v)
    if _INT.issuperset(map(type, v)):
        return v
    v = tuple(map(frac, v))
    lcm = math.lcm(*(c.denominator for c in v))
    return v if lcm == 1 else tuple(c.numerator * (lcm // c.denominator) for c in v)


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def rref(rows):
    """Reduced row echelon form, canonical scalars.  Returns (rows, pivot
    column indices).

    Fraction-free: each step replaces a row by pv * row - f * pivot_row and
    divides it by its gcd, so every entry stays a Python int until each
    pivot row is divided by its pivot once at the end."""
    m = [clear_denominators(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        pv = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i, c in enumerate(pivots):
        pv = m[i][c]
        if pv != 1:
            m[i] = [x // pv if x % pv == 0 else Fraction(x, pv) for x in m[i]]
    return [tuple(row) for row in m], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(m) -> np.ndarray:
    """Basis of {x : m x = 0} for an exact matrix m (r, n), an array or
    nested rows, as the rows of a dtype=object array (k, n) of canonical
    scalars: one row per free column, the identity when m has no rows."""
    m = np.asarray(m, dtype=object)
    n = m.shape[1]
    if not len(m):
        return np.eye(n, dtype=object)
    red, pivots = rref(m.tolist())
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return np.array(basis, dtype=object).reshape(len(free), n)


def invert(m):
    """Exact inverse, or None if singular."""
    n = len(m)
    aug = [tuple(m[i]) + tuple(int(j == i) for j in range(n)) for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [red[i][n:] for i in range(n)]


def sylvester_pivot(sym):
    """None when the symmetric matrix sym is positive definite, else (p, w):
    the first nonpositive pivot p of the symmetric elimination without
    pivoting, and an exact row w with w sym w^T = p.

    Valid precisely because a positive definite matrix never produces a
    nonpositive leading pivot; any zero or negative pivot disproves
    definiteness on the spot.  The elimination is E sym = U with E unit
    lower triangular, and w is row k of E, kept by the same row operations:
    row k of U is 0 before column k and E^T is unit upper triangular, so
    (E sym E^T)_kk = U_kk, the pivot.
    """
    n = len(sym)
    m = [list(row) for row in sym]
    ops = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return p, tuple(ops[k])
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = div(m[i][k], p)
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
                for j in range(k + 1):          # row k of E is 0 past k
                    ops[i][j] -= f * ops[k][j]
    return None


class SpanSolver:
    """Membership with respect to fixed spanning columns.

    Precomputes the row operations row_ops = T with T*A in reduced echelon
    form, so each query is a single matrix-vector product.  Columns need not
    be independent.  Membership needs only the rows of T past the rank,
    which annihilate the columns; scaling a row does not change its kernel,
    so each is stored scaled to integers and a membership test is integer
    dot products against zero.
    """

    def __init__(self, columns):
        columns = [tuple(c) for c in columns]
        self.dim = len(columns[0]) if columns else 0
        for c in columns:
            if len(c) != self.dim:
                raise ValueError("ragged columns")
        d, k = self.dim, len(columns)
        aug = [row + (0,) * i + (1,) + (0,) * (d - 1 - i)
               for i, row in enumerate(zip(*columns))]
        red, pivots = rref(aug)
        self.rank = sum(p < k for p in pivots)
        self.independent = self.rank == k
        self.row_ops = [row[k:] for row in red]
        self._null_rows = [clear_denominators(row) for row in self.row_ops[self.rank:]]

    @cached_property
    def int_row_ops(self) -> np.ndarray:
        """row_ops as a (d, d) dtype=object array, each row scaled to ints
        by the lcm of its denominators: with independent columns, row j <
        rank gives the j-th coordinate over them times a positive scale,
        and the rows past the rank keep their kernel."""
        return np.array([clear_denominators(row) for row in self.row_ops],
                        dtype=object).reshape(len(self.row_ops), self.dim)

    def contains(self, v) -> bool:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return not any(vec_dot(row, v) for row in self._null_rows)
