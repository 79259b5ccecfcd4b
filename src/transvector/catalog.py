"""Built-in symmetric space catalog.

Each space is constructed from an explicit matrix model: the basis matrices
are written down, closure under commutators is certified by the row
operations of one exactla.SpanSolver (which double as the structure
constant extractor), and the abstract bracket table is what the rest of
the package consumes.  The matrices are retained as a MatrixRealization so
validation can cross-check the table against honest matrix commutators.

Supported families: su(n,1), so(n,1), n >= 2, sl(n,R).  The quaternionic
and Cayley hyperbolic spaces are intentionally absent; asking for them is a
config error, not a numerical failure.  So is so(1,1), which is abelian:
its Killing form vanishes, so it is not a semisimple symmetric pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .exactla import SpanSolver, div
from .liealg import (MODE_FLOAT, AlgebraVector, MatrixRealization, StructuredLieAlgebra,
                     abs_col_sum, int64_exact)
from .subspaces import Subspace

SPACE_IDS = ("su21", "su31", "so21", "so31", "sl2r", "sl3r")

# The largest n of an sl(n,R) id: build_space takes 0.04 s on sl7r (0.07 s
# on sl8r, 0.3 s on sl10r) and roots --space sl7r 0.5 s, near su91 (0.6 s),
# the slowest one-digit su/so id; roots --space sl8r takes 1.1 s
MAX_SL_N = 7


def parse_space_id(space_id: str):
    """Split an id like su21 / so31 / sl3r into (family, n)."""
    s = space_id.strip().lower()
    if s.startswith("sp") or s in ("f4", "f4-20", "oh2"):
        raise ConfigError(
            "space %r is quaternionic/octonionic and is not supported" % space_id)
    for fam in ("su", "so", "sl"):
        if s.startswith(fam):
            tail = s[len(fam):]
            # isdecimal, not isdigit: exactly the digits int() reads
            if fam == "sl":
                if not (tail.endswith("r") and tail[:-1].isdecimal()):
                    break
                # a run with more digits than the cap is past it; int() would
                # refuse one of more than 4300
                digits = tail[:-1].lstrip("0") or "0"
                n = int(digits) if len(digits) <= len(str(MAX_SL_N)) else MAX_SL_N + 1
                if n < 2:
                    break
                if n > MAX_SL_N:
                    raise ConfigError("space %r: sl(n,R) ids go up to n = %d"
                                      % (space_id, MAX_SL_N))
                return fam, n
            if not (len(tail) == 2 and tail.isdecimal() and tail[1] == "1"):
                break
            n = int(tail[0])
            if n < 1:
                break
            if fam == "so" and n == 1:
                raise ConfigError("space %r: so(1,1) is abelian, its Killing form is 0; "
                                  "so(n,1) ids start at n = 2" % space_id)
            return fam, n
    raise ConfigError("unrecognized space id %r (try one of %s)"
                      % (space_id, ", ".join(SPACE_IDS)))


# A basis matrix is written as its label and its nonzero entries
# (part, row, column, value), part 0 for the real and 1 for the imaginary part.

def _su_basis(n: int):
    """k first (F_jk, iS_jk, D_j), then p (P_j, Q_j); size n+1 matrices."""
    pairs = list(itertools.combinations(range(n), 2))
    basis = ([("F%d%d" % (j + 1, k + 1), [(0, j, k, 1), (0, k, j, -1)]) for j, k in pairs]
             + [("iS%d%d" % (j + 1, k + 1), [(1, j, k, 1), (1, k, j, 1)]) for j, k in pairs]
             + [("D%d" % (j + 1), [(1, j, j, 1), (1, n, n, -1)]) for j in range(n)])
    k_dim = len(basis)
    basis += [("P%d" % (j + 1), [(0, j, n, 1), (0, n, j, 1)]) for j in range(n)]
    basis += [("Q%d" % (j + 1), [(1, j, n, 1), (1, n, j, -1)]) for j in range(n)]
    return basis, n + 1, k_dim, (1,) * n + (-1,)


def _so_basis(n: int):
    basis = [("A%d%d" % (j + 1, k + 1), [(0, j, k, 1), (0, k, j, -1)])
             for j, k in itertools.combinations(range(n), 2)]
    k_dim = len(basis)
    basis += [("P%d" % (j + 1), [(0, j, n, 1), (0, n, j, 1)]) for j in range(n)]
    return basis, n + 1, k_dim, (1,) * n + (-1,)


def _sl_basis(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    basis = [("A%d%d" % (j + 1, k + 1), [(0, j, k, 1), (0, k, j, -1)]) for j, k in pairs]
    k_dim = len(basis)
    basis += [("H%d" % (i + 1), [(0, i, i, 1), (0, i + 1, i + 1, -1)]) for i in range(n - 1)]
    basis += [("S%d%d" % (j + 1, k + 1), [(0, j, k, 1), (0, k, j, 1)]) for j, k in pairs]
    return basis, n, k_dim, None


def positive_root_count(fam: str, n: int) -> int:
    """N = |Sigma+| of a catalog family (Helgason, ch. X, Table VI):
    su(n,1) has the roots lambda and 2 lambda, and 2 lambda alone at n = 1;
    so(n,1), n >= 2, has lambda; sl(n,R) has the roots e_i - e_j, i < j, of
    A_(n-1)."""
    if fam == "su":
        return 1 if n == 1 else 2
    if fam == "so":
        return 1
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def build_space(space_id: str) -> StructuredLieAlgebra:
    """Construct the named algebra with exact structure constants.

    The span solver run here proves the listed matrices are independent and
    close under commutators; any failure is a programming error in the basis
    tables, so it raises immediately.  Every commutator is one stacked
    product of the realified blocks [[A, -B], [B, A]] of A + iB, whose left
    column flattens to the real coordinates of A + iB.  The algebra carries
    its family's positive_root_count as root_count.
    """
    fam, n = parse_space_id(space_id)
    basis, size, k_dim, signature = {"su": _su_basis, "so": _so_basis,
                                     "sl": _sl_basis}[fam](n)
    d = len(basis)
    parts = np.zeros((2, d, size, size), dtype=np.int64)
    for b, (_, entries) in enumerate(basis):
        for part, i, j, value in entries:
            parts[part, b, i, j] = value
    real = MatrixRealization(size=size, re=parts[0], im=parts[1],
                             signature=signature, unimodular=True)
    r = real.realified(np.int64)
    solver = SpanSolver(r[:, :, :size].reshape(d, -1).tolist())
    if not solver.independent:
        raise RuntimeError("basis table for %s is dependent" % space_id)
    lo, hi = np.triu_indices(d, 1)
    comm = (r[lo] @ r[hi] - r[hi] @ r[lo])[:, :, :size].reshape(len(lo), 2 * size * size)
    # the first d integer row operations are divided back below
    ops = solver.int_row_ops
    if int64_exact(int(np.abs(ops).max(initial=0)), abs_col_sum(comm.T)):
        coords = ops.astype(np.int64) @ comm.T                     # (2 N^2, pairs)
    else:
        coords = ops @ comm.T.astype(object)
    if coords[d:].any():
        raise RuntimeError("basis table for %s does not close under commutators"
                           % space_id)
    scales = [math.lcm(*(c.denominator for c in row)) for row in solver.row_ops[:d]]
    brackets = {(int(lo[p]), int(hi[p])): {k: div(int(c), scales[k])
                                           for k, c in enumerate(col) if c != 0}
                for p, col in enumerate(coords[:d].T) if col.any()}
    theta = tuple(tuple((1 if j < k_dim else -1) if i == j else 0
                        for j in range(d)) for i in range(d))
    return StructuredLieAlgebra(labels=tuple(label for label, _ in basis),
                                brackets=brackets, theta=theta, realization=real,
                                name=space_id.strip().lower(),
                                root_count=positive_root_count(fam, n))


def complex_structure_matrix(a: StructuredLieAlgebra):
    """Exact ad(zeta) for su(n,1): zeta = (sum_j D_j)/(n+1) spans the center
    of k and squares to -1 on p.  Errors for non-Hermitian spaces."""
    fam, n = parse_space_id(a.name)
    if fam != "su":
        raise ConfigError("space %s has no invariant complex structure" % a.name)
    return a.ad_matrix(a.from_labels({"D%d" % (j + 1): Fraction(1, n + 1)
                                      for j in range(n)}))


@dataclass(frozen=True)
class CatalogEntry:
    """A named (space, subspace, section direction) test example."""

    space_id: str
    pair_name: str
    algebra: StructuredLieAlgebra
    s: Subspace
    normal_frame: tuple          # AlgebraVectors spanning the normal space in p
    x_default: AlgebraVector     # the first normal_frame vector
    totally_real: bool | None    # None when the space is not Hermitian
    description: str = ""

    def as_dict(self) -> dict:
        return {
            "space": self.space_id,
            "pair": self.pair_name,
            "s_dim": self.s.dim,
            "s_basis": [self.algebra.format_vector(v) for v in self.s.basis],
            "codim_in_p": len(self.algebra.p_basis) - self.s.dim,
            "normal_frame": [self.algebra.format_vector(v) for v in self.normal_frame],
            "x_default": self.algebra.format_vector(self.x_default),
            "totally_real": self.totally_real,
            "description": self.description,
        }


_PAIR_TABLE = {
    "su21": ("real-form", "complex-hyperplane"),
    "su31": ("real-form", "complex-hyperplane"),
    "so31": ("geodesic-plane",),
}

# pair name -> (the labels spanning s, given the n of su(n,1) or so(n,1);
# description)
_PAIR_SPANS = {
    "real-form": (lambda n: ["P%d" % j for j in range(1, n + 1)],
                  "real hyperbolic n-space inside complex hyperbolic n-space"),
    "complex-hyperplane": (lambda n: [f % j for j in range(1, n) for f in ("P%d", "Q%d")],
                           "complex hyperbolic hyperplane (one complex dimension down)"),
    "geodesic-plane": (lambda n: ["P%d" % j for j in range(1, n)],
                       "totally geodesic hyperplane in real hyperbolic space (codim 1)"),
}


def list_pairs() -> dict:
    """space id -> pair names, for the catalog listing."""
    return {k: tuple(v) for k, v in _PAIR_TABLE.items()}


@lru_cache(maxsize=None)
def build_pair(space_id: str, pair_name: str) -> CatalogEntry:
    """Construct a named reflective pair; the reflectivity certificate runs
    at build time so a bad table cannot escape into downstream checks.  It
    is two exact triple-system tests, on s and on its complement in p; the
    crosswise inclusions follow from them on a table that validates (see
    Subspace.is_reflective).  The normal frame is the basis of that
    complement, and the totally-real flag is computed on su spaces.

    Cached per (space, pair) like build_space, so the certificates run once
    per process; a build that raises is not cached."""
    sid = space_id.strip().lower()
    fam, n = parse_space_id(sid)  # surfaces the unsupported-family message first
    pairs = _PAIR_TABLE.get(sid)
    if pairs is None:
        raise ConfigError("space %r has no catalog pairs (known: %s)"
                          % (space_id, ", ".join(sorted(_PAIR_TABLE))))
    if pair_name not in pairs:
        raise ConfigError("space %s has pairs %s, not %r"
                          % (sid, ", ".join(pairs), pair_name))
    a = build_space(sid)
    labels, desc = _PAIR_SPANS[pair_name]
    s = Subspace(a, [a.from_labels({label: 1}) for label in labels(n)])
    ok, report = s.is_reflective()
    if not ok:
        raise RuntimeError("catalog pair %s/%s failed its reflectivity "
                           "certificate: %s" % (sid, pair_name, report))
    frame = s.orthocomplement_in_p().basis
    totreal = s.is_totally_real(complex_structure_matrix(a)) if fam == "su" else None
    return CatalogEntry(space_id=sid, pair_name=pair_name, algebra=a, s=s,
                        normal_frame=frame, x_default=frame[0],
                        totally_real=totreal, description=desc)


def bisector_equidistance_check(entry: CatalogEntry, r: float = 0.5,
                                grid=None, tol: float = 1e-8) -> dict:
    """Distance comparison of the extended hypersurface against the two
    points z_pm = exp(+-r J X_hat) o.

    For the complex-hyperplane pair the extension is exactly the bisector of
    z_pm: the projection to the complex spine span(X, JX) collapses the
    hypersurface onto the real spine geodesic exp(tX) o, which is the
    perpendicular bisector of the segment [z_-, z_+] inside the spine.  The
    endpoints must sit J-across the geodesic; putting them on the geodesic
    itself (exp(+-rX) o) is refuted by any q = exp(tX) o with t != 0.

    For the real-form pair J X_hat lies inside s, so z_pm land on S and the
    same construction fails by a margin on the order of 2r: that run is the
    negative control distinguishing the two congruence classes.

    d(f(t, y), z_pm) is the distance from exp(Y) o to exp(-tX) z_pm
    (geometry.grid_distances proves it): two charts of 2 + n + 2T and
    2 + n + 2T + 2nT matrices for n Y-nodes and T t-nodes.  The witness
    (t, y) is the first node of largest delta, and null when every delta is
    within tol.
    """
    from .geometry import GridSpec, ImmersionSpec, expm, grid_distances, realize

    a = entry.algebra
    fam, _ = parse_space_id(a.name)
    if fam != "su":
        raise ConfigError("bisector check needs a complex hyperbolic space")
    if grid is None:
        grid = GridSpec(t_steps=7, y_steps=7)
    jm = complex_structure_matrix(a)
    x = entry.x_default.to_array()
    xn = a.btheta_norm(x)     # sqrt B(X, X) for X in p; ImmersionSpec refuses others
    x_unit = x * (1.0 / xn)
    jx = jm.astype(float) @ x_unit
    spec = ImmersionSpec(a, entry.s, x_unit, grid=grid)
    t_nodes, y_nodes = grid.t_axis(), grid.y_nodes(entry.s.dim)
    d0, d = grid_distances(spec, t_nodes, y_nodes, expm(      # to z_+, z_-
        np.array([r, -r], dtype=float)[:, None, None] * realize(a, jx)))
    delta = np.abs(d[..., 0] - d[..., 1]).ravel()     # t-major
    k = int(np.argmax(delta))                         # its first maximum
    max_delta = float(delta[k])
    equidistant = max_delta <= tol
    witness = None                  # within tol the argmax is rounding
    if not equidistant:
        ti, yi = divmod(k, len(y_nodes))
        witness = {"t": float(t_nodes[ti]), "y": [float(c) for c in y_nodes[yi]]}
    return {
        "mode": MODE_FLOAT,
        "space": entry.space_id,
        "pair": entry.pair_name,
        "r": float(r),
        "x_norm": xn,
        "tolerance": tol,
        "base_point_gap": float(abs(d0[0] - d0[1])),
        "max_delta": max_delta,
        "witness": witness,
        "equidistant": equidistant,
        "samples": len(delta),
    }


@lru_cache(maxsize=None)
def negative_control():
    """A (subspace, X) pair in sl(3,R) that genuinely violates the extension
    condition at the first odd bracket: s = span(S12), X = H1 + S13 gives
    [X,[S12,X]] with an S23 component, which is neither in s nor zero.

    Kept out of build_pair on purpose: the pair is not reflective and exists
    to prove the detectors can say no.  Cached like build_pair, so the
    subspace, with its null rows and certify plan, is built once per
    process.
    """
    a = build_space("sl3r")
    s = Subspace(a, [a.from_labels({"S12": 1})])
    x = a.from_labels({"H1": 1, "S13": 1})
    return a, s, x
