"""Floating-point model of the symmetric space G/K behind a realization.

Points live in one global normal-coordinate chart (the space is nonpositively
curved and simply connected, so exp at the base point is a diffeomorphism).
Everything metric is derived from three primitives: the exponential expm of
p-images (group elements exp(X), X in p), the polar projection cartan_project
(group element -> the p-coordinates that re-express its polar part) and the
pullback metric metric_matrix, g_P(u,v) = B(S(P)u, S(P)v),
S(P) = sinh(sqrt m)/sqrt m for m = ad_P^2 on p.  Each goes through one
stacked eigh.  The realization maps p to Hermitian matrices (validate checks
d theta(X) = -X^dagger exactly), so exp and log of a p-image act on its
eigenvalues.  m is self-adjoint for B, which is positive definite on p, so
in the frame of B = L L^T it is symmetric, and S^T B S is a function of its
eigenvalues too; m is quadratic in P, and its quadratic form is cached per
algebra (_p_metric).

All three take stacks, (..., N, N) matrices and (..., dim_p) coordinates, and
so do the points built on them: SpacePoint, distance, transvection and
immersion_point broadcast stacks, and one point is a stack of one.  Each slice
gets the LAPACK/BLAS call it would get alone, so its result is the same bits in
any stack.  Checks run in the order one point runs them, and each raises what
the first failing point of the stack would raise alone.  expm, cartan_project
and metric_matrix test the usual, good stack as a whole (one reduction per
check); per-matrix failure masks are built only when one of those tests fails,
to find the first failing point.

Points are charted in stages, one cartan_project call a stage: _charts
gathers several stacks of matrices into one call and splits the coordinates
back, and _chart_points takes every representative from one expm and charts
them for the round trip, in one more call, together with the matrices built
from them (the g1^-1 g2 of distances, transvected points).  The chart of a
representative is also its point's chart from the base point o, since o's
representative is I.  SpacePoint.from_matrix, immersion_point,
grid_distances (the bisector check) and distance_law_check take two calls
each, and each raises for its first failing stage.  The last two read
distances through the transvections, which are isometries like every left
translation: d(f(t, y), z) is the distance from exp(Y) o to exp(-tX) z, so
the bisector charts its S points and endpoints and never forms a grid node,
and the distance law's transvected S points are its nodes f(t, y).  Their
docstrings carry the proofs.

Mean curvature is evaluated in closed form from brackets, not estimated:
mean_curvature_estimate proves the formula it evaluates,
H = (1/m) (1 - Pi_s)[Z_k, Z_p] / B(Z_p, Z_p) for Z = e^(-ad_Y) X, and,
since H at (t, Y) depends on Y alone, works on its t and Y rows before they
are broadcast: one stacked eigh of the Hermitian Y-images gives both
exp(Y) and Z, and the group elements are one broadcasting product of the t
and Y exponentials.  metric_matrix is not on that path; it stays the
pullback metric of the model (a finite-difference oracle in the tests is
built on it).

mean_curvature_report sweeps the grid in blocks of at most CURVATURE_BLOCK
nodes, each a product of whole t rows and Y rows, so memory stays bounded on
any grid: per block one stack of t exponentials, one eigh of its Y rows,
one chart and one closed-form stack.  A block raises at its first failing
stage (chart, closed form), for the first node failing it; each node gets
the bits it gets alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalBreakdown
from .liealg import MODE_FLOAT, StructuredLieAlgebra
from .parallel import pmap  # noqa: F401  (only perfbench/tracing.py reads it)
from .report import write_files
from .subspaces import Subspace

TAYLOR_BELOW = 1e-5        # pullback stretch f(lam) is a polynomial below this
GROUP_TOL = 1e-10          # scale-aware group membership tolerance
REEXPRESS_TOL = 1e-8       # p-basis re-expression residual allowance
ROUNDTRIP_TOL = 1e-10      # SpacePoint representative consistency
DISTANCE_SLACK = 1e-3      # grid slack of the distance law's separation bound
CURVATURE_BLOCK = 128      # grid nodes per stacked mean-curvature block


def _require_realized(a: StructuredLieAlgebra):
    if a.realization is None:
        raise ConfigError("algebra %s carries no matrix realization" % (a.name or "?"))


@lru_cache(maxsize=None)
def _p_images(a: StructuredLieAlgebra):
    """Stacked complex images of the p-basis plus the re-expression pinv."""
    _require_realized(a)
    imgs = a.realization.images_complex          # (d, N, N)
    pb = _p_geometry(a)[0]                       # (d, dim_p)
    p_im = np.einsum("ij,ikl->jkl", pb, imgs)    # (dim_p, N, N)
    flat = np.concatenate([p_im.real.reshape(p_im.shape[0], -1),
                           p_im.imag.reshape(p_im.shape[0], -1)], axis=1)
    return p_im, np.linalg.pinv(flat.T)          # pinv maps flattened matrix -> coords


@lru_cache(maxsize=None)
def _p_geometry(a: StructuredLieAlgebra):
    """(Pb, pinv(Pb), Gram of B on the p-basis) as float arrays; Pb has one
    column per p-basis vector."""
    pbm = a.p_basis.T.astype(float)
    return pbm, np.linalg.pinv(pbm), pbm.T @ a.killing_float @ pbm


def _apply(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mat @ v for every vector of the stack vecs (..., n), one
    matrix-vector product per slice."""
    return (mat @ vecs[..., None])[..., 0]


def _raise_first_failure(checks):
    """Raise error(i) for the first flat index i failing any check; checks
    lists (failed mask over the stack, error) in the order one point's checks
    run, so among one point's failures the first listed wins."""
    firsts = [np.argmax(np.ravel(failed)) if np.any(failed) else np.inf
              for failed, _ in checks]
    k = min(range(len(firsts)), key=firsts.__getitem__)  # the first of equal indices
    if firsts[k] != np.inf:
        raise checks[k][1](int(firsts[k]))


def realize(a: StructuredLieAlgebra, v: np.ndarray) -> np.ndarray:
    """Matrix image of a float64 coefficient row."""
    _require_realized(a)
    return np.einsum("i,ikl->kl", v, a.realization.images_complex)


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _hermitian_eigh(h: np.ndarray):
    """(w, u, finite) of one stacked eigh of the Hermitian matrices of the
    stack h (..., N, N): h = u diag(w) u^dagger slice by slice.

    Every caller passes real combinations of p-images, Hermitian bit for bit;
    a finite matrix that is not is a ValueError.  A non-finite matrix (its
    exponent overflowed float64) is zeroed before eigh, which would refuse
    the whole stack, and finite masks it out (None when every matrix is
    finite); _from_eigh turns it into nan."""
    h = np.asarray(h)
    finite = None     # the usual stack: checked whole, without per-matrix masks
    if not (np.isfinite(h).all() and (h == _dagger(h)).all()):
        finite = np.all(np.isfinite(h), axis=(-2, -1))
        if np.any(finite & ~np.all(h == _dagger(h), axis=(-2, -1))):
            raise ValueError("expm takes Hermitian matrices only")
        h = np.where(finite[..., None, None], h, 0.0)
    w, u = np.linalg.eigh(h)
    return w, u, finite


def _from_eigh(out: np.ndarray, finite) -> np.ndarray:
    """out, with nan in every slice that finite (from _hermitian_eigh) masks."""
    if finite is not None:
        out[~finite] = np.nan
    return out


def _exp_eigh(w: np.ndarray, u: np.ndarray, finite) -> np.ndarray:
    """u diag(e^w) u^dagger from _hermitian_eigh's (w, u, finite)."""
    with np.errstate(over="ignore", invalid="ignore"):  # e^w = inf is kept
        return _from_eigh((u * np.exp(w)[..., None, :]) @ _dagger(u), finite)


def expm(h: np.ndarray) -> np.ndarray:
    """exp(h) = u diag(e^w) u^dagger for every Hermitian matrix of the stack
    h (..., N, N), from one stacked eigh (_hermitian_eigh): a finite matrix
    that is not Hermitian is a ValueError, and a non-finite matrix gives a
    nan result, which cartan_project refuses."""
    return _exp_eigh(*_hermitian_eigh(h))


def group_membership_residual(a: StructuredLieAlgebra, g: np.ndarray) -> np.ndarray:
    """Worst scaled residual of the realized group's defining relations, one
    per matrix of the stack g (..., N, N)."""
    _require_realized(a)
    norm = np.linalg.norm(g, axis=(-2, -1))
    worst = np.zeros(g.shape[:-2])
    jm = a.realization.j_matrix
    if jm is not None:        # J g: the rows of g scaled by J's diagonal
        rel = np.max(np.abs(_dagger(g) @ (np.diag(jm)[:, None] * g) - jm),
                     axis=(-2, -1))
        worst = np.maximum(worst, rel / (1.0 + norm ** 2))
    if a.realization.unimodular:
        det_scale = np.maximum(1.0, norm) ** g.shape[-1]
        worst = np.maximum(worst, np.abs(np.linalg.det(g) - 1.0) / det_scale)
    return worst


def _in_p(a: StructuredLieAlgebra, mats: np.ndarray):
    """(p-basis coordinates, residual norm, residual above REEXPRESS_TOL
    relative to 1 + ||M||) of every matrix M of the stack mats (..., N, N),
    re-expressed through _p_images' pinv."""
    p_im, pinv = _p_images(a)
    stack = mats.shape[:-2] + (mats.shape[-2] * mats.shape[-1],)
    co = _apply(pinv, np.concatenate([mats.real.reshape(stack),
                                      mats.imag.reshape(stack)], axis=-1))
    err = np.linalg.norm(np.einsum("...j,jkl->...kl", co, p_im) - mats,
                         axis=(-2, -1))
    return co, err, err > REEXPRESS_TOL * (1.0 + np.linalg.norm(mats, axis=(-2, -1)))


def cartan_project(a: StructuredLieAlgebra, g: np.ndarray) -> np.ndarray:
    """p-basis coordinates of the polar part P = 1/2 log(g g^dagger), one row
    per matrix of the stack g (..., N, N).

    The logarithm goes through an eigendecomposition of the positive-definite
    Hermitian factor.  A non-finite factor (g overflowed float64), a
    group-relation residual, a non-positive eigenvalue or a failed
    re-expression in p means g is not (numerically) in the realized group:
    NumericalBreakdown.  The coordinates returned are those of the
    re-expression."""
    g = np.asarray(g, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        res = group_membership_residual(a, g)
        m = g @ _dagger(g)
        m = 0.5 * (m + _dagger(m))
    finite = np.isfinite(m).all()
    if not finite:           # eigh would refuse the whole stack
        finite = np.all(np.isfinite(m), axis=(-2, -1))
        m = np.where(finite[..., None, None], m, np.eye(m.shape[-1]))
    w, u = np.linalg.eigh(m)
    with np.errstate(divide="ignore", invalid="ignore"):  # w <= 0 fails below
        pmat = (u * (0.5 * np.log(w))[..., None, :]) @ _dagger(u)
    co, err, outside = _in_p(a, pmat)
    w_min = w[..., 0]        # eigh sorts ascending
    if (not np.all(finite) or (res > GROUP_TOL).any() or (w_min <= 0.0).any()
            or outside.any()):
        _raise_first_failure([
            (~finite, lambda i: NumericalBreakdown(
                "polar factor is not finite: the matrix overflows float64")),
            (res > GROUP_TOL, lambda i: NumericalBreakdown(
                "matrix is not in the realized group "
                "(relation residual %.3e)" % res.flat[i])),
            (w_min <= 0.0, lambda i: NumericalBreakdown(
                "polar factor is not positive definite "
                "(min eigenvalue %.3e)" % w_min.flat[i])),
            (outside, lambda i: NumericalBreakdown(
                "polar part is not in p (residual %.3e); "
                "matrix outside the symmetric-space model" % err.flat[i])),
        ])
    return co


@dataclass
class SpacePoint:
    """A stack of points of M in global normal coordinates over the p-basis:
    coords is (..., dim_p), one point is a stack of one."""

    algebra: StructuredLieAlgebra
    coords: np.ndarray                      # p-basis coordinates, float
    _representative: np.ndarray = None

    @classmethod
    def base(cls, a: StructuredLieAlgebra) -> "SpacePoint":
        return cls(a, np.zeros(len(a.p_basis)))

    @classmethod
    def from_matrix(cls, a: StructuredLieAlgebra, g: np.ndarray) -> "SpacePoint":
        """The points of the stack g (..., N, N), once their representatives
        chart back to the same coordinates."""
        (pt,), (back,), _ = _chart_points(a, _charts(a, [g]))
        _raise_first_failure([_round_trip(pt, back)])
        return pt

    @property
    def representative(self) -> np.ndarray:
        if self._representative is None:
            self._representative = _exp_coords(self.algebra, self.coords)
        return self._representative


def _exp_coords(a: StructuredLieAlgebra, coords: np.ndarray) -> np.ndarray:
    """exp(P) of every p-coordinate row P of the stack coords (..., dim_p):
    the representatives of those points."""
    return expm(np.einsum("...j,jkl->...kl", coords, _p_images(a)[0]))


def _split(flat: np.ndarray, shapes) -> list:
    """The rows of flat (n, ...) back in stacks of the given shapes, in order."""
    parts = np.split(flat, np.cumsum([math.prod(s) for s in shapes])[:-1])
    return [part.reshape(s + flat.shape[1:]) for part, s in zip(parts, shapes)]


def _charts(a: StructuredLieAlgebra, stacks) -> list:
    """The coordinates of several stacks of matrices (..., N, N) from one
    cartan_project call, split back into one stack (..., dim_p) each.  It
    raises for the first failing matrix in the order the stacks are given."""
    shapes = [np.shape(g)[:-2] for g in stacks]
    return _split(cartan_project(a, np.concatenate(
        [np.reshape(g, (-1,) + np.shape(g)[-2:]) for g in stacks])), shapes)


def _chart_points(a: StructuredLieAlgebra, coords, ride=lambda *points: ()):
    """(the SpacePoints of the coordinate stacks coords (..., dim_p), the
    charts of their representatives, the charts of the matrices
    ride(*points) builds from them): one expm gives every representative,
    and one cartan_project call charts them together with ride's matrices.

    The chart of a representative checks its point's round trip
    (_round_trip), and is the chart of the point seen from the base point o
    as well: o's representative is I, and solve(I, M) returns M."""
    flat = np.concatenate([np.reshape(c, (-1, c.shape[-1])) for c in coords])
    reps = _split(_exp_coords(a, flat), [c.shape[:-1] for c in coords])
    points = [SpacePoint(a, c, rep) for c, rep in zip(coords, reps)]
    charts = _charts(a, [q.representative for q in points] + list(ride(*points)))
    return points, charts[:len(points)], charts[len(points):]


def _round_trip(pt: SpacePoint, back: np.ndarray):
    """The round-trip check of the points pt against the charts back of
    their representatives."""
    off = np.max(np.abs(back - pt.coords), axis=-1)
    return (off > ROUNDTRIP_TOL * (1.0 + np.max(np.abs(pt.coords), axis=-1)),
            lambda i: NumericalBreakdown("normal-coordinate round trip failed"))


def _b_norm(a: StructuredLieAlgebra, co: np.ndarray) -> np.ndarray:
    """||P||_B of every p-coordinate row of the stack co (..., dim_p)."""
    sq = (co[..., None, :] @ _p_geometry(a)[2] @ co[..., :, None])[..., 0, 0]
    return np.sqrt(np.where(sq > 0.0, sq, 0.0))


def distance(a: StructuredLieAlgebra, q1: SpacePoint, q2: SpacePoint) -> np.ndarray:
    """Geodesic distances d(q1, q2) = ||cartan_project(g1^{-1} g2)||_B, with
    the two stacks of points broadcast against each other."""
    return _b_norm(a, cartan_project(
        a, np.linalg.solve(q1.representative, q2.representative)))


def _stretch(lam: np.ndarray) -> np.ndarray:
    """f(lam) = sinh^2(sqrt lam) / lam for eigenvalues lam >= 0 of ad_P^2,
    by its Taylor polynomial 1 + lam/3 + 2 lam^2/45 below TAYLOR_BELOW
    (there its next term is under 1e-17 relative, and the formula is 0/0
    at 0).  Past sqrt lam = 355 it is inf."""
    return np.where(lam < TAYLOR_BELOW, 1.0 + lam * (1.0 / 3.0 + lam * (2.0 / 45.0)),
                    np.sinh(np.sqrt(lam)) ** 2 / lam)


@lru_cache(maxsize=None)
def _p_metric(a: StructuredLieAlgebra):
    """(L, Q): B on the p-basis is L L^T, and ad_P^2 on p, taken to the
    frame of L as m' = L^T m L^-T, is sum_jl c_j c_l q_jl in P's
    p-coordinates c.  Q holds q_jl as a (dim_p^2, dim_p^2) matrix, row
    r*dim_p + s of column j*dim_p + l, symmetric in (r, s) bit for bit.
    An algebra whose ad_{p_j} ad_{p_l} leave p numerically is refused."""
    pbm, pinv, gram = _p_geometry(a)
    ad = a.ad_stack(pbm.T).swapaxes(-1, -2)     # ad[j][:, i] = [p_j, e_i]
    pair = ad[:, None] @ ad[None, :] @ pbm      # ad_{p_j} ad_{p_l} on p
    q = pinv @ pair
    res = np.linalg.norm(pair - pbm @ q, axis=(-2, -1))
    scale = np.linalg.norm(ad, axis=(-2, -1))
    if (res > 1e-9 * (1.0 + np.outer(scale, scale))).any():
        raise NumericalBreakdown("ad_P^2 does not preserve p numerically")
    low = np.linalg.cholesky(gram)
    q = low.T @ q @ np.linalg.inv(low).T
    q = 0.5 * (q + q.swapaxes(2, 3))
    return low, np.ascontiguousarray(q.reshape(len(q) ** 2, -1).T)


def metric_matrix(a: StructuredLieAlgebra, p_coords: np.ndarray) -> np.ndarray:
    """Gram matrices of the pullback metric over the p-basis, one per point
    of the stack p_coords (..., dim_p): G_ij = B(S(P) u_i, S(P) u_j),
    S(P) = sinh(sqrt m)/sqrt m for m = ad_P^2 on p.  In the frame of
    B = L L^T, m' = V diag(lam) V^T from one stacked eigh gives
    G = (L V) diag(f(lam)) (L V)^T, f as in _stretch; eigenvalues below 0
    are rounding and taken as 0.  A point whose G is not finite raises."""
    low, q = _p_metric(a)
    c = np.asarray(p_coords, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        cc = (c[..., :, None] * c[..., None, :]).reshape(c.shape[:-1] + q.shape[1:])
        mp = _apply(q, cc).reshape(c.shape + c.shape[-1:])
        finite = np.isfinite(mp).all()
        if not finite:       # eigh would refuse the whole stack
            finite = np.all(np.isfinite(mp), axis=(-2, -1))
            mp = np.where(finite[..., None, None], mp, 0.0)
        lam, v = np.linalg.eigh(mp)
        lv = low @ v
        g = (lv * _stretch(np.maximum(lam, 0.0))[..., None, :]) @ np.swapaxes(lv, -1, -2)
        if not (np.all(finite) and np.isfinite(g).all()):
            finite &= np.all(np.isfinite(g), axis=(-2, -1))
            _raise_first_failure([(~finite, lambda i: NumericalBreakdown(
                "pullback metric overflows float64 (||P||_B = %.3e)"
                % _b_norm(a, c).flat[i]))])
    return g


@dataclass
class GridSpec:
    """Ranges and node counts for the chart parameters (t, Y-coordinates)."""

    t_range: tuple = (-0.75, 0.75)
    t_steps: int = 5
    y_range: tuple = (-0.75, 0.75)
    y_steps: int = 5

    def __post_init__(self):
        if self.t_steps < 1 or self.y_steps < 1:
            raise ConfigError("grid must have at least one node per axis")
        if not (self.t_range[0] <= self.t_range[1]
                and self.y_range[0] <= self.y_range[1]):
            raise ConfigError("grid ranges must be ordered (lo, hi)")

    def t_axis(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.t_steps)

    def y_axis(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.y_steps)

    def y_nodes(self, dim: int) -> np.ndarray:
        """Every Y-node, (y_steps**dim, dim), the last coordinate fastest."""
        index = np.indices((self.y_steps,) * dim).reshape(dim, -1)
        return self.y_axis()[np.ascontiguousarray(index.T)]

    def contains(self, t, y: np.ndarray) -> np.ndarray:
        """Mask of the nodes, stacks t (...) and y (..., dim s), in range."""
        return ((self.t_range[0] <= t) & (t <= self.t_range[1])
                & np.all((self.y_range[0] <= y) & (y <= self.y_range[1]), axis=-1))


@dataclass
class ImmersionSpec:
    """The data of the extended immersion f(t, Y) = exp(tX) exp(Y(y)) o.

    X is a float64 coefficient row of shape (d,).  Invariants enforced at
    construction: X lies in p bit for bit (Theta X = -X, which expm's exact
    Hermitian test needs), B(X, X) is a positive normal float (the closed
    form of the mean curvature divides by B(Z_p, Z_p) >= B(X, X)), X is
    B-orthogonal to s within 1e-10, s is a Lie triple system, and the grid
    is nonempty.  The minimality statement needs
    codimension >= 2; mean_curvature_estimate refuses a smaller one unless
    it measures the baseline.
    """

    algebra: StructuredLieAlgebra
    s: Subspace
    x: np.ndarray
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        a = self.algebra
        _require_realized(a)
        x = self.x
        if (a.theta_float @ x != -x).any():
            raise ConfigError("X must lie in p")
        bxx = float(x @ a.killing_float @ x)
        if not np.finfo(float).tiny <= bxx < np.inf:      # nan fails too
            raise ConfigError("B(X, X) = %r is not a positive normal float; X must "
                              "be a nonzero normal direction" % bxx)
        rows = self.s.basis_rows.astype(float)
        pairing = x @ a.killing_float @ rows.T
        off = np.flatnonzero(np.abs(pairing) > 1e-10 * (np.max(np.abs(x)) + 1.0))
        if off.size:
            raise ConfigError("X is not B-orthogonal to s "
                              "(pairing %.3e)" % pairing[off[0]])
        ok, witness = self.s.is_lie_triple_system()
        if not ok:
            raise ConfigError("s is not a Lie triple system: %s" % (witness,))
        self.codimension = len(a.p_basis) - self.s.dim
        self._x_matrix = realize(a, x)
        self._s_images = np.einsum("ij,jkl->ikl", rows, a.realization.images_complex)
        # the B-orthogonal projection onto s, on p-basis coordinates
        _, pinv, gram = _p_geometry(a)
        sp = pinv @ rows.T
        self._s_projector = sp @ np.linalg.inv(sp.T @ gram @ sp) @ sp.T @ gram
        self._y_kept = None     # (key, eigh) while mean_curvature_estimate runs

    @property
    def x_norm(self) -> float:
        return math.sqrt(float(self.x @ self.algebra.killing_float @ self.x))

    def y_matrix(self, y: np.ndarray) -> np.ndarray:
        """Matrices of Y(y), one per row of the stack y (..., dim s)."""
        return np.einsum("...j,jkl->...kl", np.asarray(y, dtype=float), self._s_images)

    def group_element(self, t, y: np.ndarray) -> np.ndarray:
        """exp(tX) exp(Y(y)); t (...) and y (..., dim s) broadcast as stacks,
        one matrix product of the t and Y exponentials.  expm runs once per
        distinct t and once per distinct y row, or, when y is the kept Y
        stack (_keep_y), exp(Y) comes from its kept eigh, the same bits."""
        t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
        x_orbit, = _per_distinct_row(
            t[..., None], lambda c: [expm(c[..., None] * self._x_matrix)])
        kept = self._kept_y(y)
        if kept is None:
            y_exp, = _per_distinct_row(y, lambda c: [expm(self.y_matrix(c))])
        else:
            y_exp = _exp_eigh(*kept).reshape(y.shape[:-1] + self._x_matrix.shape)
        return x_orbit @ y_exp

    def _keep_y(self, rows: np.ndarray):
        """Keep the checked eigh (_hermitian_eigh) of the Y-images of the
        rows (n, dim s) as the spec's Y stack until it is cleared:
        mean_curvature_estimate keeps its Y rows for the call, so that
        exp(Y) (group_element) and Z (_conjugated_x) of a block come from
        one decomposition."""
        self._y_kept = ((rows.shape[-1], rows.tobytes()),
                        _hermitian_eigh(self.y_matrix(rows)))

    def _kept_y(self, y: np.ndarray):
        """The kept eigh if the rows of the float stack y (..., dim s) are,
        in order, bit for bit the kept rows, else None."""
        kept = self._y_kept
        if kept is not None and kept[0] == (y.shape[-1], y.tobytes()):
            return kept[1]
        return None


def _per_distinct_row(keys: np.ndarray, fn) -> list:
    """fn(rows), a list of stacks with one slice per row, applied once to the
    distinct rows of the stack keys (..., w) and gathered back: one slice per
    row of keys, each stack (...) + its slice shape.  Rows are told apart by
    their bit patterns, so 0.0 and -0.0 get their own slices."""
    flat = np.ascontiguousarray(keys).reshape(-1, keys.shape[-1])
    bits = flat.view(np.uint64)
    order = np.lexsort(bits.T)              # stable: equal rows keep their order
    ordered = bits[order]
    new = np.ones(len(order), dtype=bool)   # each sorted row unlike the one before
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return [out[inverse].reshape(keys.shape[:-1] + out.shape[1:])
            for out in fn(flat[order[new]])]


def transvection(spec: ImmersionSpec, t, q: SpacePoint) -> SpacePoint:
    """psi_t(q): left multiplication by exp(tX); the stack t (...) broadcasts
    against the stack of points q."""
    tx = np.asarray(t, dtype=float)[..., None, None] * spec._x_matrix
    return SpacePoint.from_matrix(spec.algebra, expm(tx) @ q.representative)


def _grid_point(spec: ImmersionSpec, t, y):
    """(t, y) as float stacks, once y has dim s entries per node and every
    node lies in the declared grid ranges."""
    t, y = np.asarray(t, dtype=float), np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[-1] != spec.s.dim:
        raise ConfigError("expected %d Y-coordinates, got %d"
                          % (spec.s.dim, y.shape[-1]))
    _raise_first_failure([(~spec.grid.contains(t, y), lambda i: ConfigError(
        "(t, Y) lies outside the declared grid ranges"))])
    return t, y


def _left_s(spec: ImmersionSpec, t: np.ndarray, pt: SpacePoint):
    """The t = 0 recertification of the nodes t of the points pt: those whose
    coordinates leave s by more than 1e-9."""
    outside, res = spec.s.membership(_apply(_p_geometry(spec.algebra)[0], pt.coords))
    scale = 1.0 + np.max(np.abs(pt.coords), axis=-1)
    return ((t == 0.0) & (outside | (res > 1e-9 * scale)),
            lambda i: NumericalBreakdown("t = 0 point left s (residual %.3e)"
                                         % res.flat[i]))


def immersion_point(spec: ImmersionSpec, t, y) -> SpacePoint:
    """f(t, y) = exp(tX) exp(Y(y)) o for the stacks t (...) and y (..., dim s);
    the coordinates of the t = 0 nodes are recertified to lie in s within
    1e-9.  Every node is range-checked before any is charted."""
    t, y = _grid_point(spec, t, y)
    a = spec.algebra
    (pt,), (back,), _ = _chart_points(a, _charts(a, [spec.group_element(t, y)]))
    _raise_first_failure([_round_trip(pt, back), _left_s(spec, t, pt)])
    return pt


def grid_distances(spec: ImmersionSpec, t, y, g: np.ndarray):
    """(d(o, z), d(f(t_i, y_j), z)) for the points z of the stack of group
    elements g (k, N, N), every t_i of the axis t (T,) and every row y_j
    of y (n, dim s): stacks (k,) and (T, n, k).

    d(f(t, y), z) = ||cartan_project(g_S^-1 g_w)||_B for the representatives
    g_S of the S point exp(Y) o and g_w of the endpoint w = exp(-tX) z.
    Proof:
    - Left translations are isometries.  exp(-tX) carries f(t, y) to
      exp(Y) o = g_S o and z to w, and g_S^-1 carries g_S o to o, so
      d(f(t, y), z) = d(o, g_S^-1 g_w o).
    - The chart is geodesic normal coordinates at o, and
      d(o, exp(P) o) = ||P||_B; g = exp(P) k with k in K has
      g g^dagger = exp(2P), as the realization maps K to unitary matrices,
      so cartan_project(g) = P for every g with g o = exp(P) o.
    So the nodes f(t, y) are never formed: the n S points, the T k
    endpoints and the n T k matrices between them carry every distance.

    Two cartan_project calls: one charts g, the S points and the endpoints;
    one charts their representatives and every g_S^-1 g_w.  What fails
    first is raised: the range of a node, before any matrix is built; then
    the first failing matrix of the first call, then of the second, in that
    order; then the round trip of the first failing z; then the round trip
    or the t = 0 recertification of the first failing S point; then the
    round trip of the first failing endpoint."""
    t, y = _grid_point(spec, np.reshape(t, (-1, 1)), y)
    a = spec.algebra
    ends = expm(-t[..., None] * spec._x_matrix)[:, None] @ g     # (T, k, N, N)
    (z, s, w), (z_back, s_back, w_back), (between,) = _chart_points(
        a, _charts(a, [g, expm(spec.y_matrix(y)), ends]),
        lambda z, s, w: [np.linalg.solve(s.representative[None, :, None],
                                         w.representative[:, None])])
    _raise_first_failure([_round_trip(z, z_back)])
    _raise_first_failure([_round_trip(s, s_back), _left_s(spec, 0.0, s)])
    _raise_first_failure([_round_trip(w, w_back)])
    return _b_norm(a, z_back), _b_norm(a, between)


def _conjugated_x(spec: ImmersionSpec, y: np.ndarray) -> np.ndarray:
    """Z = e^(-Y) X e^Y = e^(-ad_Y) X for every row of the stack y (n, dim s),
    from the checked eigh of the Hermitian Y-images, the kept one when y is
    the kept stack (ImmersionSpec._keep_y): Y = U diag(w) U^dagger gives
    Z = U (U^dagger X U)_ij e^(w_j - w_i) U^dagger.  An overflowed exponent
    or a non-finite Y-image gives a non-finite Z, which _closed_form marks."""
    kept = spec._kept_y(np.asarray(y, dtype=float))
    w, u, finite = _hermitian_eigh(spec.y_matrix(y)) if kept is None else kept
    ud = _dagger(u)
    with np.errstate(over="ignore", invalid="ignore"):
        conjugated = (ud @ spec._x_matrix @ u) * np.exp(w[..., None, :] - w[..., :, None])
        return _from_eigh(u @ conjugated @ ud, finite)


def _brackets(spec: ImmersionSpec, y: np.ndarray):
    """_in_p of Z_p and [Z_k, Z_p], stacked in that order on a leading axis
    of 2, for every row of the stack y (n, dim s): Z_p and Z_k are the
    Hermitian and anti-Hermitian parts of Z = e^(-Y) X e^Y, its p and k
    parts."""
    z = _conjugated_x(spec, y)
    with np.errstate(over="ignore", invalid="ignore"):
        zp, zk = 0.5 * (z + _dagger(z)), 0.5 * (z - _dagger(z))
        return _in_p(spec.algebra, np.stack([zp, zk @ zp - zp @ zk]))


def _closed_form(spec: ImmersionSpec, y: np.ndarray):
    """(H, ||H||_B, not finite, re-expression residual, residual above
    REEXPRESS_TOL) for every row of the stack y (n, dim s), as
    mean_curvature_estimate states them: H on p-basis coordinates at o, and
    the worse residual of re-expressing Z_p and [Z_k, Z_p] in p.  H is not
    finite when Z, [Z_k, Z_p] or B(Z_p, Z_p) overflows float64."""
    a = spec.algebra
    (zp, bracket), err, outside = _brackets(spec, y)
    with np.errstate(over="ignore", invalid="ignore"):
        normal = bracket - _apply(spec._s_projector, bracket)
        bzz = (zp[:, None, :] @ _p_geometry(a)[2] @ zp[:, :, None])[:, 0, 0]
        h = normal / ((spec.s.dim + 1) * bzz)[:, None]
        norm = _b_norm(a, h)
    finite = np.isfinite(h).all(axis=-1) & np.isfinite(bzz) & np.isfinite(norm)
    return h, norm, ~finite, err.max(axis=0), outside.any(axis=0)


def mean_curvature_estimate(spec: ImmersionSpec, t, y, baseline: bool = False):
    """Mean curvature vectors of the immersion f(t, Y) = exp(tX) exp(Y) o at
    the nodes of the stacks t (...) and y (..., dim s), broadcast, in closed
    form.  Returns (H on p-basis coordinates, translated to o by
    exp(-Y) exp(-tX); ||H||_B; chart coordinates of the points), one per
    node.

    H = (1/m) (1 - Pi_s)[Z_k, Z_p] / B(Z_p, Z_p), with Z = e^(-ad_Y) X =
    Z_p + Z_k split along p + k, m = dim s + 1 and Pi_s the B-orthogonal
    projection onto s.  Proof:
    - The isometries exp(tau X) carry f(t, Y) to f(t + tau, Y), so H at
      (t, Y) is H at (0, Y) carried along: its translate to o depends on Y
      only.
    - exp(-Y) exp(-tX) carries the immersed patch through f(t, Y) to the
      patch (tau, V) -> exp(tau Z) exp(V) o, V in s, through o: exp(Y) maps
      the totally geodesic S = exp(s) o to itself.  In normal coordinates
      at o the Christoffel symbols vanish, so H = (1/m) (g^ab d_a d_b P)^perp
      for the chart P(tau, V) of the patch.  To second order (BCH and the
      polar split exp(A) = exp(P) k),
      P = tau Z_p + V + tau [Z_k, V] + tau^2 [Z_k, Z_p] / 2.
    - The tangent vectors are Z_p = cosh(ad_Y) X and s.  B(Z_p, V) =
      B(X, cosh(ad_Y) V) = 0 for V in s, because s is a Lie triple system
      (ad_Y^2 s lies in s) and X is B-orthogonal to s.  So the induced
      metric is block-diagonal, and the mixed second derivatives [Z_k, V]
      never enter the trace.  ImmersionSpec admits a pairing B(X, s) up to
      1e-10, so the terms dropped are of that relative order.
    - d_V d_V P = 0: the patch is linear in V at tau = 0, and S is totally
      geodesic, so those directions have no normal part.
    - d_tau d_tau P = [Z_k, Z_p], and B([Z_k, Z_p], Z_p) = 0 by the
      invariance of B; so its normal part is (1 - Pi_s)[Z_k, Z_p], traced
      against g^tautau = 1 / B(Z_p, Z_p).  That quotient is well posed:
      ad_Y^2 is positive semidefinite on p, so B(Z_p, Z_p) >= B(X, X), a
      positive normal float.
    baseline=True measures the frozen-t slice Y -> exp(tX) exp(Y) o instead:
    it is exp(tX) S, totally geodesic, so its H is 0 by the same proof.

    t and y are worked on as given, before they are broadcast, so a product
    grid, t (k, 1) against the n rows y (n, dim s), takes one exponential
    per distinct t, one checked eigh of the n Y-images, kept on the spec
    for the call (ImmersionSpec._keep_y) so that it gives both exp(Y) and
    Z, one closed form per Y row, the k n group elements from one
    broadcasting product (group_element), and one cartan_project call that
    charts every node for its point.  What fails first is raised: the range
    of a node; then the chart of the first failing node; then the first
    node whose H is not finite or whose Z_p or [Z_k, Z_p] leaves p by more
    than REEXPRESS_TOL, in that check order: the closed form's masks are
    broadcast to the nodes before either is raised.
    """
    a = spec.algebra
    if spec.codimension < 2 and not baseline:
        raise ConfigError("mean curvature of the extension needs codimension "
                          ">= 2; this spec has %d" % spec.codimension)
    t, y = _grid_point(spec, t, y)
    rows = y.reshape(-1, y.shape[-1])
    try:
        spec._keep_y(rows)
        curvature = () if baseline else _closed_form(spec, rows)
        g = spec.group_element(t, y)
    finally:
        spec._y_kept = None
    shape = g.shape[:-2]
    points = cartan_project(a, g.reshape((-1,) + g.shape[-2:])).reshape(shape + (-1,))
    if baseline:
        return np.zeros_like(points), np.zeros(shape), points
    normals, norms, bad, err, outside = (_to_nodes(v, y.shape[:-1], shape)
                                         for v in curvature)
    _raise_first_failure([
        (bad, lambda i: NumericalBreakdown(
            "mean curvature overflows float64: Z = e^-Y X e^Y or "
            "[Z_k, Z_p] is not finite")),
        (outside, lambda i: NumericalBreakdown(
            "Z_p or [Z_k, Z_p] is not in p (residual %.3e)" % err.flat[i]))])
    return normals, norms, points


def _to_nodes(v: np.ndarray, lead: tuple, shape: tuple) -> np.ndarray:
    """The stack v (n, ...), one slice per row of a y stack lead + (dim s,),
    broadcast to the nodes shape, as a new array shape + v.shape[1:]."""
    out = np.empty(shape + v.shape[1:], dtype=v.dtype)
    out[...] = v.reshape(lead + v.shape[1:])
    return out


@dataclass
class CurvatureReport:
    """Grid sweep of mean-curvature norms."""

    mode = MODE_FLOAT              # a float64 measurement
    entries: list
    max_norm: float
    baseline: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_norm <= self.tolerance

    def as_dict(self) -> dict:
        return {**vars(self), "mode": self.mode, "passed": self.passed}


def mean_curvature_report(spec: ImmersionSpec, tolerance: float = 1e-4,
                          baseline: bool = False) -> CurvatureReport:
    """Sweep the declared grid, t-major, in blocks of at most CURVATURE_BLOCK
    nodes, one mean_curvature_estimate call a block, each a product of whole
    t rows and Y rows: k = max(1, CURVATURE_BLOCK // n) t values against all
    n Y nodes, or, when n > CURVATURE_BLOCK, one t value against a chunk of
    CURVATURE_BLOCK Y nodes."""
    t_axis, y_nodes = spec.grid.t_axis(), spec.grid.y_nodes(spec.s.dim)
    n = len(y_nodes)
    k, chunk = max(1, CURVATURE_BLOCK // n), min(n, CURVATURE_BLOCK)
    blocks = [mean_curvature_estimate(spec, t_axis[i:i + k, None], y_nodes[j:j + chunk],
                                      baseline=baseline)[1:]
              for i in range(0, len(t_axis), k) for j in range(0, n, chunk)]
    norms, points = (np.concatenate([v.reshape((-1,) + v.shape[2:]) for v in parts])
                     for parts in zip(*blocks))
    entries = [{"t": t, "y": list(y), "norm": norm, "point": point}
               for (t, y), norm, point in zip(
                   itertools.product(t_axis.tolist(), y_nodes.tolist()),
                   norms.tolist(), points.tolist())]
    return CurvatureReport(entries=entries, max_norm=float(np.max(norms)),
                           baseline=baseline, tolerance=tolerance)


def _law_samples(spec: ImmersionSpec, t_samples, y_samples):
    """The distance law's t samples, sorted, with 0 added, and its Y samples
    as an (n, dim s) array, once there is a Y sample, each has dim s
    coordinates and every value is finite."""
    ts = [float(t) for t in t_samples]
    ts = np.array(sorted(ts if 0.0 in ts else ts + [0.0]))
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_samples]
    if not ys:
        raise ConfigError("the distance law needs at least one Y sample")
    for y in ys:
        if y.shape != (spec.s.dim,):
            raise ConfigError("expected %d Y-coordinates, got %d"
                              % (spec.s.dim, y.size))
    ys = np.array(ys)
    if not (np.isfinite(ts).all() and np.isfinite(ys).all()):
        raise ConfigError("distance-law samples must be finite")
    return ts, ys


def _law_distances(spec: ImmersionSpec, ts: np.ndarray, ys: np.ndarray):
    """(d(o, exp(tX) o) per t; d(f(t, y_i), f(0, y_j)) per t != 0, i, j;
    d(o, f(t, y_j)) per t, j) for the samples of _law_samples, in the two
    stages distance_law_check states."""
    a = spec.algebra
    orbit = expm(ts[:, None, None] * spec._x_matrix)
    points, backs, (between,) = _chart_points(a, _charts(a, [
        orbit, orbit[:, None] @ expm(spec.y_matrix(ys))]),
        lambda _, f: [np.linalg.solve(f.representative[ts == 0.0][-1, None, None],
                                      f.representative[ts != 0.0][:, :, None])])
    for pt, back in zip(points, backs):
        _raise_first_failure([_round_trip(pt, back)])
    return _b_norm(a, backs[0]), _b_norm(a, between), _b_norm(a, backs[1])


def distance_law_check(spec: ImmersionSpec, t_samples, y_samples) -> dict:
    """The three distance statements for the extended immersion.

    (i) the normal orbit through o is a geodesic with speed ||X||_B;
    (ii) points of psi_t(S) keep distance at least |t| ||X||_B from the
        S-sample set, up to DISTANCE_SLACK, with equality at the
        foot point o;
    (iii) t -> d(o, psi_t(q)) is minimized at t = 0 and monotone on each side.
    Violations are report entries, not exceptions.

    Samples that are missing, of the wrong width or not finite are a
    ConfigError before any matrix is built.  Every distance is read off the
    charts of the orbit exp(tX) and of the points f(t, y), t = 0 included:
    - f(0, y) = exp(Y) o is the S sample, and psi_t(exp(Y) o) =
      exp(tX) exp(Y) o = f(t, y), so (iii) reads the distance from o of
      f(t, y), and (ii) the distance between f(t, y_i) and f(0, y_j).
    - The chart of a representative is its point's chart from o
      (_chart_points), and d(q, exp(Y_j) o) = ||cartan_project(g_j^-1 g_q)||_B
      for the representatives g_j of the S sample and g_q of q: g_j^-1 is an
      isometry carrying exp(Y_j) o to o (grid_distances has the argument).
    Two cartan_project calls, one a stage: (1) the orbit and every f(t, y);
    (2) their representatives and every g_j^-1 g_q, q = f(t, y_i), t != 0.
    What fails first is raised: the first failing matrix of stage 1, then
    of stage 2, in the order listed; then the round trip of the first
    failing orbit point, then of the first failing f point, t-major.
    """
    ts, ys = _law_samples(spec, t_samples, y_samples)
    bound, off = np.abs(ts) * spec.x_norm, ts != 0.0
    orbit, between, d = _law_distances(spec, ts, ys)

    geo_worst = float(np.max(np.abs(orbit - bound)))
    geodesic = {"worst_residual": geo_worst, "tolerance": 1e-9,
                "holds": geo_worst <= 1e-9}

    # distance from f(t, y), t != 0, to the nearest S-sample
    foot = ~np.any(ys, axis=-1)
    dmin = np.min(between, axis=-1)
    sep_violation = float(np.max(bound[off, None] - DISTANCE_SLACK - dmin, initial=0.0))
    eq_gap = float(np.max(np.abs(dmin - bound[off, None])[:, foot], initial=0.0))
    separation = {"worst_violation": sep_violation, "slack": DISTANCE_SLACK,
                  "equality_gap_at_foot": eq_gap if foot.any() else None,
                  "holds": sep_violation <= 0.0
                  and (not foot.any() or eq_gap <= DISTANCE_SLACK)}

    # d(o, psi_t(q)) = d(o, f(t, y)) over (t, S-sample): no step toward
    # t = 0 may climb
    step = np.diff(d, axis=0)
    left = (ts[1:, None] <= 0.0) & (d[1:] > d[:-1] + 1e-12)
    right = (ts[:-1, None] >= 0.0) & (d[:-1] > d[1:] + 1e-12)
    below = np.min(d, axis=0) < d[ts == 0.0][-1] - 1e-12
    global_min = {"holds": not (left.any() or right.any() or below.any()),
                  "worst_increase_toward_zero": float(np.max(np.concatenate(
                      [step[left], -step[right]]), initial=0.0))}

    return {
        "mode": MODE_FLOAT,
        "x_norm": spec.x_norm,
        "geodesic": geodesic,
        "separation": separation,
        "global_min": global_min,
        "passed": geodesic["holds"] and separation["holds"] and global_min["holds"],
    }


def export_point_cloud(report: CurvatureReport, csv_path: str | None = None,
                       ply_path: str | None = None) -> dict:
    """Write the report's grid as CSV (t, Y, chart coords, |H|) and/or PLY
    (first three chart coordinates), both or neither (report.write_files).
    Node counts above 10^7 are refused before any file is touched."""
    n = len(report.entries)
    if n > 10 ** 7:
        raise ConfigError("point cloud with %d nodes exceeds the export limit" % n)
    texts, written = {}, {}
    if csv_path:
        fh = io.StringIO()
        w = csv.writer(fh)
        ydim = len(report.entries[0]["y"]) if n else 0
        pdim = len(report.entries[0]["point"]) if n else 0
        w.writerow(["t"] + ["y%d" % (i + 1) for i in range(ydim)]
                   + ["p%d" % (i + 1) for i in range(pdim)] + ["mean_h"])
        for e in report.entries:
            w.writerow([e["t"]] + list(e["y"]) + list(e["point"]) + [e["norm"]])
        texts[csv_path], written["csv"] = fh.getvalue(), csv_path
    if ply_path:
        lines = ["ply", "format ascii 1.0", "element vertex %d" % n, "property float x",
                 "property float y", "property float z", "end_header"]
        for e in report.entries:
            p = list(e["point"]) + [0.0, 0.0, 0.0]
            lines.append("%g %g %g" % (p[0], p[1], p[2]))
        texts[ply_path], written["ply"] = "\n".join(lines) + "\n", ply_path
    write_files(texts)
    return written
