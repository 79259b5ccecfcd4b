"""Floating-point model of the symmetric space G/K behind a realization.

Points live in one global normal-coordinate chart (the space is nonpositively
curved and simply connected, so exp at the base point is a diffeomorphism).
Everything metric is derived from three primitives: the exponential expm of
p-images (group elements exp(X), X in p), the polar projection cartan_project
(group element -> the p-coordinates that re-express its polar part) and the
pullback metric metric_matrix, g_P(u,v) = B(S(P)u, S(P)v),
S(P) = sum_k ad_P^{2k}/(2k+1)! on p.  The realization maps p to Hermitian
matrices (validate checks d theta(X) = -X^dagger exactly), so expm and
cartan_project each go through one stacked eigh: exp and log of a Hermitian
matrix act on its eigenvalues.

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
representative is I.  SpacePoint.from_matrix and immersion_point take two
calls, immersion_distances (the bisector check) two and distance_law_check
three; each raises for its first failing stage.

Mean curvature comes from central finite differences in the chart: _stencil
evaluates a stack-aware function once on the centre, x0 +- h e_i and the
corners x0 +- h e_i +- h e_j of every node of a stack.  On the chart that
gives the derivatives of the immersion map, on the metric the ambient
Christoffel symbols; the Hessian is traced against the induced metric and
projected onto the normal space.  The estimator is O(h^2); with the default
h = 1e-3 its error budget sits near 1e-6, two decades under the acceptance
tolerance for the minimal cases.

mean_curvature_report sweeps the grid in blocks of CURVATURE_BLOCK nodes, so
memory stays bounded on any grid: one chart and one metric stack per block,
then one stacked tail (Christoffel contraction, induced metric and its
condition check, Hessian trace, normal projection) over the block's nodes.  A
block raises at its first failing stage (chart, metric, induced metric), for
the first node failing it; each node gets the bits it gets alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalBreakdown
from .liealg import MODE_FLOAT, StructuredLieAlgebra
from .parallel import pmap  # noqa: F401  (only perfbench/tracing.py reads it)
from .subspaces import Subspace

SERIES_EPS = 1e-13         # absolute tail cutoff; leading term is the identity
# Most terms a pullback metric series may take, a safety bound for library
# callers.  On the su21 and su31 pairs the default construct grids stop
# within 13 terms, and grids out to t in [-3, 3], y in [-1.5, 1.5] within
# 23; at t in [-4, 4], y in [-2, 2] the chart refuses before the metric runs.
SERIES_MAX_TERMS = 60
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
    pb = a.p_basis.T.astype(float)               # (d, dim_p)
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
    k = int(np.argmin(firsts))             # the first of equal indices
    if firsts[k] != np.inf:
        raise checks[k][1](firsts[k])


def realize(a: StructuredLieAlgebra, v: np.ndarray) -> np.ndarray:
    """Matrix image of a float64 coefficient row."""
    _require_realized(a)
    return np.einsum("i,ikl->kl", v, a.realization.images_complex)


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def expm(h: np.ndarray) -> np.ndarray:
    """exp(h) = u diag(e^w) u^dagger for every Hermitian matrix of the stack
    h (..., N, N), from one stacked eigh.

    Every caller passes real combinations of p-images, Hermitian bit for bit;
    a finite matrix that is not is a ValueError.  A non-finite matrix (its
    exponent overflowed float64) gives a non-finite result, which
    cartan_project refuses."""
    h = np.asarray(h)
    finite = None     # the usual stack: checked whole, without per-matrix masks
    if not (np.isfinite(h).all() and (h == _dagger(h)).all()):
        finite = np.all(np.isfinite(h), axis=(-2, -1))
        if np.any(finite & ~np.all(h == _dagger(h), axis=(-2, -1))):
            raise ValueError("expm takes Hermitian matrices only")
        h = np.where(finite[..., None, None], h, 0.0)  # eigh refuses a whole stack
    w, u = np.linalg.eigh(h)
    with np.errstate(over="ignore", invalid="ignore"):  # e^w = inf is kept
        out = (u * np.exp(w)[..., None, :]) @ _dagger(u)
    if finite is not None:
        out[~finite] = np.nan
    return out


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
    p_im, pinv = _p_images(a)
    stack = pmat.shape[:-2] + (pmat.shape[-2] * pmat.shape[-1],)
    co = _apply(pinv, np.concatenate([pmat.real.reshape(stack),
                                      pmat.imag.reshape(stack)], axis=-1))
    err = np.linalg.norm(np.einsum("...j,jkl->...kl", co, p_im) - pmat,
                         axis=(-2, -1))
    outside = err > REEXPRESS_TOL * (1.0 + np.linalg.norm(pmat, axis=(-2, -1)))
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


def metric_matrix(a: StructuredLieAlgebra, p_coords: np.ndarray) -> np.ndarray:
    """Gram matrices of the pullback metric over the p-basis, one per point
    of the stack p_coords (..., dim_p): G_ij = B(S(P) u_i, S(P) u_j),
    S(P) = sum ad_P^{2k}/(2k+1)! on p.  Each point's series stops at its own
    first term of norm <= SERIES_EPS, within SERIES_MAX_TERMS terms."""
    pbm, pinv, gram = _p_geometry(a)
    pvec = _apply(pbm, np.asarray(p_coords, dtype=float))
    ad = a.ad_stack(pvec.reshape(-1, a.dim)).reshape(pvec.shape + (a.dim,))
    ad = ad.swapaxes(-1, -2)                # ad[..., :, j] = [P, e_j]
    m = pinv @ (ad @ ad) @ pbm              # ad_P^2 restricted to p
    restr_res = np.linalg.norm(ad @ (ad @ pbm) - pbm @ m, axis=(-2, -1))
    restricts = restr_res <= 1e-9 * (1.0 + np.linalg.norm(ad, axis=(-2, -1)) ** 2)
    s = term = np.broadcast_to(np.eye(m.shape[-1]), m.shape)
    tail = np.zeros(m.shape[:-2])
    live = np.ones(m.shape[:-2], dtype=bool)  # points whose series still runs
    k = 0
    while live.any():
        k += 1
        term = term @ m / ((2 * k) * (2 * k + 1))
        tail = np.where(live, np.linalg.norm(term, axis=(-2, -1)), tail)
        live &= ~(tail <= SERIES_EPS)
        s = np.where(live[..., None, None], s + term, s)
        if k >= SERIES_MAX_TERMS:
            break
    if not restricts.all() or live.any():
        _raise_first_failure([
            (~restricts, lambda i: NumericalBreakdown(
                "ad_P^2 does not preserve p numerically")),
            (live, lambda i: NumericalBreakdown(
                "pullback metric series kept a %.3e tail after %d terms"
                % (tail.flat[i], k))),
        ])
    return np.swapaxes(s, -1, -2) @ gram @ s


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
        axes = np.meshgrid(*[self.y_axis()] * dim, indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, dim)

    def contains(self, t, y: np.ndarray) -> np.ndarray:
        """Mask of the nodes, stacks t (...) and y (..., dim s), in range."""
        return ((self.t_range[0] <= t) & (t <= self.t_range[1])
                & np.all((self.y_range[0] <= y) & (y <= self.y_range[1]), axis=-1))


@dataclass
class ImmersionSpec:
    """The data of the extended immersion f(t, Y) = exp(tX) exp(Y(y)) o.

    X is a float64 coefficient row of shape (d,).  Invariants enforced at
    construction: h/2 squares to a normal float, X lies in p bit for bit
    (Theta X = -X, which expm's exact Hermitian test needs) and is
    B-orthogonal to s within 1e-10, s is a Lie triple system, and the grid
    is nonempty.  The minimality statement needs
    codimension >= 2; mean_curvature_estimate refuses a smaller one unless
    it measures the baseline.
    """

    algebra: StructuredLieAlgebra
    s: Subspace
    x: np.ndarray
    grid: GridSpec = field(default_factory=GridSpec)
    h: float = 1e-3

    def __post_init__(self):
        a = self.algebra
        _require_realized(a)
        if self.h <= 0:
            raise ConfigError("finite-difference step must be positive")
        if (self.h / 2.0) * (self.h / 2.0) < np.finfo(float).tiny:
            raise ConfigError("finite-difference step %r is too small: the "
                              "square of h/2 is not a normal float" % self.h)
        x = self.x
        if (a.theta_float @ x != -x).any():
            raise ConfigError("X must lie in p")
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

    @property
    def x_norm(self) -> float:
        v = float(self.x @ self.algebra.killing_float @ self.x)
        return float(np.sqrt(max(0.0, v)))

    def y_matrix(self, y: np.ndarray) -> np.ndarray:
        """Matrices of Y(y), one per row of the stack y (..., dim s)."""
        return np.einsum("...j,jkl->...kl", np.asarray(y, dtype=float), self._s_images)

    def group_element(self, t, y: np.ndarray) -> np.ndarray:
        """exp(tX) exp(Y(y)); t (...) and y (..., dim s) broadcast as stacks.
        expm runs once per distinct t and once per distinct y row."""
        t = np.asarray(t, dtype=float)
        return (_expm_distinct(t[..., None], lambda c: c[..., None] * self._x_matrix)
                @ _expm_distinct(np.asarray(y, dtype=float), self.y_matrix))


def _expm_distinct(keys: np.ndarray, build) -> np.ndarray:
    """expm(build(k)) for every row k of the stack keys (..., w): one expm
    slice per distinct row, gathered back.  Rows are told apart by their bit
    patterns, so 0.0 and -0.0 get their own slices."""
    flat = np.ascontiguousarray(keys).reshape(-1, keys.shape[-1])
    bits = flat.view(np.uint64)
    order = np.lexsort(bits.T)              # stable: equal rows keep their order
    new = np.ones(len(order), dtype=bool)   # each sorted row unlike the one before
    new[1:] = np.any(bits[order[1:]] != bits[order[:-1]], axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    out = expm(build(flat[order[new]]))
    return out[inverse].reshape(keys.shape[:-1] + out.shape[-2:])


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


def immersion_distances(spec: ImmersionSpec, t, y, g: np.ndarray):
    """(d(o, z), d(f(t, y), z)) for the points z of the stack of group
    elements g (..., N, N) and the nodes of the stacks t (...) and
    y (..., dim s); as in distance, the stack of nodes broadcasts against
    the stack of z.  The nodes are checked as immersion_point checks them.

    Two cartan_project calls: one charts g and the group elements of the
    nodes; one charts their representatives and every g_f^-1 g_z.  What
    fails first is raised: the range of a node, before any matrix is built;
    then the first failing matrix of the first call, then of the second, in
    that order; then the round trip of the first failing z; then the round
    trip or the recertification of the first failing node."""
    t, y = _grid_point(spec, t, y)
    a = spec.algebra
    (z, q), (z_back, q_back), (between,) = _chart_points(
        a, _charts(a, [g, spec.group_element(t, y)]),
        lambda z, q: [np.linalg.solve(q.representative, z.representative)])
    _raise_first_failure([_round_trip(z, z_back)])
    _raise_first_failure([_round_trip(q, q_back), _left_s(spec, t, q)])
    return _b_norm(a, z_back), _b_norm(a, between)


def _chart(spec: ImmersionSpec, t, y: np.ndarray) -> np.ndarray:
    """Normal coordinates of f(t, y) for stacks of parameters, without
    grid-range enforcement (the FD stencil may poke h past the declared
    range)."""
    return cartan_project(spec.algebra, spec.group_element(t, y))


@lru_cache(maxsize=64)
def _stencil_offsets(m: int, h: float, corners: bool):
    """_stencil's offsets (K, m) and the (i, j) pairs of its corners,
    read-only: every call with the same (m, h, corners) shares them."""
    e = h * np.eye(m)
    iu = np.triu_indices(m, 1 if corners else m)
    offsets = np.array([np.zeros(m)] + [d for i in range(m) for d in (e[i], -e[i])]
                       + [d for i, j in zip(*iu)
                          for d in (e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j])])
    for arr in (offsets, *iu):
        arr.flags.writeable = False
    return offsets, iu


def _stencil(fn, x0: np.ndarray, h: float, corners: bool = True):
    """Central differences of a stack-aware fn at each row of x0 (n, m), from
    one call of fn on the (n, K, m) stack of stencil points.

    Each node's K points are x0, then x0 + h e_i and x0 - h e_i for each i,
    then, with corners, x0 + h(+-e_i +- e_j) for i < j in the sign order ++,
    +-, -+, --.  Returns (f(x0), first, second), each with the node axis in
    front: first[:, i] = (f+ - f-) / 2h, second[:, i, i] = (f+ - 2 f(x0) +
    f-) / h^2 and second[:, i, j] = (f++ - f+- - f-+ + f--) / 4h^2; second is
    None without corners."""
    n, m = x0.shape
    offsets, iu = _stencil_offsets(m, h, corners)
    vals = fn(x0[:, None, :] + offsets)
    f0, plus, minus = vals[:, 0], vals[:, 1:2 * m + 1:2], vals[:, 2:2 * m + 1:2]
    first = (plus - minus) / (2.0 * h)
    if not corners:
        return f0, first, None
    second = np.empty((n, m, m) + f0.shape[1:])
    second[:, np.arange(m), np.arange(m)] = (plus - 2.0 * f0[:, None] + minus) / (h * h)
    quad = vals[:, 2 * m + 1:].reshape((n, len(iu[0]), 4) + f0.shape[1:])
    mixed = (quad[:, :, 0] - quad[:, :, 1] - quad[:, :, 2] + quad[:, :, 3]) / (4.0 * h * h)
    second[:, iu[0], iu[1]] = second[:, iu[1], iu[0]] = mixed
    return f0, first, second


def mean_curvature_estimate(spec: ImmersionSpec, t, y,
                            baseline: bool = False,
                            h: float | None = None):
    """Finite-difference mean curvature vectors of the immersion at the nodes
    of the stacks t (...) and y (..., dim s), broadcast.

    baseline=True freezes t and measures the slice Y -> exp(tX) exp(Y) o on
    its own (a totally geodesic submanifold, so the result doubles as a noise
    floor).  Returns (vectors in ambient p-coordinates, g-norms, chart
    coordinates of the points), one per node.
    """
    a = spec.algebra
    if spec.codimension < 2 and not baseline:
        raise ConfigError("mean curvature of the extension needs codimension "
                          ">= 2; this spec has %d" % spec.codimension)
    t, y = _grid_point(spec, t, y)
    t, y = np.broadcast_arrays(t[..., None], y)
    shape = t.shape[:-1]
    t, y = t[..., 0].reshape(-1), y.reshape(-1, y.shape[-1])
    h = spec.h if h is None else float(h)

    if baseline:
        c0, first, second = _stencil(lambda xi: _chart(spec, t[:, None], xi), y, h)
    else:
        c0, first, second = _stencil(
            lambda xi: _chart(spec, xi[..., 0], xi[..., 1:]),
            np.concatenate([t[:, None], y], axis=1), h)
    m = first.shape[1]
    if not first.any(axis=(1, 2)).all():
        raise ConfigError("finite-difference step %r is below the chart's resolution: "
                          "every first difference at a node is 0" % h)
    g_amb, dg, _ = _stencil(lambda p: metric_matrix(a, p), c0, h,
                            corners=False)
    # Gamma_{lij} = (dG_{lj}/dx_i + dG_{li}/dx_j - dG_{ij}/dx_l) / 2, raised by G^-1
    low = 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)
    gamma = np.einsum("nkl,nlij->nkij", np.linalg.inv(g_amb), low)
    first_t = first.swapaxes(-1, -2)
    induced = first @ g_amb @ first_t
    finite = np.all(np.isfinite(induced), axis=(-2, -1))
    if not finite.all():     # cond and inv would refuse the whole stack
        induced = np.where(finite[:, None, None], induced, np.eye(m))
    cond = np.where(finite, np.linalg.cond(induced), np.nan)
    _raise_first_failure([(~(cond <= 1e12), lambda i: NumericalBreakdown(
        "induced metric is ill-conditioned (cond %.3e): "
        "degenerate parametrization" % cond[i]))])
    ginv = np.linalg.inv(induced)

    # covariant second derivative, traced against the induced metric
    hess = second + np.einsum("nkab,nia,njb->nijk", gamma, first, first)
    trace = np.einsum("nij,nijk->nk", ginv, hess)
    # metric projection off the tangent span
    beta = _apply(ginv, _apply(first @ g_amb, trace))
    normals = (trace - _apply(first_t, beta)) / m
    sq = (normals[:, None, :] @ g_amb @ normals[:, :, None])[:, 0, 0]
    norms = np.sqrt(np.where(sq > 0.0, sq, 0.0))
    return (normals.reshape(shape + c0.shape[1:]), norms.reshape(shape),
            c0.reshape(shape + c0.shape[1:]))


@dataclass
class CurvatureReport:
    """Grid sweep of mean-curvature estimates."""

    mode = MODE_FLOAT              # a float64 measurement
    entries: list
    max_norm: float
    h: float
    baseline: bool
    discretization_error_estimate: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_norm <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "tolerance": self.tolerance,
            "h": self.h,
            "baseline": self.baseline,
            "max_norm": self.max_norm,
            "discretization_error_estimate": self.discretization_error_estimate,
            "passed": self.passed,
            "entries": [dict(e) for e in self.entries],
        }


def mean_curvature_report(spec: ImmersionSpec, tolerance: float = 1e-4,
                          baseline: bool = False) -> CurvatureReport:
    """Sweep the declared grid, t-major, in blocks of CURVATURE_BLOCK nodes;
    the error estimate is the change of the worst entry under h -> h/2 (plain
    Richardson difference)."""
    y_nodes = spec.grid.y_nodes(spec.s.dim)
    ts = np.repeat(spec.grid.t_axis(), len(y_nodes))
    ys = np.tile(y_nodes, (spec.grid.t_steps, 1))
    norms, points = (np.concatenate(v) for v in zip(*(
        mean_curvature_estimate(spec, ts[i:i + CURVATURE_BLOCK],
                                ys[i:i + CURVATURE_BLOCK], baseline=baseline)[1:]
        for i in range(0, len(ts), CURVATURE_BLOCK))))
    entries = [{"t": t, "y": y, "norm": norm, "point": point}
               for t, y, norm, point in zip(ts.tolist(), ys.tolist(),
                                            norms.tolist(), points.tolist())]
    k = int(np.argmax(norms))                        # the first worst node
    worst, (_, half, _) = float(norms[k]), mean_curvature_estimate(
        spec, ts[k], ys[k], baseline=baseline, h=spec.h / 2.0)
    return CurvatureReport(entries=entries, max_norm=worst, h=spec.h,
                           baseline=baseline,
                           discretization_error_estimate=abs(worst - float(half)),
                           tolerance=tolerance)


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


def distance_law_check(spec: ImmersionSpec, t_samples, y_samples) -> dict:
    """The three distance statements for the extended immersion.

    (i) the normal orbit through o is a geodesic with speed ||X||_B;
    (ii) points of psi_t(S) keep distance at least |t| ||X||_B from the
        S-sample set, up to DISTANCE_SLACK, with equality at the
        foot point o;
    (iii) t -> d(o, psi_t(q)) is minimized at t = 0 and monotone on each side.
    Violations are report entries, not exceptions.

    Samples that are missing, of the wrong width or not finite are a
    ConfigError before any matrix is built.  The charts take three
    cartan_project calls, one per stage: (1) the orbit exp(tX), the S points
    and the points q = f(t, y), t != 0; (2) their representatives, every
    g_q^-1 g_S and the transvected S points exp(tX) g_S; (3) the
    representatives of the transvected points.  Distances from o are the
    charts of representatives.  What fails first is raised: the first
    failing matrix of stage 1, then of stage 2, in the order listed; then
    the round trip of the first failing orbit, S or q point, in that order;
    then the first failing matrix of stage 3; then the round trip of the
    first failing transvected point.
    """
    a = spec.algebra
    ts, ys = _law_samples(spec, t_samples, y_samples)
    xn = spec.x_norm
    bound = np.abs(ts) * xn
    off = ts != 0.0
    orbit = expm(ts[:, None, None] * spec._x_matrix)
    points, backs, (between, moved) = _chart_points(a, _charts(a, [
        orbit, spec.group_element(0.0, ys),
        spec.group_element(ts[off, None, None], ys[:, None, :])]),
        lambda _, s, q: [np.linalg.solve(q.representative, s.representative),
                         orbit[:, None] @ s.representative])
    for pt, back in zip(points, backs):
        _raise_first_failure([_round_trip(pt, back)])
    (moved,), (moved_back,), _ = _chart_points(a, [moved])
    _raise_first_failure([_round_trip(moved, moved_back)])

    geo_worst = float(np.max(np.abs(_b_norm(a, backs[0]) - bound)))
    geodesic = {"worst_residual": geo_worst, "tolerance": 1e-9,
                "holds": geo_worst <= 1e-9}

    # distance from f(t, y), t != 0, to the nearest S-sample
    foot = ~np.any(ys, axis=-1)
    dmin = np.min(_b_norm(a, between), axis=-1)
    sep_violation = float(np.max(bound[off, None] - DISTANCE_SLACK - dmin, initial=0.0))
    eq_gap = float(np.max(np.abs(dmin - bound[off, None])[:, foot], initial=0.0))
    separation = {"worst_violation": sep_violation, "slack": DISTANCE_SLACK,
                  "equality_gap_at_foot": eq_gap if foot.any() else None,
                  "holds": sep_violation <= 0.0
                  and (not foot.any() or eq_gap <= DISTANCE_SLACK)}

    # d(o, psi_t(q)) over (t, S-sample): no step toward t = 0 may climb
    d = _b_norm(a, moved_back)
    step = np.diff(d, axis=0)
    left = (ts[1:, None] <= 0.0) & (d[1:] > d[:-1] + 1e-12)
    right = (ts[:-1, None] >= 0.0) & (d[:-1] > d[1:] + 1e-12)
    below = np.min(d, axis=0) < d[ts == 0.0][-1] - 1e-12
    global_min = {"holds": not (left.any() or right.any() or below.any()),
                  "worst_increase_toward_zero": float(np.max(np.concatenate(
                      [step[left], -step[right]]), initial=0.0))}

    return {
        "mode": MODE_FLOAT,
        "x_norm": xn,
        "geodesic": geodesic,
        "separation": separation,
        "global_min": global_min,
        "passed": geodesic["holds"] and separation["holds"] and global_min["holds"],
    }


def export_point_cloud(report: CurvatureReport, csv_path: str | None = None,
                       ply_path: str | None = None) -> dict:
    """Write the report's grid as CSV (t, Y, chart coords, |H|) and/or PLY
    (first three chart coordinates).  Node counts above 10^7 are refused
    before any file is touched."""
    n = len(report.entries)
    if n > 10 ** 7:
        raise ConfigError("point cloud with %d nodes exceeds the export limit" % n)
    written = {}
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            ydim = len(report.entries[0]["y"]) if n else 0
            pdim = len(report.entries[0]["point"]) if n else 0
            w.writerow(["t"] + ["y%d" % (i + 1) for i in range(ydim)]
                       + ["p%d" % (i + 1) for i in range(pdim)] + ["mean_h"])
            for e in report.entries:
                w.writerow([e["t"]] + list(e["y"]) + list(e["point"]) + [e["norm"]])
        written["csv"] = csv_path
    if ply_path:
        with open(ply_path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex %d\n" % n)
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write("end_header\n")
            for e in report.entries:
                p = list(e["point"]) + [0.0, 0.0, 0.0]
                fh.write("%g %g %g\n" % (p[0], p[1], p[2]))
        written["ply"] = ply_path
    return written
