"""Floating-point model of the symmetric space G/K behind a realization.

Points live in one global normal-coordinate chart (the space is nonpositively
curved and simply connected, so exp at the base point is a diffeomorphism).
Everything metric is derived from two primitives: the polar projection
cartan_project (group element -> p-vector) and the pullback metric
g_P(u,v) = B(S(P)u, S(P)v) with S(P) = sum_k ad_P^{2k}/(2k+1)! on p.

Mean curvature is estimated with central finite differences in the chart:
second derivatives of the immersion map, ambient Christoffel symbols from
differenced metrics, trace against the induced metric, then a metric
projection onto the normal space.  The estimator is O(h^2); with the default
h = 1e-3 its error budget sits near 1e-6, two decades under the acceptance
tolerance for the minimal cases.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, NumericalBreakdown
from .liealg import MODE_FLOAT, AlgebraVector, StructuredLieAlgebra
from .parallel import pmap
from .subspaces import Subspace

SERIES_EPS = 1e-13         # absolute tail cutoff; leading term is the identity
GROUP_TOL = 1e-10          # scale-aware group membership tolerance
REEXPRESS_TOL = 1e-8       # p-basis re-expression residual allowance
ROUNDTRIP_TOL = 1e-10      # SpacePoint representative consistency


def _require_realized(a: StructuredLieAlgebra):
    if a.realization is None:
        raise ConfigError("algebra %s carries no matrix realization" % (a.name or "?"))


@lru_cache(maxsize=None)
def _p_images(a: StructuredLieAlgebra):
    """Stacked complex images of the p-basis plus the re-expression pinv."""
    _require_realized(a)
    imgs = a.realization.images_complex          # (d, N, N)
    pb = a.p_basis_float                         # (d, dim_p)
    p_im = np.einsum("ij,ikl->jkl", pb, imgs)    # (dim_p, N, N)
    flat = np.concatenate([p_im.real.reshape(p_im.shape[0], -1),
                           p_im.imag.reshape(p_im.shape[0], -1)], axis=1)
    return p_im, np.linalg.pinv(flat.T)          # pinv maps flattened matrix -> coords


@lru_cache(maxsize=None)
def _p_geometry(a: StructuredLieAlgebra):
    """(Pb, pinv(Pb), Gram of B on the p-basis) as float arrays; Pb has one
    column per p-basis vector."""
    pbm = a.p_basis_float
    k = a.killing_float
    gram = pbm.T @ k @ pbm
    return pbm, np.linalg.pinv(pbm), gram


def realize(a: StructuredLieAlgebra, v: AlgebraVector) -> np.ndarray:
    """Matrix image of an algebra vector."""
    _require_realized(a)
    coeffs = v.to_array()
    return np.einsum("i,ikl->kl", coeffs, a.realization.images_complex)


def p_coordinates(a: StructuredLieAlgebra, v: AlgebraVector) -> np.ndarray:
    """Coordinates of a p-vector over the p-basis; rejects vectors with a
    k-component above tolerance."""
    pbm, pinv, _ = _p_geometry(a)
    arr = v.to_array()
    co = pinv @ arr
    res = np.linalg.norm(pbm @ co - arr)
    if res > 1e-9 * (1.0 + np.linalg.norm(arr)):
        raise ValueError("vector is not in p (residual %.3e)" % res)
    return co


def p_vector(a: StructuredLieAlgebra, coords: np.ndarray) -> AlgebraVector:
    pbm, _, _ = _p_geometry(a)
    return AlgebraVector(tuple(float(x) for x in (pbm @ np.asarray(coords, dtype=float))),
                         MODE_FLOAT)


def b_norm_p(a: StructuredLieAlgebra, coords: np.ndarray) -> float:
    """Killing norm of a p-vector given by p-basis coordinates."""
    _, _, gram = _p_geometry(a)
    co = np.asarray(coords, dtype=float)
    return float(np.sqrt(max(0.0, co @ gram @ co)))


def group_membership_residual(a: StructuredLieAlgebra, g: np.ndarray) -> float:
    """Worst scaled residual of the realized group's defining relations."""
    _require_realized(a)
    scale = 1.0 + float(np.linalg.norm(g)) ** 2
    worst = 0.0
    jm = a.realization.j_matrix
    if jm is not None:
        worst = max(worst, float(np.max(np.abs(g.conj().T @ jm @ g - jm))) / scale)
    if a.realization.unimodular:
        size = g.shape[0]
        det_scale = max(1.0, float(np.linalg.norm(g))) ** size
        worst = max(worst, abs(np.linalg.det(g) - 1.0) / det_scale)
    return worst


def cartan_project(a: StructuredLieAlgebra, g: np.ndarray) -> AlgebraVector:
    """Polar part of a group element: P = 1/2 log(g g^dagger), re-expressed in
    the p-basis.  The logarithm goes through an eigendecomposition of the
    positive-definite Hermitian factor; a non-positive eigenvalue or a failed
    re-expression means g is not (numerically) in the realized group."""
    g = np.asarray(g, dtype=complex)
    res = group_membership_residual(a, g)
    if res > GROUP_TOL:
        raise NumericalBreakdown("matrix is not in the realized group "
                                 "(relation residual %.3e)" % res)
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    w, u = np.linalg.eigh(m)
    if np.min(w) <= 0.0:
        raise NumericalBreakdown("polar factor is not positive definite "
                                 "(min eigenvalue %.3e)" % float(np.min(w)))
    pmat = (u * (0.5 * np.log(w))) @ u.conj().T
    _, pinv = _p_images(a)
    flat = np.concatenate([pmat.real.ravel(), pmat.imag.ravel()])
    co = pinv @ flat
    p_im, _ = _p_images(a)
    recon = np.einsum("j,jkl->kl", co, p_im)
    err = float(np.linalg.norm(recon - pmat))
    if err > REEXPRESS_TOL * (1.0 + float(np.linalg.norm(pmat))):
        raise NumericalBreakdown("polar part is not in p (residual %.3e); "
                                 "matrix outside the symmetric-space model" % err)
    return p_vector(a, co)


@dataclass
class SpacePoint:
    """A point of M in global normal coordinates over the p-basis."""

    algebra: StructuredLieAlgebra
    coords: np.ndarray                      # p-basis coordinates, float
    _representative: np.ndarray = None

    @classmethod
    def base(cls, a: StructuredLieAlgebra) -> "SpacePoint":
        return cls(a, np.zeros(len(a.p_basis)))

    @classmethod
    def from_p_vector(cls, a: StructuredLieAlgebra, v: AlgebraVector) -> "SpacePoint":
        return cls(a, p_coordinates(a, v))

    @classmethod
    def from_matrix(cls, a: StructuredLieAlgebra, g: np.ndarray) -> "SpacePoint":
        v = cartan_project(a, g)
        pt = cls(a, p_coordinates(a, v))
        # round-trip consistency of the cached representative
        back = p_coordinates(a, cartan_project(a, pt.representative))
        if np.max(np.abs(back - pt.coords)) > ROUNDTRIP_TOL * (1.0 + np.max(np.abs(pt.coords))):
            raise NumericalBreakdown("normal-coordinate round trip failed")
        return pt

    @property
    def representative(self) -> np.ndarray:
        if self._representative is None:
            p_im, _ = _p_images(self.algebra)
            self._representative = expm(np.einsum("j,jkl->kl", self.coords, p_im))
        return self._representative

    def p_vector(self) -> AlgebraVector:
        return p_vector(self.algebra, self.coords)


def distance(a: StructuredLieAlgebra, q1: SpacePoint, q2: SpacePoint) -> float:
    """Geodesic distance d(q1, q2) = ||cartan_project(g1^{-1} g2)||_B."""
    g = np.linalg.solve(q1.representative, q2.representative)
    v = cartan_project(a, g)
    _, pinv, _ = _p_geometry(a)
    return b_norm_p(a, pinv @ v.to_array())


def metric_matrix(a: StructuredLieAlgebra, p_coords: np.ndarray,
                  truncation: int = 60) -> np.ndarray:
    """Gram matrix of the pullback metric at P over the p-basis:
    G_ij = B(S(P) u_i, S(P) u_j), S(P) = sum ad_P^{2k}/(2k+1)! on p."""
    pbm, pinv, gram = _p_geometry(a)
    pvec = p_vector(a, p_coords)
    ad = np.asarray(a.ad_matrix(pvec), dtype=float)
    m = pinv @ (ad @ ad) @ pbm              # ad_P^2 restricted to p
    restr_res = np.linalg.norm(ad @ (ad @ pbm) - pbm @ m)
    if restr_res > 1e-9 * (1.0 + np.linalg.norm(ad) ** 2):
        raise NumericalBreakdown("ad_P^2 does not preserve p numerically")
    dim = m.shape[0]
    s = np.eye(dim)
    term = np.eye(dim)
    k = 0
    while True:
        k += 1
        term = term @ m / ((2 * k) * (2 * k + 1))
        tn = float(np.linalg.norm(term))
        if tn <= SERIES_EPS:
            break
        s = s + term
        if k >= truncation:
            raise NumericalBreakdown(
                "pullback metric series kept a %.3e tail after %d terms; "
                "increase the truncation" % (tn, k))
    return s.T @ gram @ s


def pullback_metric(a: StructuredLieAlgebra, p: AlgebraVector,
                    u: AlgebraVector, v: AlgebraVector,
                    truncation: int = 60) -> float:
    """g_P(u, v) for p-vectors, via the restricted sinh-type series."""
    _, pinv, _ = _p_geometry(a)
    g = metric_matrix(a, p_coordinates(a, p), truncation)
    cu = pinv @ u.to_array()
    cv = pinv @ v.to_array()
    return float(cu @ g @ cv)


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

    def contains(self, t: float, y: np.ndarray) -> bool:
        return (self.t_range[0] <= t <= self.t_range[1]
                and bool(np.all(y >= self.y_range[0]))
                and bool(np.all(y <= self.y_range[1])))


@dataclass
class ImmersionSpec:
    """The data of the extended immersion f(t, Y) = exp(tX) exp(Y(y)) o.

    Invariants enforced at construction: X is B-orthogonal to s within 1e-10,
    s is a Lie triple system, the codimension of s in p is at least 2 (the
    minimality statement needs codimension > 1), and the grid is nonempty.
    """

    algebra: StructuredLieAlgebra
    s: Subspace
    x: AlgebraVector
    truncation: int = 60
    grid: GridSpec = field(default_factory=GridSpec)
    h: float = 1e-3
    # codimension-1 pairs support the distance/transvection checks but carry
    # no minimality claim; curvature estimation refuses them regardless
    allow_codimension_one: bool = False

    def __post_init__(self):
        a = self.algebra
        _require_realized(a)
        if self.h <= 0:
            raise ConfigError("finite-difference step must be positive")
        xf = self.x.astype(MODE_FLOAT)
        scale = float(np.max(np.abs(xf.to_array()))) + 1.0
        for b in self.s.basis:
            pairing = a.killing_form(xf, b.astype(MODE_FLOAT))
            if abs(float(pairing)) > 1e-10 * scale:
                raise ConfigError("X is not B-orthogonal to s "
                                  "(pairing %.3e)" % float(pairing))
        ok, witness = self.s.is_lie_triple_system()
        if not ok:
            raise ConfigError("s is not a Lie triple system: %s" % (witness,))
        codim = len(a.p_basis) - self.s.dim
        if codim < 2 and not self.allow_codimension_one:
            raise ConfigError("s has codimension %d in p; the minimality "
                              "construction needs codimension >= 2" % codim)
        self.codimension = codim
        self._x_float = xf
        self._x_matrix = realize(a, xf)
        self._s_float = Subspace(a, [b.astype(MODE_FLOAT) for b in self.s.basis],
                                 MODE_FLOAT)
        self._s_matrices = [realize(a, b.astype(MODE_FLOAT)) for b in self.s.basis]

    @property
    def x_norm(self) -> float:
        v = float(self.algebra.killing_form(self._x_float, self._x_float))
        return float(np.sqrt(max(0.0, v)))

    def y_matrix(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(self._s_matrices[0])
        for c, m in zip(np.asarray(y, dtype=float), self._s_matrices):
            out = out + c * m
        return out

    def group_element(self, t: float, y: np.ndarray) -> np.ndarray:
        return expm(float(t) * self._x_matrix) @ expm(self.y_matrix(y))


def transvection(spec: ImmersionSpec, t: float, q: SpacePoint) -> SpacePoint:
    """psi_t(q): left multiplication by exp(tX)."""
    g = expm(float(t) * spec._x_matrix) @ q.representative
    return SpacePoint.from_matrix(spec.algebra, g)


def immersion_point(spec: ImmersionSpec, t: float, y) -> SpacePoint:
    """f(t, y) = exp(tX) exp(Y(y)) o as a SpacePoint; at t = 0 the projected
    coordinates are recertified to lie in s within 1e-9."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[0] != spec.s.dim:
        raise ConfigError("expected %d Y-coordinates, got %d"
                          % (spec.s.dim, y.shape[0]))
    if not spec.grid.contains(float(t), y):
        raise ConfigError("(t, Y) lies outside the declared grid ranges")
    pt = SpacePoint.from_matrix(spec.algebra, spec.group_element(t, y))
    if t == 0.0:
        member, res = spec._s_float.contains(pt.p_vector())
        if not member or res > 1e-9 * (1.0 + float(np.max(np.abs(pt.coords)))):
            raise NumericalBreakdown("t = 0 point left s (residual %.3e)" % res)
    return pt


def _chart(spec: ImmersionSpec, t: float, y: np.ndarray) -> np.ndarray:
    """Normal coordinates of f(t, y) without grid-range enforcement (the FD
    stencil may poke h past the declared range)."""
    v = cartan_project(spec.algebra, spec.group_element(t, y))
    return p_coordinates(spec.algebra, v)


def _christoffels(a: StructuredLieAlgebra, p0: np.ndarray, h: float,
                  truncation: int) -> np.ndarray:
    """Gamma^k_{ij} of the ambient metric at P by central differences."""
    dim = p0.shape[0]
    dg = np.zeros((dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        gp = metric_matrix(a, p0 + e, truncation)
        gm = metric_matrix(a, p0 - e, truncation)
        dg[k] = (gp - gm) / (2.0 * h)
    g0 = metric_matrix(a, p0, truncation)
    ginv = np.linalg.inv(g0)
    # Gamma_{lij} = (dG_{lj}/dx_i + dG_{li}/dx_j - dG_{ij}/dx_l) / 2
    low = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg)
                 - np.einsum("lij->lij", dg))
    return np.einsum("kl,lij->kij", ginv, low)


def mean_curvature_estimate(spec: ImmersionSpec, t: float, y,
                            baseline: bool = False,
                            h: float | None = None):
    """Finite-difference mean curvature vector of the immersion at (t, y).

    baseline=True freezes t and measures the slice Y -> exp(tX) exp(Y) o on
    its own (a totally geodesic submanifold, so the result doubles as a noise
    floor).  Returns (vector in ambient p-coordinates, g-norm).
    """
    a = spec.algebra
    if spec.codimension < 2 and not baseline:
        raise ConfigError("mean curvature of the extension needs codimension "
                          ">= 2; this spec has %d" % spec.codimension)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[0] != spec.s.dim:
        raise ConfigError("expected %d Y-coordinates, got %d"
                          % (spec.s.dim, y.shape[0]))
    if not spec.grid.contains(float(t), y):
        raise ConfigError("(t, Y) lies outside the declared grid ranges")
    h = spec.h if h is None else float(h)

    if baseline:
        def chart(xi):
            return _chart(spec, t, xi)
        xi0 = y.copy()
    else:
        def chart(xi):
            return _chart(spec, xi[0], xi[1:])
        xi0 = np.concatenate([[float(t)], y])

    m = xi0.shape[0]
    c0 = chart(xi0)
    dim = c0.shape[0]

    def at(offset):
        return chart(xi0 + offset)

    first = np.zeros((m, dim))
    second = np.zeros((m, m, dim))
    plus, minus = [], []
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        cp, cm = at(e), at(-e)
        plus.append(cp)
        minus.append(cm)
        first[i] = (cp - cm) / (2.0 * h)
        second[i, i] = (cp - 2.0 * c0 + cm) / (h * h)
    for i in range(m):
        for j in range(i + 1, m):
            ei, ej = np.zeros(m), np.zeros(m)
            ei[i], ej[j] = h, h
            cpp = at(ei + ej)
            cpm = at(ei - ej)
            cmp_ = at(-ei + ej)
            cmm = at(-ei - ej)
            second[i, j] = second[j, i] = (cpp - cpm - cmp_ + cmm) / (4.0 * h * h)

    g_amb = metric_matrix(a, c0, spec.truncation)
    gamma = _christoffels(a, c0, h, spec.truncation)
    induced = first @ g_amb @ first.T
    cond = np.linalg.cond(induced)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalBreakdown("induced metric is ill-conditioned "
                                 "(cond %.3e): degenerate parametrization" % cond)
    ginv = np.linalg.inv(induced)

    # covariant second derivative, traced against the induced metric
    hess = second + np.einsum("kab,ia,jb->ijk", gamma, first, first)
    trace = np.einsum("ij,ijk->k", ginv, hess)
    # metric projection off the tangent span
    rhs = first @ g_amb @ trace
    beta = ginv @ rhs
    normal = trace - first.T @ beta
    normal = normal / m
    norm = float(np.sqrt(max(0.0, normal @ g_amb @ normal)))
    return p_vector(a, normal), norm


@dataclass
class CurvatureReport:
    """Grid sweep of mean-curvature estimates."""

    entries: list
    max_norm: float
    h: float
    baseline: bool
    discretization_error_estimate: float
    tolerance: float
    mode: str = MODE_FLOAT

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
            "entries": [
                {"t": e["t"], "y": list(e["y"]), "norm": e["norm"],
                 "point": list(e["point"])}
                for e in self.entries
            ],
        }


def _y_nodes(spec: ImmersionSpec):
    axes = [spec.grid.y_axis()] * spec.s.dim
    if not axes:
        return [np.zeros(0)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    return [flat[i] for i in range(flat.shape[0])]


def mean_curvature_report(spec: ImmersionSpec, tolerance: float = 1e-4,
                          baseline: bool = False) -> CurvatureReport:
    """Sweep the declared grid; the error estimate is the change of the worst
    entry under h -> h/2 (plain Richardson difference)."""
    nodes = [(float(t), y) for t in spec.grid.t_axis()
             for y in _y_nodes(spec)]

    def _measure(node):
        t, y = node
        vec, norm = mean_curvature_estimate(spec, t, y, baseline=baseline)
        return vec, norm, _chart(spec, t, y)

    entries = []
    worst = (-1.0, None, None)
    for (t, y), (vec, norm, point) in zip(nodes, pmap(_measure, nodes)):
        entries.append({"t": t, "y": [float(c) for c in y],
                        "norm": norm,
                        "point": [float(c) for c in point],
                        "vector": [float(c) for c in
                                   p_coordinates(spec.algebra, vec)]})
        if norm > worst[0]:
            worst = (norm, t, y)
    _, half_norm = mean_curvature_estimate(spec, worst[1], worst[2],
                                           baseline=baseline, h=spec.h / 2.0)
    est = abs(worst[0] - half_norm)
    return CurvatureReport(entries=entries, max_norm=worst[0], h=spec.h,
                           baseline=baseline,
                           discretization_error_estimate=est,
                           tolerance=tolerance)


def distance_law_check(spec: ImmersionSpec, t_samples, y_samples,
                       slack: float = 1e-3) -> dict:
    """The three distance statements for the extended immersion.

    (i) the normal orbit through o is a geodesic with speed ||X||_B;
    (ii) points of psi_t(S) keep distance at least |t| ||X||_B from the
        S-sample set, up to the declared grid slack, with equality at the
        foot point o;
    (iii) t -> d(o, psi_t(q)) is minimized at t = 0 and monotone on each side.
    Violations are report entries, not exceptions.
    """
    a = spec.algebra
    xn = spec.x_norm
    o = SpacePoint.base(a)
    t_samples = sorted(float(t) for t in t_samples)
    if 0.0 not in t_samples:
        t_samples = sorted(t_samples + [0.0])

    geo_worst = 0.0
    for t in t_samples:
        qt = SpacePoint.from_matrix(a, expm(t * spec._x_matrix))
        geo_worst = max(geo_worst, abs(distance(a, o, qt) - abs(t) * xn))
    geodesic = {"worst_residual": geo_worst, "tolerance": 1e-9,
                "holds": geo_worst <= 1e-9}

    s_points = [SpacePoint.from_matrix(a, spec.group_element(0.0, y))
                for y in y_samples]
    has_origin = any(float(np.max(np.abs(np.asarray(y)))) == 0.0
                     for y in y_samples)

    sep_violation = 0.0
    eq_gap = 0.0
    for t in t_samples:
        if t == 0.0:
            continue
        bound = abs(t) * xn
        for y in y_samples:
            q = SpacePoint.from_matrix(a, spec.group_element(t, y))
            dmin = min(distance(a, q, sp) for sp in s_points)
            sep_violation = max(sep_violation, bound - slack - dmin)
            if float(np.max(np.abs(np.asarray(y)))) == 0.0:
                eq_gap = max(eq_gap, abs(dmin - bound))
    separation = {"worst_violation": max(0.0, sep_violation), "slack": slack,
                  "equality_gap_at_foot": eq_gap if has_origin else None,
                  "holds": sep_violation <= 0.0
                  and (not has_origin or eq_gap <= slack)}

    mono_ok = True
    mono_worst = 0.0
    for y in y_samples:
        q0 = SpacePoint.from_matrix(a, spec.group_element(0.0, y))
        vals = []
        for t in t_samples:
            qt = transvection(spec, t, q0)
            vals.append((t, distance(a, o, qt)))
        base = dict(vals)[0.0]
        for (t1, d1), (t2, d2) in zip(vals, vals[1:]):
            if t2 <= 0.0 and d2 > d1 + 1e-12:
                mono_ok = False
                mono_worst = max(mono_worst, d2 - d1)
            if t1 >= 0.0 and d1 > d2 + 1e-12:
                mono_ok = False
                mono_worst = max(mono_worst, d1 - d2)
        if min(d for _, d in vals) < base - 1e-12:
            mono_ok = False
    global_min = {"holds": mono_ok, "worst_increase_toward_zero": mono_worst}

    return {
        "mode": MODE_FLOAT,
        "x_norm": xn,
        "geodesic": geodesic,
        "separation": separation,
        "global_min": global_min,
        "passed": geodesic["holds"] and separation["holds"] and global_min["holds"],
    }


def normal_pairing_residual(spec: ImmersionSpec, y, h: float | None = None) -> float:
    """Ambient pairing of the transported X direction against the tangent
    frame of S at exp(Y) o; zero means X stays normal along S."""
    a = spec.algebra
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = spec.h if h is None else float(h)
    xi0 = np.concatenate([[0.0], y])

    def chart(xi):
        return _chart(spec, xi[0], xi[1:])

    m = xi0.shape[0]
    dim_p = _p_geometry(a)[2].shape[0]
    first = np.zeros((m, dim_p))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        first[i] = (chart(xi0 + e) - chart(xi0 - e)) / (2.0 * h)
    g_amb = metric_matrix(a, chart(xi0), spec.truncation)
    worst = 0.0
    for j in range(1, m):
        worst = max(worst, abs(float(first[0] @ g_amb @ first[j])))
    return worst


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
