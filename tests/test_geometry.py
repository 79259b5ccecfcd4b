"""Matrix-model geometry against closed forms.

sl(2,R) oracles: ||H||_B = sqrt(8), d(o, exp(tH).o) = |t| sqrt(8), and the
pullback of the metric along P = rH in the direction E+F is
(sinh(2r)/(2r))^2 * B(E+F, E+F) (rank-one Jacobi field growth; ad_H^2 acts
as 4 on span(E+F)).  The closed-form mean curvature is checked against the
finite-difference oracle of curvature_oracle.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import basis_vector, stack_size
from curvature_oracle import oracle_mean_curvature, series_stretch
import distance_oracle
from transvector import geometry
from transvector.catalog import (bisector_equidistance_check, build_pair, build_space,
                                complex_structure_matrix, negative_control)
from transvector.cli import run
from transvector.errors import ConfigError, NumericalBreakdown
from transvector.geometry import (CURVATURE_BLOCK, CurvatureReport, GridSpec,
                                  ImmersionSpec,
                                  SpacePoint, cartan_project, distance,
                                  distance_law_check, export_point_cloud,
                                  grid_distances, immersion_point,
                                  mean_curvature_estimate,
                                  mean_curvature_report, metric_matrix,
                                  realize, transvection)
from transvector.liealg import StructuredLieAlgebra
from transvector.subspaces import Subspace


# The eigh stacks and cartan_project stacks of one su21 3 x 3 x 3 construct
# request, alone and with --distance-law, and of a 5 x 5 x 5 bisector request
# (the tests below pin them; README states them, tests/test_readme.py).
CONSTRUCT_EIGHS = [9, 3, 27]
DISTANCE_LAW_EIGHS = CONSTRUCT_EIGHS + [7, 3, 28, 28, 82]
DISTANCE_LAW_CHARTS = [27, 28, 82]
BISECTOR_EIGHS = [2, 5, 25, 37, 37, 287]
BISECTOR_CHARTS = [37, 287]


def _sl2_spec(sl2r, **kw):
    s = Subspace(sl2r, [basis_vector(sl2r, 0)])
    x = (basis_vector(sl2r, 1) + basis_vector(sl2r, 2)).to_array()
    return ImmersionSpec(sl2r, s, x, **kw)


coords3 = st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=2)


@given(coords3)
@settings(max_examples=40, deadline=None)
def test_log_exp_round_trip(sl2r, c):
    p = np.asarray(c, dtype=float)
    q = SpacePoint.from_matrix(sl2r, SpacePoint(sl2r, p).representative)
    assert np.max(np.abs(q.coords - p)) <= 1e-12 * (1.0 + np.max(np.abs(p)))


def test_rotation_part_projects_to_base_point(sl2r):
    k = realize(sl2r, (basis_vector(sl2r, 1) - basis_vector(sl2r, 2)).to_array())
    q = SpacePoint.from_matrix(sl2r, expm(0.7 * k))
    assert np.max(np.abs(q.coords)) <= 1e-12


def test_distance_along_the_flat_is_linear(sl2r):
    assert sl2r.p_basis[0].tolist() == [1, 0, 0]       # H is the first p-basis vector
    ts = np.array([0.25, 0.5, 1.0, 2.0])
    q = SpacePoint(sl2r, ts[:, None] * np.array([1.0, 0.0]))
    d = distance(sl2r, SpacePoint.base(sl2r), q)
    assert d.shape == ts.shape
    for t, dt in zip(ts, d):
        assert dt == pytest.approx(t * math.sqrt(8.0), rel=1e-12)


def test_metric_at_the_origin_is_the_killing_gram(sl2r):
    g0 = metric_matrix(sl2r, np.zeros(2))
    # basis of p is (H, E+F)-aligned; B(H,H) = 8, B(E+F,E+F) = 8
    b = np.array([[float(sl2r.killing_form(sl2r.vector(u), sl2r.vector(v)))
                   for v in sl2r.p_basis] for u in sl2r.p_basis])
    assert np.allclose(g0, b, atol=1e-14)


def test_pullback_matches_sinh_closed_form(sl2r):
    assert sl2r.p_basis.tolist() == [[1, 0, 0], [0, 1, 1]]   # (H, E+F)
    bee = 8.0
    radii = np.array([0.3, 0.75, 1.5])
    g = metric_matrix(sl2r, radii[:, None] * np.array([1.0, 0.0]))  # P = rH
    for r, gr in zip(radii, g):
        want = (math.sinh(2 * r) / (2 * r)) ** 2 * bee
        assert gr[1, 1] == pytest.approx(want, rel=1e-12)
        # the flat direction itself is unstretched
        assert gr[0, 0] == pytest.approx(8.0, rel=1e-12)


def _series_metric(a, c):
    """The pullback metric at one point c as a fixed-term Taylor series:
    G = S^T B S for S(P) = sinh(ad_P)/ad_P summed term by term."""
    s = series_stretch(a, c)
    return s.T @ geometry._p_geometry(a)[2] @ s


@pytest.mark.parametrize("space", ["sl2r", "su21", "su31", "sl3r", "so31"])
def test_the_closed_form_metric_matches_the_taylor_series(space):
    a = build_space(space)
    coords = _stack_of_points(a)
    for g, c in zip(metric_matrix(a, coords), coords):
        want = _series_metric(a, c)
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def test_the_stretch_is_continuous_across_its_taylor_switch():
    """f(lam) = sinh^2(sqrt lam) / lam: its Taylor polynomial just below the
    switch and the direct formula at and just above it agree to 1e-15."""
    at = geometry.TAYLOR_BELOW
    below, above = np.nextafter(at, 0.0), np.nextafter(at, 1.0)
    f = geometry._stretch(np.array([below, at, above]))
    assert np.all(np.abs(f - f[0]) <= 1e-15 * f[0])


def test_a_p_basis_that_ad_squared_leaves_is_refused(monkeypatch, su21):
    """The check that ad_P^2 preserves p runs once per algebra, on the
    cached quadratic form: a p-basis with a k vector mixed in fails it,
    even at P = 0.  It takes su(2,1): in sl(2,R) every 2-plane on which B
    is nondegenerate is a Lie triple system."""
    mixed = geometry._p_geometry(su21)[0].copy()
    mixed[:, 0] += 1e-6 * su21.k_basis[0].astype(float)
    monkeypatch.setattr(geometry, "_p_geometry",
                        lambda a: (mixed, np.linalg.pinv(mixed),
                                   mixed.T @ a.killing_float @ mixed))
    monkeypatch.setattr(geometry, "_p_metric", lru_cache(geometry._p_metric.__wrapped__))
    assert _raised(NumericalBreakdown, metric_matrix, su21, np.zeros(4)) == (
        "ad_P^2 does not preserve p numerically")


def test_group_elements_off_the_model_are_rejected(sl2r):
    g = np.array([[1.0, 0.3], [0.0, 2.0]])  # det = 2: not in the group
    with pytest.raises(NumericalBreakdown):
        cartan_project(sl2r, g)


@pytest.mark.parametrize("space", ["sl2r", "so21", "su21", "so31", "sl3r", "su31"])
def test_expm_of_p_images_agrees_with_scipy(space):
    """The eigh exponential against scipy's Pade expm on random p-image
    stacks at coefficient scales 0.1 to 3."""
    p_im, _ = geometry._p_images(build_space(space))
    rng = np.random.default_rng(11)
    for scale in (0.1, 1.0, 3.0):
        h = np.einsum("nj,jkl->nkl", rng.uniform(-scale, scale, (50, len(p_im))), p_im)
        want = expm(h)
        err = (np.linalg.norm(geometry.expm(h) - want, axis=(-2, -1))
               / np.linalg.norm(want, axis=(-2, -1)))
        assert np.max(err) <= 1e-13


def test_expm_refuses_a_matrix_that_is_not_hermitian(sl2r):
    p = realize(sl2r, basis_vector(sl2r, 0).to_array())
    k = realize(sl2r, (basis_vector(sl2r, 1) - basis_vector(sl2r, 2)).to_array())
    geometry.expm(np.stack([p, 0.5 * p]))
    with pytest.raises(ValueError, match="Hermitian"):
        geometry.expm(np.stack([p, 0.7 * k]))


def test_expm_of_a_non_finite_matrix_is_nan_and_spares_the_stack(su21):
    """An overflowed exponent gives nan quietly, for cartan_project to refuse;
    the finite slices keep the bits they get alone.  eigh refuses a whole
    stack holding an all-nan 3 x 3 matrix."""
    p = geometry._p_images(su21)[0][0]
    stack = np.stack([0.3 * p, np.full_like(p, np.nan), 1e300 * p])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = geometry.expm(stack)
    assert np.array_equal(_bits(out[0]), _bits(geometry.expm(0.3 * p)))
    assert np.isnan(out[1]).all() and not np.isfinite(out[2]).all()


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _stack_of_points(a):
    rng = np.random.default_rng(11)
    radii = np.array([0.0, 0.01, 0.2, 0.7, 1.3, 0.05, 1.0])
    coords = rng.standard_normal((len(radii), len(a.p_basis)))
    coords *= (radii / np.linalg.norm(coords, axis=1))[:, None]
    return coords


@pytest.mark.parametrize("space", ["sl2r", "su21", "su31", "sl3r", "so31"])
def test_stacked_chart_and_metric_equal_single_points_bit_for_bit(space):
    a = build_space(space)
    coords = _stack_of_points(a)
    g = np.stack([SpacePoint(a, c).representative for c in coords])
    stacked = cartan_project(a, g)
    single = np.stack([cartan_project(a, m) for m in g])
    assert stacked.shape == coords.shape
    assert np.array_equal(_bits(stacked), _bits(single))
    assert np.allclose(stacked, coords, atol=1e-12)
    # a stack of stacks charts each slice as the flat stack does
    nested = cartan_project(a, g.reshape((1,) + g.shape))
    assert np.array_equal(_bits(nested[0]), _bits(single))
    stacked = metric_matrix(a, coords)
    single = np.stack([metric_matrix(a, c) for c in coords])
    assert np.array_equal(_bits(stacked), _bits(single))


@pytest.mark.parametrize("space", ["sl2r", "su21", "su31"])
def test_a_stack_raises_what_its_first_failing_point_raises(space):
    a = build_space(space)
    coords = _stack_of_points(a)
    g = np.stack([SpacePoint(a, c).representative for c in coords])
    g[3] *= 1.5      # off the group: fails the relation check
    g[5] *= 3.0
    with pytest.raises(NumericalBreakdown) as alone:
        cartan_project(a, g[3])
    with pytest.raises(NumericalBreakdown) as stacked:
        cartan_project(a, g)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(NumericalBreakdown):
        cartan_project(a, g[5:])
    cartan_project(a, g[:3])      # the points before it still chart
    # the metric: the first point whose sinh^2 overflows float64
    coords[3] *= 400.0 / np.linalg.norm(coords[3])
    coords[5] *= 1e200
    message = _raised(NumericalBreakdown, metric_matrix, a, coords[3])
    assert message.startswith("pullback metric overflows float64 (||P||_B = ")
    assert _raised(NumericalBreakdown, metric_matrix, a, coords) == message
    assert _raised(NumericalBreakdown, metric_matrix, a, coords[5]) != message
    assert np.array_equal(_bits(metric_matrix(a, coords[:3])),
                          _bits(metric_matrix(a, np.delete(coords, [3, 5], axis=0))[:3]))


def test_stack_order_beats_check_order(sl2r):
    """A point failing a late check ahead of a point failing an early check
    raises the late check: the error the points give one at a time."""
    rot = np.array([[math.cos(0.3), -math.sin(0.3)],
                    [math.sin(0.3), math.cos(0.3)]])
    skewed = rot @ np.diag([1e6, 1e-6]) @ rot.T   # det 1, polar factor lost
    scaled = 2.0 * np.eye(2)                      # det 4
    with pytest.raises(NumericalBreakdown, match="positive definite"):
        cartan_project(sl2r, np.stack([skewed, scaled]))
    with pytest.raises(NumericalBreakdown, match="realized group"):
        cartan_project(sl2r, np.stack([scaled, skewed]))


@pytest.mark.parametrize("space", ["sl2r", "su21"])
def test_a_non_finite_slice_raises_instead_of_aborting_eigh(space):
    """An overflowed matrix gets its own NumericalBreakdown: eigh would
    otherwise refuse the whole stack with a LinAlgError."""
    a = build_space(space)
    coords = _stack_of_points(a)
    g = np.stack([SpacePoint(a, c).representative for c in coords])
    g[2, 0, 0] = np.inf
    g[4, -1, 0] = np.nan
    message = "polar factor is not finite: the matrix overflows float64"
    assert _raised(NumericalBreakdown, cartan_project, a, g[2]) == message
    assert _raised(NumericalBreakdown, cartan_project, a, g[4]) == message
    assert _raised(NumericalBreakdown, cartan_project, a, g) == message
    assert np.array_equal(_bits(cartan_project(a, g[:2])),
                          _bits(cartan_project(a, np.delete(g, [2, 4], axis=0))[:2]))
    # stack order still beats check order
    g[1] *= 1.5
    assert _raised(NumericalBreakdown, cartan_project, a, g).startswith(
        "matrix is not in the realized group")


def _so21_det_only():
    """so(2,1) with its realization's signature dropped: det g = 1 is then the
    only group relation, so a det-1 matrix whose polar part leaves p passes
    every chart check before the re-expression."""
    a = build_space("so21")
    real = dataclasses.replace(a.realization, signature=None)
    return StructuredLieAlgebra(a.labels, a.table, a.theta, real, name="so21-det")


OUTSIDE_P = "polar part is not in p (residual 9.803e-01); " \
    "matrix outside the symmetric-space model"


def test_a_polar_part_outside_p_is_refused():
    a = _so21_det_only()
    g = np.diag([2.0, 1.0, 0.5])          # det 1; log(g g^T) / 2 is diagonal
    assert geometry.group_membership_residual(a, g) == 0.0
    assert _raised(NumericalBreakdown, cartan_project, a, g) == OUTSIDE_P
    # the catalog so(2,1) refuses it earlier, at its J-relation
    assert _raised(NumericalBreakdown, cartan_project, build_space("so21"),
                   g).startswith("matrix is not in the realized group")


def test_a_stack_refuses_its_first_polar_part_outside_p():
    a = _so21_det_only()
    good = np.stack([SpacePoint(a, c).representative
                     for c in [[0.0, 0.0], [0.3, -0.2], [-1.1, 0.4]]])
    bad = np.diag([2.0, 1.0, 0.5])
    assert _raised(NumericalBreakdown, cartan_project, a,
                   np.concatenate([good, bad[None], good])) == OUTSIDE_P
    assert np.array_equal(_bits(cartan_project(a, good)), _bits(np.stack(
        [cartan_project(a, m) for m in good])))
    # each other check refuses a stack whose only failure it is, and stack
    # order beats check order: a later matrix failing an earlier check (the
    # group relation, a non-positive or a non-finite polar factor) does not
    # mask the re-expression failure before it
    rot = np.array([[math.cos(0.3), -math.sin(0.3), 0.0],
                    [math.sin(0.3), math.cos(0.3), 0.0], [0.0, 0.0, 1.0]])
    later = {"matrix is not in the realized group": np.diag([-1.0, 1.0, 1.0]),
             "polar factor is not positive definite":
                 rot @ np.diag([1e6, 1e-6, 1.0]) @ rot.T,   # det 1
             "polar factor is not finite": np.full((3, 3), np.nan)}
    for check, other in later.items():
        message = _raised(NumericalBreakdown, cartan_project, a, other)
        assert message.startswith(check)
        assert _raised(NumericalBreakdown, cartan_project, a,
                       np.stack([good[1], other, good[2]])) == message
        assert _raised(NumericalBreakdown, cartan_project, a,
                       np.stack([good[1], bad, other])) == OUTSIDE_P
        assert _raised(NumericalBreakdown, cartan_project, a,
                       np.stack([good[1], other, bad])) == message


def _spec_on(space):
    """An immersion spec over the catalog space: the su real-form pair, or
    span(H1) with X = S12 in sl(2,R)."""
    if space == "sl2r":
        a = build_space(space)
        return ImmersionSpec(a, Subspace(a, [a.from_labels({"H1": 1})]),
                             a.from_labels({"S12": 1}).to_array())
    return _su21_spec(build_pair(space, "real-form"))


@pytest.mark.parametrize("space", ["sl2r", "su21", "su31"])
def test_stacked_points_equal_single_points_bit_for_bit(space):
    spec = _spec_on(space)
    a = spec.algebra
    coords = _stack_of_points(a)
    g = np.stack([SpacePoint(a, c).representative for c in coords])
    stacked = SpacePoint.from_matrix(a, g)
    single = [SpacePoint.from_matrix(a, m) for m in g]
    assert stacked.coords.shape == coords.shape
    assert np.array_equal(_bits(stacked.coords),
                          _bits(np.stack([q.coords for q in single])))
    assert np.array_equal(_bits(stacked.representative),
                          _bits(np.stack([q.representative for q in single])))
    # every pair at once: a column stack against the row stack
    d = distance(a, SpacePoint.from_matrix(a, g[:, None]), stacked)
    assert d.shape == (len(g), len(g))
    assert np.array_equal(_bits(d), _bits(np.array(
        [[distance(a, q1, q2) for q2 in single] for q1 in single])))
    ts = np.array([-0.6, 0.0, 0.35])
    moved = transvection(spec, ts[:, None], stacked)
    assert moved.coords.shape == (len(ts),) + coords.shape
    assert np.array_equal(_bits(moved.coords), _bits(np.array(
        [[transvection(spec, t, q).coords for q in single] for t in ts])))
    ys = np.linspace(-0.7, 0.7, 3 * spec.s.dim).reshape(3, spec.s.dim)
    grid = immersion_point(spec, ts[:, None], ys)
    assert np.array_equal(_bits(grid.coords), _bits(np.array(
        [[immersion_point(spec, t, y).coords for y in ys] for t in ts])))


def _bump_representatives(monkeypatch, spec, coords, nudge=None):
    """Move the representative of the point at coords by nudge, by default
    exp(1e-6 X): still in the group, but off the round trip."""
    plain = SpacePoint.representative.fget
    nudge = expm(1e-6 * spec._x_matrix) if nudge is None else nudge

    def bumped(self):
        rep = plain(self)
        hit = np.all(self.coords == coords, axis=-1)[..., None, None]
        return np.where(hit, rep @ nudge, rep)

    monkeypatch.setattr(SpacePoint, "representative", property(bumped))


def _raised(exc, fn, *args):
    with pytest.raises(exc) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("space", ["sl2r", "su21", "su31"])
def test_a_stack_of_nodes_raises_what_its_first_failing_node_raises(
        space, monkeypatch):
    spec = _spec_on(space)
    t = np.array([0.5, -0.25, 0.0, 0.7, 0.0, -0.5])
    y = np.outer([0.1, -0.2, 0.6, 0.3, -0.5, 0.0], np.ones(spec.s.dim))
    # node 3 lies outside the grid
    t_out = t.copy()
    t_out[3] = 2.0
    assert (_raised(ConfigError, immersion_point, spec, t_out, y)
            == _raised(ConfigError, immersion_point, spec, t_out[3], y[3]))
    immersion_point(spec, t_out[:3], y[:3])    # the nodes before it chart
    # node 3 fails the round trip
    _bump_representatives(monkeypatch, spec, immersion_point(spec, t[3], y[3]).coords)
    message = _raised(NumericalBreakdown, immersion_point, spec, t[3], y[3])
    assert message == "normal-coordinate round trip failed"
    assert _raised(NumericalBreakdown, immersion_point, spec, t, y) == message
    immersion_point(spec, t[:3], y[:3])
    # the t = 0 nodes 2 and 4 leave a wrong s of the same dimension, X in
    # place of the first basis vector: each stack raises the
    # recertification or the round trip, whichever node comes first
    x = spec.algebra.vector([Fraction(c) for c in spec.x])
    spec.s = Subspace(spec.algebra, [x, *spec.s.basis[1:]])
    message = _raised(NumericalBreakdown, immersion_point, spec, t[2], y[2])
    assert message.startswith("t = 0 point left s")
    assert message != _raised(NumericalBreakdown, immersion_point, spec, t[4], y[4])
    assert _raised(NumericalBreakdown, immersion_point, spec, t, y) == message
    assert (_raised(NumericalBreakdown, immersion_point, spec, t[3:], y[3:])
            == "normal-coordinate round trip failed")
    assert (_raised(NumericalBreakdown, immersion_point, spec, t[4:], y[4:])
            == _raised(NumericalBreakdown, immersion_point, spec, t[4], y[4]))


def _spoil_z(monkeypatch, nan_row, off_p_row):
    """Z = e^-Y X e^Y turns nan at the Y row nan_row, and gains 1e-3 I,
    which no p-image spans (they are traceless), at the Y row off_p_row."""
    plain = geometry._conjugated_x

    def spoiled(spec, y):
        z = plain(spec, y)
        z[np.all(y == nan_row, axis=-1)] = np.nan
        z[np.all(y == off_p_row, axis=-1)] += 1e-3 * np.eye(z.shape[-1])
        return z

    monkeypatch.setattr(geometry, "_conjugated_x", spoiled)


NOT_FINITE = "mean curvature overflows float64: Z = e^-Y X e^Y or [Z_k, Z_p] is not finite"


@pytest.mark.parametrize("space", ["su21", "su31"])
def test_a_closed_form_failure_raises_for_the_first_failing_node_after_the_charts(
        space, monkeypatch):
    """Node 3's Z is not finite and node 5's Z_p leaves p: each raises its
    own message alone, a stack raises its first failing node's, stack order
    beats check order, and a chart failing at a later node is raised first,
    since every node is charted before any closed form is checked."""
    spec = _spec_on(space)
    t = np.array([0.5, -0.25, 0.0, 0.7, 0.0, -0.5])
    y = np.outer([0.1, -0.2, 0.6, 0.3, -0.5, 0.0], np.ones(spec.s.dim))
    _spoil_z(monkeypatch, y[3], y[5])
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t[3], y[3]) == NOT_FINITE
    off_p = _raised(NumericalBreakdown, mean_curvature_estimate, spec, t[5], y[5])
    assert off_p == "Z_p or [Z_k, Z_p] is not in p (residual %.3e)" % (
        1e-3 * math.sqrt(len(spec._x_matrix)))      # ||1e-3 I||, orthogonal to p
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t, y) == NOT_FINITE
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec,
                   t[[5, 3]], y[[5, 3]]) == off_p
    mean_curvature_estimate(spec, t[:3], y[:3])     # the nodes before them compute
    mean_curvature_estimate(spec, t[3], y[3], baseline=True)   # H = 0 takes no Z
    # node 4 is pushed out of the group: its chart fails first
    plain, node = spec.group_element, y[4]

    def pushed(t, y):
        g = plain(t, y)
        return np.where(np.all(y == node, axis=-1)[..., None, None], g * (1.0 + 1e-6), g)

    monkeypatch.setattr(spec, "group_element", pushed)
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t, y).startswith(
        "matrix is not in the realized group")


def test_an_overflowed_z_is_marked_without_a_warning(su21_real_form):
    """At Y = 400 P1 the exponents e^(w_j - w_i) overflow float64; the closed
    form marks the node instead of dividing inf by inf aloud."""
    spec = _su21_spec(su21_real_form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, bad, _, _ = geometry._closed_form(spec, np.array([[0.3, 0.1], [400.0, 0.0]]))
    assert bad.tolist() == [False, True]


def _signed_expm(m):
    """A per-slice stand-in for expm that tells -0.0 from 0.0 in the real
    parts of its input."""
    return expm(m) + np.sum(np.signbit(m.real), axis=(-2, -1))[..., None, None]


@pytest.mark.parametrize("fake", [False, True])
def test_group_element_computes_distinct_slices_once_with_the_same_bits(
        su21_real_form, monkeypatch, fake):
    spec = _su21_spec(su21_real_form)
    ts = np.array([0.25, -0.0, 0.0, 0.25, -0.5, -0.0, 0.25])
    ys = np.array([[0.1, -0.0], [0.1, 0.0], [0.1, -0.0], [-0.3, 0.2],
                   [0.1, -0.0], [-0.0, -0.0], [0.0, 0.0]])
    ref = _signed_expm if fake else geometry.expm   # before the patches below
    if fake:
        monkeypatch.setattr(geometry, "expm", _signed_expm)
    sizes = []
    counted = geometry.expm

    def count(m):
        sizes.append(len(m))
        return counted(m)

    monkeypatch.setattr(geometry, "expm", count)
    g = spec.group_element(ts, ys)
    assert sizes == [4, 5]     # the distinct bit patterns of t and of y rows
    single = np.stack([ref(t * spec._x_matrix) @ ref(spec.y_matrix(y))
                       for t, y in zip(ts, ys)])
    assert np.array_equal(_bits(g), _bits(single))
    # a stack of stacks gathers each node back to its place
    nested = spec.group_element(ts[:, None], ys[None, :, :])
    assert nested.shape == (len(ts), len(ys)) + spec._x_matrix.shape
    assert np.array_equal(_bits(nested), _bits(np.array(
        [[ref(t * spec._x_matrix) @ ref(spec.y_matrix(y)) for y in ys]
         for t in ts])))


def test_one_construct_request_decomposes_a_fixed_count_of_matrices(
        tmp_path, count_calls):
    """The eigh work of one 3 x 3 x 3 construct request, as counts that repeat
    exactly on any machine: the block's 9 Y-images, whose one eigh gives
    both exp(Y) and the Z that the closed form conjugates X to, its 3
    distinct t exponentials, then one chart of its 27 nodes.  A lost dedup,
    a second Y decomposition, an extra chart or any metric changes them."""
    sizes = count_calls(np.linalg, "eigh", stack_size)
    assert run(["construct", "--space", "su21", "--pair", "real-form",
                "--t-steps", "3", "--y-steps", "3",
                "--out", str(tmp_path / "report.json")]) == 0
    assert sizes == CONSTRUCT_EIGHS


@pytest.mark.parametrize("argv, eighs, charts", [
    (["construct", "--space", "su21", "--pair", "real-form", "--t-steps", "3",
      "--y-steps", "3", "--distance-law"], DISTANCE_LAW_EIGHS, DISTANCE_LAW_CHARTS),
    (["bisector", "--space", "su21", "--pair", "complex-hyperplane", "--grid-steps", "5"],
     BISECTOR_EIGHS, BISECTOR_CHARTS)], ids=["distance-law", "bisector"])
def test_the_distance_law_and_the_bisector_chart_one_stack_a_stage(
        tmp_path, count_calls, argv, eighs, charts):
    """After the curvature sweep's counts (the test above), the distance
    law's 7 orbit and 3 S-sample exponentials, then two charts: the 7 + 21
    orbit and f(t, y) points; their 28 representatives with the 54 q-to-S
    matrices.  The bisector's 2 z, 5 orbit and 25 S-point exponentials,
    then two charts: the 2 + 25 + 10 z, S points and endpoints exp(-tX) z;
    their 37 representatives with the 250 S-to-endpoint matrices.  A stage
    split in two, or a grid node formed, changes them."""
    sizes = count_calls(np.linalg, "eigh", stack_size)
    charted = count_calls(geometry, "cartan_project", lambda a, g: stack_size(g))
    assert run(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert sizes == eighs
    assert charted == charts


LAW_SAMPLES = ([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], (-0.5, 0.0, 0.5))


def _push_solve(monkeypatch, lhs, rhs):
    """Scale by 1 + 1e-6, out of the group, every g1^-1 g2 that
    np.linalg.solve forms from g1 = lhs and g2 = rhs (within 1e-9)."""
    solve = np.linalg.solve

    def pushed(a, b):
        out = solve(a, b)
        hit = (np.all(np.abs(a - lhs) < 1e-9, axis=(-2, -1))
               & np.all(np.abs(b - rhs) < 1e-9, axis=(-2, -1)))
        return np.where(hit[..., None, None], out * (1.0 + 1e-6), out)

    monkeypatch.setattr(np.linalg, "solve", pushed)


RELATION = "matrix is not in the realized group (relation residual %s)"
ROUND_TRIP = "normal-coordinate round trip failed"


def _alone(a, g):
    """What cartan_project raises on the matrix g (N, N) charted alone."""
    return _raised(NumericalBreakdown, cartan_project, a, g)


@pytest.mark.parametrize("space, target, nudge, message", [
    # the messages each point's representative or the q-to-S matrix raises
    # when charted alone (checked below)
    ("su21", "orbit", "group", RELATION % "3.932e-07"),
    ("su21", "s", "group", RELATION % "3.146e-07"),
    ("su21", "q", "group", RELATION % "2.380e-07"),
    ("su21", "between", None, RELATION % "8.548e-08"),
    ("su31", "orbit", "group", RELATION % "3.286e-07"),
    ("su31", "s", "group", RELATION % "2.265e-07"),
    ("su31", "q", "group", RELATION % "1.770e-07"),
    ("su31", "between", None, RELATION % "4.752e-08"),
    *((space, target, "round-trip", ROUND_TRIP) for space in ("su21", "su31")
      for target in ("orbit", "s", "q"))])
def test_one_failing_point_of_a_distance_law_stage_raises_what_it_raised_alone(
        monkeypatch, space, target, nudge, message):
    """A point off the round trip, a representative or a q-to-S matrix out
    of the group: in the stage that charts it, it raises what it raises
    when charted alone.  The S point is f(0, y) = exp(Y) o, the q point
    f(0.5, y)."""
    spec, ts, ys = _law_on(space)
    a = spec.algebra
    if target == "between":
        s, q = _law_between(spec, ys)
        assert _alone(a, (1.0 + 1e-6) * np.linalg.solve(s, q)) == message
        _push_solve(monkeypatch, s, q)
    else:
        points = {
            "orbit": SpacePoint.from_matrix(a, geometry.expm(0.5 * spec._x_matrix)),
            "s": SpacePoint.from_matrix(a, spec.group_element(0.0, ys[2])),
            "q": SpacePoint.from_matrix(a, spec.group_element(0.5, ys[0]))}
        if nudge == "group":
            assert _alone(a, (1.0 + 1e-6) * points[target].representative) == message
        _bump_representatives(monkeypatch, spec, points[target].coords,
                              None if nudge == "round-trip"
                              else (1.0 + 1e-6) * np.eye(len(spec._x_matrix)))
    assert _raised(NumericalBreakdown, distance_law_check, spec, ts, ys) == message


def _law_on(space):
    """The spec of _spec_on with the samples of construct --distance-law."""
    spec = _spec_on(space)
    ts, values = LAW_SAMPLES
    return spec, ts, [np.full(spec.s.dim, v) for v in values]


def _law_between(spec, ys):
    """The representatives of the S point of ys[0] and of q = f(0.5, ys[2]),
    whose g_S^-1 g_q the distance law charts in its second stage."""
    a = spec.algebra
    return (SpacePoint.from_matrix(a, spec.group_element(0.0, ys[0])).representative,
            SpacePoint.from_matrix(a, spec.group_element(0.5, ys[2])).representative)


def test_a_distance_law_stage_raises_its_charts_before_earlier_round_trips(monkeypatch):
    """The order distance_law_check documents: an orbit point off its round
    trip and a q-to-S matrix out of the group raise the matrix, charted in
    stage 2 with the round trips, before the round trips are checked."""
    spec, ts, ys = _law_on("su21")
    between = _law_between(spec, ys)
    orbit = SpacePoint.from_matrix(spec.algebra, geometry.expm(0.5 * spec._x_matrix))
    _bump_representatives(monkeypatch, spec, orbit.coords)
    assert _raised(NumericalBreakdown, distance_law_check, spec, ts, ys) == ROUND_TRIP
    _push_solve(monkeypatch, *between)
    assert (_raised(NumericalBreakdown, distance_law_check, spec, ts, ys)
            == RELATION % "8.548e-08")


def _bisector_on(pair, space="su21", grid=None):
    """(the catalog entry, the spec and the z_pm matrices that
    bisector_equidistance_check builds for the pair on grid, by default
    5 x 5, and the points it charts: z_+, the S point exp(Y) o of
    y = (0.375, -0.75) and the endpoint exp(-0.375 X) z_+, each alone)."""
    entry = build_pair(space, pair)
    a = entry.algebra
    x = entry.x_default.to_array()
    spec = ImmersionSpec(a, entry.s, x * (1.0 / a.btheta_norm(x)),
                         grid=grid or GridSpec(t_steps=5, y_steps=5))
    jx = complex_structure_matrix(a).astype(float) @ spec.x
    g = geometry.expm(np.array([0.5, -0.5])[:, None, None] * realize(a, jx))
    y = np.array([0.375, -0.75, 0.0][:spec.s.dim])
    return entry, spec, g, {
        "z": SpacePoint.from_matrix(a, g[0]),
        "s": SpacePoint.from_matrix(a, geometry.expm(spec.y_matrix(y))),
        "end": SpacePoint.from_matrix(a, geometry.expm(-0.375 * spec._x_matrix) @ g[0])}


@pytest.mark.parametrize("pair, target, nudge, message", [
    ("complex-hyperplane", "z", "group", RELATION % "5.539e-07"),
    ("complex-hyperplane", "s", "group", RELATION % "2.654e-07"),
    ("complex-hyperplane", "end", "group", RELATION % "5.410e-07"),
    ("complex-hyperplane", "between", None, RELATION % "2.568e-07"),
    ("real-form", "z", "group", RELATION % "5.539e-07"),
    ("real-form", "s", "group", RELATION % "2.654e-07"),
    ("real-form", "end", "group", RELATION % "5.410e-07"),
    ("real-form", "between", None, RELATION % "2.357e-07"),
    *((pair, target, "round-trip", ROUND_TRIP)
      for pair in ("complex-hyperplane", "real-form") for target in ("z", "s", "end"))])
def test_one_failing_point_of_a_bisector_stage_raises_what_it_raised_alone(
        monkeypatch, pair, target, nudge, message):
    """The same for the bisector: z_+, the S point of y = (0.375, -0.75),
    the endpoint exp(-0.375 X) z_+ or the matrix between the S point and
    the endpoint."""
    entry, spec, _, points = _bisector_on(pair)
    a = entry.algebra
    if target == "between":
        s, end = points["s"].representative, points["end"].representative
        assert _alone(a, (1.0 + 1e-6) * np.linalg.solve(s, end)) == message
        _push_solve(monkeypatch, s, end)
    else:
        if nudge == "group":
            assert _alone(a, (1.0 + 1e-6) * points[target].representative) == message
        _bump_representatives(monkeypatch, spec, points[target].coords,
                              None if nudge == "round-trip" else (1.0 + 1e-6) * np.eye(3))
    assert _raised(NumericalBreakdown, bisector_equidistance_check, entry,
                   0.5, spec.grid) == message


def test_the_bisector_stages_raise_in_their_documented_order(monkeypatch):
    """grid_distances' order, one failure added at a time: an endpoint off
    its round trip; an S point leaving a wrong s of the same dimension (X in
    place of its first basis vector) before it; z_+ off its round trip
    before that; a matrix of the second chart before every round trip."""
    _, spec, g, points = _bisector_on("complex-hyperplane")
    a, t, y = spec.algebra, spec.grid.t_axis(), spec.grid.y_nodes(spec.s.dim)

    def raised():
        return _raised(NumericalBreakdown, grid_distances, spec, t, y, g)

    _bump_representatives(monkeypatch, spec, points["end"].coords)
    assert raised() == ROUND_TRIP
    between = points["s"].representative, points["end"].representative  # bumped
    x = a.vector([Fraction(c) for c in spec.x])
    spec.s = Subspace(a, [x, *spec.s.basis[1:]])
    assert raised().startswith("t = 0 point left s")
    _bump_representatives(monkeypatch, spec, points["z"].coords)
    assert raised() == ROUND_TRIP
    message = _alone(a, (1.0 + 1e-6) * np.linalg.solve(*between))
    _push_solve(monkeypatch, *between)
    assert raised() == message


@pytest.mark.parametrize("space", ["su21", "su31"])
def test_grid_distances_equal_distance_on_the_points_they_chart_bit_for_bit(space):
    """d(o, z) from the round-trip charts of z, and d(f(t, y), z) from the
    stacked S-to-endpoint charts, against distance on the S points exp(Y) o
    and the endpoints exp(-tX) z, charted one S point and one t at a time."""
    spec = _spec_on(space)
    a = spec.algebra
    g = np.stack([SpacePoint(a, c).representative for c in _stack_of_points(a)])
    ts = np.array([-0.6, 0.0, 0.35])
    ys = np.linspace(-0.7, 0.7, 3 * spec.s.dim).reshape(3, spec.s.dim)
    from_o, from_f = grid_distances(spec, ts, ys, g)
    assert from_f.shape == (len(ts), len(ys), len(g))
    z = SpacePoint.from_matrix(a, g)
    assert np.array_equal(_bits(from_o), _bits(distance(a, SpacePoint.base(a), z)))
    assert np.array_equal(_bits(from_o), _bits(np.array(
        [distance(a, SpacePoint.base(a), SpacePoint.from_matrix(a, m)) for m in g])))
    for i, t in enumerate(ts):
        ends = SpacePoint.from_matrix(a, geometry.expm(-t * spec._x_matrix) @ g)
        for j, y in enumerate(ys):
            s = SpacePoint.from_matrix(a, geometry.expm(spec.y_matrix(y)))
            assert np.array_equal(_bits(from_f[i, j]), _bits(distance(a, s, ends)))


ORACLE_PAIRS = [("su21", "complex-hyperplane"), ("su21", "real-form"),
                ("su31", "real-form")]


def _assert_reports_agree(got, want, tol=1e-12):
    """Every float leaf of the two reports within tol absolute, every other
    leaf (the verdicts among them) equal."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            _assert_reports_agree(got[key], value, tol)
        elif isinstance(value, float):
            assert abs(got[key] - value) <= tol, key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("space, pair", ORACLE_PAIRS)
def test_the_bisector_distances_agree_with_the_grid_node_oracle(monkeypatch, space, pair):
    """grid_distances against distance_oracle, which forms and charts every
    grid node f(t, y), on a t axis that is not symmetric about 0, for z_pm
    and for points z off every symmetry of the pair (an isometry fixing S
    and z_pm can carry exp(tX) to exp(-tX)).  Every distance agrees within
    1e-12 absolute for z_pm, and within 1e-12 relative for the other z,
    which lie up to 10 away; the report is the same but for noise in
    max_delta."""
    grid = GridSpec(t_range=(-0.5, 0.75), t_steps=4, y_steps=3)
    entry, spec, g, _ = _bisector_on(pair, space, grid)
    a, t, y = entry.algebra, grid.t_axis(), grid.y_nodes(spec.s.dim)
    far = np.stack([SpacePoint(a, c).representative for c in _stack_of_points(a)])
    for z, relative in ((g, False), (far, True)):
        got = grid_distances(spec, t, y, z)
        want = distance_oracle.grid_distances(spec, t, y, z)
        for new, old in zip(got, want):
            assert new.shape == old.shape
            scale = np.maximum(old, 1.0) if relative else 1.0
            assert np.max(np.abs(new - old) / scale) <= 1e-12
    report = bisector_equidistance_check(entry, 0.5, grid)
    monkeypatch.setattr(geometry, "grid_distances", distance_oracle.grid_distances)
    oracle = bisector_equidistance_check(entry, 0.5, grid)
    assert report["equidistant"] == (pair == "complex-hyperplane")
    _assert_reports_agree(report, oracle)


@pytest.mark.parametrize("samples", [LAW_SAMPLES, ([0.6, -0.8, 0.3], (0.7, -0.4, 0.0))],
                         ids=["construct", "asymmetric"])
@pytest.mark.parametrize("space, pair", ORACLE_PAIRS)
def test_the_distance_law_distances_agree_with_the_three_stage_oracle(
        monkeypatch, space, pair, samples):
    """_law_distances against distance_oracle, which charts the S points and
    the points f(t, y), t != 0, apart and every transvected S point
    exp(tX) exp(Y) o from its representative: the geodesic, q-to-S and
    from-o distances within 1e-12 absolute, and the same verdicts."""
    spec = _su21_spec(build_pair(space, pair))
    t_samples, values = samples
    y_samples = [np.linspace(v, -0.5 * v, spec.s.dim) for v in values]
    ts, ys = geometry._law_samples(spec, t_samples, y_samples)
    got = geometry._law_distances(spec, ts, ys)
    want = distance_oracle.law_distances(spec, ts, ys)
    for new, old in zip(got, want):
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-12
    report = distance_law_check(spec, t_samples, y_samples)
    monkeypatch.setattr(geometry, "_law_distances", distance_oracle.law_distances)
    oracle = distance_law_check(spec, t_samples, y_samples)
    assert report["passed"]
    _assert_reports_agree(report, oracle)


@pytest.mark.parametrize("space, pair, steps, blocks", [
    # one block of CURVATURE_BLOCK t rows, then one node: the seam
    ("su21", "real-form", (CURVATURE_BLOCK + 1, 1), [(CURVATURE_BLOCK, 1), (1, 1)]),
    ("su21", "complex-hyperplane", (CURVATURE_BLOCK + 1, 1),
     [(CURVATURE_BLOCK, 1), (1, 1)]),
    # n = 25 <= CURVATURE_BLOCK < T n: whole t rows, k = 128 // 25 = 5
    ("su21", "real-form", (7, 5), [(5, 25), (2, 25)]),
    # n = 4^4 = 256 > CURVATURE_BLOCK: one t row, chunks of CURVATURE_BLOCK Y rows
    ("su31", "complex-hyperplane", (2, 4), [(1, CURVATURE_BLOCK)] * 4),
    ("su21", "real-form", (3, 3), [(3, 9)]),                   # one block
    # the sl(3,R) negative control, H != 0: n = 5, k = 25
    ("sl3r", "control", (30, 5), [(25, 5), (5, 5)])],
    ids=["seam-real-form", "seam-complex-hyperplane", "whole-t-rows", "y-chunks",
         "one-block", "control"])
@pytest.mark.parametrize("baseline", [False, True])
def test_the_blocked_sweep_equals_each_node_alone_bit_for_bit(
        space, pair, steps, blocks, baseline, monkeypatch):
    """The sweep hands mean_curvature_estimate products of whole t rows and
    Y rows, at most CURVATURE_BLOCK nodes a block, t-major; each node of the
    report gets the (normal, norm, point) it gets alone, on both sides of
    every seam."""
    grid = GridSpec(t_steps=steps[0], y_steps=steps[1])
    if pair == "control":
        a, s, x = negative_control()
        spec = ImmersionSpec(a, s, x.to_array(), grid=grid)
    else:
        spec = _su21_spec(build_pair(space, pair), grid=grid)
    alone = geometry.mean_curvature_estimate
    recorded = []

    def record(spec, t, y, baseline=False):
        out = alone(spec, t, y, baseline=baseline)
        recorded.append((np.copy(t), np.copy(y), out))
        return out

    monkeypatch.setattr(geometry, "mean_curvature_estimate", record)
    rep = mean_curvature_report(spec, tolerance=1.0, baseline=baseline)
    assert [(t.shape, y.shape) for t, y, _ in recorded] == [
        ((k, 1), (n, spec.s.dim)) for k, n in blocks]
    nodes = [(t, list(y)) for ts, ys, _ in recorded
             for t in ts[:, 0] for y in ys]
    outs = [[v.reshape((-1,) + v.shape[2:]) for v in out] for _, _, out in recorded]
    normal, norm, point = (np.concatenate(v) for v in zip(*outs))
    assert len(rep.entries) == len(nodes) == steps[0] * steps[1] ** spec.s.dim
    for k, entry in enumerate(rep.entries):
        assert (entry["t"], entry["y"]) == nodes[k]
        one = alone(spec, *nodes[k], baseline=baseline)
        assert one[0].shape == normal[k].shape and one[1].shape == ()
        for got, want in zip((normal[k], norm[k], point[k]), one):
            assert np.array_equal(_bits(got), _bits(want))
        assert entry["norm"] == norm[k] and entry["point"] == list(point[k])


def test_a_non_finite_y_image_is_refused_at_its_chart():
    """A Y row that is not finite (a grid range with no bound admits it)
    gives a non-finite Y-image: eigh would refuse the whole stack, so the
    one decomposition of the Y rows zeroes it, its exp(Y) and Z come out
    nan, and the node raises the chart's message, alone, in a stack and in
    a product, while the nodes before it compute."""
    entry = build_pair("su21", "real-form")
    spec = _su21_spec(entry, grid=GridSpec(y_range=(-np.inf, np.inf)))
    y = np.array([[0.1, 0.2], [0.3, 0.0], [np.inf, 0.0], [-0.2, 0.1]])
    message = "polar factor is not finite: the matrix overflows float64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, ys in ((0.0, y[2]), (np.zeros(4), y), (np.array([[0.5], [0.0]]), y)):
            assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t, ys) == message
            assert spec._y_kept is None           # kept only while the call runs
        mean_curvature_estimate(spec, np.zeros(2), y[:2])
        _, _, bad, _, _ = geometry._closed_form(spec, y)
    assert bad.tolist() == [False, False, True, False]


def test_immersion_spec_invariants(sl2r, su21_real_form):
    s = Subspace(sl2r, [basis_vector(sl2r, 0)])
    x = (basis_vector(sl2r, 1) + basis_vector(sl2r, 2)).to_array()
    assert ImmersionSpec(sl2r, s, x).codimension == 1   # refused by the estimator
    with pytest.raises(ConfigError):   # X not B-orthogonal to s
        ImmersionSpec(sl2r, s, s.basis[0].to_array())
    entry = su21_real_form
    bad_s = Subspace(entry.algebra, [
        entry.algebra.from_labels({"P1": 1}),
        entry.algebra.from_labels({"Q2": 1})])
    ok, _ = bad_s.is_lie_triple_system()
    if not ok:
        with pytest.raises(ConfigError):
            ImmersionSpec(entry.algebra, bad_s,
                          entry.algebra.from_labels({"Q1": 1}).to_array())


@pytest.mark.parametrize("scale", [0.0, 1e-200])
def test_immersion_spec_refuses_an_x_whose_square_is_not_a_normal_float(
        monkeypatch, su21_real_form, scale):
    """X = 0 and 1e-200 Q1 are in p and B-orthogonal to s, but B(X, X) is 0:
    the closed form would divide by B(Z_p, Z_p) >= B(X, X)."""
    def unreachable(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(geometry, "realize", unreachable)
    a = su21_real_form.algebra
    with pytest.raises(ConfigError, match=r"^B\(X, X\) = 0\.0 is not a positive normal "
                                          r"float; X must be a nonzero normal direction$"):
        ImmersionSpec(a, su21_real_form.s, scale * a.from_labels({"Q1": 1}).to_array())


@pytest.mark.parametrize("x", [{"F12": 1}, {"Q1": 1, "F12": 1}])
def test_immersion_spec_refuses_x_outside_p_before_any_matrix(monkeypatch,
                                                              su21_real_form, x):
    """F12 lies in k, so it passes the X-orthogonal-to-s test; it once
    reached expm, which refused the non-Hermitian matrix."""
    def unreachable(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(geometry, "realize", unreachable)
    a = su21_real_form.algebra
    with pytest.raises(ConfigError, match="^X must lie in p$"):
        ImmersionSpec(a, su21_real_form.s, a.from_labels(x).to_array())


def test_immersion_spec_refuses_a_tiny_k_component_bit_for_bit(monkeypatch, su21_real_form):
    """X = Q1 + 1e-300 F12 is in p to any tolerance, but Theta X != -X bit
    for bit, and expm's Hermitian test would refuse its matrix."""
    def unreachable(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(geometry, "realize", unreachable)
    a = su21_real_form.algebra
    x = a.from_labels({"Q1": 1}).to_array()
    x[a.labels.index("F12")] = 1e-300
    with pytest.raises(ConfigError, match="^X must lie in p$"):
        ImmersionSpec(a, su21_real_form.s, x)


def test_immersion_spec_names_the_first_offending_pairing():
    entry = build_pair("su31", "real-form")     # s = span(P1, P2, P3)
    a = entry.algebra
    x = a.from_labels({"Q1": 1, "P2": 2, "P3": 3})
    with pytest.raises(ConfigError, match=r"^X is not B-orthogonal to s "
                                          r"\(pairing 3\.200e\+01\)$"):
        ImmersionSpec(a, entry.s, x.to_array())


def test_so31_geodesic_plane_is_the_degenerate_input():
    entry = build_pair("so31", "geodesic-plane")
    spec = ImmersionSpec(entry.algebra, entry.s, entry.x_default.to_array())
    with pytest.raises(ConfigError, match="needs codimension >= 2; this spec has 1"):
        mean_curvature_estimate(spec, 0.1, np.array([0.2, 0.1]))


def test_immersion_point_respects_the_grid(sl2r):
    spec = _sl2_spec(sl2r)
    q = immersion_point(spec, 0.5, np.array([0.25]))
    assert isinstance(q, SpacePoint)
    with pytest.raises(ConfigError):
        immersion_point(spec, 2.0, np.array([0.0]))        # t out of range
    with pytest.raises(ConfigError):
        immersion_point(spec, 0.0, np.array([0.0, 0.0]))   # wrong y length


def test_transvections_are_isometries(sl2r):
    spec = _sl2_spec(sl2r)
    q1 = immersion_point(spec, 0.0, np.array([0.5]))
    q2 = immersion_point(spec, 0.25, np.array([-0.5]))
    d0 = distance(sl2r, q1, q2)
    for t in (-1.0, 0.5, 2.0):
        dt = distance(sl2r, transvection(spec, t, q1),
                      transvection(spec, t, q2))
        assert abs(dt - d0) <= 1e-9 * (1.0 + d0)


def _su21_spec(entry, **kw):
    kw.setdefault("grid", GridSpec(t_steps=3, y_steps=3))
    return ImmersionSpec(entry.algebra, entry.s, entry.x_default.to_array(), **kw)


def test_su21_extension_is_minimal_on_a_coarse_grid(su21_real_form):
    spec = _su21_spec(su21_real_form)
    rep = mean_curvature_report(spec, tolerance=1e-4)
    assert rep.passed
    assert rep.max_norm <= 1e-12   # [Z_k, Z_p] lies in s up to roundoff
    assert len(rep.entries) == 27


def test_baseline_slice_is_minimal_too(su21_real_form):
    spec = _su21_spec(su21_real_form)
    normal, norm, _ = mean_curvature_estimate(spec, 0.0, np.array([0.3, -0.2]),
                                              baseline=True)
    assert norm == 0.0 and not normal.any()     # totally geodesic: H = 0 by proof


ORACLE_H = 1e-2
# the roundoff floor of the oracle's second differences at ORACLE_H / 2, about
# 100 eps / h^2; the O(h^2) gaps measured 2e-3 h^2 to 0.089 h^2
ORACLE_FLOOR = 100.0 * np.finfo(float).eps / (ORACLE_H / 2.0) ** 2


@pytest.mark.parametrize("case", ["real-form", "complex-hyperplane", "sl3r-control"])
def test_the_closed_form_vectors_are_the_limit_of_the_finite_difference_oracle(case):
    """At every node of criterion 5's grid (5 x 5^dim s), the closed-form
    vector agrees with the finite-difference oracle's, mapped to o, within
    the O(h^2) budget 0.25 h^2 plus the roundoff floor, and each gap
    shrinks by at least 3 when h halves unless both sit at the floor.
    Vectors, not norms: flipping Z_k flips H and keeps |H|.  The step is
    1e-2 so that the O(h^2) term stands four decades above the floor."""
    if case == "sl3r-control":
        a, s, x = negative_control()
    else:
        entry = build_pair("su21", case)
        a, s, x = entry.algebra, entry.s, entry.x_default
    grid = GridSpec(t_steps=5, y_steps=5)
    spec = ImmersionSpec(a, s, x.to_array(), grid=grid)
    y_nodes = grid.y_nodes(s.dim)
    ts, ys = np.repeat(grid.t_axis(), len(y_nodes)), np.tile(y_nodes, (5, 1))
    got = mean_curvature_estimate(spec, ts, ys)[0]
    gap, half = (geometry._b_norm(a, oracle_mean_curvature(spec, ts, ys, h) - got)
                 for h in (ORACLE_H, ORACLE_H / 2.0))
    assert np.all(gap <= 0.25 * ORACLE_H ** 2 + ORACLE_FLOOR), np.max(gap)
    at_floor = (gap <= ORACLE_FLOOR) & (half <= ORACLE_FLOOR)
    assert not at_floor.all()
    assert np.all((gap >= 3.0 * half) | at_floor), np.min((gap / half)[~at_floor])


def test_curvature_estimate_refuses_codimension_one(sl2r):
    spec = _sl2_spec(sl2r)
    with pytest.raises(ConfigError):
        mean_curvature_estimate(spec, 0.1, np.array([0.2]))
    # but the frozen-t baseline is well-posed: s itself is totally geodesic
    _, norm, _ = mean_curvature_estimate(spec, 0.1, np.array([0.2]),
                                         baseline=True)
    assert norm == 0.0


def test_distance_law_on_the_small_grid(su21_real_form):
    spec = _su21_spec(su21_real_form)
    law = distance_law_check(
        spec, [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0],
        [np.array([0.0, 0.0]), np.array([0.5, -0.5]), np.array([-0.5, 0.5])])
    assert law["passed"], law
    assert law["geodesic"]["worst_residual"] <= 1e-9
    assert law["separation"]["worst_violation"] == 0.0
    assert law["global_min"]["holds"]


@pytest.mark.parametrize("t_samples, y_samples, message", [
    ([0.5], [[0.0, 0.0], [0.1, 0.2, 0.3]], "expected 2 Y-coordinates, got 3"),
    ([0.5], [0.1], "expected 2 Y-coordinates, got 1"),
    ([0.5], [[[0.0, 0.0]]], "expected 2 Y-coordinates, got 2"),
    ([0.5], [], "the distance law needs at least one Y sample"),
    ([0.5], [[0.0, float("nan")]], "distance-law samples must be finite"),
    ([float("inf")], [[0.0, 0.0]], "distance-law samples must be finite")])
def test_distance_law_refuses_bad_samples_before_any_matrix(
        monkeypatch, su21_real_form, t_samples, y_samples, message):
    """A Y sample of the wrong width once ended in numpy's "operands could
    not be broadcast", an empty list in "cannot reshape array of size 0"."""
    spec = _su21_spec(su21_real_form)

    def unreachable(*args):
        raise AssertionError("a matrix was built")

    for name in ("expm", "cartan_project"):
        monkeypatch.setattr(geometry, name, unreachable)
    assert _raised(ConfigError, distance_law_check, spec, t_samples,
                   y_samples) == message


def test_export_writes_both_formats(tmp_path, su21_real_form):
    spec = _su21_spec(su21_real_form)
    rep = mean_curvature_report(spec, tolerance=1e-4)
    csv_path = os.fspath(tmp_path / "cloud.csv")
    ply_path = os.fspath(tmp_path / "cloud.ply")
    written = export_point_cloud(rep, csv_path=csv_path, ply_path=ply_path)
    assert set(written) == {"csv", "ply"}
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "t,y1,y2,p1,p2,p3,p4,mean_h"
    assert len(lines) == 28
    ply = open(ply_path).read().splitlines()
    assert ply[0] == "ply" and "element vertex 27" in ply[2]
    assert len(ply) == 7 + 27


class _NodeCount(list):
    def __len__(self):
        return 10 ** 7 + 1


def test_oversized_export_is_refused_before_touching_files(tmp_path):
    rep = CurvatureReport(entries=_NodeCount(), max_norm=0.0, baseline=False,
                          tolerance=1e-4)
    target = tmp_path / "refused.csv"
    with pytest.raises(ConfigError):
        export_point_cloud(rep, csv_path=os.fspath(target))
    assert not target.exists()


def test_the_curvature_mode_is_a_class_constant():
    """The mode is not a field a caller could set, and the report prints it."""
    assert "mode" not in {f.name for f in dataclasses.fields(CurvatureReport)}
    rep = CurvatureReport(entries=[], max_norm=0.0, baseline=False, tolerance=1e-4)
    assert rep.as_dict()["mode"] == "float64"


def test_grid_spec_rejects_malformed_ranges():
    with pytest.raises(ConfigError):
        GridSpec(t_steps=0)
    with pytest.raises(ConfigError):
        GridSpec(t_range=(1.0, -1.0))
