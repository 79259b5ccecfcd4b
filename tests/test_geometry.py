"""Matrix-model geometry against closed forms.

sl(2,R) oracles: ||H||_B = sqrt(8), d(o, exp(tH).o) = |t| sqrt(8), and the
pullback of the metric along P = rH in the direction E+F is
(sinh(2r)/(2r))^2 * B(E+F, E+F) (rank-one Jacobi field growth; ad_H^2 acts
as 4 on span(E+F)).
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import stack_size
from transvector import geometry
from transvector.catalog import (bisector_equidistance_check, build_pair, build_space,
                                complex_structure_matrix)
from transvector.cli import run
from transvector.errors import ConfigError, NumericalBreakdown
from transvector.geometry import (CURVATURE_BLOCK, CurvatureReport, GridSpec,
                                  ImmersionSpec,
                                  SpacePoint, cartan_project, distance,
                                  distance_law_check, export_point_cloud,
                                  immersion_distances, immersion_point,
                                  mean_curvature_estimate,
                                  mean_curvature_report, metric_matrix,
                                  realize, transvection)
from transvector.liealg import StructuredLieAlgebra
from transvector.subspaces import Subspace


def _sl2_spec(sl2r, **kw):
    s = Subspace(sl2r, [sl2r.basis_vector(0)])
    x = (sl2r.basis_vector(1) + sl2r.basis_vector(2)).to_array()
    return ImmersionSpec(sl2r, s, x, **kw)


coords3 = st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=2)


@given(coords3)
@settings(max_examples=40, deadline=None)
def test_log_exp_round_trip(sl2r, c):
    p = np.asarray(c, dtype=float)
    q = SpacePoint.from_matrix(sl2r, SpacePoint(sl2r, p).representative)
    assert np.max(np.abs(q.coords - p)) <= 1e-12 * (1.0 + np.max(np.abs(p)))


def test_rotation_part_projects_to_base_point(sl2r):
    k = realize(sl2r, (sl2r.basis_vector(1) - sl2r.basis_vector(2)).to_array())
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
    p = realize(sl2r, sl2r.basis_vector(0).to_array())
    k = realize(sl2r, (sl2r.basis_vector(1) - sl2r.basis_vector(2)).to_array())
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


def _series_terms(a, c):
    """Terms the pullback series of metric_matrix takes at c: the smallest
    term bound it accepts."""
    with pytest.MonkeyPatch.context() as mp:
        for k in range(1, geometry.SERIES_MAX_TERMS + 1):
            mp.setattr(geometry, "SERIES_MAX_TERMS", k)
            try:
                metric_matrix(a, c)
                return k
            except NumericalBreakdown:
                pass
    raise AssertionError("no term bound up to SERIES_MAX_TERMS accepted")


def _stack_of_points(a):
    rng = np.random.default_rng(11)
    radii = np.array([0.0, 0.01, 0.2, 0.7, 1.3, 0.05, 1.0])
    coords = rng.standard_normal((len(radii), len(a.p_basis)))
    coords *= (radii / np.linalg.norm(coords, axis=1))[:, None]
    return coords


@pytest.mark.parametrize("space", ["sl2r", "su21", "su31"])
def test_stacked_chart_and_metric_equal_single_points_bit_for_bit(space):
    a = build_space(space)
    coords = _stack_of_points(a)
    # the series stop after different numbers of terms across the stack
    assert len({_series_terms(a, c) for c in coords}) >= 3
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
def test_a_stack_raises_what_its_first_failing_point_raises(monkeypatch, space):
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
    # the metric series: the first point needing more terms than allowed
    terms = [_series_terms(a, c) for c in coords]
    cut = sorted(set(terms))[-2]
    first_long = next(i for i, k in enumerate(terms) if k > cut)
    monkeypatch.setattr(geometry, "SERIES_MAX_TERMS", cut)
    with pytest.raises(NumericalBreakdown) as alone:
        metric_matrix(a, coords[first_long])
    with pytest.raises(NumericalBreakdown) as stacked:
        metric_matrix(a, coords)
    assert str(stacked.value) == str(alone.value)


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


def _squeeze_charts(monkeypatch, spec, squeeze, spoil=None):
    """Chart every stencil point of the node at (t, y) = key of squeeze with
    its first Y-coordinate pulled toward the node's by the factor
    squeeze[key]: the induced metric of that node loses a direction.  The
    stencil points at t + h of the node at spoil chart to nan."""
    plain = geometry._chart
    h = spec.h

    def near(t, y, key):
        return (np.abs(t - key[0]) <= 1.5 * h) & np.all(
            np.abs(y - np.array(key[1:])) <= 1.5 * h, axis=-1)

    def chart(spec, t, y):
        t, y = np.broadcast_to(t, y.shape[:-1]), np.array(y)
        for key, f in squeeze.items():
            hit = near(t, y, key)
            y[..., 0] = np.where(hit, key[1] + f * (y[..., 0] - key[1]), y[..., 0])
        out = plain(spec, t, y)
        if spoil is not None:
            out[near(t - h, y, spoil) & (np.abs(t - spoil[0] - h) < 0.5 * h)] = np.nan
        return out

    monkeypatch.setattr(geometry, "_chart", chart)


@pytest.mark.parametrize("space", ["su21", "su31"])
def test_a_degenerate_node_raises_for_the_first_failing_node_of_its_stack(
        space, monkeypatch):
    spec = _spec_on(space)
    t = np.array([0.5, -0.25, 0.0, 0.7, 0.0, -0.5])
    y = np.outer([0.1, -0.2, 0.6, 0.3, -0.5, 0.0], np.ones(spec.s.dim))
    mean_curvature_estimate(spec, t, y)
    # nodes 3 and 5 lose a direction, each to its own condition number
    _squeeze_charts(monkeypatch, spec, {(t[3], *y[3]): 1e-7, (t[5], *y[5]): 1e-9})
    message = _raised(NumericalBreakdown, mean_curvature_estimate, spec, t[3], y[3])
    assert message.startswith("induced metric is ill-conditioned (cond ")
    assert message != _raised(NumericalBreakdown, mean_curvature_estimate,
                              spec, t[5], y[5])
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t, y) == message
    for k in range(3):    # the nodes before it compute, alone and stacked
        mean_curvature_estimate(spec, t[k], y[k])
    mean_curvature_estimate(spec, t[:3], y[:3])


@pytest.mark.parametrize("space", ["su21", "su31"])
def test_a_non_finite_induced_metric_raises_instead_of_aborting_cond(
        space, monkeypatch):
    """cond and inv would refuse the whole stack with a LinAlgError."""
    spec = _spec_on(space)
    t = np.array([0.5, -0.25, 0.0, 0.7, 0.0, -0.5])
    y = np.outer([0.1, -0.2, 0.6, 0.3, -0.5, 0.0], np.ones(spec.s.dim))
    _squeeze_charts(monkeypatch, spec, {}, spoil=(t[3], *y[3]))
    message = ("induced metric is ill-conditioned (cond nan): "
               "degenerate parametrization")
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t[3], y[3]) == message
    assert _raised(NumericalBreakdown, mean_curvature_estimate, spec, t, y) == message
    mean_curvature_estimate(spec, np.delete(t, 3), np.delete(y, 3, axis=0))


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
    exactly on any machine: the block's 9 distinct t and 81 distinct y
    exponentials and its 27 x 19 stencil charts, then the h/2 re-estimate's
    3 t, 9 y and 19 charts for one node.  A lost dedup or an extra chart
    pass changes them."""
    sizes = count_calls(np.linalg, "eigh", stack_size)
    assert run(["construct", "--space", "su21", "--pair", "real-form",
                "--t-steps", "3", "--y-steps", "3",
                "--out", str(tmp_path / "report.json")]) == 0
    assert sizes == [9, 81, 513, 3, 9, 19]


@pytest.mark.parametrize("argv, eighs, charts", [
    (["construct", "--space", "su21", "--pair", "real-form", "--t-steps", "3",
      "--y-steps", "3", "--distance-law"],
     [9, 81, 513, 3, 9, 19, 7, 1, 3, 6, 3, 28, 28, 103, 21, 21], [513, 19, 28, 103, 21]),
    (["bisector", "--space", "su21", "--pair", "complex-hyperplane", "--grid-steps", "5"],
     [2, 5, 25, 127, 127, 377], [127, 377])], ids=["distance-law", "bisector"])
def test_the_distance_law_and_the_bisector_chart_one_stack_a_stage(
        tmp_path, count_calls, argv, eighs, charts):
    """After the curvature sweep's counts (the test above), the distance
    law's 7 orbit and 1 + 3 and 6 + 3 group exponentials, then three
    charts: the 7 + 3 + 18 orbit, S and q points; their 28 representatives
    with the 54 q-to-S matrices and the 21 transvected S points; the
    representatives of those 21.  The bisector's 2 z and 5 + 25 grid
    exponentials, then two charts: the 2 + 125 points; their 127
    representatives with the 250 grid-to-z matrices.  A stage split in two
    changes them."""
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


@pytest.mark.parametrize("space, target, nudge, message", [
    # the messages the stage-by-stage distance law raised, one chart call
    # per point stack and distance
    ("su21", "orbit", "group", RELATION % "3.932e-07"),
    ("su21", "s", "group", RELATION % "3.146e-07"),
    ("su21", "q", "group", RELATION % "2.380e-07"),
    ("su21", "moved", "group", RELATION % "2.380e-07"),
    ("su21", "between", None, RELATION % "8.548e-08"),
    ("su31", "orbit", "group", RELATION % "3.286e-07"),
    ("su31", "s", "group", RELATION % "2.265e-07"),
    ("su31", "q", "group", RELATION % "1.770e-07"),
    ("su31", "moved", "group", RELATION % "1.770e-07"),
    ("su31", "between", None, RELATION % "4.752e-08"),
    *((space, target, "round-trip", ROUND_TRIP) for space in ("su21", "su31")
      for target in ("orbit", "s", "q", "moved"))])
def test_one_failing_point_of_a_distance_law_stage_raises_what_it_raised_alone(
        monkeypatch, space, target, nudge, message):
    """A point off the round trip, a representative or a q-to-S matrix out
    of the group: in the stage that charts it, it raises what it raised when
    its own stack was charted alone.  The moved point (t, y) = (0.5, -0.5)
    has other bits than the q point at the same place."""
    spec, ts, ys = _law_on(space)
    a = spec.algebra
    if target == "between":
        _push_between(monkeypatch, spec, ys)
    else:
        points = {
            "orbit": SpacePoint.from_matrix(a, geometry.expm(0.5 * spec._x_matrix)),
            "s": SpacePoint.from_matrix(a, spec.group_element(0.0, ys[2])),
            "q": SpacePoint.from_matrix(a, spec.group_element(0.5, ys[0])),
            "moved": transvection(spec, 0.5, SpacePoint.from_matrix(
                a, spec.group_element(0.0, ys[0])))}
        assert not np.array_equal(_bits(points["moved"].coords),
                                  _bits(points["q"].coords))
        _bump_representatives(monkeypatch, spec, points[target].coords,
                              None if nudge == "round-trip"
                              else (1.0 + 1e-6) * np.eye(len(spec._x_matrix)))
    assert _raised(NumericalBreakdown, distance_law_check, spec, ts, ys) == message


def _law_on(space):
    """The spec of _spec_on with the samples of construct --distance-law."""
    spec = _spec_on(space)
    ts, values = LAW_SAMPLES
    return spec, ts, [np.full(spec.s.dim, v) for v in values]


def _push_between(monkeypatch, spec, ys):
    """Push the matrix between q = f(0.5, ys[2]) and the S point of ys[0]
    out of the group."""
    a = spec.algebra
    _push_solve(monkeypatch,
                SpacePoint.from_matrix(a, spec.group_element(0.5, ys[2])).representative,
                SpacePoint.from_matrix(a, spec.group_element(0.0, ys[0])).representative)


def test_a_distance_law_stage_raises_its_charts_before_earlier_round_trips(monkeypatch):
    """The order distance_law_check documents: an orbit point off its round
    trip and a q-to-S matrix out of the group raise the matrix, charted in
    stage 2 with the round trips, before the round trips are checked."""
    spec, ts, ys = _law_on("su21")
    orbit = SpacePoint.from_matrix(spec.algebra, geometry.expm(0.5 * spec._x_matrix))
    _bump_representatives(monkeypatch, spec, orbit.coords)
    assert _raised(NumericalBreakdown, distance_law_check, spec, ts, ys) == ROUND_TRIP
    _push_between(monkeypatch, spec, ys)
    assert (_raised(NumericalBreakdown, distance_law_check, spec, ts, ys)
            == RELATION % "8.548e-08")


@pytest.mark.parametrize("pair, target, nudge, message", [
    ("complex-hyperplane", "node", "group", RELATION % "2.623e-07"),
    ("complex-hyperplane", "between", None, RELATION % "2.568e-07"),
    ("complex-hyperplane", "z", "group", RELATION % "5.539e-07"),
    ("real-form", "node", "group", RELATION % "2.620e-07"),
    ("real-form", "between", None, RELATION % "2.357e-07"),
    ("real-form", "z", "group", RELATION % "5.539e-07"),
    *((pair, target, "round-trip", ROUND_TRIP)
      for pair in ("complex-hyperplane", "real-form") for target in ("node", "z"))])
def test_one_failing_point_of_a_bisector_stage_raises_what_it_raised_alone(
        monkeypatch, pair, target, nudge, message):
    """The same for the bisector: the grid node (0.375, (0.375, -0.75)),
    z_+ or the matrix between them."""
    entry = build_pair("su21", pair)
    grid = GridSpec(t_steps=5, y_steps=5)
    a = entry.algebra
    x = entry.x_default.to_array()
    spec = ImmersionSpec(a, entry.s, x * (1.0 / a.btheta_norm(x)), grid=grid)
    node = immersion_point(spec, 0.375, np.array([0.375, -0.75]))
    jx = complex_structure_matrix(a).astype(float) @ spec.x
    z = SpacePoint.from_matrix(a, geometry.expm(0.5 * realize(a, jx)))
    if target == "between":
        _push_solve(monkeypatch, node.representative, z.representative)
    else:
        _bump_representatives(monkeypatch, spec, (node if target == "node" else z).coords,
                              None if nudge == "round-trip" else (1.0 + 1e-6) * np.eye(3))
    assert _raised(NumericalBreakdown, bisector_equidistance_check, entry,
                   0.5, grid) == message


@pytest.mark.parametrize("space", ["su21", "su31"])
def test_base_point_distances_from_round_trip_charts_equal_distance_bit_for_bit(space):
    """d(o, z) from the round-trip charts of z, and d(f(t, y), z) from the
    stacked q-to-z charts, against distance on the same stacked points."""
    spec = _spec_on(space)
    a = spec.algebra
    g = np.stack([SpacePoint(a, c).representative for c in _stack_of_points(a)])
    ts = np.array([-0.6, 0.0, 0.35])
    ys = np.linspace(-0.7, 0.7, 3 * spec.s.dim).reshape(3, spec.s.dim)
    from_o, from_f = immersion_distances(spec, ts[:, None, None], ys[:, None, :], g)
    z = SpacePoint.from_matrix(a, g)
    assert np.array_equal(_bits(from_o), _bits(distance(a, SpacePoint.base(a), z)))
    assert np.array_equal(_bits(from_f), _bits(distance(
        a, immersion_point(spec, ts[:, None, None], ys[:, None, :]), z)))
    assert np.array_equal(_bits(from_o), _bits(np.array(
        [distance(a, SpacePoint.base(a), SpacePoint.from_matrix(a, m)) for m in g])))


@pytest.mark.parametrize("pair", ["real-form", "complex-hyperplane"])
@pytest.mark.parametrize("baseline", [False, True])
def test_the_blocked_sweep_equals_each_node_alone_bit_for_bit(
        pair, baseline, monkeypatch):
    """One block plus one node: each node of the report's sweep gets the
    (normal, norm, point) it gets alone, on both sides of the seam."""
    spec = _su21_spec(build_pair("su21", pair),
                      grid=GridSpec(t_steps=CURVATURE_BLOCK + 1, y_steps=1))
    alone = geometry.mean_curvature_estimate
    blocks = []

    def record(spec, t, y, baseline=False, h=None):
        out = alone(spec, t, y, baseline=baseline, h=h)
        if h is None:
            blocks.append((np.copy(t), np.copy(y), out))
        return out

    monkeypatch.setattr(geometry, "mean_curvature_estimate", record)
    rep = mean_curvature_report(spec, tolerance=1.0, baseline=baseline)
    assert [len(t) for t, _, _ in blocks] == [CURVATURE_BLOCK, 1]
    ts, ys = (np.concatenate(v) for v in list(zip(*blocks))[:2])
    normal, norm, point = (np.concatenate(v) for v in zip(*(o for _, _, o in blocks)))
    assert len(rep.entries) == len(ts) == CURVATURE_BLOCK + 1
    for k, entry in enumerate(rep.entries):
        assert (entry["t"], entry["y"]) == (ts[k], list(ys[k]))
        one = alone(spec, ts[k], ys[k], baseline=baseline)
        assert one[0].shape == normal[k].shape and one[1].shape == ()
        for got, want in zip((normal[k], norm[k], point[k]), one):
            assert np.array_equal(_bits(got), _bits(want))
        assert entry["norm"] == norm[k] and entry["point"] == list(point[k])


def test_immersion_spec_invariants(sl2r, su21_real_form):
    s = Subspace(sl2r, [sl2r.basis_vector(0)])
    x = (sl2r.basis_vector(1) + sl2r.basis_vector(2)).to_array()
    assert ImmersionSpec(sl2r, s, x).codimension == 1   # refused by the estimator
    with pytest.raises(ConfigError):   # X not B-orthogonal to s
        ImmersionSpec(sl2r, s, s.basis[0].to_array())
    with pytest.raises(ConfigError):   # h must be positive
        _sl2_spec(sl2r, h=0.0)
    for h in (1e-200, 2e-154):         # (h/2)^2 is not a normal float
        with pytest.raises(ConfigError, match="too small"):
            _sl2_spec(sl2r, h=h)
    assert _sl2_spec(sl2r, h=3e-154).h == 3e-154
    entry = su21_real_form
    bad_s = Subspace(entry.algebra, [
        entry.algebra.from_labels({"P1": 1}),
        entry.algebra.from_labels({"Q2": 1})])
    ok, _ = bad_s.is_lie_triple_system()
    if not ok:
        with pytest.raises(ConfigError):
            ImmersionSpec(entry.algebra, bad_s,
                          entry.algebra.from_labels({"Q1": 1}).to_array())


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
    assert rep.max_norm <= 1e-6   # measured headroom is ~1e-7
    assert len(rep.entries) == 27


def test_baseline_slice_is_minimal_too(su21_real_form):
    spec = _su21_spec(su21_real_form)
    _, norm, _ = mean_curvature_estimate(spec, 0.0, np.array([0.3, -0.2]),
                                         baseline=True)
    assert norm <= 1e-5


def test_curvature_estimate_refuses_codimension_one(sl2r):
    spec = _sl2_spec(sl2r)
    with pytest.raises(ConfigError):
        mean_curvature_estimate(spec, 0.1, np.array([0.2]))
    # but the frozen-t baseline is well-posed: s itself is totally geodesic
    _, norm, _ = mean_curvature_estimate(spec, 0.1, np.array([0.2]),
                                         baseline=True)
    assert norm <= 1e-6


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
    rep = CurvatureReport(entries=_NodeCount(), max_norm=0.0, h=1e-3,
                          baseline=False, discretization_error_estimate=0.0,
                          tolerance=1e-4)
    target = tmp_path / "refused.csv"
    with pytest.raises(ConfigError):
        export_point_cloud(rep, csv_path=os.fspath(target))
    assert not target.exists()


def test_the_curvature_mode_is_a_class_constant():
    """The mode is not a field a caller could set, and the report prints it."""
    assert "mode" not in {f.name for f in dataclasses.fields(CurvatureReport)}
    rep = CurvatureReport(entries=[], max_norm=0.0, h=1e-3, baseline=False,
                          discretization_error_estimate=0.0, tolerance=1e-4)
    assert rep.as_dict()["mode"] == "float64"


def test_grid_spec_rejects_malformed_ranges():
    with pytest.raises(ConfigError):
        GridSpec(t_steps=0)
    with pytest.raises(ConfigError):
        GridSpec(t_range=(1.0, -1.0))
