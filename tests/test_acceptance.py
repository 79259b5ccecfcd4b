"""Acceptance gate: nine criteria, pinned tolerances, wall-clock budgets.

Each criterion is one test so the gate reads as nine pass lines.  Numeric
tolerances are frozen here on purpose; loosening one is a contract change,
not a test fix.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import basis_vector
from transvector import geometry
from transvector.catalog import (bisector_equidistance_check, build_pair,
                                 build_space, negative_control)
from transvector.cli import run
from transvector.extension import (condition_holds, nabla_zz,
                                   verify_lemma_conclusion)
from transvector.geometry import (GridSpec, ImmersionSpec, SpacePoint,
                                  distance, distance_law_check,
                                  mean_curvature_report, transvection)
from transvector.report import strip_wall_time
from transvector.roots import (build_root_space_examples, maximal_abelian,
                               restricted_root_decomposition,
                               verify_commutation_rules)
from transvector.rng import stream
from transvector.subspaces import Subspace

# the stream id these draws have always used; the package itself no longer
# draws from it
TEST_STREAM = 4

CONDITION_PAIRS = [("su21", "real-form"), ("su21", "complex-hyperplane"),
                   ("su31", "real-form"), ("su31", "complex-hyperplane")]


def _x_grid(entry):
    """Five exact X in the normal space of a pair with a normal frame of at
    least two vectors v1, v2: v1, v2, v1 + v2, v1 - v2 and 2 v1 + 3 v2."""
    v1, v2 = entry.normal_frame[:2]
    return (v1, v2, v1 + v2, v1 + v2.scale(-1), v1.scale(2) + v2.scale(3))


def _float_spec(entry, **kw):
    return ImmersionSpec(entry.algebra, entry.s, entry.x_default.to_array(), **kw)


def _sl2_h_pair(sl2r):
    s = Subspace(sl2r, [basis_vector(sl2r, 0)])
    x = basis_vector(sl2r, 1) + basis_vector(sl2r, 2)
    return s, x


def test_criterion_1_catalog_tables_validate_exactly():
    """su21, su31, so31, sl3r validate with all-zero exact residuals,
    under one second of wall clock each."""
    for space_id in ("su21", "su31", "so31", "sl3r"):
        t0 = time.perf_counter()
        rep = build_space(space_id).validate()
        elapsed = time.perf_counter() - t0
        assert rep.passed, (space_id, rep.as_dict())
        assert all(r == 0 for r in rep.residuals.values()), space_id
        assert elapsed < 1.0, (space_id, elapsed)


def test_criterion_2_condition_holds_exactly_on_all_four_pairs():
    """64 exact Y draws x 5 X grid points per pair, every residual exactly
    zero, within a 30 second budget for the whole sweep."""
    t0 = time.perf_counter()
    for space_id, pair_name in CONDITION_PAIRS:
        entry = build_pair(space_id, pair_name)
        for x in _x_grid(entry):
            verdict = condition_holds(entry.s, x, samples=64, seed=7)
            assert verdict.holds, (space_id, pair_name)
            assert verdict.mode == "exact-sampled"
            assert verdict.samples == 64
            assert all(r == 0.0 for r in verdict.per_n_worst_residual)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_lemma_certified_on_all_pairs_and_sl2r(sl2r):
    """verify_lemma_conclusion at n_max = m_max = 4 passes with exactly zero
    residuals on every criterion-2 pair and on the sl(2,R) worked example."""
    for space_id, pair_name in CONDITION_PAIRS:
        entry = build_pair(space_id, pair_name)
        gen = stream(11, TEST_STREAM)
        for k in range(3):
            coords = tuple(Fraction(int(gen.integers(-3, 4)) * 2 + 1, 2)
                           for _ in range(entry.s.dim))
            y = entry.s.member_from_coordinates(coords)
            check, = verify_lemma_conclusion(entry.s, entry.x_default,
                                             y.row()[None], n_max=4, m_max=4)
            assert check.passed, (space_id, pair_name, k)
            assert check.worst_residual == 0.0
    s, x = _sl2_h_pair(sl2r)
    check, = verify_lemma_conclusion(s, x, s.basis[0].scale(2).row()[None],
                                     n_max=4, m_max=4)
    assert check.passed and check.worst_residual == 0.0


def _criterion_4_draws():
    """Criterion 4's 100 float draws, alternating the two su(2,1) pairs and
    running through each pair's five X: (s, X, Y's s-coordinates, Y), with Y
    rescaled to ||ad_Y||_2 = 5.0."""
    gen = stream(4, TEST_STREAM)
    pairs = [(entry.s, list(_x_grid(entry)))
             for entry in (build_pair(sid, p) for sid, p in CONDITION_PAIRS[:2])]
    count = 0
    while count < 100:
        s, xs = pairs[count % 2]
        coords = gen.standard_normal(s.dim)
        y = coords @ s.basis_rows.astype(float)
        norm = float(np.linalg.norm(s.algebra.ad_stack(y[None])[0].T, 2))
        if norm < 1e-8:
            continue
        yield s, xs[count % len(xs)], coords * (5.0 / norm), y * (5.0 / norm)
        count += 1


def test_criterion_4_series_routes_agree_within_ten_tails(sl2r):
    """100 float draws: the exponential-split and double-series routes agree
    within 10x the K = 12 factorial tail bound.  Draws are rescaled to
    ||ad_Y||_2 = 5.0 so the bound sits far above float64 roundoff and the
    comparison is sharp.  Anchor: [Z^k, Z^p] = -sinh(4) H at Y = H in
    sl(2,R), within 1e-12."""
    for count, (s, x, _, y) in enumerate(_criterion_4_draws()):
        rep = nabla_zz(s, x, y, truncation=12)
        # the advisory convergence flag may be off at this norm; the factorial
        # tail bound is the quantity the agreement is measured against
        assert rep.route_difference <= 10.0 * rep.tail_bound, (
            count, rep.route_difference, rep.tail_bound)

    s, x = _sl2_h_pair(sl2r)
    rep = nabla_zz(s, x, s.basis[0].to_array(), truncation=12)
    expected = np.array([-math.sinh(4.0), 0.0, 0.0])
    assert np.max(np.abs(rep.value - expected)) <= 1e-12


def test_the_closed_form_bracket_is_the_limit_of_the_series(sl2r):
    """On criterion 4's draws, the [Z_k, Z_p] that the mean curvature's closed
    form takes from one eigh of Y agrees with nabla_zz's K = 12 series within
    10x its tail bound, carried through the bracket: the bound is on the
    tail d of Z's series, and [Z_k + d_k, Z_p + d_p] - [Z_k, Z_p] is at most
    (||ad Z_k|| + ||ad Z_p||) ||d|| to first order (all 2-norms on
    coefficients).  The worst draw reads 0.03 of that; against the bare tail
    bound it reads 51, the bracket being about 1e3.  Anchor: -sinh(4) H at
    Y = H in sl(2,R), within 1e-12."""
    for count, (s, x, coords, y) in enumerate(_criterion_4_draws()):
        a = s.algebra
        spec = ImmersionSpec(a, s, x.to_array())
        (_, bracket), _, _ = geometry._brackets(spec, coords[None])
        got = geometry._p_geometry(a)[0] @ bracket[0]
        z = expm(-a.ad_stack(y[None])[0].T) @ x.to_array()     # e^(-ad_Y) X
        zk, zp = 0.5 * (z + a.theta_float @ z), 0.5 * (z - a.theta_float @ z)
        lipschitz = sum(np.linalg.norm(a.ad_stack(v[None])[0], 2) for v in (zk, zp))
        rep = nabla_zz(s, x, y, truncation=12)
        gap = np.linalg.norm(got - rep.value)
        assert gap <= 10.0 * rep.tail_bound * lipschitz, (count, gap, rep.tail_bound,
                                                          lipschitz)

    s, x = _sl2_h_pair(sl2r)
    (_, bracket), _, _ = geometry._brackets(ImmersionSpec(sl2r, s, x.to_array()),
                                            np.array([[1.0]]))
    assert np.max(np.abs(bracket[0] - [-math.sinh(4.0), 0.0])) <= 1e-12


def test_criterion_5_su21_extensions_are_minimal():
    """Both su(2,1) extensions: worst |H| <= 1e-12 on the 5x5x5 grid,
    evaluated in closed form (test_geometry checks its vectors against the
    finite-difference oracle at every node); frozen-t baselines read exactly
    0; the sl(3,R) negative control measures >= 1e-2.  Budget: two
    minutes."""
    t0 = time.perf_counter()
    grid = GridSpec(t_steps=5, y_steps=5)
    for pair_name in ("real-form", "complex-hyperplane"):
        entry = build_pair("su21", pair_name)
        spec = _float_spec(entry, grid=grid)
        rep = mean_curvature_report(spec, tolerance=1e-4)
        assert rep.passed and rep.max_norm <= 1e-12, (pair_name, rep.max_norm)
        assert len(rep.entries) == 125

        base = mean_curvature_report(spec, tolerance=1e-5, baseline=True)
        assert base.max_norm == 0.0, (pair_name, base.max_norm)

    ctrl_a, ctrl_s, ctrl_x = negative_control()
    ctrl = ImmersionSpec(ctrl_a, ctrl_s, ctrl_x.to_array(), grid=grid)
    ctrl_rep = mean_curvature_report(ctrl, tolerance=1e-4)
    assert ctrl_rep.max_norm >= 1e-2, ctrl_rep.max_norm
    assert not ctrl_rep.passed
    assert time.perf_counter() - t0 < 120.0


def test_criterion_6_bisector_equidistance():
    """Complex-hyperplane extension equidistant from z_pm on a 7x7x7 sample
    sweep within 1e-8; the real-form extension violates by >= 1e-2."""
    grid = GridSpec(t_steps=7, y_steps=7)
    ch = bisector_equidistance_check(
        build_pair("su21", "complex-hyperplane"), r=0.5, grid=grid, tol=1e-8)
    assert ch["equidistant"], ch["max_delta"]
    assert ch["max_delta"] <= 1e-8
    assert ch["samples"] == 343
    rf = bisector_equidistance_check(
        build_pair("su21", "real-form"), r=0.5, grid=grid, tol=1e-8)
    assert not rf["equidistant"]
    assert rf["max_delta"] >= 1e-2


def test_criterion_7_distance_law_on_both_su21_pairs():
    """Statements (i)-(iii) at t in {+-0.25, +-0.5, +-1} for both pairs;
    geodesic-speed and transvection-isometry residuals <= 1e-9."""
    t_samples = [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0]
    for pair_name in ("real-form", "complex-hyperplane"):
        entry = build_pair("su21", pair_name)
        spec = _float_spec(entry)
        y_samples = [np.array([0.0, 0.0]), np.array([0.5, -0.5]),
                     np.array([-0.5, 0.25]), np.array([0.75, 0.75])]
        law = distance_law_check(spec, t_samples, y_samples)
        assert law["passed"], (pair_name, law)
        assert law["geodesic"]["worst_residual"] <= 1e-9
        assert law["separation"]["worst_violation"] == 0.0
        assert law["global_min"]["holds"]

        a = entry.algebra
        q1 = SpacePoint.from_matrix(a, spec.group_element(0.0,
                                                          np.array([0.5, -0.5])))
        q2 = SpacePoint.from_matrix(a, spec.group_element(0.25,
                                                          np.array([0.0, 0.5])))
        d0 = distance(a, q1, q2)
        for t in t_samples:
            dt = distance(a, transvection(spec, t, q1),
                          transvection(spec, t, q2))
            assert abs(dt - d0) <= 1e-9 * (1.0 + d0), (pair_name, t)


def test_criterion_8_root_data_and_example_bundles():
    """su(2,1): positive roots {lambda, 2 lambda} with p-multiplicities
    (2, 1); sl(3,R): three positive roots of multiplicity 1; commutation
    rules with exactly zero residuals; an example bundle passes for every
    (positive root, X grid point); all under ten seconds."""
    t0 = time.perf_counter()

    a = build_space("su21")
    rd = restricted_root_decomposition(a, maximal_abelian(a), seed=0)
    assert rd.mode == "exact"
    lams = sorted(rd.positive, key=lambda f: [abs(c) for c in f])
    assert len(lams) == 2
    assert tuple(2 * c for c in lams[0]) == lams[1]
    assert len(rd.p_spaces[lams[0]]) == 2
    assert len(rd.p_spaces[lams[1]]) == 1

    b = build_space("sl3r")
    rdb = restricted_root_decomposition(b, maximal_abelian(b), seed=0)
    assert len(rdb.positive) == 3
    assert all(len(rdb.p_spaces[lam]) == 1 for lam in rdb.positive)

    x_coords = {1: [(1,), (2,), (-1,), (3,), (-2,)],
                2: [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]}
    for datum in (rd, rdb):
        rules = verify_commutation_rules(datum)
        assert rules["passed"]
        for rule in rules["rules"].values():
            assert rule["worst_residual"] == 0.0
        xs = [datum.a.member_from_coordinates(coords) for coords in x_coords[datum.a.dim]]
        for lam in datum.positive:
            bundles = build_root_space_examples(datum, lam, xs, samples=4, seed=5)
            for coords, bundle in zip(x_coords[datum.a.dim], bundles, strict=True):
                assert bundle.passed, (datum.algebra.name, lam, coords)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_9_reports_are_reproducible(tmp_path):
    """Re-running the same CLI invocation produces byte-identical JSON once
    the wall-time line is stripped."""
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["check", "--space", "su21", "--pair", "real-form",
            "--samples", "64", "--seed", "7"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    t1, t2 = out1.read_text(), out2.read_text()
    assert strip_wall_time(t1) == strip_wall_time(t2)
    assert json.loads(t1)["summary"]["passed"] is True

    rout1, rout2 = tmp_path / "b1.json", tmp_path / "b2.json"
    argv = ["roots", "--space", "sl3r", "--examples", "--samples", "4"]
    assert run(argv + ["--out", str(rout1)]) == 0
    assert run(argv + ["--out", str(rout2)]) == 0
    assert strip_wall_time(rout1.read_text()) == strip_wall_time(rout2.read_text())
