"""Built-in spaces: dimension formulas, pair certificates, bisector checks."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from transvector.catalog import (MAX_SL_N, SPACE_IDS, bisector_equidistance_check, build_pair,
                                 build_space, complex_structure_matrix,
                                 list_pairs, negative_control, parse_space_id)
from transvector.cli import parse_x_expression
from transvector.errors import ConfigError
from transvector.exactla import SpanSolver, frac
from transvector.extension import condition_holds
from transvector.geometry import GridSpec


@pytest.mark.parametrize("space_id,dim_p", [
    ("su21", 4),      # su(n,1): dim p = 2n
    ("su31", 6),
    ("so21", 2),      # so(n,1): dim p = n
    ("so31", 3),
    ("sl2r", 2),      # sl(n,R): dim p = n(n+1)/2 - 1
    ("sl3r", 5),
])
def test_dimension_formulas(space_id, dim_p):
    a = build_space(space_id)
    assert len(a.p_basis) == dim_p


@pytest.mark.parametrize("space_id", ["su21", "su31", "so31", "sl3r"])
def test_catalog_spaces_validate_exactly(space_id):
    rep = build_space(space_id).validate()
    assert rep.passed
    assert all(r == 0 for r in rep.residuals.values())


def test_every_id_the_grammar_accepts_builds_a_table_that_validates():
    """Every one-digit su/so id and every sl id up to past the cap that
    parse_space_id accepts builds a table whose validate() passes; so11,
    an abelian table, is refused by the parser instead."""
    candidates = (["%s%d1" % (fam, n) for fam in ("su", "so") for n in range(10)]
                  + ["sl%dr" % n for n in range(MAX_SL_N + 2)])
    for space_id in candidates:
        try:
            parse_space_id(space_id)
        except ConfigError:
            continue
        assert build_space(space_id).validate().passed, space_id


def _fraction_product_table(a):
    """The bracket table of a catalog space read off its realization the
    plain way: the span solver's rational row operations times every
    commutator, one Fraction product, each constant made canonical."""
    real, d = a.realization, a.dim
    r = real.realified(np.int64)
    solver = SpanSolver(r[:, :, :real.size].reshape(d, -1).tolist())
    lo, hi = np.triu_indices(d, 1)
    comm = (r[lo] @ r[hi] - r[hi] @ r[lo])[:, :, :real.size].reshape(len(lo), -1)
    coords = np.array(solver.row_ops, dtype=object) @ comm.T
    assert not coords[d:].any()
    return {(int(lo[p]), int(hi[p])): {k: frac(c) for k, c in enumerate(col) if c != 0}
            for p, col in enumerate(coords[:d].T) if col.any()}


@pytest.mark.parametrize("space_id", [*SPACE_IDS, "su41", "so41", "sl4r"])
def test_the_bracket_table_equals_a_fraction_product_reference(space_id):
    """build_space scales the row operations to ints and divides back; the
    table is the reference's, value and type (int or Fraction)."""
    a = build_space(space_id)
    want = _fraction_product_table(a)

    def typed(table):
        return {key: {k: (type(c), c) for k, c in entry.items()}
                for key, entry in table.items()}

    assert typed(a.table) == typed(want)


@pytest.mark.parametrize("bad", ["sp21", "f4-20", "sp31"])
def test_quaternionic_and_octonionic_ids_are_refused(bad):
    with pytest.raises(ConfigError):
        parse_space_id(bad)
    with pytest.raises(ConfigError):
        build_space(bad)


def test_unknown_id_grammar_is_refused():
    for bad in ("su2", "xyz", "su20", "", "sl1r"):
        with pytest.raises(ConfigError):
            build_space(bad)


def test_pair_table_shape():
    pairs = list_pairs()
    assert set(pairs) == {"su21", "su31", "so31"}
    assert sum(len(v) for v in pairs.values()) >= 5


@pytest.mark.parametrize("space_id,pair_name,s_dim,totreal", [
    ("su21", "real-form", 2, True),
    ("su21", "complex-hyperplane", 2, False),
    ("su31", "real-form", 3, True),
    ("su31", "complex-hyperplane", 4, False),
    ("so31", "geodesic-plane", 2, None),
])
def test_pairs_carry_their_certificates(space_id, pair_name, s_dim, totreal):
    entry = build_pair(space_id, pair_name)
    assert entry.s.dim == s_dim
    assert entry.totally_real is totreal
    ok, _ = entry.s.is_reflective()
    assert ok
    # the normal frame is B-orthogonal to s and as long as its codimension
    a = entry.algebra
    for x in entry.normal_frame:
        for b in entry.s.basis:
            assert a.killing_form(x, b) == 0
    assert len(entry.normal_frame) == len(a.p_basis) - s_dim


@pytest.mark.parametrize("space_id,pair_name,s_basis,normal_frame,totreal", [
    ("su21", "real-form", ["P1", "P2"], ["Q1", "Q2"], True),
    ("su21", "complex-hyperplane", ["P1", "Q1"], ["P2", "Q2"], False),
    ("su31", "real-form", ["P1", "P2", "P3"], ["Q1", "Q2", "Q3"], True),
    ("su31", "complex-hyperplane", ["P1", "Q1", "P2", "Q2"], ["P3", "Q3"], False),
    ("so31", "geodesic-plane", ["P1", "P2"], ["P3"], None),
])
def test_pair_entry_serializes_with_labels(space_id, pair_name, s_basis, normal_frame,
                                           totreal):
    """Every catalog pair prints s, its normal frame in order, the default X
    (the first frame vector) and the totally-real flag as labels."""
    d = build_pair(space_id, pair_name).as_dict()
    assert d["space"] == space_id
    assert d["pair"] == pair_name
    assert d["s_basis"] == s_basis
    assert d["normal_frame"] == normal_frame
    assert d["x_default"] == normal_frame[0]
    assert d["totally_real"] is totreal


def test_the_bad_alias_reuses_one_cached_control(sl3r):
    """negative_control is cached like build_pair: two parses of --X bad give
    the same X, and the control's subspace is built once."""
    first = parse_x_expression(sl3r, "bad")
    assert parse_x_expression(sl3r, " bad ") is first
    assert negative_control() is negative_control()
    assert negative_control()[2] is first


def test_negative_control_violates_the_condition(sl3r):
    a, s, x = negative_control()
    assert a is build_space("sl3r")
    verdict = condition_holds(s, x, samples=4, seed=0)
    assert not verdict.holds
    assert verdict.witness["n"] == 0


def test_bisector_certifies_the_complex_hyperplane(su21_complex_hyperplane):
    rep = bisector_equidistance_check(
        su21_complex_hyperplane, r=0.5,
        grid=GridSpec(t_steps=3, y_steps=3), tol=1e-8)
    assert rep["equidistant"]
    assert rep["max_delta"] <= 1e-8
    assert rep["witness"] is None       # a delta within tol is rounding
    assert rep["base_point_gap"] <= 1e-10


def test_bisector_rejects_the_real_form(su21_real_form):
    rep = bisector_equidistance_check(
        su21_real_form, r=0.5, grid=GridSpec(t_steps=3, y_steps=3), tol=1e-8)
    assert not rep["equidistant"]
    assert rep["max_delta"] >= 1e-2
    assert rep["witness"] is not None


@pytest.mark.parametrize("x", [{"F12": 1}, {"P2": 1, "F12": 1}])
def test_bisector_refuses_an_x_outside_p(su21_complex_hyperplane, x):
    a = su21_complex_hyperplane.algebra
    entry = dataclasses.replace(su21_complex_hyperplane, x_default=a.from_labels(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^X must lie in p$"):
            bisector_equidistance_check(entry, grid=GridSpec(t_steps=2, y_steps=2))


def test_bisector_requires_a_hermitian_space():
    entry = build_pair("so31", "geodesic-plane")
    with pytest.raises(ConfigError):
        bisector_equidistance_check(entry, r=0.5)


def test_complex_structure_squares_to_minus_one_on_p(su21):
    import numpy as np

    jm = complex_structure_matrix(su21)
    jf = np.array([[float(x) for x in row] for row in jm])
    pb = np.array(su21.p_basis, dtype=float).T
    # J^2 = -1 on p (not on k, where ad(zeta) degenerates)
    assert np.allclose(jf @ (jf @ pb), -pb, atol=1e-12)


def test_complex_structure_refused_outside_su():
    with pytest.raises(ConfigError):
        complex_structure_matrix(build_space("so31"))
    with pytest.raises(ConfigError):
        complex_structure_matrix(build_space("sl3r"))


def test_build_pair_is_cached_per_pair():
    entry = build_pair("su21", "real-form")
    assert build_pair("su21", "real-form") is entry
    assert build_pair("su21", "complex-hyperplane") is not entry
    for _ in range(2):  # a failing build is not cached: it raises every time
        with pytest.raises(ConfigError):
            build_pair("su21", "no-such-pair")


def test_bisector_expm_goes_through_geometry(monkeypatch, su21_complex_hyperplane):
    """The endpoints z_pm = exp(+-r J X_hat) o come from geometry.expm,
    where the benchmark's tracer counts expm calls; scipy's expm is never
    looked up around it."""
    import scipy.linalg

    def refuse(m):
        raise AssertionError("expm called around geometry.expm")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    rep = bisector_equidistance_check(
        su21_complex_hyperplane, r=0.5, grid=GridSpec(t_steps=3, y_steps=3), tol=1e-8)
    assert rep["equidistant"]
