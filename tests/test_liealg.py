"""Structured algebra layer against sl(2,R) closed forms.

Oracle values are hand-derived from the matrix model H = diag(1,-1),
E = E12, F = E21: Killing form B(X,Y) = 4 tr(XY), so B(H,H) = 8 and
B(E,F) = 4; theta(X) = -X^T swaps E and -F.
"""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rebased, scaled_at
from transvector import liealg
from transvector.algfile import parse_algebra_file
from transvector.catalog import SPACE_IDS, build_space
from transvector.data import algebra_path
from transvector.errors import ConfigError
from transvector.exactla import SpanSolver
from transvector.liealg import AlgebraVector, MatrixRealization, StructuredLieAlgebra

small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _vec(a, strategy):
    return st.lists(strategy, min_size=a.dim, max_size=a.dim).map(a.vector)


def test_bracket_table_matches_matrix_model(sl2r):
    H, E, F = (sl2r.basis_vector(i) for i in range(3))
    assert sl2r.bracket(H, E).coeffs == (0, 2, 0)
    assert sl2r.bracket(H, F).coeffs == (0, 0, -2)
    assert sl2r.bracket(E, F).coeffs == (1, 0, 0)
    assert sl2r.bracket(E, E).is_zero()


def test_killing_form_closed_values(sl2r):
    H, E, F = (sl2r.basis_vector(i) for i in range(3))
    assert sl2r.killing_form(H, H) == 8
    assert sl2r.killing_form(E, F) == 4
    assert sl2r.killing_form(H, E) == 0
    assert sl2r.killing_form(E, E) == 0


def test_cartan_split_and_membership(sl2r):
    H, E, F = (sl2r.basis_vector(i) for i in range(3))
    k_part, p_part = sl2r.cartan_split(E)
    # theta(E) = -F, so E = (E - F)/2 + (E + F)/2
    assert k_part.coeffs == (0, Fraction(1, 2), Fraction(-1, 2))
    assert p_part.coeffs == (0, Fraction(1, 2), Fraction(1, 2))
    assert sl2r.in_p(H)
    assert sl2r.in_p(E + F)
    assert sl2r.apply_theta(E - F) == E - F
    assert not sl2r.in_p(E)


def test_jacobi_operator_pinned_example(sl2r):
    H = sl2r.basis_vector(0)
    v = sl2r.basis_vector(1) + sl2r.basis_vector(2)  # E + F
    out = sl2r.curvature_tensor(H, v, H)     # the Jacobi operator R(H,v)H
    assert out.coeffs == (0, -4, -4)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_jacobi_operator_is_negative_semidefinite_on_p(sl2r, data):
    # B(R(c,v)c, v) = B([c,v],[c,v]) <= 0 because [c,v] lands in k, where
    # B is negative definite; nonpositive curvature in operator form
    c = data.draw(_vec(sl2r, small_rats))
    v = data.draw(_vec(sl2r, small_rats))
    _, cp = sl2r.cartan_split(c)
    _, vp = sl2r.cartan_split(v)
    val = sl2r.killing_form(sl2r.curvature_tensor(cp, vp, cp), vp)
    assert val <= 0
    assert val == sl2r.killing_form(sl2r.bracket(cp, vp), sl2r.bracket(cp, vp))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_theta_is_an_exact_involutive_automorphism(sl2r, data):
    x = data.draw(_vec(sl2r, small_rats))
    y = data.draw(_vec(sl2r, small_rats))
    tx, ty = sl2r.apply_theta(x), sl2r.apply_theta(y)
    assert sl2r.apply_theta(tx).coeffs == x.coeffs
    assert sl2r.apply_theta(sl2r.bracket(x, y)).coeffs == sl2r.bracket(tx, ty).coeffs
    # B_theta(x, x) = -B(x, theta x) > 0 away from zero
    if not x.is_zero():
        assert -sl2r.killing_form(x, tx) > 0


def test_ad_power_matches_repeated_bracket(sl2r):
    H = sl2r.basis_vector(0)
    x = sl2r.basis_vector(1) + sl2r.basis_vector(2)
    y = sl2r.vector([Fraction(1, 2), 3, Fraction(-2, 3)])

    # every row of an exact stack is the repeated bracket, entry by entry
    chain = sl2r.ad_chain(np.array([H.coeffs, y.coeffs], dtype=object), x.row(), 6)
    assert chain.shape == (2, 7, 3) and chain.dtype == object
    for row, yv in zip(chain, (H, y)):
        w = x
        for k in range(7):
            assert sl2r.vector(row[k]) == w
            w = sl2r.bracket(yv, w)

    # the float chain agrees with the exact chain converted to float, power by power
    fchain = sl2r.ad_chain(y.to_array()[None], x.to_array(), 6)[0]
    assert fchain.dtype == np.float64
    for approx, exact in zip(fchain, chain[1].astype(float)):
        assert np.max(np.abs(approx - exact)) <= 1e-12 * np.max(np.abs(exact))

    with pytest.raises(ValueError):
        sl2r.ad_chain(y.row()[None], x.to_array(), 3)
    with pytest.raises(ValueError):
        sl2r.ad_chain(y.to_array()[None], x.row(), 2)
    with pytest.raises(ValueError):
        sl2r.ad_chain(y.row(), x.row(), 2)      # a single Y is a stack of one
    with pytest.raises(ValueError):             # an exact X is dtype=object
        sl2r.ad_chain(np.array([[1, 2, 3]]), np.array([0, 1, 1]), 2)


def test_validation_is_exact_zero(sl2r):
    rep = sl2r.validate()
    assert rep.passed
    assert all(r == 0 for r in rep.residuals.values())
    assert rep.dims == {"d": 3, "k": 1, "p": 2}


SL2_THETA = ((-1, 0, 0), (0, 0, -1), (0, -1, 0))
# the matrix model H = diag(1,-1), E = E12, F = E21
SL2_IMAGES = np.array([((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))])
SL2_REALIZATION = MatrixRealization(size=2, re=SL2_IMAGES, im=np.zeros_like(SL2_IMAGES))


def _sl2_like(ef_bracket, theta=SL2_THETA, realization=None):
    # [H,E] = 2E, [H,F] = -2F, [E,F] = ef_bracket as coefficients over (H,E,F)
    brackets = {
        (0, 1): {1: 2},
        (0, 2): {2: -2},
        (1, 2): ef_bracket,
    }
    return StructuredLieAlgebra(["H", "E", "F"], brackets, theta,
                                realization=realization, name="probe")


def test_rescaled_bracket_table_still_validates():
    # [E,F] = 2H is sl(2,R) with F rescaled; a correct validator accepts it
    rep = _sl2_like({0: 2}).validate()
    assert rep.passed


def test_jacobi_violation_is_rejected_with_witness():
    # [E,F] = H + E breaks the Jacobi identity: the cyclic sum over
    # (H, E, F) equals 2E
    rep = _sl2_like({0: 1, 1: 1}).validate()
    assert not rep.passed
    assert any("jacobi" in k for k in rep.witnesses)
    witness = next(v for k, v in rep.witnesses.items() if "jacobi" in k)
    assert witness  # names the offending triple and the nonzero cyclic sum


def test_non_involutive_theta_is_rejected():
    brackets = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    theta = ((-1, 0, 0), (0, 0, -1), (0, -2, 0))  # squares to diag(1,2,2)-ish
    rep = StructuredLieAlgebra(["H", "E", "F"], brackets, theta,
                               name="badtheta").validate()
    assert not rep.passed


def test_huge_constants_validate_exactly_on_the_object_path():
    # [E,F] = 2^70 H is sl(2,R) with F rescaled by 2^70; B(E,F) = 2^72 does
    # not fit in an int64, so the exact arrays hold Python ints
    a = _sl2_like({0: 2 ** 70})
    assert a.exact_dtype is object
    rep = a.validate()
    assert rep.passed
    assert all(r == 0 for r in rep.residuals.values())
    assert all(type(x) is int for x in a.killing_exact.flat)
    assert a.killing_exact[1, 2] == 2 ** 72 and a.killing_exact[0, 0] == 8


def test_exact_dtype_follows_the_overflow_bound():
    # d = 3, no realization: int64 iff 4 * 3^4 * m^4 < 2^63, i.e. m <= 12990
    for m, dtype in ((2 ** 13, np.int64), (2 ** 14, object)):
        a = _sl2_like({0: m})
        assert a.exact_dtype is dtype
        assert a.validate().passed
        b_ef = a.killing_form(a.basis_vector(1), a.basis_vector(2))
        assert b_ef == 4 * m and type(b_ef) is int
    assert _sl2_like({0: Fraction(1, 2)}).exact_dtype is object
    assert _sl2_like({0: 1}, realization=SL2_REALIZATION).exact_dtype is np.int64


def _fresh(a, dtype=None):
    """An uncached copy of a, its exact dtype pre-seeded when given."""
    b = StructuredLieAlgebra(a.labels, a.table, a.theta, a.realization, a.name)
    if dtype is not None:
        b.__dict__["exact_dtype"] = dtype
    return b


_SWAPPED_E = MatrixRealization(size=2, re=SL2_IMAGES[[0, 2, 2]],
                               im=np.zeros_like(SL2_IMAGES))
DIFFERENTIAL = {
    "su21": lambda: build_space("su21"),
    "su31": lambda: build_space("su31"),
    "so31": lambda: build_space("so31"),
    "sl3r": lambda: build_space("sl3r"),
    "sl2r": lambda: _sl2_like({0: 1}, realization=SL2_REALIZATION),
    "jacobi": lambda: _sl2_like({0: 1, 1: 1}, realization=SL2_REALIZATION),
    "theta": lambda: _sl2_like({0: 1}, ((-1, 0, 0), (0, 0, 1), (0, -1, 0)),
                               SL2_REALIZATION),
    "commutator": lambda: _sl2_like({0: 2}, realization=SL2_REALIZATION),
    "image": lambda: _sl2_like({0: 1}, realization=_SWAPPED_E),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_object_arrays_report_what_int64_reports(name):
    a = DIFFERENTIAL[name]()
    fast, slow = _fresh(a), _fresh(a, object)
    assert fast.exact_dtype is np.int64
    assert slow.killing_exact.dtype == object
    want = fast.validate().as_dict()
    assert slow.validate().as_dict() == want
    assert np.array_equal(slow.killing_exact, fast.killing_exact)
    assert want["passed"] == (name in ("su21", "su31", "so31", "sl3r", "sl2r"))


RATIONAL = {
    "su21-half-p1": lambda: rebased(build_space("su21"), scaled_at(8, 4, 2)),
    "su31-p1-over-97": lambda: rebased(build_space("su31"), scaled_at(15, 9, 97)),
    "rational-theta": lambda: rebased(_sl2_like({0: 1}, realization=SL2_REALIZATION),
                                      scaled_at(3, 2, 3)),
    "jacobi": lambda: _sl2_like({0: Fraction(1, 3), 1: Fraction(1, 2)},
                                realization=SL2_REALIZATION),
    "su21-thirds": lambda: _corrupted_su21(Fraction(1, 3)),
    "theta-half": lambda: _sl2_like({0: Fraction(1, 2)}, ((-1, 0, 0), (0, 0, 1), (0, -1, 0)),
                                    SL2_REALIZATION),
    "huge-denominator": lambda: _sl2_like({0: Fraction(1, 2 ** 70)},
                                          realization=SL2_REALIZATION),
}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_tables_report_what_their_fraction_arrays_report(name):
    """validate on the integer table L C, divided back by powers of L,
    against the same checks run on the Fraction arrays (L taken as 1)."""
    a = RATIONAL[name]()
    assert a.structure_scale > 1
    reference = _fresh(a)
    reference.__dict__["structure_scale"] = 1
    want = reference.validate().as_dict()
    assert _fresh(a).validate().as_dict() == want
    assert want["passed"] == (name in ("su21-half-p1", "su31-p1-over-97",
                                       "rational-theta"))


def _corrupted_su21(value, at=(0, 4)):
    """su21 with value added to the first coefficient of its first bracket
    and set as the last coefficient of its fifth (the brackets at `at`, in
    the table's sorted order)."""
    b = build_space("su21")
    table = {k: dict(v) for k, v in b.table.items()}
    first, fifth = (sorted(table)[n] for n in at)
    table[first][0] = table[first].get(0, 0) + value
    table[fifth][b.dim - 1] = value
    return StructuredLieAlgebra(b.labels, table, b.theta, b.realization, "bad")


def _loop_reference(a):
    """(Jacobi residual, first worst triple and cyclic sum, theta residual,
    Killing matrix) from brackets, one basis pair or triple at a time."""
    d = a.dim
    e = [a.basis_vector(i) for i in range(d)]
    worst, witness = 0, None
    for i, j, k in itertools.combinations(range(d), 3):
        s = (a.bracket(e[i], a.bracket(e[j], e[k]))
             + a.bracket(e[j], a.bracket(e[k], e[i]))
             + a.bracket(e[k], a.bracket(e[i], e[j])))
        if max(map(abs, s.coeffs)) > worst:
            worst = max(map(abs, s.coeffs))
            witness = {"triple": [a.labels[t] for t in (i, j, k)],
                       "residual": [str(x) for x in s.coeffs]}
    auto = max(max(map(abs, (a.apply_theta(a.bracket(x, y))
                             - a.bracket(a.apply_theta(x), a.apply_theta(y))).coeffs))
               for x in e for y in e)
    ad = [a.ad_matrix(x) for x in e]
    killing = tuple(tuple(sum(ad[i][r][t] * ad[j][t][r] for r in range(d) for t in range(d))
                          for j in range(d)) for i in range(d))
    return worst, witness, auto, killing


@pytest.mark.parametrize("build", [
    DIFFERENTIAL["jacobi"], DIFFERENTIAL["theta"],
    lambda: _sl2_like({0: 2 ** 70, 1: 2 ** 70}),
    lambda: _sl2_like({0: Fraction(1, 3), 1: Fraction(1, 2)}),
    lambda: _corrupted_su21(1), lambda: _corrupted_su21(Fraction(1, 3)),
    lambda: _sl2_sum(2, ef_bracket={0: 1, 1: 1}),
    lambda: build_space("so31"),
], ids=["jacobi", "theta", "huge", "rational", "su21-int", "su21-rational",
        "two-copies", "so31"])
def test_tensor_checks_match_the_bracket_loops(build):
    a = build()
    worst, witness, auto, killing = _loop_reference(a)
    rep = a.validate()
    assert rep.residuals["jacobi"] == float(worst)
    assert rep.witnesses.get("jacobi") == witness
    assert rep.residuals["theta_automorphism"] == float(auto)
    assert a.killing_exact.tolist() == list(map(list, killing))


def _sl2_sum(copies, ef_bracket={0: 1}):
    """Direct sum of sl(2,R) copies, realized block-diagonally; [E,F] is
    ef_bracket over (H, E, F) in every copy."""
    d, n = 3 * copies, 2 * copies
    labels, brackets = [], {}
    images = np.zeros((d, n, n), dtype=np.int64)
    theta = [[0] * d for _ in range(d)]
    for c in range(copies):
        h, e, f = 3 * c, 3 * c + 1, 3 * c + 2
        labels += ["H%d" % c, "E%d" % c, "F%d" % c]
        brackets.update({(h, e): {e: 2}, (h, f): {f: -2},
                         (e, f): {h + k: c for k, c in ef_bracket.items()}})
        theta[h][h] = theta[e][f] = theta[f][e] = -1
        images[h:f + 1, 2 * c:2 * c + 2, 2 * c:2 * c + 2] = SL2_IMAGES
    real = MatrixRealization(size=n, re=images, im=np.zeros_like(images))
    return StructuredLieAlgebra(labels, brackets, theta, realization=real, name="sl2sum")


def test_validation_memory_stays_below_any_unsliced_tensor():
    # d = 30, N = 20: one unsliced Jacobi tensor alone is d^4 int64 = 6.5 MB,
    # one unsliced commutator stack d^2 (2N)^2 int64 = 11.5 MB
    a = _sl2_sum(10)
    tracemalloc.start()
    try:
        rep = a.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.dims == {"d": 30, "k": 10, "p": 20}
    assert peak < 4_000_000


def test_a_float_entry_is_refused(sl2r):
    """An AlgebraVector is exact: its one field is coeffs, and a float entry
    raises instead of being coerced."""
    with pytest.raises(TypeError, match="refusing silent float"):
        AlgebraVector((0.5, 0, 0))
    with pytest.raises(TypeError, match="refusing silent float"):
        sl2r.vector(np.array([1.0, 0.0, 0.0]))
    assert [f.name for f in dataclasses.fields(AlgebraVector)] == ["coeffs"]
    assert not hasattr(AlgebraVector, "astype")


def test_format_vector_round_trip_label_text(sl2r):
    v = sl2r.from_labels({"H": Fraction(3, 2), "F": -1})
    assert sl2r.format_vector(v) == "3/2*H - F"
    assert sl2r.format_vector(sl2r.zero()) == "0"


def _skewed_theta(c):
    """theta(H) = -H, theta(E) = -c F, theta(F) = -E / c: an involutive
    automorphism of sl(2,R) whose k = span(E - c F) gives the k solver
    rational rows past the rank."""
    c = Fraction(c)
    return ((-1, 0, 0), (0, 0, -1 / c), (0, -c, 0))


@pytest.mark.parametrize("build", [
    DIFFERENTIAL["jacobi"],
    lambda: _sl2_like({0: 1, 1: 1}, _skewed_theta(2)),
    lambda: _sl2_like({0: 1, 2: 1}, _skewed_theta(Fraction(3, 2))),
    lambda: _corrupted_su21(Fraction(1, 3)),
    lambda: build_space("su31"),
    # theta(H) = -H fixes E and F: an involution under which Jacobi holds but
    # which is no automorphism ([H, E] = 2E, [theta H, theta E] = -2E), and
    # whose k = span(E, F) has [E, F] = H in p
    lambda: _sl2_like({0: 1}, ((-1, 0, 0), (0, 1, 0), (0, 0, 1))),
], ids=["jacobi", "skewed-2", "skewed-3/2", "su21-rational", "su31", "not-automorphism"])
def test_bracket_parity_matches_the_solver_transform_loop(build):
    """The parity residual is the largest entry, over every [k, k], [k, p]
    and [p, p] basis bracket, of the solver transform past the rank, with
    the rows unscaled (scaling them to integers would change the value)."""
    a = build()
    k_solver, p_solver = SpanSolver(a.k_basis), SpanSolver(a.p_basis)
    worst = 0
    for left, right, solver in ((a.k_basis, a.k_basis, k_solver),
                                (a.k_basis, a.p_basis, p_solver),
                                (a.p_basis, a.p_basis, k_solver)):
        for x in left:
            for y in right:
                b = a.bracket(a.vector(x), a.vector(y)).coeffs
                w = [sum(r * c for r, c in zip(row, b)) for row in solver.row_ops]
                worst = max([worst] + [abs(t) for t in w[solver.rank:]])
    assert a.validate().residuals["bracket_parity"] == float(worst)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ALG = sorted(GOLDEN.glob("*.alg"))


@pytest.mark.parametrize("source", list(SPACE_IDS) + [p.name for p in GOLDEN_ALG]
                         + ["sl2r.alg"])
def test_parity_builds_solvers_only_without_an_exact_automorphism(monkeypatch,
                                                                  count_calls, source):
    """theta^2 = I and a zero automorphism residual prove bracket parity, so
    validate builds no SpanSolver for it: not on the catalog, nor on a
    passing algebra file.  An involution that is no automorphism pays for
    its two solvers; a theta that is no involution has no k and p to test."""
    reports = []
    validate = StructuredLieAlgebra.validate

    def recording(self):
        reports.append(validate(self))
        return reports[-1]

    a = _fresh(build_space(source)) if source in SPACE_IDS else None
    built = count_calls(liealg, "SpanSolver")
    monkeypatch.setattr(StructuredLieAlgebra, "validate", recording)
    if a is not None:
        a.validate()
    else:
        path = algebra_path("sl2r") if source == "sl2r.alg" else str(GOLDEN / source)
        try:
            parse_algebra_file(path)
        except ConfigError:
            pass
    rep = reports[0].as_dict()
    slow = rep["checks"]["theta_involution"] and rep["residuals"]["theta_automorphism"] != 0
    assert len(built) == (2 if slow else 0)
    if source in ("bad-jacobi.alg", "huge-jacobi.alg", "rational-jacobi.alg"):
        assert len(built) == 2 and rep["residuals"]["bracket_parity"] != 0


def _commutator_reference(a):
    """max |entry| over the real and imaginary parts of [R_i, R_j] - sum_k
    C[i, j, k] R_k, one (i, j) pair at a time, on the images and the table
    as they are stored (small int64 entries, or Python ints and Fractions)."""
    real, d = a.realization, a.dim
    re, im, c = real.re, real.im, a.structure_exact
    worst = 0
    for i, j in itertools.product(range(d), repeat=2):
        d_re = re[i] @ re[j] - im[i] @ im[j] - re[j] @ re[i] + im[j] @ im[i]
        d_im = re[i] @ im[j] + im[i] @ re[j] - re[j] @ im[i] - im[j] @ re[i]
        for k in np.flatnonzero(c[i, j]):
            d_re, d_im = d_re - c[i, j, k] * re[k], d_im - c[i, j, k] * im[k]
        worst = max([worst] + [abs(x) for x in itertools.chain(d_re.flat, d_im.flat)])
    return float(worst)


@pytest.mark.parametrize("name", ["diff:" + n for n in sorted(DIFFERENTIAL)]
                         + ["rat:" + n for n in sorted(RATIONAL)])
def test_realization_commutators_match_the_pair_loop(name):
    kind, key = name.split(":")
    a = (DIFFERENTIAL if kind == "diff" else RATIONAL)[key]()
    assert a.validate().residuals["realization_commutators"] == _commutator_reference(a)


@pytest.mark.parametrize("build, step", [
    (lambda: _sl2_sum(10), 4),
    # the one corrupted bracket, [Q1, Q2] (indices 6, 7), lies in the last
    # block alone
    (lambda: _corrupted_su21(1, at=(-1, -1)), 3),
    (lambda: _corrupted_su21(Fraction(1, 3), at=(-1, -1)), 3),
    (lambda: _corrupted_su21(1), 3),
], ids=["sl2-sum-10", "su21-last-block", "su21-last-block-rational", "su21"])
def test_realization_commutators_in_small_blocks_match_the_pair_loop(monkeypatch,
                                                                     build, step):
    """COMMUTATOR_BLOCK cut down to step basis indices a block, at least
    three blocks, the last one short."""
    a = build()
    monkeypatch.setattr(liealg, "COMMUTATOR_BLOCK",
                        step * a.dim * (2 * a.realization.size) ** 2)
    assert -(-a.dim // step) >= 3 and a.dim % step > 1
    assert a.validate().residuals["realization_commutators"] == _commutator_reference(a)
