"""Algebra definition file parsing, serialization, and validation wiring."""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from conftest import REBASED_FIXTURES, rebased
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector.algfile import (format_entry, parse_algebra_file, parse_entry,
                                 serialize_algebra)
from transvector.catalog import build_space
from transvector.cli import run
from transvector.data import algebra_path
from transvector.errors import ConfigError
from transvector.exactla import frac


BASE = open(algebra_path("sl2r")).read()


def _write(tmp_path, text, name="probe.alg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_bundled_fixture_parses_and_validates(sl2r):
    assert sl2r.labels == ("H", "E", "F")
    assert sl2r.killing_form(sl2r.basis_vector(0), sl2r.basis_vector(0)) == 8
    assert sl2r.realization is not None
    assert sl2r.realization.size == 2


def test_serialize_parse_round_trip(tmp_path, sl2r):
    out = str(tmp_path / "echo.alg")
    serialize_algebra(sl2r, out)
    again = parse_algebra_file(out)
    assert again.labels == sl2r.labels
    assert again.table == sl2r.table
    assert again.theta == sl2r.theta


def test_jacobi_corruption_is_rejected_with_a_witness(tmp_path):
    text = BASE.replace("2 3 -> 1 0 0", "2 3 -> 1 1 0")  # [E,F] = H + E
    with pytest.raises(ConfigError) as err:
        parse_algebra_file(_write(tmp_path, text))
    assert "jacobi" in str(err.value).lower()


def test_empty_file_is_a_syntax_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_algebra_file(_write(tmp_path, ""))
    assert "[basis]" in str(err.value)


def test_missing_file_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_algebra_file("/nonexistent/missing.alg")


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("[theta]", "[talos]"), "unknown section"),
    (lambda t: t + "\n[basis]\nX\n", "duplicate"),
    (lambda t: t.replace("1 2 -> 0 2 0", "1 2 -> 0 2"), "coefficient"),
    (lambda t: t.replace("1 2 -> 0 2 0", "2 1 -> 0 2 0"), "i < j"),
    (lambda t: t.replace("0 0 -2", "0 0 -2/0"), "rational"),
    (lambda t: t.replace("-1 0 0\n", "-1 0\n", 1), "theta"),
    (lambda t: t.replace("[basis]\nH E F", "[basis]\nH E H"), "duplicate"),
    # an empty section is reported at its header line
    (lambda t: t.replace("[basis]\nH E F\n", "[basis]\n"),
     "probe.alg:4: empty [basis] section"),
    (lambda t: t.replace("1 2 -> 0 2 0", "1 2 3 -> 0 2 0"),
     "probe.alg:8: bracket head must be two indices"),
    (lambda t: t.replace("1 2 -> 0 2 0", "1 4 -> 0 2 0"),
     "probe.alg:8: bracket index out of range 1..3"),
    (lambda t: t.replace("1 3 -> 0 0 -2", "1 2 -> 0 0 -2"),
     "probe.alg:9: duplicate bracket line for (1, 2)"),
    (lambda t: t.replace("[theta]\n-1 0 0\n0 0 -1\n0 -1 0\n", "[theta]\n"),
     "probe.alg:12: theta needs 3 rows, got 0"),
    (lambda t: t.replace("size 2\n", ""),
     "probe.alg:20: realization needs a 'size N' line first"),
    (lambda t: t.split("[realization]")[0] + "[realization]\n",
     "probe.alg:17: realization without size"),
    (lambda t: t.replace("size 2\n", "size 2\nsignature 1 -1 1\n"),
     "probe.alg:19: signature length must equal size"),
])
def test_malformed_inputs_fail_with_line_context(tmp_path, mangle, needle):
    out = tmp_path / "report.json"
    assert run(["roots", "--algebra-file", _write(tmp_path, mangle(BASE)),
                "--out", str(out)]) == 2
    msg = json.loads(out.read_text())["results"]["error"]
    assert needle.lower() in msg.lower()
    assert ".alg:" in msg  # message carries path:line


def test_realization_image_mismatch_is_rejected(tmp_path):
    # E's image becomes E21: brackets no longer match the table
    text = BASE.replace("# E\n0 1\n0 0", "# E\n0 0\n1 0")
    with pytest.raises(ConfigError):
        parse_algebra_file(_write(tmp_path, text))


def test_zero_denominator_in_a_realization_entry_names_its_line(tmp_path):
    text = BASE.replace("# E\n0 1\n", "# E\n0 1/0\n")
    lineno = text.splitlines().index("0 1/0") + 1
    with pytest.raises(ConfigError) as err:
        parse_algebra_file(_write(tmp_path, text))
    assert "probe.alg:%d: " % lineno in str(err.value)
    assert "zero denominator" in str(err.value)


def test_file_without_realization_still_loads(tmp_path):
    text = BASE.split("[realization]")[0]
    a = parse_algebra_file(_write(tmp_path, text))
    assert a.realization is None
    assert a.killing_form(a.basis_vector(1), a.basis_vector(2)) == 4


def test_qi_token_fixed_points():
    assert parse_entry("3/2") == (Fraction(3, 2), 0)
    assert parse_entry("-i") == (0, -1)
    assert parse_entry("1/2-2/3i") == (Fraction(1, 2), Fraction(-2, 3))
    assert [type(x) for x in parse_entry("4/2-2/3i")] == [int, Fraction]
    assert format_entry(0, 0) == "0"
    assert format_entry(Fraction(-1, 2), 1) == "-1/2+i"


small = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@given(small, small)
@settings(max_examples=80, deadline=None)
def test_qi_tokens_round_trip(re, im):
    q = (frac(re), frac(im))
    assert parse_entry(format_entry(*q)) == q


# sl(2,R) in the basis H' = cH, E' = aE, F' = bF with a/b = -1/2 and
# ab/c = 3: [H',E'] = 2c E', [H',F'] = -2c F', [E',F'] = 3 H', and theta maps
# E' to F'/2 and F' to 2 E'.  The tokens spell each number a different way.
def _scaled_sl2r(c_tok, half_tok, three_tok="+3"):
    return ("[basis]\nH E F\n\n[bracket]\n"
            "1 2 -> -0 -%s 0\n1 3 -> 0 0 %s\n2 3 -> %s -0 0\n\n"
            "[theta]\n-1 -0 0\n0 0 2\n0 %s 0\n" % (c_tok, c_tok, three_tok, half_tok))


@pytest.mark.parametrize("c_tok,two_c,half_tok", [
    ("2_0", 20, "0.5"), ("1e2", 100, "3/6")])
def test_token_spellings_keep_their_values_and_types(tmp_path, c_tok, two_c,
                                                     half_tok):
    a = parse_algebra_file(_write(tmp_path, _scaled_sl2r(c_tok, half_tok)))
    assert a.table == {(0, 1): {1: -two_c}, (0, 2): {2: two_c}, (1, 2): {0: 3}}
    assert {type(q) for entry in a.table.values() for q in entry.values()} == {int}
    assert a.theta == ((-1, 0, 0), (0, 0, 2), (0, Fraction(1, 2), 0))
    assert [[type(q) for q in row] for row in a.theta] == [
        [int] * 3, [int] * 3, [int, Fraction, int]]


@pytest.mark.parametrize("good,bad,message", [
    ("0 0 2", "0 0 2/0", "bad rational: Fraction(2, 0)"),
    ("0 0 2", "0 0 two", "bad rational: Invalid literal for Fraction: 'two'"),
    ("-1 -0 0", "-1 -0 0 0", "theta row needs 3 entries, got 4"),
])
def test_bad_token_after_good_ones_reports_its_own_line(tmp_path, good, bad,
                                                         message):
    text = _scaled_sl2r("2_0", "0.5").replace("\n%s\n" % good, "\n%s\n" % bad)
    path = _write(tmp_path, text)
    lineno = text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError) as err:
        parse_algebra_file(path)
    assert str(err.value) == "%s:%d: %s" % (path, lineno, message)


def test_bad_matrix_entry_after_good_ones_reports_its_own_line(tmp_path):
    text = BASE.replace("# F\n0 0\n1 0", "# F\n0 0\n1 q")
    path = _write(tmp_path, text)
    lineno = text.splitlines().index("1 q") + 1
    with pytest.raises(ConfigError) as err:
        parse_algebra_file(path)
    assert str(err.value) == "%s:%d: bad matrix entry 'q'" % (path, lineno)


def test_reparsing_an_edited_file_sees_the_edit(tmp_path):
    path = _write(tmp_path, _scaled_sl2r("2_0", "0.5"))
    first = parse_algebra_file(path)
    assert first.table[(1, 2)] == {0: 3}
    # ab/c = 5 is the same algebra in another basis; the same path must
    # read the new token, so no parse outlives its file
    _write(tmp_path, _scaled_sl2r("2_0", "0.5", three_tok="5"))
    second = parse_algebra_file(path)
    assert second.table[(1, 2)] == {0: 5}
    # the unchanged token "0.5" is parsed afresh: no token memo is shared
    # between parses
    assert second.theta[2][1] == first.theta[2][1] == Fraction(1, 2)
    assert second.theta[2][1] is not first.theta[2][1]


def _typed(x):
    """x with the type of every exact scalar spelled out."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return tuple(_typed(v) for v in x)
    return (type(x).__name__, x)


@pytest.mark.parametrize("source", ["su21", "so31", "sl3r", "su31", "su21half.alg"])
def test_serialize_parse_round_trips_exactly(tmp_path, source):
    if source.endswith(".alg"):
        here = os.path.dirname(os.path.abspath(__file__))
        a = parse_algebra_file(os.path.join(here, "golden", source))
    else:
        a = build_space(source)
    out = str(tmp_path / "echo.alg")
    serialize_algebra(a, out)
    again = parse_algebra_file(out)
    assert _typed(again.table) == _typed(a.table)
    assert _typed(again.theta) == _typed(a.theta)
    real, real2 = a.realization, again.realization
    assert (real is None) == (real2 is None)
    if real is not None:
        assert (real2.size, real2.signature, real2.unimodular) == (
            real.size, real.signature, real.unimodular)
        for part in ("re", "im"):
            assert _typed(getattr(real2, part).tolist()) == _typed(getattr(real, part).tolist())


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_su31_serializes_to_its_golden_file(tmp_path):
    out = tmp_path / "su31.alg"
    serialize_algebra(build_space("su31"), str(out))
    with open(os.path.join(GOLDEN, "su31.alg"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("name", sorted(REBASED_FIXTURES))
def test_rebased_fixtures_are_what_the_helper_serializes(tmp_path, name):
    space, m = REBASED_FIXTURES[name]
    out = tmp_path / (name + ".alg")
    serialize_algebra(rebased(build_space(space), m), str(out))
    with open(os.path.join(GOLDEN, name + ".alg"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("space", ["su21", "so31", "sl3r"])
def test_catalog_files_round_trip_byte_for_byte(tmp_path, space):
    first, second = tmp_path / "first.alg", tmp_path / "second.alg"
    serialize_algebra(build_space(space), str(first))
    serialize_algebra(parse_algebra_file(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()
