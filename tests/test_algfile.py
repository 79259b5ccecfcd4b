"""Algebra definition file parsing, serialization, and validation wiring."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvector.algfile import (format_qi, parse_algebra_file, parse_qi,
                                 serialize_algebra)
from transvector.data import algebra_path
from transvector.errors import ConfigError
from transvector.exactla import Qi


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
])
def test_malformed_inputs_fail_with_line_context(tmp_path, mangle, needle):
    with pytest.raises(ConfigError) as err:
        parse_algebra_file(_write(tmp_path, mangle(BASE)))
    msg = str(err.value)
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
    assert parse_qi("3/2") == Qi(Fraction(3, 2), 0)
    assert parse_qi("-i") == Qi(0, -1)
    assert parse_qi("1/2-2/3i") == Qi(Fraction(1, 2), Fraction(-2, 3))
    assert format_qi(Qi(0, 0)) == "0"
    assert format_qi(Qi(Fraction(-1, 2), 1)) == "-1/2+i"


small = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@given(small, small)
@settings(max_examples=80, deadline=None)
def test_qi_tokens_round_trip(re, im):
    q = Qi(re, im)
    assert parse_qi(format_qi(q)) == q
