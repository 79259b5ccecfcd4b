"""Hostile input ends in a result or a ConfigError (exit 2), never a
traceback: the size cap on input rationals (exactla.RATIONAL_BITS) and
fuzzing of the three input parsers, algebra files, --X and --s."""

from __future__ import annotations

import json
import os
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transvector import algfile, catalog, cli
from transvector.algfile import MAX_DIM, parse_algebra_file
from transvector.catalog import MAX_SL_N, build_space, parse_space_id
from transvector.cli import load_subspace_file, parse_x_expression, run
from transvector.data import algebra_path
from transvector.errors import ConfigError
from transvector.exactla import RATIONAL_BITS, parse_rational
from transvector.liealg import StructuredLieAlgebra

BASE = open(algebra_path("sl2r")).read()
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CONTROL_S = os.path.join(GOLDEN, "control.json")


def _write(tmp_path, name, text, encoding=None):
    path = tmp_path / name
    path.write_text(text, encoding=encoding)
    return str(path)


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-3/6", "-1/2"), ("1.5", "3/2"), ("2e-3", "1/500"), ("1_000", 1000),
    (str(2 ** 70), 2 ** 70), (str(2 ** RATIONAL_BITS - 1), 2 ** RATIONAL_BITS - 1),
    ("1/" + str(2 ** RATIONAL_BITS - 1), "1/%d" % (2 ** RATIONAL_BITS - 1)),
    ("1e77", 10 ** 77), (2 ** 200, 2 ** 200)])
def test_rationals_within_the_cap_keep_their_value(text, value):
    assert str(parse_rational(text)) == str(value)


@pytest.mark.parametrize("text", [
    str(2 ** RATIONAL_BITS), "-1/" + str(2 ** RATIONAL_BITS), 2 ** RATIONAL_BITS,
    "2e99999", "1e999999999", "1e-999999999", "9" * 5000, "0." + "0" * 300 + "1",
    "1e" + "9" * 5000, "3/0", "1/2/3", "", "x", "1e5/3"])
def test_rationals_past_the_cap_or_malformed_raise_value_error(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_rational(text)


@pytest.mark.parametrize("argv, needle", [
    # a 4300-digit int->str limit once hit while the Jacobi message printed
    (("roots", "--algebra-file", "{alg}"), ":10: bad rational: a rational has an exponent"),
    # int too large to convert to float
    (("verify", "--space", "sl3r", "--s", "{s}", "--X", "bad"),
     "vector 0 has a bad rational: a rational has an exponent"),
    (("verify", "--space", "sl3r", "--s", "{big_int}", "--X", "bad"), "is not valid JSON"),
    # Fraction parsing a 5000-digit numerator
    (("verify", "--space", "sl3r", "--s", CONTROL_S, "--X", "9" * 5000 + "*H1"),
     "at column 1: a rational has more than"),
    (("verify", "--space", "sl3r", "--s", CONTROL_S,
      "--X", "+".join("1/%d*H1" % (2 ** e - 1) for e in (127, 89, 61))),
     "the summed coefficient of H1: a rational has a numerator or denominator"),
    # missing or inconsistent inputs
    (("verify", "--space", "sl3r", "--s", "{missing}", "--X", "bad"), "cannot read "),
    (("verify", "--space", "sl3r", "--s", "{dependent}", "--X", "bad"),
     "d.json: subspace basis is linearly dependent"),
    (("roots",), "--space (or --algebra-file) is required"),
    # undecodable bytes once ended in a UnicodeDecodeError traceback, exit 1
    (("roots", "--algebra-file", "{latin1}"),
     "l.alg: 'utf-8' codec can't decode byte 0xff in position 0"),
    (("check", "--space", "su21"), "need either --pair or both --s and --X"),
    (("construct", "--space", "su21", "--pair", "real-form", "--t-range", "1"),
     "ranges are written 'lo,hi', got '1'"),
    (("verify", "--space", "su21", "--X", "Q1"), "verify requires --s with a subspace file"),
    # --pair without --space once ended in an AttributeError traceback, exit 1
    (("check", "--pair", "real-form"), "--pair needs --space"),
    (("lemma", "--pair", "real-form"), "--pair needs --space"),
    (("construct", "--pair", "real-form"), "--pair needs --space"),
    (("bisector", "--pair", "real-form"), "--pair needs --space"),
    # construct and bisector without --pair once printed Python's None
    (("construct", "--space", "su21"),
     "--pair is required: space su21 has pairs real-form, complex-hyperplane"),
    (("bisector", "--space", "su21"),
     "--pair is required: space su21 has pairs real-form, complex-hyperplane"),
    (("construct", "--space", "so31"), "--pair is required: space so31 has pairs geodesic-plane"),
    (("bisector", "--space", "sl3r"), "space 'sl3r' has no catalog pairs (known: so31,"),
    # an input the chosen mode would not read, once echoed and ignored
    (("check", "--space", "su21", "--pair", "real-form", "--s", "{missing}"),
     "--s is not read with it"),
    (("lemma", "--space", "su21", "--pair", "real-form", "--algebra-file", "{missing}"),
     "--algebra-file is not read with it"),
    (("verify", "--space", "sl3r", "--algebra-file", "{missing}", "--s", CONTROL_S,
      "--X", "bad"), "--space and --algebra-file each name the algebra"),
    (("roots", "--space", "su21", "--algebra-file", "{missing}"),
     "--space and --algebra-file each name the algebra")])
def test_hostile_rationals_exit_2_with_a_message(tmp_path, capsys, argv, needle):
    files = {
        "alg": _write(tmp_path, "e.alg", BASE.replace("2 3 -> 1 0 0", "2 3 -> 2e99999 0 0")),
        "s": _write(tmp_path, "s.json", '[{"S12": "1e5000"}]'),
        "big_int": _write(tmp_path, "i.json", '[{"S12": 1%s}]' % ("0" * 5000)),
        "missing": str(tmp_path / "missing.json"),
        "latin1": _write(tmp_path, "l.alg", "\xff\xfe" + BASE, encoding="latin-1"),
        "dependent": _write(tmp_path, "d.json", '[{"S12": 1}, {"S12": "-1/2"}]'),
    }
    out = tmp_path / "report.json"
    status = run([a.format(**files) for a in argv] + ["--out", str(out)])
    rep = json.loads(out.read_text())
    assert status == 2 and rep["results"]["kind"] == "config"
    assert needle in rep["results"]["error"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("size", ["0", "-1", "x", "", "2", "9" * 4299],
                         ids=["0", "-1", "x", "empty", "2", "4299-digits"])
def test_a_realization_size_out_of_range_is_a_config_error(tmp_path, size):
    """size 0 once reached validate with empty images and ended in a
    matmul ValueError traceback; a size that no file can fill was printed
    times d, past the 4300-digit int->str limit for d >= 12."""
    text = BASE.split("[realization]")[0] + "[realization]\nsize %s\n" % size
    with pytest.raises(ConfigError, match=r":\d+: size line needs one integer from 1 to 1,"):
        parse_algebra_file(_write(tmp_path, "size.alg", text))


# -- fuzzing -------------------------------------------------------------------

_NUMBER_PARTS = st.sampled_from(
    ["0", "1", "-", "+", "/", ".", "e", "E", "_", "9" * 40, "i", " ", "1e300",
     "2e99999", "1/0", "0/1", "3" * 300, "nan", "inf", "->", "#"])
_TOKENS = st.lists(_NUMBER_PARTS, min_size=1, max_size=6).map("".join)


@given(tokens=st.lists(_TOKENS, min_size=1, max_size=4),
       at=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_algebra_files_parse_or_raise_config_error(tmp_path, tokens, at):
    """Random tokens put in place of random tokens of sl2r.alg, whose
    numbers, indices, size and signature lines they replace."""
    words = BASE.replace("unimodular true", "signature 1 -1\nunimodular true").split(" ")
    for tok, k in zip(tokens, at):
        words[k % len(words)] = tok
    path = _write(tmp_path, "fuzz-%s.alg" % uuid.uuid4().hex, " ".join(words))
    try:
        parse_algebra_file(path)
    except ConfigError:
        pass


_X_PARTS = st.sampled_from(
    ["Q1", "P1", "D1", "F12", "q1", "+", "-", "*", "/", " ", "0", "1", "2",
     "9" * 300, "0/0", "1/3", "e5", ".5", "_", "bad", "\t", "١"])


@given(st.lists(_X_PARTS, max_size=10).map("".join))
@settings(max_examples=300, deadline=None)
def test_fuzzed_x_expressions_parse_or_raise_config_error(text):
    a = build_space("su21")
    try:
        x = parse_x_expression(a, text)
    except ConfigError:
        return
    assert not x.is_zero()


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2 ** 300, 2 ** 300),
              st.floats(allow_nan=False), st.sampled_from(
                  ["1", "1/2", "-3/4", "1e5000", "1/0", "abc", "9" * 400, "0",
                   "2e-3", "S12", ""])),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.sampled_from(["S12", "H1", "S13", "A12", "zz",
                                                            "vectors"]), kids, max_size=3)),
    max_leaves=8)


@given(st.one_of(_JSON_VALUES.map(json.dumps), st.text(max_size=30)))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_subspace_files_load_or_raise_config_error(tmp_path, text):
    a = build_space("sl3r")
    path = _write(tmp_path, "fuzz-%s.json" % uuid.uuid4().hex, text)
    try:
        load_subspace_file(a, path)
    except ConfigError:
        pass


@pytest.mark.parametrize("argv", [
    ("roots", "--space", "sl%dr" % (MAX_SL_N + 1)),
    ("roots", "--space", "sl12r", "--examples"),
    ("roots", "--space", "sl" + "9" * 5000 + "r"),
    ("check", "--space", "sl10r", "--pair", "real-form")])
def test_sl_past_its_cap_exits_2_before_any_build(tmp_path, monkeypatch, argv):
    """parse_space_id took any n for sl(n,R): building sl10r takes minutes,
    and an id of 5000 digits ended in an int() traceback."""
    def refuse(space_id):
        raise AssertionError("%s was built" % space_id)

    monkeypatch.setattr(cli, "build_space", refuse)
    monkeypatch.setattr(catalog, "build_space", refuse)
    out = tmp_path / "report.json"
    assert run([*argv, "--out", str(out)]) == 2
    assert json.loads(out.read_text())["results"] == {
        "error": "space %r: sl(n,R) ids go up to n = %d" % (argv[2], MAX_SL_N),
        "kind": "config"}


@pytest.mark.parametrize("argv", [
    ("roots",), ("check", "--pair", "real-form"), ("lemma", "--pair", "real-form"),
    ("verify", "--s", CONTROL_S, "--X", "P1")])
def test_so11_exits_2_saying_it_is_abelian(tmp_path, capsys, argv):
    """so(1,1) is abelian, so its table fails validate; roots on it once
    ended in a ValueError traceback (np.concatenate of no root spaces)."""
    out = tmp_path / "report.json"
    assert run([argv[0], "--space", "so11", *argv[1:], "--out", str(out)]) == 2
    assert json.loads(out.read_text())["results"] == {
        "error": "space 'so11': so(1,1) is abelian, its Killing form is 0; "
                 "so(n,1) ids start at n = 2",
        "kind": "config"}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("space_id, parsed", [
    ("sl%dr" % MAX_SL_N, ("sl", MAX_SL_N)), ("sl02r", ("sl", 2)), ("sl²r", None),
    ("su²1", None), ("sl0r", None)])
def test_space_ids_at_the_cap_parse_and_non_decimal_digits_are_refused(space_id,
                                                                       parsed):
    """'²' is a digit to str.isdigit but not to int(): both once ended in a
    ValueError traceback."""
    if parsed:
        assert parse_space_id(space_id) == parsed
    else:
        with pytest.raises(ConfigError, match="unrecognized space id"):
            parse_space_id(space_id)


def _identity_file(tmp_path, d, theta_width=None):
    """d labels ten to a line, an empty [bracket] and theta = -I, each row
    theta_width wide (d by default)."""
    labels = ["E%d" % i for i in range(d)]
    rows = [" ".join("-1" if i == j else "0" for j in range(theta_width or d))
            for i in range(d)]
    text = "\n".join(["[basis]"] + [" ".join(labels[i:i + 10]) for i in range(0, d, 10)]
                     + ["[bracket]", "[theta]"] + rows) + "\n"
    return _write(tmp_path, "wide.alg", text)


@pytest.mark.parametrize("d", [MAX_DIM + 1, 120])
def test_algebra_files_past_the_dimension_cap_exit_2_before_any_token_is_parsed(
        tmp_path, monkeypatch, d):
    """algfile took any number of labels: 120 labels, an empty [bracket] and
    theta = -I ran validate's O(d^5) Jacobi loop for half a minute."""
    def refuse(*args):
        raise AssertionError("parsed past the [basis] count")

    monkeypatch.setattr(algfile, "parse_rational", refuse)
    monkeypatch.setattr(StructuredLieAlgebra, "validate", refuse)
    path = _identity_file(tmp_path, d)
    out = tmp_path / "report.json"
    assert run(["roots", "--algebra-file", path, "--out", str(out)]) == 2
    # the 100th label is on line 11, after the header and nine full lines
    assert json.loads(out.read_text())["results"] == {
        "error": "%s:11: [basis] has more than %d labels" % (path, MAX_DIM),
        "kind": "config"}


def test_an_algebra_file_at_the_dimension_cap_passes_the_count(tmp_path):
    with pytest.raises(ConfigError, match="theta row needs 99 entries, got 98"):
        parse_algebra_file(_identity_file(tmp_path, MAX_DIM, theta_width=MAX_DIM - 1))
