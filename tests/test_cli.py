"""Command-line surface: exit statuses, report envelopes, determinism."""

from __future__ import annotations

import json

import pytest

from transvector.cli import (build_parser, load_subspace_file,
                             parse_x_expression, run)
from transvector.errors import ConfigError
from transvector.report import render, strip_wall_time


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = run(list(argv) + ["--out", str(out)])
    return status, json.loads(out.read_text())


def test_check_on_a_catalog_pair_passes(tmp_path):
    status, rep = _run(tmp_path, "check", "--space", "su21",
                       "--pair", "real-form", "--samples", "64", "--seed", "7")
    assert status == 0
    assert rep["summary"] == {"exit_status": 0, "passed": True}
    assert rep["results"]["condition"]["holds"] is True
    assert rep["results"]["condition"]["mode"] == "exact-sampled"
    assert rep["schema"] == 1
    assert rep["config"]["seed"] == 7


def test_catalog_listing_names_every_pair(tmp_path):
    status, rep = _run(tmp_path, "catalog", "--list")
    assert status == 0
    spaces = rep["results"]["spaces"]
    assert len(spaces) == 3
    assert sum(len(s["pairs"]) for s in spaces) >= 5
    assert {u["id"] for u in rep["results"]["unsupported"]} == {"sp21", "f4-20"}


def test_verify_custom_pair_fails_with_witness(tmp_path):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps([{"S12": "1"}]))
    status, rep = _run(tmp_path, "verify", "--space", "sl3r",
                       "--s", str(custom), "--X", "bad")
    assert status == 1
    cond = rep["results"]["condition"]
    assert cond["holds"] is False
    assert cond["witness"]["n"] == 0
    assert cond["witness"]["vector"]


def test_verify_accepts_a_passing_custom_pair(tmp_path):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps([{"S12": "1"}]))
    status, rep = _run(tmp_path, "verify", "--space", "sl3r",
                       "--s", str(custom), "--X", "S13")
    assert status == 0


def test_config_errors_exit_2(tmp_path):
    status, rep = _run(tmp_path, "check", "--space", "sp21",
                       "--pair", "real-form")
    assert status == 2
    assert rep["results"]["kind"] == "config"
    status, rep = _run(tmp_path, "check", "--space", "su21",
                       "--pair", "no-such-pair")
    assert status == 2
    status, rep = _run(tmp_path, "construct", "--space", "so31",
                       "--pair", "geodesic-plane")
    assert status == 2  # codimension-1 pair refused by the immersion builder


def test_lemma_command_certifies_catalog_pair(tmp_path):
    status, rep = _run(tmp_path, "lemma", "--space", "su21",
                       "--pair", "real-form", "--samples", "2",
                       "--n-max", "2", "--m-max", "2")
    assert status == 0
    checks = rep["results"]["lemma_checks"]
    assert len(checks) == 2
    assert all(c["status"] == "passed" for c in checks)
    assert all(c["worst_residual"] == 0.0 for c in checks)


def test_roots_command_reports_the_datum(tmp_path):
    status, rep = _run(tmp_path, "roots", "--space", "su21")
    assert status == 0
    datum = rep["results"]["datum"]
    assert len(datum["positive"]) == 2
    assert rep["results"]["rules"]["passed"] is True


def test_bisector_command_encodes_both_expectations(tmp_path):
    status, rep = _run(tmp_path, "bisector", "--space", "su21",
                       "--pair", "complex-hyperplane", "--grid-steps", "3")
    assert status == 0
    assert rep["results"]["bisector"]["equidistant"] is True
    status, rep = _run(tmp_path, "bisector", "--space", "su21",
                       "--pair", "real-form", "--grid-steps", "3")
    assert status == 0
    assert rep["results"]["bisector"]["equidistant"] is False
    assert rep["results"]["bisector"]["max_delta"] >= 1e-2


def test_construct_writes_exports(tmp_path):
    csv = tmp_path / "cloud.csv"
    status, rep = _run(tmp_path, "construct", "--space", "su21",
                       "--pair", "real-form", "--t-steps", "2",
                       "--y-steps", "2", "--csv", str(csv))
    assert status == 0
    assert rep["results"]["curvature"]["passed"] is True
    assert rep["results"]["exports"]["csv"] == str(csv)
    assert csv.read_text().startswith("t,y1,y2,p1,p2,p3,p4,mean_h")


def test_reports_are_byte_identical_modulo_wall_time(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["check", "--space", "su21", "--pair", "real-form",
            "--samples", "16", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert strip_wall_time(a.read_text()) == strip_wall_time(b.read_text())
    assert a.read_text() != b.read_text()  # wall time really is recorded


def test_render_is_deterministic_and_sorted():
    text = render({"schema": 1, "b": 2, "a": [1, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_x_expression_grammar(su21):
    v = parse_x_expression(su21, "P1 + 2*Q1 - 1/2*P2")
    combo = dict(zip(su21.labels, v.coeffs))
    assert combo["P1"] == 1 and combo["Q1"] == 2
    assert str(combo["P2"]) == "-1/2"
    with pytest.raises(ConfigError):
        parse_x_expression(su21, "P1 + 2*")
    with pytest.raises(ConfigError):
        parse_x_expression(su21, "NoSuchLabel")
    with pytest.raises(ConfigError):
        parse_x_expression(su21, "bad")  # alias only exists on sl3r


def test_subspace_file_loader_rejects_garbage(tmp_path, su21):
    p = tmp_path / "s.json"
    p.write_text("[")
    with pytest.raises(ConfigError):
        load_subspace_file(su21, str(p))
    p.write_text(json.dumps({"vectors": []}))
    with pytest.raises(ConfigError):
        load_subspace_file(su21, str(p))
    p.write_text(json.dumps([{"P1": "1/0"}]))
    with pytest.raises(ConfigError):
        load_subspace_file(su21, str(p))
    p.write_text(json.dumps([{"P1": "1"}, {"Nope": "1"}]))
    with pytest.raises(ConfigError):
        load_subspace_file(su21, str(p))


def test_zero_denominator_in_x_exits_2(tmp_path):
    status, rep = _run(tmp_path, "check", "--space", "su21",
                       "--pair", "real-form", "--X", "1/0*Q1")
    assert status == 2
    assert rep["results"]["kind"] == "config"
    assert "1/0*Q1" in rep["results"]["error"]


@pytest.mark.parametrize("coeff", [0.5, None, True])
def test_non_rational_json_coefficient_exits_2(tmp_path, coeff):
    """Coefficients are integers or rational strings; a float, null or a
    boolean (which would read as 1) is an input error."""
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps([{"S12": coeff}]))
    status, rep = _run(tmp_path, "verify", "--space", "sl3r",
                       "--s", str(custom), "--X", "S13")
    assert status == 2
    assert rep["results"]["kind"] == "config"
    assert "not an integer or a rational string" in rep["results"]["error"]


def test_cached_parser_keeps_subcommand_defaults_apart(tmp_path):
    """verify defaults to 16 samples, lemma to 4 and check to 64; reusing one
    parser must not carry one command's defaults or options into the next."""
    assert build_parser() is build_parser()
    status, rep = _run(tmp_path, "lemma", "--space", "sp21",
                       "--pair", "real-form")
    assert status == 2
    assert rep["config"]["samples"] == 4 and rep["config"]["m_max"] == 4
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps([{"S12": "1"}]))
    status, rep = _run(tmp_path, "verify", "--space", "sl3r",
                       "--s", str(custom), "--X", "bad")
    assert status == 1
    assert rep["config"]["samples"] == 16
    status, rep = _run(tmp_path, "check", "--space", "sp21",
                       "--pair", "real-form")
    assert status == 2
    assert rep["config"]["samples"] == 64
    assert "m_max" not in rep["config"] and "s_file" not in rep["config"]


@pytest.mark.parametrize("x, where", [("", "empty X expression"),
                                      ("-", "at the end"), ("Q1+", "at the end"),
                                      ("Q1--Q2", "at column 4"),
                                      ("Q1 Q2", "at column 4"),
                                      ("P1 + 2*", "at column 6")])
def test_malformed_x_exits_2_naming_the_position(tmp_path, x, where):
    """A stray sign or a missing term is a parse error, never a dropped
    token: each of these once certified a pair with exit 0."""
    status, rep = _run(tmp_path, "check", "--space", "su21", "--pair",
                       "real-form", "--X", x)
    assert status == 2
    assert rep["results"]["kind"] == "config"
    assert where in rep["results"]["error"]
    assert not x or repr(x) in rep["results"]["error"]


@pytest.mark.parametrize("command", ["check", "verify", "lemma", "construct"])
@pytest.mark.parametrize("x", ["0*Q1", "Q1 - Q1", ""])
def test_zero_x_exits_2_in_every_command(tmp_path, command, x):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps([{"P1": 1}, {"P2": 1}]))
    source = ["--s", str(custom)] if command == "verify" else ["--pair", "real-form"]
    status, rep = _run(tmp_path, command, "--space", "su21", *source, "--X", x)
    assert status == 2
    assert rep["results"]["kind"] == "config"


@pytest.mark.parametrize("command, extra", [
    ("construct", ("--s", "s.json")), ("construct", ("--algebra-file", "a.alg")),
    ("bisector", ("--X", "Q1")), ("bisector", ("--s", "s.json")),
    ("bisector", ("--algebra-file", "a.alg")),
    ("roots", ("--X", "Q1")), ("roots", ("--s", "s.json"))])
def test_inputs_a_command_does_not_read_are_refused(tmp_path, command, extra):
    """An input a command would ignore is an argument error (exit 2, no
    report), not a silently different request."""
    pair = () if command == "roots" else ("--pair", "real-form")
    build_parser().parse_args([command, "--space", "su21", *pair])
    out = tmp_path / "report.json"
    status = run([command, "--space", "su21", *pair, *extra, "--out", str(out)])
    assert status == 2 and not out.exists()


@pytest.mark.parametrize("argv", [
    ("bisector", "--pair", "complex-hyperplane", "--r", "nan"),
    ("bisector", "--pair", "complex-hyperplane", "--r", "inf"),
    ("construct", "--pair", "real-form", "--h", "nan"),
    ("construct", "--pair", "real-form", "--h", "inf"),
    ("construct", "--pair", "real-form", "--tolerance", "nan"),
    ("bisector", "--pair", "real-form", "--tolerance", "nan"),
    ("bisector", "--pair", "real-form", "--r", "half")])
def test_non_finite_float_options_exit_2_naming_the_option(tmp_path, capsys, argv):
    """A nan or an infinity once ended in a LinAlgError or a JSON ValueError
    traceback with exit 1, the status of a failed condition."""
    out = tmp_path / "report.json"
    status = run([argv[0], "--space", "su21", *argv[1:], "--out", str(out)])
    assert status == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "argument %s: expected a finite number, got %r" % argv[-2:] in err


@pytest.mark.parametrize("argv", [
    ("construct", "--pair", "real-form", "--h=1e300"),
    ("bisector", "--pair", "real-form", "--grid-steps", "2", "--r=1e300"),
    ("construct", "--pair", "real-form", "--t-range", "0,1e308")])
def test_huge_finite_bounds_exit_3_with_a_message(tmp_path, capsys, argv):
    """A finite bound whose group elements overflow float64 once ended in a
    LinAlgError traceback from eigh with exit 1."""
    status, rep = _run(tmp_path, argv[0], "--space", "su21", *argv[1:])
    assert status == 3
    assert rep["results"] == {
        "error": "polar factor is not finite: the matrix overflows float64",
        "kind": "numerical"}
    assert capsys.readouterr().err == ""


def test_every_golden_x_still_parses(su21, sl3r):
    for a, x in ((su21, "Q1"), (su21, "1/2*Q1 + 1/3*Q2"), (sl3r, "bad"),
                 (sl3r, "1/2*H1 + 1/3*S13"), (sl3r, "S13")):
        assert not parse_x_expression(a, x).is_zero()
    v = parse_x_expression(su21, " -Q1+ 2 * P1 -1/3*P2 ")
    combo = dict(zip(su21.labels, v.coeffs))
    assert (combo["Q1"], combo["P1"], str(combo["P2"])) == (-1, 2, "-1/3")
