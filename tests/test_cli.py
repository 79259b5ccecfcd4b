"""Command-line surface: exit statuses, report envelopes, determinism."""

from __future__ import annotations

import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from transvector import cli
from transvector.catalog import SPACE_IDS, build_space
from transvector.cli import (MAX_CHAIN, MAX_EXAMPLE_WORK, MAX_GRID_NODES, MAX_LEMMA_TERMS,
                             MAX_SAMPLES, build_parser, load_subspace_file,
                             parse_x_expression, run)
from transvector.errors import ConfigError, LemmaFalsified
from transvector.geometry import GridSpec
from transvector.liealg import RESIDUE_BUDGET, ChainResidues, coeff_strings
from transvector.report import render, strip_wall_time


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = run(list(argv) + ["--out", str(out)])
    return status, json.loads(out.read_text())


@pytest.mark.parametrize("x, exit_status, warnings", [
    ((), 0, []),
    (("--X", "P1 + Q1"), 1, ["X has a nonzero component along s (B(X, s) != 0); "
                             "the geometric statement wants X normal"])],
    ids=["default-x", "non-normal-x"])
def test_check_on_a_catalog_pair_reports_its_verdict(tmp_path, x, exit_status, warnings):
    """The default X passes; P1 + Q1 pairs with P1 in s, so the verdict
    carries the non-normal warning, and the condition fails at n = 0."""
    status, rep = _run(tmp_path, "check", "--space", "su21", "--pair", "real-form",
                       *x, "--samples", "64", "--seed", "7")
    assert status == exit_status
    assert rep["summary"] == {"exit_status": status, "passed": status == 0}
    assert rep["results"]["condition"]["holds"] is (status == 0)
    assert rep["results"]["condition"]["mode"] == "exact-sampled"
    assert rep["results"]["condition"]["warnings"] == warnings
    assert rep["schema"] == 1
    assert rep["config"]["seed"] == 7


def test_catalog_listing_names_every_pair(tmp_path):
    status, rep = _run(tmp_path, "catalog")
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
    assert status == 2  # codimension-1 pair refused by the curvature estimator
    assert rep["results"]["error"] == ("mean curvature of the extension needs "
                                       "codimension >= 2; this spec has 1")


def test_a_codimension_one_pair_measures_its_baseline(tmp_path):
    """The frozen-t slice of so31 geodesic-plane is totally geodesic, so the
    baseline and the distance law run on it; only the extension's mean
    curvature, which needs codimension >= 2, is refused."""
    status, rep = _run(tmp_path, "construct", "--space", "so31", "--pair",
                       "geodesic-plane", "--baseline", "--distance-law",
                       "--t-steps", "3", "--y-steps", "3")
    assert status == 0
    assert rep["results"]["curvature"]["max_norm"] <= 1e-6
    assert rep["results"]["distance_law"]["passed"]


@pytest.mark.parametrize("argv, retired", [
    (("check", "--space", "su21", "--pair", "real-form"), ("--n-max", "3")),
    (("verify", "--space", "su21", "--s", "s.json", "--X", "Q1"), ("--n-max", "3")),
    (("construct", "--space", "su21", "--pair", "real-form"), ("--truncation", "60")),
    (("construct", "--space", "su21", "--pair", "real-form"), ("--h", "1e-3")),
    (("catalog",), ("--list",)),
    (("catalog",), ("--seed", "0"))])
def test_retired_options_are_argument_errors(tmp_path, capsys, argv, retired):
    """The condition always checks n <= dim p, the metric series stops by
    itself, the mean curvature is a closed form with no step, and catalog
    reads no option but --out.  No option is read as an abbreviation, so
    --h is not --help."""
    out = tmp_path / "report.json"
    assert run([*argv, *retired, "--out", str(out)]) == 2 and not out.exists()
    assert "unrecognized arguments: %s" % " ".join(retired) in capsys.readouterr().err


@pytest.mark.parametrize("abbreviated", [("--tol", "1e-3"), ("--bas",)])
def test_abbreviated_options_are_argument_errors(tmp_path, capsys, abbreviated):
    """--tol and --bas are prefixes of --tolerance and --baseline; every
    option is spelt in full, so neither runs as the option it abbreviates."""
    out = tmp_path / "report.json"
    assert run(["construct", "--space", "su21", "--pair", "real-form", *abbreviated,
                "--out", str(out)]) == 2 and not out.exists()
    assert "unrecognized arguments: %s" % " ".join(abbreviated) in capsys.readouterr().err


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


@pytest.mark.parametrize("option", ["--csv", "--ply"])
@pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory")])
def test_an_unwritable_export_exits_2_naming_the_option(tmp_path, option, where, reason):
    path = str(tmp_path / "missing" / "cloud") if where == "missing" else str(tmp_path)
    status, rep = _run(tmp_path, "construct", "--space", "su21", "--pair", "real-form",
                       "--t-steps", "2", "--y-steps", "2", option, path)
    assert status == 2
    assert rep["results"] == {"error": "cannot write %s %s: %s" % (option, path, reason),
                              "kind": "config"}


@pytest.mark.parametrize("option", ["--csv", "--ply"])
@pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory"),
                                           ("under-a-file", "Not a directory")])
def test_an_unwritable_export_is_refused_before_the_sweep(tmp_path, monkeypatch, option,
                                                          where, reason):
    """An export target that cannot be written exits 2 with the message of a
    late refusal, and the grid is never measured (an su31 request once ran
    its whole 0.4 s sweep first)."""
    def unreachable(*args, **kw):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "mean_curvature_report", unreachable)
    (tmp_path / "file").write_text("")
    path = str({"missing": tmp_path / "missing" / "cloud", "directory": tmp_path,
                "under-a-file": tmp_path / "file" / "cloud"}[where])
    status, rep = _run(tmp_path, "construct", "--space", "su31", "--pair", "real-form",
                       option, path)
    assert status == 2
    assert rep["results"] == {"error": "cannot write %s %s: %s" % (option, path, reason),
                              "kind": "config"}


def _export_with_a_directory_at(tmp_path, bad, other_target):
    """construct with --csv and --ply, the option bad aimed at a directory
    and the other at other_target, both in tmp_path/exports."""
    out = tmp_path / "exports"
    (out / "d").mkdir(parents=True)
    targets = {"--csv": str(other_target), "--ply": str(other_target), bad: str(out / "d")}
    status, rep = _run(tmp_path, "construct", "--space", "su21", "--pair", "real-form",
                       "--t-steps", "2", "--y-steps", "2",
                       "--csv", targets["--csv"], "--ply", targets["--ply"])
    assert status == 2
    assert rep["results"] == {"error": "cannot write %s %s: Is a directory"
                                       % (bad, out / "d"), "kind": "config"}
    assert not any((out / "d").iterdir())
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("bad", ["--csv", "--ply"])
def test_an_unwritable_export_writes_neither(tmp_path, bad):
    """Both exports are written or neither, whichever of them fails; no temp
    file stays behind."""
    assert _export_with_a_directory_at(tmp_path, bad, tmp_path / "exports" / "ok") == ["d"]


@pytest.fixture
def umask():
    """umask(mask) sets the process umask for the rest of the test."""
    old = os.umask(0o022)
    yield os.umask
    os.umask(old)


@pytest.mark.parametrize("mask", [0o022, 0o077])
@pytest.mark.parametrize("earlier", [False, True], ids=["new", "over-0600"])
def test_reports_and_exports_take_the_mode_open_would_give(tmp_path, umask, mask, earlier):
    """--out, --csv and --ply are written 0o666 less the umask, new or over
    an existing 0600 file; every report and export was once left at 0600
    whatever the umask, and the rename carried that over a 0644 target."""
    umask(mask)
    targets = [tmp_path / name for name in ("report.json", "cloud.csv", "cloud.ply")]
    if earlier:
        for target in targets:
            target.write_text("earlier\n")
            target.chmod(0o600)
    status = run(["construct", "--space", "su21", "--pair", "real-form", "--t-steps", "1",
                  "--y-steps", "1", "--out", str(targets[0]), "--csv", str(targets[1]),
                  "--ply", str(targets[2])])
    assert status == 0
    assert [t.stat().st_mode & 0o777 for t in targets] == [0o666 & ~mask] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(t.name for t in targets)


@pytest.mark.parametrize("bad", ["--csv", "--ply"])
def test_an_unwritable_export_leaves_an_existing_one_as_it_was(tmp_path, bad):
    existing = tmp_path / "exports" / "earlier"
    existing.parent.mkdir()
    existing.write_text("earlier\n")
    assert _export_with_a_directory_at(tmp_path, bad, existing) == ["d", "earlier"]
    assert existing.read_text() == "earlier\n"


def test_a_refused_rename_exits_2_naming_the_option(tmp_path, monkeypatch):
    """A rename refused after both exports are staged (here a directory
    appearing at --ply in between) names its target, so the run exits 2 with
    the option's message instead of a traceback naming a temp file."""
    out = tmp_path / "exports"
    out.mkdir()
    csv, ply = out / "cloud.csv", out / "cloud.ply"
    replace = os.replace

    def refuse_ply(src, dst):
        if dst == str(ply):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), src, dst)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_ply)
    status, rep = _run(tmp_path, "construct", "--space", "su21", "--pair", "real-form",
                       "--t-steps", "2", "--y-steps", "2", "--csv", str(csv), "--ply", str(ply))
    assert status == 2
    assert rep["results"] == {"error": "cannot write --ply %s: Is a directory" % ply,
                              "kind": "config"}
    # the earlier rename stands (write_files' documented limit); no temp file stays
    assert sorted(p.name for p in out.iterdir()) == ["cloud.csv"]


@pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory")])
def test_an_unwritable_out_exits_2_with_the_envelope_on_stdout(tmp_path, capsys, where,
                                                                reason):
    """A report that cannot reach --out is a configuration error, exit 2 (exit
    1 means an expectation failed), and its temp file does not stay behind."""
    target = tmp_path / "missing" / "r.json" if where == "missing" else tmp_path / "d"
    if where == "directory":
        target.mkdir()
    status = run(["check", "--space", "su21", "--pair", "real-form", "--samples", "2",
                  "--out", str(target)])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert status == 2 and captured.err == ""
    assert rep["results"] == {"error": "cannot write --out %s: %s" % (target, reason),
                              "kind": "config"}
    assert rep["summary"] == {"exit_status": 2, "passed": False}
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        [] if where == "missing" else ["d"])


@pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory"),
                                           ("under-a-file", "Not a directory")])
def test_an_unwritable_out_is_refused_before_the_command_runs(tmp_path, capsys,
                                                             count_calls, where, reason):
    """The same envelope as a late refusal, with the command never run."""
    target = {"missing": tmp_path / "missing" / "r.json", "directory": tmp_path,
              "under-a-file": tmp_path / "file" / "r.json"}[where]
    (tmp_path / "file").write_text("")
    ran = count_calls(cli, "_algebra_from_args")
    status = run(["roots", "--space", "sl7r", "--out", str(target)])
    captured = capsys.readouterr()
    assert (status, captured.err, ran) == (2, "", [])
    rep = json.loads(captured.out)
    assert rep["results"] == {"error": "cannot write --out %s: %s" % (target, reason),
                              "kind": "config"}
    assert rep["summary"] == {"exit_status": 2, "passed": False}


def test_an_out_that_goes_bad_while_the_command_runs_exits_2(tmp_path, capsys, monkeypatch):
    """A directory made at --out after the early check is still refused when
    the report is written, with the same envelope."""
    target = tmp_path / "r.json"
    check = cli.condition_holds

    def check_then_block(*args, **kwargs):
        target.mkdir()
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, "condition_holds", check_then_block)
    status = run(["check", "--space", "su21", "--pair", "real-form", "--samples", "2",
                  "--out", str(target)])
    rep = json.loads(capsys.readouterr().out)
    assert status == 2
    assert rep["results"] == {"error": "cannot write --out %s: Is a directory" % target,
                              "kind": "config"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


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


def test_a_k_component_past_any_float_tolerance_exits_2_in_construct(tmp_path, capsys):
    """X = Q1 + 2^-200 F12 rounds to a float row with a nonzero k entry, far
    below any float tolerance.  Theta X = -X fails bit for bit, as expm's
    exact Hermitian test would, so construct refuses it before any matrix."""
    status, rep = _run(tmp_path, "construct", "--space", "su21", "--pair", "real-form",
                       "--X", "Q1 + 1/%d*F12" % 2 ** 200)
    assert status == 2
    assert rep["results"] == {"error": "X must lie in p", "kind": "config"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, source, x, error", [
    *[(command, "pair", x, "X must lie in p")
      for command in ("check", "verify", "lemma", "construct") for x in ("F12", "Q1+F12")],
    *[(command, "k", "P1", "s must be contained in p")
      for command in ("check", "verify", "lemma")]])
def test_pairs_outside_p_exit_2_in_every_command(tmp_path, capsys, command, source,
                                                 x, error):
    """lemma once let these ValueErrors out as a traceback with exit 1, and
    construct handed X = F12 to expm, which takes Hermitian matrices only
    (a traceback with exit 1); check and verify wrapped them."""
    k_file = tmp_path / "k.json"                  # s = span(F12), inside k
    k_file.write_text(json.dumps([{"F12": 1}]))
    if source == "k":
        source = ["--s", str(k_file)]
    elif command == "verify":
        source = ["--s", os.path.join(GOLDEN, "su21-real-form.json")]
    else:
        source = ["--pair", "real-form"]
    status, rep = _run(tmp_path, command, "--space", "su21", *source, "--X", x)
    assert status == 2
    assert rep["results"] == {"error": error, "kind": "config"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, extra", [
    ("construct", ("--s", "s.json")), ("construct", ("--algebra-file", "a.alg")),
    ("bisector", ("--X", "Q1")), ("bisector", ("--s", "s.json")),
    ("bisector", ("--algebra-file", "a.alg")),
    ("roots", ("--X", "Q1")), ("roots", ("--s", "s.json")),
    ("verify", ("--pair", "real-form"))])
def test_inputs_a_command_does_not_read_are_refused(tmp_path, command, extra):
    """An input a command would ignore is an argument error (exit 2, no
    report), not a silently different request."""
    pair = () if command in ("roots", "verify") else ("--pair", "real-form")
    build_parser().parse_args([command, "--space", "su21", *pair])
    out = tmp_path / "report.json"
    status = run([command, "--space", "su21", *pair, *extra, "--out", str(out)])
    assert status == 2 and not out.exists()


@pytest.mark.parametrize("argv", [
    ("bisector", "--pair", "complex-hyperplane", "--r", "nan"),
    ("bisector", "--pair", "complex-hyperplane", "--r", "inf"),
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
    ("construct", "--pair", "real-form", "--y-range", "0,1e308"),
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


@pytest.mark.parametrize("argv", [
    ("construct", "--pair", "real-form", "--t-steps", "1", "--y-steps", "1",
     "--t-range=0,inf"),
    ("construct", "--pair", "real-form", "--t-steps", "1", "--y-steps", "1",
     "--y-range=-inf,inf"),
    ("construct", "--pair", "real-form", "--t-steps", "1", "--y-steps", "1",
     "--t-range=nan,nan"),
    ("construct", "--pair", "real-form", "--t-steps", "1", "--y-steps", "1",
     "--y-range=0,nan")])
def test_non_finite_grid_ranges_exit_2_saying_so(tmp_path, capsys, argv):
    """Non-finite endpoints once printed numpy RuntimeWarnings, then exited 2
    saying the nodes lay outside the declared ranges or the ranges were not
    ordered."""
    status, rep = _run(tmp_path, argv[0], "--space", "su21", *argv[1:])
    option, _, text = argv[-1].partition("=")
    assert status == 2
    assert rep["results"] == {
        "error": "%s endpoints must be finite, got %r" % (option, text),
        "kind": "config"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, error", [
    (("construct", "--pair", "real-form", "--y-steps", "100000"),
     "--t-steps and --y-steps: 5 * 100000^2 grid nodes"),
    (("construct", "--pair", "complex-hyperplane", "--t-steps", "100001",
      "--y-steps", "1"), "--t-steps and --y-steps: 100001 * 1^2 grid nodes"),
    (("bisector", "--pair", "real-form", "--grid-steps", "5000"),
     "--grid-steps: 5000 * 5000^2 grid nodes"),
    (("bisector", "--pair", "complex-hyperplane", "--grid-steps", "47"),
     "--grid-steps: 47 * 47^2 grid nodes")])
def test_grids_past_the_node_cap_exit_2_naming_the_options(tmp_path, monkeypatch,
                                                         argv, error):
    """--y-steps 100000 and --grid-steps 5000 once ended in _ArrayMemoryError
    tracebacks with exit 1; the cap is checked before any grid array."""
    def refuse(*args):
        raise AssertionError("a grid array was built")

    monkeypatch.setattr(GridSpec, "t_axis", refuse)
    monkeypatch.setattr(GridSpec, "y_nodes", refuse)
    status, rep = _run(tmp_path, argv[0], "--space", "su21", *argv[1:])
    assert status == 2
    assert rep["results"] == {
        "error": error + " are more than the %d allowed" % MAX_GRID_NODES,
        "kind": "config"}


class _Admitted(Exception):
    pass


@pytest.mark.parametrize("argv", [
    ("construct", "--space", "su31", "--pair", "complex-hyperplane"),  # 5 * 5^4
    ("bisector", "--space", "su31", "--pair", "complex-hyperplane"),   # 7 * 7^4
    ("construct", "--space", "su21", "--pair", "real-form", "--t-steps", "10",
     "--y-steps", "100"),
    ("bisector", "--space", "su21", "--pair", "real-form", "--grid-steps", "46")])
def test_grids_up_to_the_node_cap_are_admitted(monkeypatch, argv):
    """The CLI defaults on the widest pair and grids at or just under the
    cap reach the measurement."""
    def admitted(*args, **kw):
        raise _Admitted

    monkeypatch.setattr(cli, "mean_curvature_report", admitted)
    monkeypatch.setattr(cli, "bisector_equidistance_check", admitted)
    with pytest.raises(_Admitted):
        run(list(argv))


def test_the_cli_runs_without_importing_scipy(tmp_path):
    """scipy is a test dependency only: importing the CLI and one construct
    load no scipy module (its import was most of the CLI's import time)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    code = ("import sys\n"
            "import transvector.cli\n"
            "status = transvector.cli.run(['construct', '--space', 'su21', '--pair',"
            " 'real-form', '--t-steps', '2', '--y-steps', '2', '--out', sys.argv[1]])\n"
            "print(status, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_every_golden_x_still_parses(su21, sl3r):
    for a, x in ((su21, "Q1"), (su21, "1/2*Q1 + 1/3*Q2"), (sl3r, "bad"),
                 (sl3r, "1/2*H1 + 1/3*S13"), (sl3r, "S13")):
        assert not parse_x_expression(a, x).is_zero()
    v = parse_x_expression(su21, " -Q1+ 2 * P1 -1/3*P2 ")
    combo = dict(zip(su21.labels, v.coeffs))
    assert (combo["Q1"], combo["P1"], str(combo["P2"])) == (-1, 2, "-1/3")


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CONTROL = ("--space", "sl3r", "--s", os.path.join(GOLDEN, "control.json"),
           "--X", "bad")


@pytest.mark.parametrize("argv", [
    ("lemma", "--space", "su21", "--pair", "real-form", "--m-max", "-2"),
    ("lemma", "--space", "su21", "--pair", "real-form", "--n-max", "-1"),
    ("check", "--space", "su21", "--pair", "real-form", "--samples", "-3"),
    ("check", "--space", "su21", "--pair", "real-form", "--samples", "0"),
    ("verify", "--space", "su21", "--s", os.path.join(GOLDEN, "su21-real-form.json"),
     "--X", "Q1", "--samples", "0"),
    ("lemma", "--space", "su21", "--pair", "real-form", "--samples", "0"),
    ("roots", "--space", "su21", "--examples", "--samples", "0"),
    ("verify", *CONTROL, "--samples", "0"),
    ("lemma", "--space", "su21", "--pair", "real-form", "--n-max", "two")])
def test_count_options_below_their_floor_exit_2_naming_the_option(
        tmp_path, capsys, argv):
    """A negative count once ended in a reshape traceback (--m-max), a
    numpy message (--samples) or a vacuous pass (--n-max -1 and
    --samples 0, which certified the sl3r negative control)."""
    out = tmp_path / "report.json"
    status = run([*argv, "--out", str(out)])
    assert status == 2 and not out.exists()
    floor = 1 if argv[-2] == "--samples" else 0
    assert ("argument %s: expected an integer >= %d, got %r"
            % (argv[-2], floor, argv[-1])) in capsys.readouterr().err


@pytest.mark.parametrize("argv, status", [
    (("lemma", "--space", "su21", "--pair", "real-form", "--samples", "1",
      "--n-max", "0", "--m-max", "0"), 0),
    (("check", "--space", "su21", "--pair", "real-form", "--samples", "1"), 0),
    (("verify", *CONTROL, "--samples", "1"), 1)])
def test_count_options_at_their_floor_run(tmp_path, argv, status):
    assert _run(tmp_path, *argv)[0] == status


@pytest.mark.parametrize("argv, floor", [
    (("construct", "--pair", "real-form", "--t-steps", "1", "--y-steps", "1",
      "--tolerance=-1"), "a number >= 0"),
    (("bisector", "--pair", "real-form", "--grid-steps", "2", "--tolerance=-1e-9"),
     "a number >= 0"),
    (("bisector", "--pair", "complex-hyperplane", "--grid-steps", "2", "--r", "0"),
     "a number > 0"),
    (("bisector", "--pair", "complex-hyperplane", "--grid-steps", "2", "--r=-0.5"),
     "a number > 0"),
    (("construct", "--pair", "real-form", "--t-steps", "0"), "an integer >= 1"),
    (("construct", "--pair", "real-form", "--y-steps=-2"), "an integer >= 1"),
    (("bisector", "--pair", "real-form", "--grid-steps", "0"), "an integer >= 1")])
def test_bound_options_below_their_floor_exit_2_naming_the_option(tmp_path, capsys,
                                                                  argv, floor):
    """A negative --tolerance failed (construct) or passed (bisector real-form)
    any measurement, --r 0 put both bisector endpoints at the origin,
    where equidistance is vacuous (exit 0), and a grid step count below 1
    was refused only by GridSpec, without naming the option."""
    out = tmp_path / "report.json"
    status = run([argv[0], "--space", "su21", *argv[1:], "--out", str(out)])
    assert status == 2 and not out.exists()
    option, _, value = argv[-1].partition("=")
    if not value:
        option, value = argv[-2:]
    assert ("argument %s: expected %s, got %r" % (option, floor, value)
            in capsys.readouterr().err)


SU21_REAL_FORM = ("--space", "su21", "--pair", "real-form")


@pytest.mark.parametrize("argv, option, floor, cap", [
    (("check", *SU21_REAL_FORM), "--samples", 1, MAX_SAMPLES),
    (("verify", *CONTROL), "--samples", 1, MAX_SAMPLES),
    (("lemma", *SU21_REAL_FORM), "--samples", 1, MAX_SAMPLES),
    (("roots", "--space", "su21", "--examples"), "--samples", 1, MAX_SAMPLES),
    (("lemma", *SU21_REAL_FORM), "--n-max", 0, MAX_CHAIN),
    (("lemma", *SU21_REAL_FORM), "--m-max", 0, MAX_CHAIN)])
def test_count_options_past_their_ceiling_exit_2_naming_the_option(
        tmp_path, capsys, argv, option, floor, cap):
    """The value at the cap parses; one past it is refused at parse."""
    assert getattr(build_parser().parse_args([*argv, option, str(cap)]),
                   option[2:].replace("-", "_")) == cap
    out = tmp_path / "report.json"
    status = run([*argv, option, str(cap + 1), "--out", str(out)])
    assert status == 2 and not out.exists()
    assert ("argument %s: expected an integer in [%d, %d), got '%d'"
            % (option, floor, cap + 1, cap + 1)) in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (("lemma", *SU21_REAL_FORM, "--n-max", "300", "--m-max", "300", "--samples", "1"),
     "--n-max"),
    (("check", *SU21_REAL_FORM, "--samples", "3000000"), "--samples")])
def test_the_out_of_memory_counts_exit_2_naming_the_option(tmp_path, capsys, argv,
                                                           option):
    """Under a 3 GB address-space limit both once ended in an
    _ArrayMemoryError traceback with exit 1."""
    out = tmp_path / "report.json"
    assert run([*argv, "--out", str(out)]) == 2 and not out.exists()
    assert "argument %s: expected an integer in [" % option in capsys.readouterr().err


def test_lemma_past_its_term_cap_exits_2_before_building_anything(tmp_path,
                                                                 monkeypatch):
    def refuse(*args):
        raise AssertionError("the pair was built")

    monkeypatch.setattr(cli, "_pair_from_args", refuse)
    status, rep = _run(tmp_path, "lemma", *SU21_REAL_FORM, "--samples", "241",
                       "--n-max", "16", "--m-max", "0")            # 4097 terms
    assert status == 2
    assert rep["results"] == {
        "error": "--samples, --n-max and --m-max: 241 * 17 * 1 lemma terms are more "
                 "than the %d allowed" % MAX_LEMMA_TERMS, "kind": "config"}


def test_a_falsified_lemma_exits_1_with_its_detail(tmp_path, monkeypatch):
    detail = {"n": 1, "m": 0, "kind": "auxiliary", "y": ["1", "0"], "residual": 2.0}

    def falsified(*args, **kw):
        raise LemmaFalsified("auxiliary chain escaped s", detail=detail)

    monkeypatch.setattr(cli, "verify_lemma_conclusion", falsified)
    status, rep = _run(tmp_path, "lemma", *SU21_REAL_FORM, "--samples", "1")
    assert status == 1
    assert rep["results"] == {"error": "auxiliary chain escaped s",
                              "kind": "lemma-falsified", "detail": detail}
    assert rep["summary"] == {"exit_status": 1, "passed": False}


@pytest.mark.parametrize("counts", [("1024", "0", "3"), ("4", "31", "31"),
                                    ("1", "32", "32")])
def test_lemma_up_to_its_term_cap_is_admitted(monkeypatch, counts):
    def admitted(*args, **kw):
        raise _Admitted

    monkeypatch.setattr(cli, "verify_lemma_conclusion", admitted)
    samples, n_max, m_max = counts
    with pytest.raises(_Admitted):
        run(["lemma", *SU21_REAL_FORM, "--samples", samples, "--n-max", n_max,
             "--m-max", m_max])


def test_roots_examples_past_the_work_cap_exit_2_before_any_example(tmp_path,
                                                                   monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("an example was built")

    monkeypatch.setattr(cli, "build_root_space_examples", refuse)
    status, rep = _run(tmp_path, "roots", "--space", "sl4r", "--examples",
                       "--samples", "1024")
    assert status == 2
    assert rep["results"] == {
        "error": "--samples and --examples: 24 examples * 1024 samples * 21 chain "
                 "vectors * 15^2 multiply-adds are more than the %d allowed"
                 % MAX_EXAMPLE_WORK, "kind": "config"}


@pytest.mark.parametrize("space, samples", [*((sid, "1024") for sid in SPACE_IDS),
                                            ("sl4r", "1")])
def test_roots_examples_up_to_the_work_cap_are_admitted(monkeypatch, space, samples):
    def admitted(*args, **kw):
        raise _Admitted

    monkeypatch.setattr(cli, "build_root_space_examples", admitted)
    with pytest.raises(_Admitted):
        run(["roots", "--space", space, "--examples", "--samples", samples])


def test_rank_3_roots_examples_take_the_unit_and_all_ones_x(tmp_path):
    """Rank 3 is the first rank whose X grid is the unit vectors of a and
    their sum: sl(4,R), six positive roots, four X each."""
    status, rep = _run(tmp_path, "roots", "--space", "sl4r", "--examples",
                       "--samples", "1")
    assert status == 0
    a = build_space("sl4r")
    xs = [a.from_labels(c) for c in ({"H1": 1}, {"H2": 1}, {"H3": 1},
                                     {"H1": 1, "H2": 1, "H3": 1})]
    examples = rep["results"]["examples"]
    assert len(examples) == 24
    assert [e["x"] for e in examples] == [coeff_strings(x) for x in xs] * 6
    assert all(e["passed"] for e in examples)


def _huge_s(n):
    """2^255 P1, (2^255 - 1) P2, ..., (2^255 - n + 1) Pn in decimal, the real
    form of su(n,1) at the 256-bit input cap."""
    return [{"P%d" % (k + 1): str(2 ** 255 - k)} for k in range(n)]


@pytest.mark.parametrize("argv, space, n, options, shapes", [
    (("verify", "--samples", "1024"), "su41", 4, "--samples",
     [(172, 1024, 18, 24), (172, 1024, 1, 576)]),
    (("lemma", "--samples", "3", "--n-max", "32", "--m-max", "32"), "su21", 2,
     "--samples, --n-max and --m-max", [(1285, 3, 1089, 8), (1285, 3, 33, 64)]),
    # each stack alone fits the budget, their sum does not: this verify once
    # exited 0 after 4.2 s at an 854 MB peak
    (("verify", "--samples", "1024"), "su31", 3, "--samples",
     [(132, 1024, 14, 15), (132, 1024, 1, 225)])])
def test_residue_stacks_past_the_budget_exit_2_before_they_are_built(tmp_path, argv,
                                                                     space, n, options,
                                                                     shapes):
    """A su21 verify once ended in an _ArrayMemoryError traceback with exit 1
    under a 3 GB address-space limit (a 2.62 GiB chain at 33 values of n),
    and the lemma peaked at 1175 MB.  The condition now checks n <= dim p,
    where su21 fits the budget at every count, so the verify runs on
    su(4,1).  The budget bounds the sum of the stacks.  Refused on the
    shapes, the run allocates far less than the stacks it names."""
    s_file = tmp_path / "s.json"
    s_file.write_text(json.dumps(_huge_s(n)))
    total = sum(math.prod(shape) for shape in shapes)
    if space == "su31":
        assert all(math.prod(shape) <= RESIDUE_BUDGET for shape in shapes)
    tracemalloc.start()
    try:
        status, rep = _run(tmp_path, argv[0], "--space", space, "--s", str(s_file),
                           "--X", "Q1", *argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert rep["results"] == {
        "error": "%s: residue stacks of shapes %s and %s hold %d int64 elements, more "
                 "than the %d allowed" % (options, *shapes, total, RESIDUE_BUDGET),
        "kind": "config"}
    assert peak < 8 * math.prod(shapes[0]) / 20


@pytest.mark.parametrize("argv", [
    *(("check", "--space", space, "--pair", pair, "--samples", "1024")
      for space, pair in (("su21", "real-form"), ("su21", "complex-hyperplane"),
                          ("su31", "real-form"), ("su31", "complex-hyperplane"),
                          ("so31", "geodesic-plane"))),
    *(("lemma", "--space", "su31", "--pair", pair, "--samples", samples,
       "--n-max", n_max, "--m-max", m_max)
      for pair in ("real-form", "complex-hyperplane")
      for samples, n_max, m_max in (("1024", "3", "0"), ("4", "31", "31"),
                                    ("3", "32", "32")))])
def test_every_catalog_pair_at_the_caps_fits_the_residue_budget(monkeypatch, argv):
    """The widest residue stacks of the catalog (su31 complex-hyperplane
    lemma at 4 samples, n_max = m_max = 31: 29 primes, a (29, 4, 1024, 15)
    stack) are admitted; the run stops once its stacks are."""
    fit = ChainResidues.fit

    def admitted(*args, **kw):
        fit(*args, **kw)
        raise _Admitted

    monkeypatch.setattr(ChainResidues, "fit", admitted)
    with pytest.raises(_Admitted):
        run(list(argv))


@pytest.mark.parametrize("argv, status", [
    (("construct", "--pair", "real-form", "--t-steps", "1", "--y-steps", "1",
      "--tolerance", "0"), 0),
    (("bisector", "--pair", "complex-hyperplane", "--grid-steps", "2", "--r", "1e-3"), 0)])
def test_bound_options_at_their_floor_run(tmp_path, argv, status):
    """A tolerance of 0 is admitted and measured against: the real-form
    pair's closed form reads exactly 0 on every node, so it passes."""
    assert _run(tmp_path, argv[0], "--space", "su21", *argv[1:])[0] == status


@pytest.mark.parametrize("argv", [
    ("check", "--space", "su21", "--pair", "real-form", "--samples", "1"),
    ("roots", "--space", "su21")])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seeds_outside_uint64_exit_2_naming_the_option(tmp_path, capsys, argv, seed):
    """rng.stream keys a numpy uint64 with the seed; -1 and 2^64 once ended in
    OverflowError tracebacks with exit 1."""
    out = tmp_path / "report.json"
    status = run([*argv, "--seed=" + seed, "--out", str(out)])
    assert status == 2 and not out.exists()
    want = ">= 0" if seed == "-1" else "in [0, %d)" % 2 ** 64
    assert ("argument --seed: expected an integer %s, got %r"
            % (want, seed)) in capsys.readouterr().err


def test_the_largest_uint64_seed_runs(tmp_path):
    status, rep = _run(tmp_path, "check", "--space", "su21", "--pair", "real-form",
                       "--samples", "1", "--seed=%d" % (2 ** 64 - 1))
    assert status == 0 and rep["config"]["seed"] == 2 ** 64 - 1


def test_a_residual_past_float64_exits_3_naming_it(tmp_path):
    """A basis coefficient of 2^200 (inside the input cap) drives the sl3r
    control's hypothesis terms past float64; casting the squared residual
    once ended in an OverflowError traceback with exit 1."""
    s_file = tmp_path / "s.json"
    s_file.write_text(json.dumps([{"S12": 2 ** 200}]))
    status, rep = _run(tmp_path, "lemma", "--space", "sl3r", "--s", str(s_file),
                       "--X", "bad", "--samples", "1")
    assert status == 3 and rep["results"]["kind"] == "numerical"
    assert "squared B_theta residual of about 2^" in rep["results"]["error"]
    assert "overflows float64" in rep["results"]["error"]
