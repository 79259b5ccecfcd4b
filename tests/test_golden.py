"""Golden reports: every command below must reproduce its stored report byte
for byte after report.strip_wall_time, with the same exit status.

The commands run inside tests/golden, so the input paths echoed in each
report's config are the bare file names stored next to the reports.  To
see how far a change moves each report, key path by key path, without
writing anything, then regenerate after an intended report change:

    PYTHONPATH=src python tests/test_golden.py --drift
    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile

import pytest

from transvector.cli import run
from transvector.report import render, strip_wall_time

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = {
    "check-su21-real-form": ["check", "--space", "su21", "--pair", "real-form",
                             "--samples", "16"],
    "check-su21-complex-hyperplane": ["check", "--space", "su21", "--pair",
                                      "complex-hyperplane", "--samples", "16",
                                      "--seed", "3"],
    # the boundary of the lattice rule: su21's principal lattice has exactly
    # 6 points, so --samples 6 takes it (exact-complete) and 5 would not
    "check-su21-real-form-samples6": ["check", "--space", "su21", "--pair", "real-form",
                                      "--samples", "6"],
    "check-so31": ["check", "--space", "so31", "--pair", "geodesic-plane",
                   "--samples", "16"],
    "check-su31-real-form": ["check", "--space", "su31", "--pair", "real-form",
                             "--samples", "2"],
    "check-su21-rational-x": ["check", "--space", "su21", "--pair", "real-form",
                              "--X", "1/2*Q1 + 1/3*Q2", "--samples", "8"],
    "lemma-su21-real-form": ["lemma", "--space", "su21", "--pair", "real-form",
                             "--samples", "1"],
    "lemma-su21-complex-hyperplane": ["lemma", "--space", "su21", "--pair",
                                      "complex-hyperplane", "--samples", "1"],
    # the default --samples 4: a passed lemma prints one record per sample,
    # every one the same
    "lemma-su21-complex-hyperplane-samples4": ["lemma", "--space", "su21", "--pair",
                                               "complex-hyperplane", "--seed", "7"],
    "lemma-so31": ["lemma", "--space", "so31", "--pair", "geodesic-plane",
                   "--samples", "1"],
    # the only lemma report with nonzero hypothesis residuals (exit 1)
    "lemma-sl3r-control": ["lemma", "--space", "sl3r", "--s", "control.json",
                           "--X", "bad", "--samples", "2"],
    # the widest lemma chains of the catalog
    "lemma-su31-real-form": ["lemma", "--space", "su31", "--pair", "real-form",
                             "--samples", "1"],
    "verify-su21": ["verify", "--space", "su21", "--s", "su21-real-form.json",
                    "--X", "Q1", "--samples", "8"],
    "verify-sl3r-control": ["verify", "--space", "sl3r", "--s", "control.json",
                            "--X", "bad"],
    "verify-sl3r-rational-x": ["verify", "--space", "sl3r", "--s", "control.json",
                               "--X", "1/2*H1 + 1/3*S13"],
    "verify-rational-algebra": ["verify", "--algebra-file", "su21half.alg",
                                "--s", "su21-real-form.json", "--X", "Q1",
                                "--samples", "8"],
    "roots-su21": ["roots", "--space", "su21", "--examples", "--samples", "1"],
    "roots-so31": ["roots", "--space", "so31", "--examples", "--samples", "1"],
    "roots-sl3r": ["roots", "--space", "sl3r", "--examples", "--samples", "1"],
    # rank 3 (six positive roots, four X each), and the rank-one su(3,1),
    # whose 2 lambda root space is one-dimensional under a four-dimensional
    # p_lambda
    "roots-sl4r": ["roots", "--space", "sl4r", "--examples", "--samples", "2"],
    "roots-su31": ["roots", "--space", "su31", "--examples", "--samples", "2"],
    # the largest exact eliminations of a freshly parsed file: su31.alg is
    # the catalog su(3,1) written by algfile.serialize_algebra
    "roots-su31-file": ["roots", "--algebra-file", "su31.alg"],
    "verify-su31-file": ["verify", "--algebra-file", "su31.alg",
                         "--s", "su31-real-form.json", "--X", "Q1"],
    "construct-su21": ["construct", "--space", "su21", "--pair", "real-form",
                       "--t-steps", "3", "--y-steps", "3"],
    # the frozen-t slice (--baseline) on the second pair: totally geodesic,
    # so every norm is 0 by proof, and the chart point of each node
    "construct-su21-baseline": ["construct", "--space", "su21", "--pair",
                                "complex-hyperplane", "--baseline",
                                "--tolerance", "1e-5",
                                "--t-steps", "3", "--y-steps", "3"],
    "construct-su21-distance-law": ["construct", "--space", "su21", "--pair",
                                    "complex-hyperplane", "--distance-law",
                                    "--t-steps", "3", "--y-steps", "3"],
    "construct-su21-real-form-distance-law": ["construct", "--space", "su21",
                                              "--pair", "real-form",
                                              "--distance-law", "--t-steps",
                                              "3", "--y-steps", "3"],
    "bisector-su21-complex-hyperplane": ["bisector", "--space", "su21", "--pair",
                                         "complex-hyperplane", "--grid-steps", "3"],
    "bisector-su21-real-form": ["bisector", "--space", "su21", "--pair",
                                "real-form", "--grid-steps", "3"],
    # exit 2: corrupted copies of sl2r.alg; the message pins the residuals,
    # the failed checks and the Jacobi witness
    "roots-bad-jacobi": ["roots", "--algebra-file", "bad-jacobi.alg"],
    "roots-bad-theta": ["roots", "--algebra-file", "bad-theta.alg"],
    "roots-huge-commutator": ["roots", "--algebra-file", "huge-commutator.alg"],
    "roots-huge-jacobi": ["roots", "--algebra-file", "huge-jacobi.alg"],
    "roots-rational-jacobi": ["roots", "--algebra-file", "rational-jacobi.alg"],
    # catalog algebras in other bases (tests/conftest.py REBASED_FIXTURES):
    # so31 whose roots are irrational on the a found (exit 2), and su21 whose
    # roots have denominator 97 (exact)
    "roots-rebased-so31": ["roots", "--algebra-file", "rebased-so31.alg"],
    "roots-scaled-su21": ["roots", "--algebra-file", "scaled-su21.alg"],
}


def _report(name: str, out: str):
    """(exit status, stripped report text) of one command run in GOLDEN."""
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        status = run(COMMANDS[name] + ["--out", out])
    finally:
        os.chdir(cwd)
    with open(out) as fh:
        return status, strip_wall_time(fh.read())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path):
    status, text = _report(name, str(tmp_path / "report.json"))
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        golden = fh.read()
    assert status == int(re.search(r'"exit_status": (\d+)', golden).group(1))
    assert text == golden


def _leaves(text: str) -> dict:
    """Key path -> leaf of a stripped report (results.bisector.witness.t,
    results.curvature.entries[3].point[0]).  strip_wall_time leaves a comma
    before the closing brace of the summary; a raw newline never stands
    inside a JSON string, so a comma before a newline and a closing bracket
    is that one."""
    out = {}

    def walk(node, path):              # an empty dict or list is a leaf
        if isinstance(node, dict) and node:
            for key, value in node.items():
                walk(value, "%s.%s" % (path, key) if path else key)
        elif isinstance(node, list) and node:
            for i, value in enumerate(node):
                walk(value, "%s[%d]" % (path, i))
        else:
            out[path] = node

    walk(json.loads(re.sub(r",\n(\s*[}\]])", r"\n\1", text)), "")
    return out


def _drift(old: str, new: str):
    """(float leaves changed, worst absolute change, its key path, the other
    changes) of the report text new against old, compared key path by key
    path: a float leaf is one that is a float on both sides; every other
    change is a path added (+), removed (-) or changed (~)."""
    old, new = _leaves(old), _leaves(new)
    floats, worst, where, other = 0, 0.0, None, []
    for path in sorted(old.keys() | new.keys()):
        if path not in new or path not in old:
            other.append(("-" if path in old else "+") + path)
        elif isinstance(old[path], float) and isinstance(new[path], float):
            if old[path] != new[path]:
                floats += 1
                if abs(new[path] - old[path]) > worst:
                    worst, where = abs(new[path] - old[path]), path
        elif old[path] != new[path] or type(old[path]) is not type(new[path]):
            other.append("~" + path)
    return floats, worst, where, other


def _fresh_reports():
    """(name, exit status, stripped report text) of every command, run now."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            yield (name,) + _report(name, os.path.join(tmp, "report.json"))


def _print_drift():
    for name, status, text in _fresh_reports():
        with open(os.path.join(GOLDEN, name + ".json")) as fh:
            golden = fh.read()
        was = int(re.search(r'"exit_status": (\d+)', golden).group(1))
        floats, worst, where, other = _drift(golden, text)
        print("%-40s exit %d->%d  %3d float leaves changed, worst %.3g%s, "
              "%d other changes%s" % (name, was, status, floats, worst,
                                      " at " + where if where else "", len(other),
                                      ": " + " ".join(other) if other else ""))


def _regenerate():
    for name, status, text in _fresh_reports():
        with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
            fh.write(text)
        print("%-32s exit %d" % (name, status))


if __name__ == "__main__":
    modes = {"--regenerate": _regenerate, "--drift": _print_drift}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py "
                 "--drift | --regenerate")
    modes[sys.argv[1]]()


def test_drift_compares_reports_key_path_by_key_path():
    """A report that loses one key counts one other change, not one for
    every line after it; a float that moves is a float leaf, named with its
    worst change."""
    report = {"results": {"a": 1.0, "b": {"c": [0.5, 2.0], "d": "x"}, "e": 3.0},
              "summary": {"exit_status": 0}, "wall_time_s": 0.1}
    text = strip_wall_time(render(report))
    del report["results"]["a"]
    report["results"]["b"]["c"][1] = 2.25
    report["results"]["e"] = 3.5
    floats, worst, where, other = _drift(text, strip_wall_time(render(report)))
    assert (floats, worst, where, other) == (2, 0.5, "results.e", ["-results.a"])
    assert _drift(text, text) == (0, 0.0, None, [])
    report["results"]["b"]["d"], report["results"]["f"] = None, 1
    assert _drift(text, strip_wall_time(render(report)))[3] == [
        "-results.a", "~results.b.d", "+results.f"]
