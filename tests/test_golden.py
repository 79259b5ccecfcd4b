"""Golden reports: every command below must reproduce its stored report byte
for byte after report.strip_wall_time, with the same exit status.

The commands run inside tests/golden, so the input paths echoed in each
report's config are the bare file names stored next to the reports.  To
regenerate after an intended report change:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import os
import re
import sys
import tempfile

import pytest

from transvector.cli import run
from transvector.report import strip_wall_time

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = {
    "check-su21-real-form": ["check", "--space", "su21", "--pair", "real-form",
                             "--samples", "16"],
    "check-su21-complex-hyperplane": ["check", "--space", "su21", "--pair",
                                      "complex-hyperplane", "--samples", "16",
                                      "--seed", "3"],
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
    "lemma-so31": ["lemma", "--space", "so31", "--pair", "geodesic-plane",
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
    "construct-su21": ["construct", "--space", "su21", "--pair", "real-form",
                       "--t-steps", "3", "--y-steps", "3"],
    # the frozen-t stencil (m = dim s), the Christoffel path on the second
    # pair, SpacePoint/distance and the t = 0 recertification
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


def _regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            status, text = _report(name, os.path.join(tmp, "report.json"))
            with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
                fh.write(text)
            print("%-32s exit %d" % (name, status))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _regenerate()
