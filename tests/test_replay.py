"""A request on plans that served other requests prints the bytes it prints
in a fresh process.

The condition and the lemma keep what they derive from (s, X) in the
subspace's certify plan (extension.CertifyPlan), and catalog subspaces live
as long as the process.  Nothing in a plan depends on Y or on the seed, and
roots keeps nothing between requests.  So every certify and every
cold-algebra shape of the benchmark, the roots and the verify ones
(perfbench/mixes.py, loaded by path and read, never edited here), run twice
in this process with one --seed, must report what the same argv reports
when it runs first in a fresh interpreter, after report.strip_wall_time.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import load_by_path
from transvector import data
from transvector.cli import run
from transvector.report import strip_wall_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
MIXES = load_by_path("_perfbench_mixes", os.path.join(HERE, os.pardir, "perfbench",
                                                      "mixes.py"))
SEED = ("--seed", "1234567")


def _shapes():
    for workload in ("certify", "cold-algebra"):
        light, heavy = MIXES.WORKLOADS[workload]()
        for shape in light + [s for group in heavy for s in group]:
            yield "%s: %s" % (workload, shape.key), shape.argv


SHAPES = dict(_shapes())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("replay")
    MIXES.write_inputs("cold-algebra", str(work), os.path.dirname(data.__file__))
    return work


def _argv(key, work, out):
    return ([a.replace("{work}", str(work)) for a in SHAPES[key]]
            + list(SEED) + ["--out", str(out)])


@pytest.fixture(scope="module")
def warm(work):
    """(exit status, stripped report) of every shape, twice each: two
    passes over all of them in this process."""
    runs = {key: [] for key in SHAPES}
    out = work / "warm.json"
    for _ in range(2):
        for key in SHAPES:
            status = run(_argv(key, work, out))
            runs[key].append((status, strip_wall_time(out.read_text())))
    return runs


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_a_warm_plan_reports_the_bytes_of_a_fresh_process(work, warm, key):
    out = work / ("cold-%s.json" % key.replace(":", "").replace(" ", "-"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, transvector.cli; "
         "sys.exit(transvector.cli.run(sys.argv[1:]))", *_argv(key, work, out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    cold = (proc.returncode, strip_wall_time(out.read_text()))
    assert warm[key] == [cold, cold]
