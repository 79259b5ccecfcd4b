"""Every request the benchmark times passes its own known-answer check.

perfbench/mixes.py holds each workload's request shapes and the check each
report must pass; a report whose shape changed (a key renamed, a verdict
mode the check does not expect) would reach the benchmark as a failed
request, not as a failed test.  Here each workload's inputs are written
under a temporary directory by the benchmark's own write_inputs, and the
timed argv of every light and heavy shape runs once through cli.run.  The
file is loaded by path and read, never edited here.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import load_by_path
from transvector import data
from transvector.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
MIXES = load_by_path("_perfbench_mixes", os.path.join(HERE, os.pardir, "perfbench",
                                                      "mixes.py"))
# the largest seed Mix.round draws is 2^31 - 1
SEED = ("--seed", "2147483647")


def _shapes():
    for workload, build in sorted(MIXES.WORKLOADS.items()):
        light, heavy = build()
        for shape in light + [s for group in heavy for s in group]:
            yield "%s: %s" % (workload, shape.key), (workload, shape)


SHAPES = dict(_shapes())


@pytest.fixture(scope="module")
def works(tmp_path_factory):
    """Each workload's input directory, as write_inputs fills it."""
    out = {}
    for workload in MIXES.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        MIXES.write_inputs(workload, str(work), os.path.dirname(data.__file__))
        out[workload] = str(work)
    return out


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_every_timed_request_passes_its_known_answer(works, key):
    workload, shape = SHAPES[key]
    work = works[workload]
    out = os.path.join(work, "report.json")
    argv = [a.replace("{work}", work) for a in shape.argv] + list(SEED) + ["--out", out]
    status = run(argv)
    with open(out) as fh:
        report = json.load(fh)
    assert shape.check(status, report) is None, (argv, status, report["results"])
