"""Every request the benchmark sends, and every golden command, parses.

perfbench/mixes.py builds the benchmark's argv lists and tests/test_golden.py
holds the golden commands; a ceiling on a count option that refused one of
them would turn benchmark requests into failures or leave a golden
unreachable.  Both files are loaded by path and read, never edited here.
"""

from __future__ import annotations

import os

import pytest

from conftest import load_by_path
from transvector.cli import build_parser

HERE = os.path.dirname(os.path.abspath(__file__))
MIXES = os.path.join(HERE, os.pardir, "perfbench", "mixes.py")
# the largest seed Mix.round draws is 2^31 - 1
BENCH_SEED = ("--seed", "2147483647")


def _bench_argvs():
    mixes = load_by_path("_perfbench_mixes", MIXES)
    for workload, build in sorted(mixes.WORKLOADS.items()):
        light, heavy = build()
        for shape in light + [s for group in heavy for s in group]:
            argv = [a.replace("{work}", "work") for a in shape.argv]
            yield "%s: %s" % (workload, shape.key), argv + list(shape.warmup)
            yield "%s: %s timed" % (workload, shape.key), argv + list(BENCH_SEED)


def _golden_argvs():
    golden = load_by_path("_golden_commands", os.path.join(HERE, "test_golden.py"))
    for name, argv in sorted(golden.COMMANDS.items()):
        yield "golden " + name, argv


ARGVS = dict(list(_bench_argvs()) + list(_golden_argvs()))


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_the_parser_accepts_every_benchmark_and_golden_argv(name):
    args = build_parser().parse_args(ARGVS[name])
    assert args.command == ARGVS[name][0]
