"""A request on plans that served other requests prints the bytes it prints
in a fresh process.

The condition and the lemma keep what they derive from (s, X) in the
subspace's certify plan (extension.CertifyPlan).  Catalog pairs live as long
as the process, a --s subspace on a catalog space lives in one slot of the
CLI, keyed by the algebra and the exact rows of its file, and a file algebra
keeps nothing.  Nothing in a plan depends on Y or on the seed, and roots
keeps nothing between requests.  So every certify and every
cold-algebra shape of the benchmark, the roots and the verify ones
(perfbench/mixes.py, loaded by path and read, never edited here), run twice
in this process with one --seed, must report what the same argv reports
when it runs first in a fresh interpreter, after report.strip_wall_time.

The tests after it hold the catalog --s slot to that: a repeated request
builds nothing, two bases of one span keep their own reports, a refused s
is refused every time, and a file algebra is freed with its request.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

from conftest import load_by_path
from transvector import cli, data, exactla, liealg, roots, subspaces
from transvector.algfile import parse_algebra_file, serialize_algebra
from transvector.catalog import build_pair, build_space
from transvector.cli import run
from transvector.report import strip_wall_time
from transvector.subspaces import Subspace

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


def _fresh(argv):
    """The completed process of cli.run(argv) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-c", "import sys, transvector.cli; "
         "sys.exit(transvector.cli.run(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_a_warm_plan_reports_the_bytes_of_a_fresh_process(work, warm, key):
    out = work / ("cold-%s.json" % key.replace(":", "").replace(" ", "-"))
    proc = _fresh(_argv(key, work, out))
    assert proc.stderr == ""
    cold = (proc.returncode, strip_wall_time(out.read_text()))
    assert warm[key] == [cold, cold]


# -- the catalog --s slot (cli._catalog_subspace) ------------------------------

def _write(path, vectors):
    path.write_text(json.dumps(vectors))
    return str(path)


def _report(argv, out):
    status = run(argv + ["--out", str(out)])
    return status, strip_wall_time(out.read_text())


@pytest.mark.parametrize("command", ["verify", "check", "lemma"])
def test_a_repeated_catalog_s_request_builds_no_subspace_and_no_null_rows(
        tmp_path, count_calls, command):
    """The second run of the sl(3,R) control on the same --s file takes s
    from the slot: no Subspace is constructed and no exactla.nullspace runs,
    in any module that binds it, and the report is the first one's."""
    control = _write(tmp_path / "control.json", [{"S12": "1"}])
    argv = [command, "--space", "sl3r", "--s", control, "--X", "bad", *SEED]
    first = _report(argv, tmp_path / "first.json")
    built = count_calls(Subspace, "__init__")
    kernels = [count_calls(m, "nullspace") for m in (exactla, liealg, roots, subspaces)]
    assert _report(argv, tmp_path / "second.json") == first
    assert first[0] == 1
    assert built == [] and all(k == [] for k in kernels)


def test_two_bases_of_one_span_keep_their_own_witnesses(tmp_path):
    """span(S12, H1) in sl(3,R) given as [S12, H1] (A) and as [S12 + H1, H1]
    (B): Y is drawn on the basis, so A and B print different witnesses.  A,
    B, A in one process each report what a fresh interpreter reports."""
    a = _write(tmp_path / "a.json", [{"S12": 1}, {"H1": 1}])
    b = _write(tmp_path / "b.json", [{"S12": 1, "H1": 1}, {"H1": 1}])
    fresh, witnesses = {}, []
    for name in (a, b):
        out = tmp_path / "fresh.json"
        proc = _fresh(["verify", "--space", "sl3r", "--s", name, "--X", "bad", *SEED,
                       "--out", str(out)])
        assert proc.stderr == ""
        fresh[name] = (proc.returncode, strip_wall_time(out.read_text()))
        witnesses.append(json.loads(out.read_text())["results"]["condition"]["witness"])
    assert fresh[a][0] == fresh[b][0] == 1
    assert witnesses[0]["y"] != witnesses[1]["y"]
    for name in (a, b, a):
        assert _report(["verify", "--space", "sl3r", "--s", name, "--X", "bad", *SEED],
                       tmp_path / "warm.json") == fresh[name]


@pytest.mark.parametrize("vectors, error", [
    ([{"P1": 1}, {"P2": 1}, {"Q1": 1}],
     "s is not a Lie triple system; witness: {'triple': (0, 1, 2), "),
    ([{"P1": 1}, {"P1": 2}], "subspace basis is linearly dependent"),
], ids=["no-triple-system", "dependent-basis"])
def test_a_refused_catalog_s_is_refused_on_every_request(tmp_path, vectors, error):
    """On su(2,1) with X = Q2, span(P1, P2, Q1) is no Lie triple system and
    [P1, 2 P1] is no basis: each is refused with its message on every one
    of three runs, after a good --s has filled the slot and between them."""
    good = _write(tmp_path / "good.json", [{"P1": 1}, {"P2": 1}])
    bad = _write(tmp_path / "bad.json", vectors)
    for _ in range(3):
        assert _report(["verify", "--space", "su21", "--s", good, "--X", "Q1"],
                       tmp_path / "good-out.json")[0] == 0
        for _ in range(2):
            out = tmp_path / "bad-out.json"
            status = run(["verify", "--space", "su21", "--s", bad, "--X", "Q2",
                          "--out", str(out)])
            results = json.loads(out.read_text())["results"]
            assert status == 2 and results["kind"] == "config"
            assert error in results["error"]


def test_a_file_algebra_is_freed_when_its_request_returns(tmp_path, monkeypatch):
    """verify --algebra-file keeps nothing: with the cyclic collector off, the
    parsed algebra is gone once cli.run returns, after a request that fills
    and one that reuses every cache a catalog space would."""
    alg = tmp_path / "su21.alg"
    serialize_algebra(build_space("su21"), str(alg))
    s = _write(tmp_path / "s.json", [{"P1": 1}, {"P2": 1}])
    parsed = []

    def parse(path):
        algebra = parse_algebra_file(path)
        parsed.append(weakref.ref(algebra))
        return algebra

    monkeypatch.setattr(cli, "parse_algebra_file", parse)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert run(["verify", "--algebra-file", str(alg), "--s", s, "--X", "Q1",
                        "--out", str(tmp_path / "out.json")]) == 0
            assert parsed[-1]() is None
    finally:
        gc.enable()


# -- one cache entry per space, whatever the spelling ---------------------------

SPELLINGS = [
    ["check", "--space", "SU21", "--pair", "real-form"],
    ["check", "--space", "su21", "--pair", "real-form"],
    ["verify", "--space", "SL3R", "--s", os.path.join(HERE, "golden", "control.json"),
     "--X", "bad"],
    ["verify", "--space", " sl3r", "--s", os.path.join(HERE, "golden", "control.json"),
     "--X", "bad"],
]

_COUNTING = """
import json, sys
from transvector import catalog, cli, liealg, subspaces
from transvector.report import strip_wall_time
built = {"PairResidues": 0, "Subspace": 0}
for cls in (liealg.PairResidues, subspaces.Subspace):
    def counting(self, *args, _plain=cls.__init__, _name=cls.__name__):
        built[_name] += 1
        _plain(self, *args)
    cls.__init__ = counting
runs = []
for argv in json.loads(sys.argv[2]):
    before = dict(built)
    status = cli.run(argv + ["--out", sys.argv[1]])
    with open(sys.argv[1]) as fh:
        text = fh.read()
    runs.append([status, strip_wall_time(text), json.loads(text)["config"]["space"],
                 {k: built[k] - before[k] for k in built}])
print(json.dumps({"runs": runs, "spaces": catalog.build_space.cache_info().currsize,
                  "pairs": catalog.build_pair.cache_info().currsize}))
"""


def test_every_spelling_of_a_space_shares_one_algebra_and_one_pair():
    assert build_space("SU31") is build_space("su31") is build_space(" su31 ")
    assert build_pair("SU21", "real-form") is build_pair("su21", "real-form")


def test_a_second_spelling_of_a_space_builds_nothing_and_reports_fresh_bytes(tmp_path):
    """One process runs each request after the other spelling of its space:
    the second builds no PairResidues and no Subspace, each cache holds one
    entry per space, the config echoes the spelling given, and each report
    is the one a fresh interpreter prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    argvs = [argv + list(SEED) for argv in SPELLINGS]
    proc = subprocess.run([sys.executable, "-c", _COUNTING, str(tmp_path / "warm.json"),
                           json.dumps(argvs)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    warm = json.loads(proc.stdout)
    assert (warm["spaces"], warm["pairs"]) == (2, 1)
    for argv, (status, text, space, built) in zip(argvs, warm["runs"]):
        out = tmp_path / "fresh.json"
        fresh = _fresh(argv + ["--out", str(out)])
        assert fresh.stderr == ""
        assert [status, text] == [fresh.returncode, strip_wall_time(out.read_text())]
        assert space == argv[2]
    first, second = warm["runs"][::2], warm["runs"][1::2]
    assert all(min(run[3].values()) > 0 for run in first)
    assert all(max(run[3].values()) == 0 for run in second)
