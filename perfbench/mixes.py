"""Request mixes of the benchmark and the known answers their verdicts must match.

A workload is a sequence of rounds.  Round ``r`` holds every *light* request
shape ``copies`` times plus the heavy group ``heavy[r % len(heavy)]``; the
workload seed shuffles each round and draws every ``--seed`` handed to the
program.  The copies are chosen so that the p50 and the p90 of a round fall in
the middle of a block of requests of one cost, not on a jump between costs,
where a little noise would move them far.  The heavy groups hold the su(3,1)
requests, 5-12x the cost of the rest; with one group a round they stay ~5%
of the requests and 100 requests fit in one run.

Every expected verdict below comes from the paper and the acceptance contract
(certified pairs have exactly zero residuals, the sl(3,R) control fails at
n = 0, the su(2,1) extensions are minimal, the complex hyperplane is
equidistant and the real form is not, root rules hold exactly), never from
running the code under test.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass

# The paper's reflective pairs: s basis and the unit normal direction X.
PAIRS = {
    ("su21", "real-form"): (("P1", "P2"), "Q1"),
    ("su21", "complex-hyperplane"): (("P1", "Q1"), "P2"),
    ("su31", "real-form"): (("P1", "P2", "P3"), "Q1"),
    ("su31", "complex-hyperplane"): (("P1", "Q1", "P2", "Q2"), "P3"),
    ("so31", "geodesic-plane"): (("P1", "P2"), "P3"),
}
CONTROL_S = ("S12",)          # sl(3,R) negative control: s = span(S12), X = H1 + S13
CATALOG_ALGEBRAS = ("su21", "so31", "sl3r", "su31")
# Grids of the construct requests: 3x3x3 nodes (the corners and the centre of
# the default 5x5x5 grid) and a 5x5x5 bisector grid.  The CLI defaults cost
# ~0.55 s a request, too slow for 100 timed requests inside one run.
CONSTRUCT_GRID = ("--t-steps", "3", "--y-steps", "3")
BISECTOR_GRID = ("--grid-steps", "5")


@dataclass(frozen=True)
class Shape:
    """One kind of request: argv (with {work} for the input directory), the
    known answer, the lighter argv suffix used by the warm-up pass, and how
    many copies a round holds."""

    key: str
    argv: tuple
    check: object
    warmup: tuple = ()
    copies: int = 1


# -- known answers -----------------------------------------------------------

def expect_certified(status, rep):
    """Exit 0 and every sampled residual exactly 0."""
    cond = rep["results"]["condition"]
    if status != 0 or not cond["holds"]:
        return "exit %d, holds=%s; expected a certified pair" % (status, cond["holds"])
    if any(r != 0 for r in cond["per_n_worst_residual"]) or cond["checked"] < 1:
        return "nonzero residuals %s" % cond["per_n_worst_residual"]
    return None


def expect_lemma(status, rep):
    checks = rep["results"]["lemma_checks"]
    if status != 0 or not checks:
        return "exit %d with %d lemma checks" % (status, len(checks))
    bad = [c for c in checks if c["status"] != "passed" or c["worst_residual"] != 0]
    return "lemma residuals not exactly zero: %s" % bad[0] if bad else None


def expect_control(status, rep):
    """The sl(3,R) control violates the condition at the first bracket."""
    cond = rep["results"].get("condition") or {}
    witness = cond.get("witness") or {}
    if status != 1 or cond.get("holds") is not False or witness.get("n") != 0:
        return "exit %d, witness %s; expected exit 1 with a witness at n = 0" % (
            status, witness)
    return None


def expect_minimal(tol, distance_law=False):
    def check(status, rep):
        res = rep["results"]
        norm = res["curvature"]["max_norm"]
        if status != 0 or not norm <= tol:
            return "exit %d, max_norm %r above %g" % (status, norm, tol)
        if distance_law and not res["distance_law"]["passed"]:
            return "distance law failed: %s" % res["distance_law"]
        return None
    return check


def expect_bisector(equidistant):
    def check(status, rep):
        delta = rep["results"]["bisector"]["max_delta"]
        ok = delta <= 1e-8 if equidistant else delta >= 1e-2
        if status != 0 or not ok:
            return "exit %d, max_delta %r (equidistant expected: %s)" % (
                status, delta, equidistant)
        return None
    return check


def expect_roots(status, rep):
    rules = rep["results"]["rules"]
    bad = {k: v["worst_residual"] for k, v in rules["rules"].items()
           if not v["holds"] or v["worst_residual"] != 0}
    if status != 0 or not rules["passed"] or bad or not rules["rules"]:
        return "exit %d, root rules not exact: %s" % (status, bad)
    return None


# -- workloads ----------------------------------------------------------------

def _tag(space, pair):
    return space + ("" if pair == "geodesic-plane" else "-" + pair)


def _certify():
    # su(2,1), so(3,1) and the control 5 copies a round, one su(3,1) pair
    light, heavy = [], []
    for (space, pair) in PAIRS:
        group = [Shape("check " + _tag(space, pair),
                       ("check", "--space", space, "--pair", pair),
                       expect_certified, ("--samples", "1"), 5),
                 Shape("lemma " + _tag(space, pair),
                       ("lemma", "--space", space, "--pair", pair),
                       expect_lemma, ("--samples", "1"), 5)]
        if space == "su31":
            heavy.append(group)
        else:
            light.extend(group)
    light.append(Shape("verify sl3r-control",
                       ("verify", "--space", "sl3r", "--s", "{work}/control.json",
                        "--X", "bad"), expect_control, (), 5))
    return light, heavy


def _construct():
    # the plain construct request 3 copies a round: it holds the p50 and the p90
    light = []
    for pair in ("real-form", "complex-hyperplane"):
        base = ("--space", "su21", "--pair", pair)
        tiny = ("--t-steps", "1", "--y-steps", "1")
        light += [
            Shape("construct su21-" + pair, ("construct",) + base + CONSTRUCT_GRID,
                  expect_minimal(1e-4), tiny, 3),
            Shape("baseline su21-" + pair,
                  ("construct",) + base + CONSTRUCT_GRID + ("--baseline", "--tolerance", "1e-5"),
                  expect_minimal(1e-5), tiny),
            Shape("distance-law su21-" + pair,
                  ("construct",) + base + CONSTRUCT_GRID + ("--distance-law",),
                  expect_minimal(1e-4, distance_law=True), tiny),
            Shape("bisector su21-" + pair, ("bisector",) + base + BISECTOR_GRID,
                  expect_bisector(pair == "complex-hyperplane"), ("--grid-steps", "1")),
        ]
    return light, []


def _verify_shape(space, pair, copies=1):
    _, x = PAIRS[(space, pair)]
    return Shape("verify file-" + _tag(space, pair),
                 ("verify", "--algebra-file", "{work}/%s.alg" % space,
                  "--s", "{work}/%s.json" % _tag(space, pair), "--X", x),
                 expect_certified, ("--samples", "1"), copies)


def _roots_shape(alg, copies=1):
    return Shape("roots file-" + alg, ("roots", "--algebra-file", "{work}/%s.alg" % alg),
                 expect_roots, (), copies)


def _cold_algebra():
    # the p50 falls between the two ~0.11 s verify shapes, the p90 among the
    # su(2,1) verify requests; both su(3,1) requests in every round, since
    # their costs differ by half
    light = [_roots_shape("sl2r", 8), _roots_shape("so31", 8),
             _roots_shape("su21", 4), _roots_shape("sl3r", 4),
             _verify_shape("su21", "real-form", 4),
             _verify_shape("su21", "complex-hyperplane", 4),
             _verify_shape("so31", "geodesic-plane", 4),
             Shape("verify file-sl3r-control",
                   ("verify", "--algebra-file", "{work}/sl3r.alg",
                    "--s", "{work}/control.json", "--X", "bad"), expect_control, (), 4)]
    heavy = [[_roots_shape("su31"), _verify_shape("su31", "real-form")]]
    return light, heavy


WORKLOADS = {"certify": _certify, "construct": _construct,
             "cold-algebra": _cold_algebra}


class Mix:
    """The seeded request stream of one workload."""

    def __init__(self, workload: str, seed: int, work: str):
        self.work = work
        self.light, self.heavy = WORKLOADS[workload]()
        self.rng = random.Random(seed)
        self.offset = self.rng.randrange(max(1, len(self.heavy)))

    @property
    def rotation(self) -> int:
        """Rounds after which every heavy group has appeared once."""
        return max(1, len(self.heavy))

    def _argv(self, shape, extra=()):
        argv = [a.replace("{work}", self.work) for a in shape.argv]
        return argv + list(extra) + ["--out", os.path.join(self.work, "report.json")]

    def round(self, r: int):
        """[(argv, shape)] of round r, shuffled, each with a fresh --seed."""
        shapes = [s for s in self.light for _ in range(s.copies)]
        if self.heavy:
            shapes += self.heavy[(r + self.offset) % len(self.heavy)]
        self.rng.shuffle(shapes)
        return [(self._argv(s, ("--seed", str(self.rng.randrange(2 ** 31)))), s)
                for s in shapes]

    def warmup(self):
        """Every shape once, with the lighter sizes: fills the space and
        geometry caches without paying for full sample counts."""
        shapes = self.light + [s for g in self.heavy for s in g]
        return [(self._argv(s, s.warmup), s) for s in shapes]


def write_inputs(workload: str, work: str, data_dir: str):
    """Input files of a workload: subspace JSON and, for cold-algebra, the
    catalog algebras serialized next to the bundled sl2r.alg."""
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "control.json"), "w") as fh:
        json.dump([{lab: "1"} for lab in CONTROL_S], fh)
    for (space, pair), (basis, _) in PAIRS.items():
        with open(os.path.join(work, _tag(space, pair) + ".json"), "w") as fh:
            json.dump([{lab: "1"} for lab in basis], fh)
    if workload == "cold-algebra":
        from transvector.algfile import serialize_algebra
        from transvector.catalog import build_space

        for alg in CATALOG_ALGEBRAS:
            serialize_algebra(build_space(alg), os.path.join(work, alg + ".alg"))
        shutil.copy(os.path.join(data_dir, "sl2r.alg"), os.path.join(work, "sl2r.alg"))
