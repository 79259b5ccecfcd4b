from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from transvector import rng
from transvector.algfile import parse_algebra_file
from transvector.catalog import build_pair, build_space
from transvector.data import algebra_path
from transvector.exactla import invert
from transvector.extension import sample_ys
from transvector.liealg import (AlgebraVector, ChainResidues, MatrixRealization, PairResidues,
                               StructuredLieAlgebra)

# Every search draws the same examples on every run, and no run replays the
# failures of an earlier one from a local database.  `pytest
# --hypothesis-profile=deep` draws fresh examples instead, DEEP_FACTOR times
# as many as each test asks for.
DEEP_FACTOR = 10
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("deep", derandomize=False, database=None)
settings.load_profile("default")


def pytest_collection_modifyitems(config, items):
    """Under the deep profile, scale each search's own max_examples, which a
    profile cannot override; hypothesis keeps a test's settings on the test."""
    if config.getoption("hypothesis_profile") != "deep":
        return
    for test in {item.obj for item in items if hasattr(getattr(item, "obj", None),
                                                       "hypothesis")}:
        own = getattr(test, "_hypothesis_internal_use_settings", settings.default)
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=DEEP_FACTOR * own.max_examples)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name, size) wraps the attribute owner.name for the
    rest of the test and returns the list it fills: one size(*args) per
    call, the arguments themselves without size.  A method wrapped on its
    class gets self as the first argument."""
    def wrap(owner, name, size=lambda *args: args):
        plain, calls = getattr(owner, name), []

        def counting(*args, **kwargs):
            calls.append(size(*args))
            return plain(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls
    return wrap


def load_by_path(name: str, path: str):
    """The module of the Python file at path, imported as name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def chain_residues(a: StructuredLieAlgebra, ys: np.ndarray, x: np.ndarray, top: int,
                   null: np.ndarray) -> ChainResidues:
    """ChainResidues of the stack ys and the exact row x against the integer
    rows null, its lifts built for this call alone."""
    return ChainResidues(PairResidues(a, null, x), ys, top)


def condition_ys(s, samples: int, seed: int) -> np.ndarray:
    """The Y stack condition_holds(s, x, samples, seed) decides on: the
    principal lattice of s when it has at most samples points, the seeded
    sample otherwise."""
    plan = s.certify_plan
    if plan.lattice_size <= samples:
        return plan.lattice
    return sample_ys(s, rng.stream(seed, rng.STREAM_CONDITION_Y), samples)


def basis_vector(a: StructuredLieAlgebra, i: int) -> AlgebraVector:
    """The i-th basis vector e_i of a."""
    return a.vector(1 if j == i else 0 for j in range(a.dim))


def zero(a: StructuredLieAlgebra) -> AlgebraVector:
    """The zero vector of a."""
    return a.vector((0,) * a.dim)


def stack_size(m) -> int:
    """The number of matrices in the stack m (..., N, N)."""
    return int(np.prod(np.shape(m)[:-2]))


@pytest.fixture(scope="session")
def sl2r():
    # goes through the file parser on purpose: the bundled definition is the
    # reference fixture for every closed-form oracle below
    return parse_algebra_file(algebra_path("sl2r"))


@pytest.fixture(scope="session")
def su21():
    return build_space("su21")


@pytest.fixture(scope="session")
def su21_real_form():
    return build_pair("su21", "real-form")


@pytest.fixture(scope="session")
def su21_complex_hyperplane():
    return build_pair("su21", "complex-hyperplane")


@pytest.fixture(scope="session")
def sl3r():
    return build_space("sl3r")


def rebased(a: StructuredLieAlgebra, m) -> StructuredLieAlgebra:
    """a written in the basis b_i = sum_j M_ij e_j of an invertible exact
    matrix M: [b_i, b_j] = (M_i (x) M_j . C) M^-1, Theta' = M^-T Theta M^T,
    and the realization images M . images."""
    m = np.array(m, dtype=object)
    inv = np.array(invert(m.tolist()), dtype=object)
    c = m @ (m @ a.structure_exact.astype(object).reshape(a.dim, -1)).reshape(
        a.dim, a.dim, a.dim) @ inv
    brackets = {(i, j): dict(enumerate(c[i, j])) for i in range(a.dim)
                for j in range(i + 1, a.dim)}
    theta = inv.T @ a.theta_exact.astype(object) @ m.T
    real = a.realization
    if real is not None:
        real = MatrixRealization(
            size=real.size, signature=real.signature, unimodular=real.unimodular,
            **{part: np.tensordot(m, getattr(real, part).astype(object), axes=1)
               for part in ("re", "im")})
    return StructuredLieAlgebra(a.labels, brackets, theta.tolist(), real, a.name)


def upper_ones(d: int) -> np.ndarray:
    """The unimodular basis change b_i = e_i + e_(i+1) + ... + e_d."""
    return np.triu(np.ones((d, d), dtype=int))


def scaled_at(d: int, i: int, q: int) -> np.ndarray:
    """The basis change that scales e_i by 1/q."""
    m = np.eye(d, dtype=int).astype(object)
    m[i, i] = Fraction(1, q)
    return m


# The committed rebased fixtures of tests/golden, by file stem: so(3,1) in
# the basis upper_ones, whose restricted roots are then irrational on the
# maximal abelian subspace found, and su(2,1) with its first p-basis vector
# P1 scaled by 1/97.
REBASED_FIXTURES = {
    "rebased-so31": ("so31", upper_ones(6)),
    "scaled-su21": ("su21", scaled_at(8, 4, 97)),
}
