from __future__ import annotations

import pytest
from hypothesis import settings

from transvector.algfile import parse_algebra_file
from transvector.catalog import build_pair, build_space
from transvector.data import algebra_path

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
