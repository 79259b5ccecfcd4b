"""Every span name the benchmark's tracer patches still resolves in src/.

perfbench/tracing.py wraps the functions it names by module and attribute
path; a refactor that renames or removes one would break `--trace 1` at
run time.  The table is read from the benchmark's file, never edited here.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_name_resolves(name):
    module, path = TARGETS[name]
    owner = importlib.import_module(module)
    src = os.path.realpath(os.path.join(os.path.dirname(TRACING), os.pardir, "src"))
    assert os.path.realpath(owner.__file__).startswith(src + os.sep), owner.__file__
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
