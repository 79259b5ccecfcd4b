"""Every span name the benchmark's tracer patches still resolves in src/.

perfbench/tracing.py wraps the functions it names by module and attribute
path, looking each module up in sys.modules; a refactor that renames or
removes one, or stops importing its module, would break `--trace 1` at run
time.  The table is read from the benchmark's file, never edited here.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys

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


def test_the_cli_alone_imports_every_traced_module():
    """The tracer installs on whatever importing transvector.cli loaded; the
    test above imports each module itself, so it cannot see one drop out."""
    src = os.path.join(os.path.dirname(TRACING), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, transvector.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert not sorted({module for module, _ in TARGETS.values()} - set(loaded))
