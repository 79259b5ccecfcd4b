"""Order-preserving map with no caller left in the package.

The curvature grid runs as stacked blocks, so nothing maps over grid nodes
any more and no thread knob remains.  The module stays only because
perfbench/tracing.py patches transvector.parallel.pmap by name; delete it
once the tracer no longer names it.
"""

from __future__ import annotations


def pmap(fn, items):
    """[fn(x) for x in items]."""
    return [fn(x) for x in items]
