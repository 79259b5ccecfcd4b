"""README's library example runs as written, so an API change cannot leave
it broken, and the matrix counts it states are the ones tier-1 pins."""

from __future__ import annotations

import re
from pathlib import Path

from test_geometry import (BISECTOR_CHARTS, BISECTOR_EIGHS, CONSTRUCT_EIGHS,
                           DISTANCE_LAW_CHARTS, DISTANCE_LAW_EIGHS)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _stated(pattern: str) -> list:
    """The numbers README states where pattern matches, its line breaks
    read as blanks; a list of the numbers of each group."""
    found = re.search(pattern, " ".join(README.read_text().split()))
    assert found, pattern
    return [[int(n) for n in re.findall(r"\d+", group)] for group in found.groups()]


LIST = r"([\d, and]+)"


def test_the_readme_states_the_pinned_eigh_counts():
    """The construct paragraph's matrix and call counts equal the stacks
    tests/test_geometry.py pins, so neither can move without the other."""
    total, calls, sizes = _stated(
        r"decomposes (\d+) matrices in (\d+) stacked `eigh` calls, of %s matrices" % LIST)
    assert (total, calls, sizes) == ([sum(CONSTRUCT_EIGHS)], [len(CONSTRUCT_EIGHS)],
                                     CONSTRUCT_EIGHS)
    added = DISTANCE_LAW_EIGHS[len(CONSTRUCT_EIGHS):]
    assert DISTANCE_LAW_EIGHS[:len(CONSTRUCT_EIGHS)] == CONSTRUCT_EIGHS
    assert _stated(r"`--distance-law` adds (\d+) calls of %s matrices, two of them "
                   r"charts of (\d+) and (\d+)" % LIST) == [
        [len(added)], added, *([c] for c in DISTANCE_LAW_CHARTS[1:])]
    assert _stated(r"`bisector --grid-steps 5` makes (\d+) calls of %s matrices, two of "
                   r"them charts of (\d+) and (\d+)" % LIST) == [
        [len(BISECTOR_EIGHS)], BISECTOR_EIGHS, *([c] for c in BISECTOR_CHARTS)]
