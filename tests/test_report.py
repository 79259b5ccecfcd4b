"""report.render against json.dumps, the oracle whose bytes it reproduces,
and report.write_files' all-or-none raw writes."""

from __future__ import annotations

import enum
import errno
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transvector.report import render, write_files, write_report

scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2 ** 64 - 2, max_value=2 ** 200)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
           | st.text() | st.text(st.characters(max_codepoint=0x1f)))
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40)


def _oracle(o) -> str:
    return json.dumps(o, sort_keys=True, indent=2, allow_nan=False) + "\n"


@given(documents)
@settings(max_examples=300, deadline=None)
@example({})
@example([])
@example(())
@example({"": [{}, [], ()], "b": {"a": [[]]}})
@example({"é中\U0001f600": "\x00\x1f\t\n\"\\ "})
@example([2 ** 64, -(2 ** 64) - 1, 10 ** 40, -0.0, 5e-324, 1e308, 1e16, 0.1])
@example([True, False, None, 1, 0, 1.0])
@example([-0.0, 5e-324, 1e16, 0.1, -2.5])
@example({"a": [1.0, math.nan, math.inf], "b": (0.5, -math.inf)})
def test_render_is_the_bytes_of_json_dumps(doc):
    try:
        want = _oracle(doc)
    except ValueError as refused:      # a non-finite float: the first one
        with pytest.raises(ValueError) as info:
            render(doc)
        assert str(info.value) == str(refused)
    else:
        assert render(doc) == want


@pytest.mark.parametrize("doc", [math.nan, math.inf, -math.inf, [1.0, math.nan],
                                 {"a": {"b": [-math.inf]}}, np.float64("nan"),
                                 {"a": 1, "b": np.float64("-inf"), "c": 0.5},
                                 [0.5, np.float64("inf"), math.nan]])
def test_non_finite_floats_are_refused_by_both_encoders(doc):
    with pytest.raises(ValueError) as refused:
        _oracle(doc)
    with pytest.raises(ValueError, match="Out of range float") as info:
        render(doc)
    assert str(info.value) == str(refused.value)    # the same first offender


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, {"a": {1.5: 1}},
                                 object(), [np.int64(3)], {"a": {1, 2}}, b"x",
                                 {"a": 1, "b": {"c": 0.5, 3: "x", "d": True}, "e": None},
                                 [1, 2.5, {"s": "t", None: 1.0}]])
def test_non_str_keys_and_unknown_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        render(doc)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Label(str):
    pass


@pytest.mark.parametrize("doc", [
    {"x": np.float64(0.1), "y": [np.float64(-0.0)]},
    {"x": np.float64(1e16), "y": [1, np.float64(2.5), "s", None, 0.5, np.float64(5e-324)]},
    [Level.HIGH, Label("a\n"), True, 1, False, 0, Level.LOW, Label("")],
    {"k": Level.LOW, Label("z"): [Label("v"), True, 2], "a": False, "b": 0},
    (np.float64(-1.5), [np.float64(0.0), 3], {"n": np.float64(7.0)}),
])
def test_subclasses_and_bools_render_as_json_dumps(doc):
    """json.dumps takes a subclass by isinstance: np.float64 through
    float.__repr__, an IntEnum through int.__repr__, a str subclass as a
    string; a bool is never an int."""
    assert render(doc) == _oracle(doc)


def test_a_failed_write_leaves_the_target_and_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("earlier\n")

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "replace refused", src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as refused:
        write_report({"a": 1}, str(target))
    # named by its target, not by the temp file the rename started from
    e = refused.value
    assert (e.errno, e.strerror, e.filename) == (errno.EACCES, "replace refused", str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "earlier\n"


DOC = {"results": {"residuals": [0.0, 1.5e-17, 20.784609690826528] * 20,
                   "witness": {"vector": ["0", "-2", "10"], "n": 0}},
       "summary": {"passed": False, "exit_status": 1}}


def test_the_bytes_on_disk_are_the_rendered_report(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("earlier\n")
    write_report(DOC, str(target))
    assert target.read_bytes() == render(DOC).encode("ascii")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_short_writes_are_finished(tmp_path, monkeypatch):
    """os.write may write fewer bytes than it was given; the rest follow."""
    plain, sizes = os.write, []

    def at_most_64(fd, data):
        sizes.append(plain(fd, bytes(data[:64])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", at_most_64)
    target = tmp_path / "report.json"
    write_report(DOC, str(target))
    want = render(DOC).encode("ascii")
    assert target.read_bytes() == want
    assert len(sizes) == -(-len(want) // 64) > 1


def _full_after(monkeypatch, calls):
    """os.write as usual for its first calls (64 bytes at most), then ENOSPC."""
    plain, made = os.write, []

    def write(fd, data):
        made.append(fd)
        if len(made) > calls:
            raise OSError(errno.ENOSPC, "No space left on device")
        return plain(fd, bytes(data[:64]))

    monkeypatch.setattr(os, "write", write)


def test_a_full_disk_leaves_the_earlier_target_and_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("earlier\n")
    _full_after(monkeypatch, 1)             # the temp file holds 64 bytes
    with pytest.raises(OSError) as refused:
        write_report(DOC, str(target))
    e = refused.value
    assert (e.errno, e.filename) == (errno.ENOSPC, str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "earlier\n"


def test_a_failed_second_write_leaves_the_first_target(tmp_path, monkeypatch):
    first, second = tmp_path / "a.csv", tmp_path / "b.ply"
    first.write_text("earlier a\n")
    _full_after(monkeypatch, 1)             # the first text fits one call
    with pytest.raises(OSError) as refused:
        write_files({str(first): "t,y1\n0.5,1.0\n", str(second): "ply\n"})
    assert (refused.value.errno, refused.value.filename) == (errno.ENOSPC, str(second))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert first.read_text() == "earlier a\n"
