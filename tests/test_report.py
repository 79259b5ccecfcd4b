"""report.render against json.dumps, the oracle whose bytes it reproduces."""

from __future__ import annotations

import errno
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transvector.report import render, write_report

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
                                 {"a": {"b": [-math.inf]}}, np.float64("nan")])
def test_non_finite_floats_are_refused_by_both_encoders(doc):
    with pytest.raises(ValueError):
        _oracle(doc)
    with pytest.raises(ValueError, match="Out of range float"):
        render(doc)


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, {"a": {1.5: 1}},
                                 object(), [np.int64(3)], {"a": {1, 2}}, b"x"])
def test_non_str_keys_and_unknown_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        render(doc)


def test_float_subclasses_render_through_float_repr():
    doc = {"x": np.float64(0.1), "y": [np.float64(-0.0)]}
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
