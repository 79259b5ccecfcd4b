"""Deterministic JSON report envelopes.

Envelopes are byte-stable for a fixed config: keys are sorted, floats go
through repr (shortest round-trip form), and the only nondeterministic field
is wall_time_s, which consumers strip before comparing.  File writes are
atomic (temp file + rename in the target directory).
"""

from __future__ import annotations

import errno
import math
import os
import tempfile
import time
from json.encoder import encode_basestring_ascii

from . import __version__

SCHEMA_VERSION = 1


def envelope(command: str, config: dict, results: dict, passed: bool,
             exit_status: int, started: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "artifact": {"name": "transvector", "version": __version__},
        "command": command,
        "config": config,
        "results": results,
        "summary": {"passed": bool(passed), "exit_status": int(exit_status)},
        "wall_time_s": time.perf_counter() - started,
    }


def render(report: dict) -> str:
    """The bytes of json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False) plus a newline, from C string escaping and the int and
    float reprs; json.dumps runs its pure-Python encoder whenever indent is
    set."""
    return _encode(report, "\n") + "\n"


def _encode(o, newline: str) -> str:
    """JSON text of o, its nested lines starting with newline plus two
    spaces; NaN and infinities raise ValueError, non-str keys and other
    types TypeError."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("Out of range float values are not JSON compliant: %r" % o)
        return float.__repr__(o)
    inner = newline + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _encode(v, inner)
             for k, v in sorted(o.items())]) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if (type(o[0]) is float and all(type(v) is float for v in o)
                and all(map(math.isfinite, o))):
            items = map(float.__repr__, o)    # chart points and grid rows
        else:
            items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def strip_wall_time(text: str) -> str:
    """Comparison form of a rendered report."""
    return "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith('"wall_time_s"'))


def write_report(report: dict, path: str | None):
    """Render to path atomically, or to stdout when path is None."""
    text = render(report)
    if path is None:
        print(text, end="")
    else:
        write_files({path: text})


def check_target(path: str):
    """Raise the OSError, naming path, that write_files would meet at path
    for want of a directory: path is one, or its parent is missing or no
    directory (the stat of "parent/" raises ENOENT or ENOTDIR)."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e


def write_files(texts: dict):
    """Write each text of texts (path -> text) to its path, all or none.

    Every text goes to a temp file in its target's directory, and only when
    all of them are written is each renamed onto its target (os.replace).
    So an OSError while writing them leaves every target as it was; a
    directory at a target, which the rename would refuse, is refused then
    too.  Only a rename refused after that (a race, or a file system that
    will not rename) can leave an earlier target replaced.  Every OSError
    names its target as filename, never a temp file, and no temp file stays
    behind.
    """
    temps = {}
    try:
        for path, text in texts.items():
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd, temps[path] = tempfile.mkstemp(
                    dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
                with os.fdopen(fd, "w", newline="") as fh:
                    fh.write(text)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from e
        for path, tmp in temps.items():
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from e
    finally:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
