"""Deterministic JSON report envelopes.

Envelopes are byte-stable for a fixed config: keys are sorted, floats go
through repr (shortest round-trip form), and the only nondeterministic field
is wall_time_s, which consumers strip before comparing.  render gives the
bytes of json.dumps(sort_keys=True, indent=2, allow_nan=False), each scalar
encoded by the exact type of its value.  File writes are atomic: the
encoded bytes go to a temp file in the target directory through its raw
descriptor, which is then renamed onto the target.
"""

from __future__ import annotations

import errno
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
    set.

    Each dict value and list item of an exact JSON scalar type is encoded
    inline by one lookup of its type in _SCALARS; only containers, and
    subclasses (np.float64, an IntEnum, a str subclass), take a call of
    _encode."""
    text = _encode(report, "\n")
    if text[-1] in "fn":
        _refuse(report)
    return text + "\n"


# The JSON text of a scalar by its exact type (bool is not int here).  A
# float's text may be inf, -inf or nan, which the caller refuses: no other
# JSON text ends in f or n.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _refuse(o):
    raise ValueError("Out of range float values are not JSON compliant: %r" % o)


def _encode(o, newline: str) -> str:
    """JSON text of o, its nested lines starting with newline plus two
    spaces, and inf, -inf or nan for a non-finite float o.  A non-finite
    float inside o raises ValueError, at the first one in json.dumps'
    order; a non-str key (checked before the dict's values) or another type
    raises TypeError."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
        inner, scalar, items = newline + "  ", _SCALARS.get, []
        for key in sorted(o):
            v = o[key]
            enc = scalar(type(v))
            text = enc(v) if enc else _encode(v, inner)
            if text[-1] in "fn":
                _refuse(v)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner, scalar, items = newline + "  ", _SCALARS.get, []
        for v in o:
            enc = scalar(type(v))
            text = enc(v) if enc else _encode(v, inner)
            if text[-1] in "fn":
                _refuse(v)
            items.append(text)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    enc = _SCALARS.get(type(o))
    if enc:
        return enc(o)
    for base in (str, int, float):    # json.dumps' isinstance order
        if isinstance(o, base):
            return _SCALARS[base](o)
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


def _temp_beside(path: str):
    """(descriptor, name) of a new file, open for writing, beside path: a
    random name in its directory, drawn again on a clash (O_EXCL), created
    with mode 0o666 less the umask, as open(path, "w") would create path."""
    head = os.path.join(os.path.dirname(os.path.abspath(path)), ".tmp")
    for _ in range(tempfile.TMP_MAX):
        name = "%s%s.tmp" % (head, os.urandom(8).hex())
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no unused temp file name")


def write_files(texts: dict):
    """Write each text of texts (path -> text) to its path, all or none.

    Every text is encoded once (UTF-8; a report is ASCII) and its bytes go
    through the descriptor of a temp file in its target's directory, by
    os.write until every byte is down.  Only when all of them are written
    is each renamed onto its target (os.replace).  A target takes its temp
    file's mode, 0o666 less the umask: what open(path, "w") gives a new
    file.  So an OSError while writing them leaves every target as it was;
    a directory at a target, which the rename would refuse, is refused then
    too.  Only a rename refused after that (a race, or a file system that
    will not rename) can leave an earlier target replaced.  Every OSError
    names its target as filename, never a temp file.  A temp file is
    forgotten once it is renamed, and any left are removed, so none stays
    behind.
    """
    temps = {}
    try:
        for path, text in texts.items():
            data = memoryview(text.encode())
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd, temps[path] = _temp_beside(path)
                try:
                    while data:
                        data = data[os.write(fd, data):]
                finally:
                    os.close(fd)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from e
        for path, tmp in list(temps.items()):
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from e
            del temps[path]
    finally:
        for tmp in temps.values():
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
