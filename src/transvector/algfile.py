"""Plain-text (UTF-8) algebra definition files.

Sections, in any order, one per line header in brackets:

  [basis]        at most MAX_DIM whitespace-separated labels, on one or more lines
  [bracket]      lines "i j -> c1 c2 ... cd": full coefficient vector of
                 [e_i, e_j] as rationals, indices 1-based with i < j
  [theta]        d matrix rows of d rationals each
  [realization]  optional: "size N", then per basis element N rows of N
                 entries "a", "a/b", "bi", or "a/b+c/di"; optional lines
                 "signature s1 ... sN" and "unimodular true|false"

'#' starts a comment.  Parsing is exact (canonical ints and Fractions, see
exactla.parse_rational, which caps their size), and a parsed algebra is
validated immediately: a Jacobi or involution failure is rejected as hard as
a syntax error, with its witness in the message.  Each distinct token is
parsed once per file (most coefficients are "0"); nothing is kept between
files.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .exactla import parse_rational
from .liealg import MatrixRealization, StructuredLieAlgebra

_SECTIONS = ("basis", "bracket", "theta", "realization")

# The most basis labels a file may declare: d of su(9,1), the largest catalog
# algebra.  A serialized integer su91 file parses and validates in about
# 0.45 s, sl7r and su61 in 0.04 s: their realizations are faithful, so
# validate proves Jacobi instead of running its O(d^5) loop (9.5-12 s for
# su91 when it ran).  One realization entry of 2^70 forces dtype=object and
# breaks the realization, so such a file still runs every check, and its
# time grows about as d^5 (1.3-2.1 s for su51, 5.6-9.2 s for su61), to
# minutes near 99 labels.
MAX_DIM = 99

# one pattern per unambiguous token shape; a combined optional-group regex
# backtracks "2i" into re=2, im=i
_REAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_IMAG_RE = re.compile(r"[+-]?(?:\d+(?:/\d+)?)?i")
_BOTH_RE = re.compile(
    r"(?P<re>[+-]?\d+(?:/\d+)?)(?P<im>[+-](?:\d+(?:/\d+)?)?i)")


def _fail(path, lineno, msg):
    raise ConfigError("%s:%d: %s" % (path, lineno, msg))


def _im_value(tok: str):
    body = tok[:-1]
    if body in ("", "+"):
        return 1
    if body == "-":
        return -1
    return parse_rational(body)


def parse_entry(token: str) -> tuple:
    """Parse 'a', 'a/b', 'ci', '-i', or 'a/b+c/di' into the pair (re, im)
    of canonical exact scalars."""
    text = token.replace(" ", "")
    if _REAL_RE.fullmatch(text):
        return parse_rational(text), 0
    if _IMAG_RE.fullmatch(text):
        return 0, _im_value(text)
    m = _BOTH_RE.fullmatch(text)
    if m:
        return parse_rational(m.group("re")), _im_value(m.group("im"))
    raise ValueError("bad matrix entry %r" % token)


def format_entry(re, im) -> str:
    """The token parse_entry reads back as (re, im)."""
    if im == 0:
        return str(re)
    im = "%si" % im if im not in (1, -1) else ("i" if im == 1 else "-i")
    if re == 0:
        return im
    return "%s%s%s" % (re, "" if im.startswith("-") else "+", im)


def parse_algebra_file(path: str) -> StructuredLieAlgebra:
    """Exact parse followed by a mandatory full validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("cannot read %s: %s" % (path, e))

    sections: dict = {}
    headers: dict = {}          # the line of each section's header
    current = None
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            name = text[1:-1].strip().lower()
            if name not in _SECTIONS:
                _fail(path, lineno, "unknown section [%s]" % name)
            if name in sections:
                _fail(path, lineno, "duplicate section [%s]" % name)
            sections[name] = []
            headers[name] = lineno
            current = name
            continue
        if current is None:
            _fail(path, lineno, "content before any section header")
        sections[current].append((lineno, text))

    for required in ("basis", "bracket", "theta"):
        if required not in sections:
            _fail(path, len(raw) + 1, "missing required section [%s]" % required)

    labels = []
    for lineno, text in sections["basis"]:
        labels.extend(text.replace(",", " ").split())
        if len(labels) > MAX_DIM:
            _fail(path, lineno, "[basis] has more than %d labels" % MAX_DIM)
    if not labels:
        _fail(path, headers["basis"], "empty [basis] section")
    if len(set(labels)) != len(labels):
        _fail(path, sections["basis"][0][0], "duplicate basis labels")
    d = len(labels)

    # each distinct token parsed once per file; lru_cache keeps no call
    # that raises, so a bad token fails on every line that holds it
    num = lru_cache(maxsize=None)(parse_rational)
    brackets = {}
    for lineno, text in sections["bracket"]:
        if "->" not in text:
            _fail(path, lineno, "bracket line needs 'i j -> coefficients'")
        head, tail = text.split("->", 1)
        parts = head.split()
        if len(parts) != 2:
            _fail(path, lineno, "bracket head must be two indices")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            _fail(path, lineno, "bracket indices must be integers")
        if not (0 <= i < d and 0 <= j < d):
            _fail(path, lineno, "bracket index out of range 1..%d" % d)
        if i >= j:
            _fail(path, lineno, "bracket lines require i < j")
        if (i, j) in brackets:
            _fail(path, lineno, "duplicate bracket line for (%d, %d)" % (i + 1, j + 1))
        coeffs = tail.split()
        if len(coeffs) != d:
            _fail(path, lineno, "expected %d coefficients, got %d" % (d, len(coeffs)))
        try:
            entry = {k: q for k, q in enumerate(map(num, coeffs)) if q != 0}
        except (ValueError, ZeroDivisionError) as e:
            _fail(path, lineno, "bad rational: %s" % e)
        if entry:
            brackets[(i, j)] = entry

    theta_rows = []
    for lineno, text in sections["theta"]:
        cells = text.split()
        if len(cells) != d:
            _fail(path, lineno, "theta row needs %d entries, got %d" % (d, len(cells)))
        try:
            theta_rows.append(tuple(map(num, cells)))
        except (ValueError, ZeroDivisionError) as e:
            _fail(path, lineno, "bad rational: %s" % e)
    if len(theta_rows) != d:
        _fail(path, sections["theta"][0][0] if sections["theta"] else headers["theta"],
              "theta needs %d rows, got %d" % (d, len(theta_rows)))

    realization = None
    if "realization" in sections:
        realization = _parse_realization(path, headers["realization"],
                                         sections["realization"], d)

    try:
        algebra = StructuredLieAlgebra(labels=tuple(labels), brackets=brackets,
                                       theta=tuple(theta_rows),
                                       realization=realization,
                                       name=path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
    except ValueError as e:
        raise ConfigError("%s: inconsistent algebra data: %s" % (path, e))
    report = algebra.validate()
    if not report.passed:
        bad = {k: v for k, v in report.residuals.items()
               if (isinstance(v, float) and v != 0.0)}
        bad.update({k: v for k, v in report.checks.items() if v is False})
        raise ConfigError("%s: algebra fails validation: %s; witnesses: %s"
                          % (path, bad, report.witnesses))
    return algebra


def _parse_realization(path, header, lines, d):
    entry = lru_cache(maxsize=None)(parse_entry)
    size = None
    signature = signature_line = None
    unimodular = True
    rows = []
    for lineno, text in lines:
        low = text.lower()
        if low.startswith("size"):
            try:
                size = int(text.split()[1])
            except (IndexError, ValueError):
                size = 0
            # d matrices of size rows each follow, one row per line
            if not 1 <= size <= len(lines):
                _fail(path, lineno, "size line needs one integer from 1 to %d, the "
                      "number of [realization] lines" % len(lines))
            continue
        if low.startswith("signature"):
            try:
                signature, signature_line = tuple(int(c) for c in text.split()[1:]), lineno
            except ValueError:
                _fail(path, lineno, "signature entries must be integers")
            continue
        if low.startswith("unimodular"):
            word = text.split()[-1].lower()
            if word not in ("true", "false"):
                _fail(path, lineno, "unimodular must be true or false")
            unimodular = word == "true"
            continue
        if size is None:
            _fail(path, lineno, "realization needs a 'size N' line first")
        cells = text.split()
        if len(cells) != size:
            _fail(path, lineno, "matrix row needs %d entries, got %d"
                  % (size, len(cells)))
        try:
            rows.append(tuple(map(entry, cells)))
        except ValueError as e:
            _fail(path, lineno, str(e))
        except ZeroDivisionError:
            _fail(path, lineno, "zero denominator in a matrix entry")
    if size is None:
        _fail(path, lines[0][0] if lines else header, "realization without size")
    if signature is not None and len(signature) != size:
        _fail(path, signature_line, "signature length must equal size")
    if len(rows) != d * size:
        _fail(path, lines[-1][0],
              "realization needs %d rows (%d matrices of %d), got %d"
              % (d * size, d, size, len(rows)))
    parts = np.array(rows, dtype=object).reshape(d, size, size, 2)
    return MatrixRealization(size=size, re=parts[..., 0], im=parts[..., 1],
                             signature=signature, unimodular=unimodular)


def serialize_algebra(a: StructuredLieAlgebra, path: str):
    """Inverse of parse_algebra_file, modulo comments and spacing."""
    out = ["[basis]", " ".join(a.labels), "", "[bracket]"]
    for (i, j), entry in sorted(a.table.items()):
        coeffs = [str(entry.get(k, 0)) for k in range(a.dim)]
        out.append("%d %d -> %s" % (i + 1, j + 1, " ".join(coeffs)))
    out += ["", "[theta]"]
    for row in a.theta:
        out.append(" ".join(str(c) for c in row))
    if a.realization is not None:
        real = a.realization
        out += ["", "[realization]", "size %d" % real.size]
        if real.signature is not None:
            out.append("signature %s" % " ".join(str(s) for s in real.signature))
        out.append("unimodular %s" % ("true" if real.unimodular else "false"))
        for re_rows, im_rows in zip(real.re.tolist(), real.im.tolist()):
            for re_row, im_row in zip(re_rows, im_rows):
                out.append(" ".join(map(format_entry, re_row, im_row)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
