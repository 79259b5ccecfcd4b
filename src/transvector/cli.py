"""Command-line interface.

Subcommands: check, lemma, roots, construct, verify, bisector, catalog.
Every run emits one JSON envelope (stdout by default, --out writes a file
atomically).  Exit statuses: 0 all declared expectations pass, 1 an
expectation failed, 2 configuration/input error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import lru_cache, partial

import numpy as np

from . import rng
from .algfile import parse_algebra_file
from .catalog import (bisector_equidistance_check, build_pair, build_space,
                      list_pairs, negative_control, parse_space_id)
from .errors import ConfigError, LemmaFalsified, NumericalBreakdown
from .exactla import bounded, parse_rational
from .extension import condition_holds, sample_ys, verify_lemma_conclusion
from .geometry import (GridSpec, ImmersionSpec, distance_law_check,
                       export_point_cloud, mean_curvature_report)
from .report import check_target, envelope, write_report
from .roots import (build_root_space_examples, maximal_abelian,
                    restricted_root_decomposition, verify_commutation_rules)
from .subspaces import Subspace

# X := [sign] term {sign term}; term := [coefficient ['*']] label, where a
# coefficient is an integer or a/b with b != 0; blanks may stand between
# tokens, not inside them
_SIGN_RE = re.compile(r"\s*([+-]?)\s*")
_TERM_RE = re.compile(r"(?:(\d+(?:/0*[1-9]\d*)?)\s*\*?\s*)?([A-Za-z]\w*)")


def parse_x_expression(a, expr: str):
    """Parse 'P1 + 2*Q1 - 1/2*D1' over the algebra's labels into a nonzero X.

    A malformed expression, an unknown label and a zero X are configuration
    errors; a parse error names its column (1-based).  The single token 'bad'
    names the bundled sl(3,R) counterexample normal, so the shipped negative
    control is reachable from the shell.
    """
    text = expr.strip()
    if text == "bad":
        # by content, not name: verify --algebra-file takes a serialized
        # catalog sl3r, and refuses another table in a file named sl3r.alg
        control, _, x = negative_control()
        if (a.labels, a.table, a.theta) != (control.labels, control.table, control.theta):
            raise ConfigError("the 'bad' alias is the %s counterexample; space %s is "
                              "not that algebra" % (control.name, a.name))
        return x
    if not text:
        raise ConfigError("empty X expression")
    combo: dict = {}
    pos = 0
    while pos < len(text):
        sign = _SIGN_RE.match(text, pos)
        if combo and not sign.group(1):
            _bad_x(text, sign.end(), "expected '+' or '-'")
        term = _TERM_RE.match(text, sign.end())
        if not term:
            _bad_x(text, sign.end(), "expected a term: an integer or a/b with "
                                     "b != 0, then '*' and a basis label")
        coeff, label = term.groups()
        if label not in a.labels:
            raise ConfigError("unknown basis label %r (space %s has %s)"
                              % (label, a.name, ", ".join(a.labels)))
        try:
            c = parse_rational(coeff) if coeff else 1
        except ValueError as e:
            _bad_x(text, term.start(), str(e))
        combo[label] = combo.get(label, 0) + (-c if sign.group(1) == "-" else c)
        pos = term.end()
    for label, c in combo.items():
        try:
            bounded(c)
        except ValueError as e:
            raise ConfigError("X expression: the summed coefficient of %s: %s" % (label, e))
    x = a.from_labels(combo)
    if x.is_zero():
        raise ConfigError("X expression %r is the zero vector; X must be a "
                          "nonzero normal direction" % expr)
    return x


def _bad_x(text, pos, what):
    where = "column %d" % (pos + 1) if pos < len(text) else "the end"
    raise ConfigError("cannot parse X expression %r at %s: %s" % (text, where, what))


def load_subspace_file(a, path: str) -> Subspace:
    """JSON list of {label: rational} vectors spanning s; a coefficient is an
    integer or a rational string."""
    return _subspace(a, _subspace_vectors(a, path), path)


def _subspace_vectors(a, path: str) -> list:
    """The AlgebraVectors a --s file gives, in its order."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except ValueError as e:         # JSONDecodeError, or an int past 4300 digits
        raise ConfigError("%s is not valid JSON: %s" % (path, e))
    if isinstance(data, dict):
        data = data.get("vectors")
    if not isinstance(data, list) or not data:
        raise ConfigError("%s must hold a nonempty list of "
                          "{label: rational} vectors" % path)
    vectors = []
    for k, combo in enumerate(data):
        if not isinstance(combo, dict) or not combo:
            raise ConfigError("%s: vector %d is not a label mapping" % (path, k))
        if any(type(c) not in (int, str) for c in combo.values()):
            raise ConfigError("%s: vector %d has a coefficient that is not an "
                              "integer or a rational string" % (path, k))
        try:
            vectors.append(a.from_labels({lab: parse_rational(c) for lab, c in combo.items()}))
        except KeyError as e:
            raise ConfigError("%s: vector %d uses unknown label %s" % (path, k, e))
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError("%s: vector %d has a bad rational: %s" % (path, k, e))
    return vectors


def _subspace(a, vectors, path: str) -> Subspace:
    try:
        return Subspace(a, vectors)
    except ValueError as e:
        raise ConfigError("%s: %s" % (path, e))


# The last --s subspace built on a catalog algebra, (algebra, rows, s), the
# rows exactly as its file gives them: Y is drawn on the basis, not on the
# span, so another basis of the same span is another subspace.  A request
# that gives the same rows on the same catalog algebra reuses s, and with it
# its null rows, its triple-system verdict and its certify plan; s is stored
# only once Subspace has accepted its basis, and the plan still admits each
# X anew (extension.CertifyPlan).  One slot, on no algebra (that would make
# a cycle algebra -> s -> algebra), and a file algebra never enters it, so
# no parsed algebra outlives its request.
_catalog_s = None


def _catalog_subspace(a, path: str) -> Subspace:
    """load_subspace_file on a catalog algebra, through the one slot."""
    global _catalog_s
    vectors = _subspace_vectors(a, path)
    rows = tuple(v.coeffs for v in vectors)
    if _catalog_s is None or _catalog_s[0] is not a or _catalog_s[1] != rows:
        _catalog_s = (a, rows, _subspace(a, vectors, path))
    return _catalog_s[2]


def _algebra_from_args(args):
    if args.algebra_file is not None:
        if args.space is not None:
            raise ConfigError("--space and --algebra-file each name the algebra; give one")
        return parse_algebra_file(args.algebra_file)
    if not args.space:
        raise ConfigError("--space (or --algebra-file) is required")
    parse_space_id(args.space)      # refuses a bad or oversized id before any build
    return build_space(args.space)


def _catalog_pair(args):
    """(entry, X) for --pair on --space, X from --X or the entry's default.
    Every --pair command resolves here: the pair brings s and the algebra,
    so a missing --space, and --s or --algebra-file next to --pair, are
    configuration errors."""
    if not args.space:
        raise ConfigError("--pair needs --space, a space with catalog pairs (%s)"
                          % ", ".join(sorted(list_pairs())))
    for flag, dest in (("--s", "s_file"), ("--algebra-file", "algebra_file")):
        if getattr(args, dest, None) is not None:
            raise ConfigError("--pair takes s from the catalog; %s is not read with it" % flag)
    pairs = list_pairs().get(args.space.strip().lower())
    if args.pair is None and pairs:
        raise ConfigError("--pair is required: space %s has pairs %s"
                          % (args.space, ", ".join(pairs)))
    entry = build_pair(args.space, args.pair)
    text = getattr(args, "x", None)
    return entry, entry.x_default if text is None else parse_x_expression(entry.algebra, text)


def _pair_from_args(args):
    """(algebra, s, x, meta) from --pair or --s/--X."""
    if getattr(args, "pair", None):
        entry, x = _catalog_pair(args)
        return entry.algebra, entry.s, x, {"pair": entry.pair_name, "space": entry.space_id}
    a = _algebra_from_args(args)
    if not args.s_file or args.x is None:
        raise ConfigError("need either --pair or both --s and --X")
    load = _catalog_subspace if args.algebra_file is None else load_subspace_file
    s = load(a, args.s_file)
    x = parse_x_expression(a, args.x)
    return a, s, x, {"pair": None, "space": a.name, "s_file": args.s_file}


# a 10^5-node su31 bisector peaks near 430 MB, a 10^5-node su21 construct
# runs about 12 s
MAX_GRID_NODES = 10 ** 5


# Ceilings of the count options, each run at the cap on su31, the widest
# catalog algebra, 3 runs each on a 2-core Xeon, peak RSS of the process
# (31 MB after the imports) and time in cli.run: check --samples 1024
# (n_max = dim p = 6, the chain evaluated to b = 2) peaks near 42 MB in
# 0.03 s; lemma at 4096 terms (--samples 4 --n-max 31 --m-max 31, evaluated
# to n, m <= b) near 38 MB in 0.04 s
MAX_SAMPLES = 1024
MAX_CHAIN = 32              # lemma --n-max and --m-max
MAX_LEMMA_TERMS = 4096      # lemma samples * (n_max + 1) * (m_max + 1)

# The most multiply-adds the condition runs of roots --examples may take:
# each of the positive roots * X points examples runs the condition on
# --samples Y, counted for each Y as a chain of 2 dim p + 3 exact vectors of
# length d, each a d-by-d product (an upper count: the condition admits
# 2 dim p + 2 and evaluates 2 b + 2, b = chain_bound).  The chains of the
# examples cost nothing per Y: they are decided once per root on basis
# pairs.  su31 at --samples 1024 counts 3.5e7 and runs in 0.08-0.14 s at
# 43 MB; su(9,1) at --samples 17 counts 6.5e7, near this cap, and runs in
# 1.2-2.1 s at 91 MB, about 0.75 s of it the triple-system checks of its two
# p_lambda (measured as above)
MAX_EXAMPLE_WORK = 2 ** 26


def _capped_grid(grid: GridSpec, dim: int, options: str) -> GridSpec:
    """grid, once its t_steps * y_steps^dim nodes are at most MAX_GRID_NODES;
    checked on the counts, before any array of the grid is built."""
    if grid.t_steps * grid.y_steps ** dim > MAX_GRID_NODES:
        raise ConfigError("%s: %d * %d^%d grid nodes are more than the %d allowed"
                          % (options, grid.t_steps, grid.y_steps, dim, MAX_GRID_NODES))
    return grid


def _grid_from_args(args, dim: int) -> GridSpec:
    def _range(option, text):
        try:
            lo, hi = (float(v) for v in text.split(","))
        except ValueError:
            raise ConfigError("ranges are written 'lo,hi', got %r" % text)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError("%s endpoints must be finite, got %r" % (option, text))
        return (lo, hi)

    return _capped_grid(GridSpec(t_range=_range("--t-range", args.t_range),
                                 t_steps=args.t_steps,
                                 y_range=_range("--y-range", args.y_range),
                                 y_steps=args.y_steps),
                        dim, "--t-steps and --y-steps")


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}


# -- subcommand bodies: return (results, passed) -----------------------------

def _cmd_check(args):
    a, s, x, meta = _pair_from_args(args)
    verdict = condition_holds(s, x, samples=args.samples, seed=args.seed)
    results = dict(meta)
    results["condition"] = verdict.as_dict()
    results["s_dim"] = s.dim
    return results, verdict.holds


def _cmd_verify(args):
    if not args.s_file:
        raise ConfigError("verify requires --s with a subspace file")
    return _cmd_check(args)


def _cmd_lemma(args):
    terms = args.samples * (args.n_max + 1) * (args.m_max + 1)
    if terms > MAX_LEMMA_TERMS:
        raise ConfigError("--samples, --n-max and --m-max: %d * %d * %d lemma terms are "
                          "more than the %d allowed" % (args.samples, args.n_max + 1,
                                                        args.m_max + 1, MAX_LEMMA_TERMS))
    a, s, x, meta = _pair_from_args(args)
    ys = sample_ys(s, rng.stream(args.seed, rng.STREAM_LEMMA), args.samples)
    checks = verify_lemma_conclusion(s, x, ys, n_max=args.n_max, m_max=args.m_max)
    results = dict(meta)
    results["lemma_checks"] = [c.as_dict() for c in checks]
    results["n_max"] = args.n_max
    results["m_max"] = args.m_max
    return results, all(c.passed for c in checks)


def _default_a_grid(dim: int):
    if dim == 1:
        return [(1,), (2,), (-1,), (3,), (-2,)]
    if dim == 2:
        return [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]
    grid = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    grid.append(tuple([1] * dim))
    return grid[:5]


def _cmd_roots(args):
    a = _algebra_from_args(args)
    asub = maximal_abelian(a)
    rd = restricted_root_decomposition(a, asub, seed=args.seed)
    grid = _default_a_grid(rd.a.dim)
    examples = len(rd.positive) * len(grid)
    chain = 2 * len(a.p_basis) + 3
    if args.examples and examples * args.samples * chain * a.dim ** 2 > MAX_EXAMPLE_WORK:
        raise ConfigError("--samples and --examples: %d examples * %d samples * %d chain "
                          "vectors * %d^2 multiply-adds are more than the %d allowed"
                          % (examples, args.samples, chain, a.dim, MAX_EXAMPLE_WORK))
    rules = verify_commutation_rules(rd)
    results = {
        "space": a.name,
        "datum": rd.as_dict(),
        "rules": rules,
    }
    passed = rules["passed"]
    if args.examples:
        xs = [rd.a.member_from_coordinates(coords) for coords in grid]
        bundles = [bundle for lam in rd.positive
                   for bundle in build_root_space_examples(rd, lam, xs,
                                                           samples=args.samples,
                                                           seed=args.seed)]
        results["examples"] = [bundle.as_dict() for bundle in bundles]
        passed = passed and all(bundle.passed for bundle in bundles)
    return results, passed


def _export_refused(args, e: OSError) -> Exception:
    """The ConfigError naming the --csv or --ply target e names; e itself
    when it names neither."""
    options = {path: opt for opt, path in (("--ply", args.ply), ("--csv", args.csv)) if path}
    if e.filename not in options:
        return e
    return ConfigError("cannot write %s %s: %s" % (options[e.filename], e.filename,
                                                   e.strerror))


def _cmd_construct(args):
    # refused before the pair is built; export_point_cloud below still
    # catches a target that goes bad while the request runs
    try:
        for path in filter(None, (args.csv, args.ply)):
            check_target(path)
    except OSError as e:
        raise _export_refused(args, e)
    entry, x = _catalog_pair(args)
    spec = ImmersionSpec(entry.algebra, entry.s, x.to_array(),
                         grid=_grid_from_args(args, entry.s.dim))
    rep = mean_curvature_report(spec, tolerance=args.tolerance,
                                baseline=args.baseline)
    results = {
        "space": entry.space_id,
        "pair": entry.pair_name,
        "curvature": rep.as_dict(),
    }
    if args.distance_law:
        law = distance_law_check(
            spec, [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0],
            [np.full(spec.s.dim, v) for v in (-0.5, 0.0, 0.5)])
        results["distance_law"] = law
    try:
        exports = export_point_cloud(rep, csv_path=args.csv, ply_path=args.ply)
    except OSError as e:
        # write_files names the export it could not write
        raise _export_refused(args, e)
    if exports:
        results["exports"] = exports
    passed = rep.passed and (not args.distance_law
                             or results["distance_law"]["passed"])
    return results, passed


def _cmd_bisector(args):
    entry, _ = _catalog_pair(args)
    grid = _capped_grid(GridSpec(t_steps=args.grid_steps, y_steps=args.grid_steps),
                        entry.s.dim, "--grid-steps")
    rep = bisector_equidistance_check(entry, r=args.r, grid=grid,
                                      tol=args.tolerance)
    expect_equidistant = args.pair == "complex-hyperplane"
    if expect_equidistant:
        passed = rep["equidistant"]
    else:
        passed = rep["max_delta"] >= 10.0 * args.tolerance
    rep["expected_equidistant"] = expect_equidistant
    return {"bisector": rep}, passed


def _cmd_catalog(args):
    spaces = []
    for sid, pair_names in sorted(list_pairs().items()):
        a = build_space(sid)
        entry = {
            "id": sid,
            "dims": {"g": a.dim, "k": len(a.k_basis), "p": len(a.p_basis)},
            "hermitian": parse_space_id(sid)[0] == "su",
            "pairs": [build_pair(sid, p).as_dict() for p in pair_names],
        }
        spaces.append(entry)
    control, s, x = negative_control()
    results = {
        "spaces": spaces,
        "negative_control": {
            "space": control.name,
            "s": [control.format_vector(v) for v in s.basis],
            "x": control.format_vector(x),
            "note": "violates the extension condition at the first bracket;"
                    " reachable as verify --space %s --X bad" % control.name,
        },
        "unsupported": [
            {"id": "sp21", "reason": "quaternionic hyperbolic space"},
            {"id": "f4-20", "reason": "Cayley hyperbolic plane"},
        ],
    }
    return results, True


def _finite_float(text: str) -> float:
    """argparse type of the float options: a nan or an infinity is an
    argument error naming the option, not a failed run."""
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)


def _finite_float_at_least(floor: float, strict: bool = False):
    """argparse type of a bound option: a finite number below floor (or at
    it, when strict) is an argument error naming the option, not a vacuous
    or failed run."""
    def bound(text: str) -> float:
        value = _finite_float(text)
        if value > floor or (value == floor and not strict):
            return value
        raise argparse.ArgumentTypeError("expected a number %s %g, got %r"
                                         % (">" if strict else ">=", floor, text))
    return bound


def _int_at_least(floor: int, below: int | None = None):
    """argparse type of a count option: an integer below floor (or at or
    past below) is an argument error naming the option, not a failed or
    vacuous run.  The message states the floor, or the whole range [floor,
    below) for a value at or past below."""
    def count(text: str) -> int:
        value = floor - 1                  # a non-integer reads as below the floor
        try:
            if floor <= (value := int(text)) and (below is None or value < below):
                return value
        except ValueError:
            pass
        want = ">= %d" % floor if value < floor else "in [%d, %d)" % (floor, below)
        raise argparse.ArgumentTypeError("expected an integer %s, got %r" % (want, text))
    return count


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args returns a fresh
    namespace, and subcommand defaults are applied per parse."""
    ap = argparse.ArgumentParser(
        prog="transvector", allow_abbrev=False,
        description="certificates and measurements for minimal extensions "
                    "of reflective submanifolds")
    # every option is spelt in full: a prefix could name a retired option's
    # successor, or another option once one is retired
    add = partial(ap.add_subparsers(dest="command", required=True).add_parser,
                  allow_abbrev=False)

    # a subcommand declares only the inputs it reads
    inputs = {
        "--algebra-file": dict(help="algebra definition file instead of --space"),
        "--pair": dict(help="catalog pair name"),
        "--s": dict(dest="s_file", help="JSON file with s basis vectors"),
        "--X": dict(dest="x", help="normal vector expression, e.g. 'P1+2*Q1'"),
    }

    def common(p, takes=tuple(inputs), sampled=True):
        p.add_argument("--space", help="catalog space id (su21, su31, so31, sl3r, ...)")
        for flag in takes:
            p.add_argument(flag, **inputs[flag])
        if sampled:
            p.add_argument("--samples", type=_int_at_least(1, MAX_SAMPLES + 1), default=64)
        # rng.stream keys a numpy uint64 with the seed
        p.add_argument("--seed", type=_int_at_least(0, 2 ** 64), default=0)
        p.add_argument("--out", help="write the JSON report here (atomic)")

    p = add("check", help="extension condition on a catalog pair")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = add("verify", help="extension condition on a custom (s, X)")
    common(p, takes=("--algebra-file", "--s", "--X"))
    p.set_defaults(func=_cmd_verify, samples=16)

    p = add("lemma", help="bracket-chain lemma certificates")
    common(p)
    p.add_argument("--n-max", type=_int_at_least(0, MAX_CHAIN + 1), default=4)
    p.add_argument("--m-max", type=_int_at_least(0, MAX_CHAIN + 1), default=4)
    p.set_defaults(func=_cmd_lemma, samples=4)

    p = add("roots", help="restricted root decomposition")
    common(p, takes=("--algebra-file",))
    p.add_argument("--examples", action="store_true",
                   help="also certify the root-space examples")
    p.set_defaults(func=_cmd_roots, samples=8)

    p = add("construct", help="build the immersion and measure it")
    common(p, takes=("--pair", "--X"), sampled=False)
    p.add_argument("--t-steps", type=_int_at_least(1), default=5)
    p.add_argument("--y-steps", type=_int_at_least(1), default=5)
    p.add_argument("--t-range", default="-0.75,0.75")
    p.add_argument("--y-range", default="-0.75,0.75")
    p.add_argument("--tolerance", type=_finite_float_at_least(0), default=1e-4)
    p.add_argument("--baseline", action="store_true",
                   help="measure the frozen-t slice instead of the extension")
    p.add_argument("--distance-law", action="store_true")
    p.add_argument("--csv", help="export the grid as CSV")
    p.add_argument("--ply", help="export the grid as PLY")
    p.set_defaults(func=_cmd_construct)

    p = add("bisector", help="equidistance of the extension")
    common(p, takes=("--pair",), sampled=False)
    # r = 0 puts both endpoints at the origin, where equidistance is vacuous
    p.add_argument("--r", type=_finite_float_at_least(0, strict=True), default=0.5)
    p.add_argument("--grid-steps", type=_int_at_least(1), default=7)
    p.add_argument("--tolerance", type=_finite_float_at_least(0), default=1e-8)
    p.set_defaults(func=_cmd_bisector)

    p = add("catalog", help="list built-in spaces and pairs")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    return ap


def run(argv=None) -> int:
    started = time.perf_counter()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    out_path = getattr(args, "out", None)
    config = _config_echo(args)
    if out_path is not None:
        # refused before the request runs; write_report below still catches
        # a target that goes bad while it runs
        try:
            check_target(out_path)
        except OSError as e:
            return _out_refused(args.command, config, out_path, e, started)
    try:
        results, passed = args.func(args)
        status = 0 if passed else 1
    except ConfigError as e:
        results, passed, status = {"error": str(e), "kind": "config"}, False, 2
    except LemmaFalsified as e:
        results = {"error": str(e), "kind": "lemma-falsified",
                   "detail": getattr(e, "detail", None)}
        passed, status = False, 1
    except NumericalBreakdown as e:
        results, passed, status = {"error": str(e), "kind": "numerical"}, False, 3
    try:
        write_report(envelope(args.command, config, results, passed, status, started),
                     out_path)
    except OSError as e:
        if out_path is None:
            raise
        # write_report removed its temp file
        return _out_refused(args.command, config, out_path, e, started)
    return status


def _out_refused(command: str, config: dict, out_path: str, e: OSError,
                 started: float) -> int:
    """The report cannot reach --out: a configuration error, exit 2, whose
    envelope goes to stdout."""
    write_report(envelope(command, config,
                          {"error": "cannot write --out %s: %s" % (out_path, e.strerror),
                           "kind": "config"}, False, 2, started), None)
    return 2


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
