"""Spans around the public functions of each transvector module.

Wrappers are installed only for the traced passes and removed afterwards.
Each wrapper is patched in where the caller looks the name up (class
attributes for methods, every module binding for functions) and calls the
original callable, so lru_cache and cached_property hits are unchanged.
Spans stay in memory as tuples and are written out once, at the end.
The program runs single-threaded (TRANSVECTOR_THREADS unset), so one stack
of open spans describes the nesting.
"""

from __future__ import annotations

import functools
import sys
from bisect import bisect_right
from time import perf_counter

# span name -> (module, attribute path); methods are "Class.method"
TARGETS = {
    "cli.run": ("transvector.cli", "run"),
    "report.write_report": ("transvector.report", "write_report"),
    "catalog.build_pair": ("transvector.catalog", "build_pair"),
    "catalog.bisector_equidistance_check": ("transvector.catalog",
                                            "bisector_equidistance_check"),
    "algfile.parse_algebra_file": ("transvector.algfile", "parse_algebra_file"),
    "liealg.validate": ("transvector.liealg", "StructuredLieAlgebra.validate"),
    "liealg.bracket": ("transvector.liealg", "StructuredLieAlgebra.bracket"),
    "liealg.ad_matrix": ("transvector.liealg", "StructuredLieAlgebra.ad_matrix"),
    "liealg.killing_form": ("transvector.liealg", "StructuredLieAlgebra.killing_form"),
    "subspaces.contains": ("transvector.subspaces", "Subspace.contains"),
    "subspaces.orthocomplement_in_p": ("transvector.subspaces",
                                       "Subspace.orthocomplement_in_p"),
    "subspaces.is_reflective": ("transvector.subspaces", "Subspace.is_reflective"),
    "subspaces.is_lie_triple_system": ("transvector.subspaces",
                                       "Subspace.is_lie_triple_system"),
    "exactla.span_solver_init": ("transvector.exactla", "SpanSolver.__init__"),
    "exactla.span_solver_contains": ("transvector.exactla", "SpanSolver.contains"),
    "exactla.mat_vec": ("transvector.exactla", "mat_vec"),
    "exactla.nullspace": ("transvector.exactla", "nullspace"),
    "extension.condition_holds": ("transvector.extension", "condition_holds"),
    "extension.verify_lemma_conclusion": ("transvector.extension",
                                          "verify_lemma_conclusion"),
    "roots.maximal_abelian": ("transvector.roots", "maximal_abelian"),
    "roots.restricted_root_decomposition": ("transvector.roots",
                                            "restricted_root_decomposition"),
    "roots.verify_commutation_rules": ("transvector.roots", "verify_commutation_rules"),
    "geometry.mean_curvature_report": ("transvector.geometry", "mean_curvature_report"),
    "geometry.mean_curvature_estimate": ("transvector.geometry",
                                         "mean_curvature_estimate"),
    "geometry.cartan_project": ("transvector.geometry", "cartan_project"),
    "geometry.metric_matrix": ("transvector.geometry", "metric_matrix"),
    "geometry.expm": ("transvector.geometry", "expm"),
    "geometry.distance": ("transvector.geometry", "distance"),
    "geometry.distance_law_check": ("transvector.geometry", "distance_law_check"),
    "parallel.pmap": ("transvector.parallel", "pmap"),
}

# (metric, unit): every per-layer number the traced run reports, per traced request
_CALLS = ("report.write_report", "catalog.build_pair", "algfile.parse_algebra_file",
          "liealg.validate", "liealg.bracket", "liealg.ad_matrix", "liealg.killing_form",
          "subspaces.contains", "exactla.span_solver_init",
          "exactla.span_solver_contains", "exactla.mat_vec", "extension.condition_holds",
          "geometry.mean_curvature_estimate", "geometry.cartan_project",
          "geometry.metric_matrix", "geometry.expm", "geometry.distance",
          "parallel.pmap")
_SELF = ("cli.run", "report.write_report", "catalog.build_pair",
         "catalog.bisector_equidistance_check", "algfile.parse_algebra_file",
         "liealg.validate", "liealg.bracket", "liealg.ad_matrix", "liealg.killing_form",
         "subspaces.contains", "subspaces.orthocomplement_in_p",
         "subspaces.is_reflective", "subspaces.is_lie_triple_system",
         "exactla.span_solver_init", "exactla.span_solver_contains", "exactla.mat_vec",
         "exactla.nullspace", "extension.condition_holds",
         "extension.verify_lemma_conclusion", "roots.maximal_abelian",
         "roots.restricted_root_decomposition", "roots.verify_commutation_rules",
         "geometry.mean_curvature_estimate", "geometry.cartan_project",
         "geometry.metric_matrix", "geometry.expm", "geometry.distance_law_check",
         "parallel.pmap")
PER_LAYER = sorted(
    [(n + ".calls", "count/req") for n in _CALLS]
    + [(n + ".self_s", "s/req") for n in _SELF]
    + [("report.bytes_written", "B/req"),
       ("catalog.build_space.hit_ratio", "ratio"),
       ("subspaces.contains.member_ratio", "ratio"),
       ("exactla.solves_per_factorization", "ratio"),
       ("extension.terms_checked", "count/req"),
       ("geometry.nodes", "count/req"),
       ("geometry.cartan_project.per_node", "ratio"),
       ("geometry.metric_matrix.per_node", "ratio"),
       ("trace.overhead_ratio", "ratio")])


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Span recorder.  A span is (id, name, start, end, parent id, request
    id, self seconds); self time is the duration minus the child spans."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self.bytes_written = 0
        self.members = 0
        self.terms_checked = 0
        self.nodes = 0
        self._stack = []          # open spans: [id, accumulated child seconds]
        self._next = 0
        self._patches = []        # (owner, attribute, original)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, name, start, end, parent, self.request,
                              end - start - frame[1]))
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        """Patch every target where callers look it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("transvector") and m is not None]
        for name, (module, path) in TARGETS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in modules for k, v in vars(m).items()
                         if v is original]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapped)

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches = []

    def totals(self):
        """name -> [calls, self seconds]."""
        out = {}
        for _, name, _, _, _, _, self_s in self.spans:
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += self_s
        return out

    def calls_inside(self, ancestor, name):
        """Calls of `name` made while a span named `ancestor` was open; one
        thread means a child's interval lies inside its ancestor's."""
        windows = sorted((s[2], s[3]) for s in self.spans if s[1] == ancestor)
        starts = [w[0] for w in windows]
        count = 0
        for s in self.spans:
            if s[1] == name:
                i = bisect_right(starts, s[2]) - 1
                count += i >= 0 and s[3] <= windows[i][1]
        return count

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\tself_s\n")
            for s in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%.9f\n" % s)


def _contains_hook(tracer, result):
    tracer.members += bool(result[0])


def _condition_hook(tracer, verdict):
    tracer.terms_checked += verdict.checked


def _report_hook(tracer, report):
    tracer.nodes += len(report.entries)


_HOOKS = {"subspaces.contains": _contains_hook,
          "extension.condition_holds": _condition_hook,
          "geometry.mean_curvature_report": _report_hook}


def layer_metrics(tracer, requests, cache_hits, cache_misses, overhead_ratio):
    """Per-layer metrics, normalized per traced request."""
    tot = tracer.totals()
    n = max(1, requests)

    def calls(name):
        return tot.get(name, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in _CALLS:
        values[name + ".calls"] = calls(name) / n
    for name in _SELF:
        values[name + ".self_s"] = tot.get(name, (0, 0.0))[1] / n
    values.update({
        "report.bytes_written": tracer.bytes_written / n,
        "catalog.build_space.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "subspaces.contains.member_ratio": ratio(tracer.members,
                                                 calls("subspaces.contains")),
        "exactla.solves_per_factorization": ratio(calls("exactla.span_solver_contains"),
                                                  calls("exactla.span_solver_init")),
        "extension.terms_checked": tracer.terms_checked / n,
        "geometry.nodes": tracer.nodes / n,
        "geometry.cartan_project.per_node": ratio(
            tracer.calls_inside("geometry.mean_curvature_report",
                                "geometry.cartan_project"), tracer.nodes),
        "geometry.metric_matrix.per_node": ratio(
            tracer.calls_inside("geometry.mean_curvature_report",
                                "geometry.metric_matrix"), tracer.nodes),
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
