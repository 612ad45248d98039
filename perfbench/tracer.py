"""Spans around the public functions of each involutive layer.

The program has no tracing of its own yet, so the benchmark wraps the
functions from outside: every module namespace that binds a traced
function gets the wrapper (``systems`` and ``cli`` import ``delta``,
``build_s_chain`` and others by name), and traced methods are replaced on
their class.  A span is ``[name, start, end, parent, task]``; spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover.

Wrappers only record while a task is open, so set-up and the oracles run
through them untraced.  Counting work (matrix products, rref cells,
repeated solves) is done outside the timed interval of the span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (span name, module, qualified attribute) for every traced callable.
FUNCTIONS = [
    ("linalg.matmul", "linalg", "Matrix.matmul"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.solve", "linalg", "Matrix.solve"),
    ("linalg.kernel", "linalg", "Matrix.kernel"),
    ("bases.sym_basis", "bases", "sym_basis"),
    ("bases.ext_basis", "bases", "ext_basis"),
    ("bases.contraction_matrix_sym", "bases", "contraction_matrix_sym"),
    ("bases.contraction_matrix", "bases", "contraction_matrix"),
    ("bases.contract_vector", "bases", "contract_vector"),
    ("bases.koszul_delta_full", "bases", "koszul_delta_full"),
    ("bases.gram_diagonal", "bases", "gram_diagonal"),
    ("tableau.init", "tableau", "Tableau.__init__"),
    ("tableau.level", "tableau", "Tableau.level"),
    ("tableau.view_at_level", "tableau", "Tableau.view_at_level"),
    ("tableau.prolong_via_intersection", "tableau", "prolong_via_intersection"),
    ("tableau.character_partial_sums", "tableau", "character_partial_sums"),
    ("tableau.characters", "tableau", "characters"),
    ("tableau.cartan_test", "tableau", "cartan_test"),
    ("tableau.involutive_index", "tableau", "involutive_index"),
    ("spencer.cell", "spencer", "SpencerCell.__init__"),
    ("spencer.delta", "spencer", "delta"),
    ("spencer.cohomology_dim", "spencer", "cohomology_dim"),
    ("spencer.two_acyclicity_report", "spencer", "two_acyclicity_report"),
    ("spencer.harmonic_split", "spencer", "HarmonicSplit.__init__"),
    ("guillemin.normal_form", "guillemin", "normal_form"),
    ("guillemin.verify_normal_form", "guillemin", "verify_normal_form"),
    ("systems.build_s_chain", "systems", "build_s_chain"),
    ("systems.verify_structure_equations", "systems", "verify_structure_equations"),
    ("systems.check_phi_in_B02", "systems", "check_phi_in_B02"),
    ("systems.check_torsion_condition", "systems", "check_torsion_condition"),
    ("poly.mul", "poly", "Polynomial.mul"),
    ("poly.compose", "poly", "Polynomial.compose"),
    ("cauchy.solve_formal", "cauchy", "solve_formal"),
    ("cauchy.verify_solution", "cauchy", "verify_solution"),
    ("cauchy.polar_dims", "cauchy", "polar_dims"),
    ("cauchy.restricted_polar_check", "cauchy", "restricted_polar_check"),
    ("cli.main", "cli", "main"),
]

# The lru caches whose cache_info() gives bases.cache_hit_share.
CACHED_BASES = ("sym_basis", "ext_basis", "contraction_matrix_sym",
                "contraction_matrix", "koszul_delta_full")

# Per-layer metrics in output order, with their units.
PER_LAYER = [
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.matmul.products", "count"),
    ("linalg.matmul.zero_share", "ratio"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.max_bits", "bits"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.repeat_share", "ratio"),
    ("linalg.kernel.calls", "count"),
    ("linalg.kernel.self_s", "s"),
    ("bases.self_s", "s"),
    ("bases.cache_hit_share", "ratio"),
    ("tableau.self_s", "s"),
    ("tableau.characters.self_s", "s"),
    ("tableau.flags_evaluated", "count"),
    ("tableau.level.calls", "count"),
    ("tableau.level.hit_share", "ratio"),
    ("tableau.involutive_index.calls", "count"),
    ("tableau.view_at_level.self_s", "s"),
    ("spencer.cell.builds", "count"),
    ("spencer.cell.reuse_share", "ratio"),
    ("spencer.cell.self_s", "s"),
    ("spencer.delta.calls", "count"),
    ("spencer.delta.self_s", "s"),
    ("spencer.harmonic_split.builds", "count"),
    ("spencer.harmonic_split.self_s", "s"),
    ("guillemin.normal_form.self_s", "s"),
    ("guillemin.verify_normal_form.self_s", "s"),
    ("systems.build_s_chain.self_s", "s"),
    ("systems.verify_structure_equations.self_s", "s"),
    ("systems.certificates.self_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.compose.calls", "count"),
    ("poly.compose.self_s", "s"),
    ("poly.max_terms", "count"),
    ("cauchy.solve_formal.self_s", "s"),
    ("cauchy.verify_solution.self_s", "s"),
    ("cauchy.polar.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
]


def _entries(row):
    """(column, value) pairs of a dense list row or a sparse dict row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _share(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    """Records spans and work counts while a task is open."""

    def __init__(self):
        self.spans = []
        self.tasks = []
        self.task = None
        self._stack = []
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.max_terms = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self._seen = {}
        self.cache_info = []
        self._cache_at_begin = (0, 0)

    # -- installation -----------------------------------------------------

    def install(self, lib):
        """Wrap every traced callable of the freshly imported package."""
        modules = list(lib.modules.values())
        bases = lib.modules["bases"]
        self.cache_info = [getattr(bases, n).cache_info for n in CACHED_BASES
                           if hasattr(getattr(bases, n), "cache_info")]
        hooks = {
            "linalg.matmul": (self._pre_matmul, None),
            "linalg.rref": (self._pre_rref, self._post_rref),
            "linalg.solve": (self._pre_solve, None),
            "spencer.cell": (self._pre_cell, None),
            "poly.mul": (None, self._post_poly),
            "poly.compose": (None, self._post_poly),
        }
        for name, mod_name, attr in FUNCTIONS:
            mod = lib.modules[mod_name]
            pre, post = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), pre, post))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, pre, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn, pre, post):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    # -- work counters ----------------------------------------------------

    def _pre_matmul(self, args, kwargs):
        a, b = args[0], args[1]
        col_nnz = [0] * a.ncols
        for row in a.rows:
            for j, x in _entries(row):
                if x:
                    col_nnz[j] += 1
        nonzero = 0
        for j, row in enumerate(b.rows):
            if col_nnz[j]:
                nonzero += col_nnz[j] * sum(1 for _, x in _entries(row) if x)
        self.counts["matmul.products"] += a.nrows * a.ncols * b.ncols
        self.counts["matmul.nonzero_products"] += nonzero

    def _pre_rref(self, args, kwargs):
        self.counts["rref.cells"] += args[0].nrows * args[0].ncols

    def _post_rref(self, args, result):
        bits = self.max_bits
        for row in result[0].rows:
            for _, x in _entries(row):
                if x:
                    b = max(x.numerator.bit_length(), x.denominator.bit_length())
                    if b > bits:
                        bits = b
        self.max_bits = bits

    def _pre_solve(self, args, kwargs):
        seen = self._seen.setdefault("solve", {})
        if id(args[0]) in seen:
            self.counts["solve.repeats"] += 1
        else:
            seen[id(args[0])] = args[0]

    def _pre_cell(self, args, kwargs):
        # SpencerCell.__init__(self, tableau, q, p, max_dim=...)
        call = dict(zip(("self", "tableau", "q", "p"), args), **kwargs)
        seen = self._seen.setdefault("cell", {})
        key = (id(call["tableau"]), call["q"], call["p"])
        if key in seen:
            self.counts["cell.reuses"] += 1
        else:
            seen[key] = call["tableau"]

    def _post_poly(self, args, result):
        if len(result.terms) > self.max_terms:
            self.max_terms = len(result.terms)

    # -- tasks --------------------------------------------------------------

    def begin(self, task_id):
        self._seen = {}
        self._cache_at_begin = self.cache_counts()
        self.tasks.append([task_id, 1.0])
        self.task = len(self.tasks) - 1

    def end(self, factor):
        """Close the task; its span times are later scaled by factor."""
        self.tasks[self.task][1] = factor
        self.task = None
        self._seen = {}
        hits, lookups = self.cache_counts()
        self.cache_hits += hits - self._cache_at_begin[0]
        self.cache_lookups += lookups - self._cache_at_begin[1]

    def cache_counts(self):
        """(hits, lookups) summed over the bases lru caches."""
        hits = lookups = 0
        for cache_info in self.cache_info:
            info = cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
        return hits, lookups

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span self time, corrected like its task's latency, and
        whether each span has children."""
        child = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for name, start, end, parent, task in self.spans:
            if parent >= 0:
                child[parent] += end - start
                has_child[parent] = True
        out = [(end - start - child[i]) * self.tasks[task][1]
               for i, (name, start, end, parent, task) in enumerate(self.spans)]
        return out, has_child

    def metrics(self, passes, overhead_share):
        """Per-layer metrics averaged over the traced passes."""
        selfs, has_child = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        level_hits = 0
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_s[span[0]] += selfs[i]
            if span[0] == "tableau.level" and not has_child[i]:
                level_hits += 1

        def layer(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        c = self.counts
        per = float(passes)
        m = {
            "linalg.matmul.calls": calls["linalg.matmul"] / per,
            "linalg.matmul.self_s": self_s["linalg.matmul"] / per,
            "linalg.matmul.products": c["matmul.products"] / per,
            "linalg.matmul.zero_share": 1.0 - _share(
                c["matmul.nonzero_products"], c["matmul.products"])
            if c["matmul.products"] else 0.0,
            "linalg.rref.calls": calls["linalg.rref"] / per,
            "linalg.rref.self_s": self_s["linalg.rref"] / per,
            "linalg.rref.cells": c["rref.cells"] / per,
            "linalg.rref.max_bits": self.max_bits,
            "linalg.solve.calls": calls["linalg.solve"] / per,
            "linalg.solve.repeat_share": _share(c["solve.repeats"],
                                                calls["linalg.solve"]),
            "linalg.kernel.calls": calls["linalg.kernel"] / per,
            "linalg.kernel.self_s": self_s["linalg.kernel"] / per,
            "bases.self_s": layer("bases.") / per,
            "bases.cache_hit_share": _share(self.cache_hits, self.cache_lookups),
            "tableau.self_s": layer("tableau.") / per,
            "tableau.characters.self_s": (
                self_s["tableau.characters"]
                + self_s["tableau.character_partial_sums"]) / per,
            "tableau.flags_evaluated": calls["tableau.character_partial_sums"] / per,
            "tableau.level.calls": calls["tableau.level"] / per,
            "tableau.level.hit_share": _share(level_hits, calls["tableau.level"]),
            "tableau.involutive_index.calls": calls["tableau.involutive_index"] / per,
            "tableau.view_at_level.self_s": self_s["tableau.view_at_level"] / per,
            "spencer.cell.builds": calls["spencer.cell"] / per,
            "spencer.cell.reuse_share": _share(c["cell.reuses"],
                                               calls["spencer.cell"]),
            "spencer.cell.self_s": self_s["spencer.cell"] / per,
            "spencer.delta.calls": calls["spencer.delta"] / per,
            "spencer.delta.self_s": self_s["spencer.delta"] / per,
            "spencer.harmonic_split.builds": calls["spencer.harmonic_split"] / per,
            "spencer.harmonic_split.self_s": self_s["spencer.harmonic_split"] / per,
            "guillemin.normal_form.self_s": self_s["guillemin.normal_form"] / per,
            "guillemin.verify_normal_form.self_s":
                self_s["guillemin.verify_normal_form"] / per,
            "systems.build_s_chain.self_s": self_s["systems.build_s_chain"] / per,
            "systems.verify_structure_equations.self_s":
                self_s["systems.verify_structure_equations"] / per,
            "systems.certificates.self_s": (
                self_s["systems.check_phi_in_B02"]
                + self_s["systems.check_torsion_condition"]) / per,
            "poly.mul.calls": calls["poly.mul"] / per,
            "poly.mul.self_s": self_s["poly.mul"] / per,
            "poly.compose.calls": calls["poly.compose"] / per,
            "poly.compose.self_s": self_s["poly.compose"] / per,
            "poly.max_terms": self.max_terms,
            "cauchy.solve_formal.self_s": self_s["cauchy.solve_formal"] / per,
            "cauchy.verify_solution.self_s": self_s["cauchy.verify_solution"] / per,
            "cauchy.polar.self_s": (
                self_s["cauchy.polar_dims"]
                + self_s["cauchy.restricted_polar_check"]) / per,
            "cli.self_s": self_s["cli.main"] / per,
            "trace.spans": len(self.spans) / per,
            "trace.overhead_share": overhead_share,
        }
        return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path):
        """Write the tasks, then every span, as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"tasks": "[task id, time correction factor]",
                                 "spans": "[name, start, end, parent span, "
                                          "task index]"}) + "\n")
            for task in self.tasks:
                fh.write(json.dumps(task) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
