"""Span tracing of the program's layers from outside the program.

Every public function of the traced modules is replaced, at every module
name that binds it (`from .refelem import gauss_rule` makes a second
binding in the importing module), by a wrapper that records one span per
call: name, start, end and parent. Spans stay in memory until the pass
ends. Counts are recorded at the same boundaries.

Wrappers pass arguments and results through unchanged, so a traced pass
computes bit-identical outputs to an untraced one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("harness", "problems", "refelem", "layerquad", "assembly",
          "linalg", "projections", "norms", "mesh")

# Fields of ProblemSpec and ExactSolution evaluated at points (x, y).
SPEC_FIELDS = ("beta1", "beta2", "c", "div_beta", "f")
EXACT_FIELDS = ("u", "u_x", "u_y", "laplacian")


class Tracer:
    """Span recorder. spans[i] is [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._local_keys = set()
        self.ref_tables = None  # the unwrapped lru_cache, for cache_info()

    def wrap(self, name, fn, after=None):
        """Wrapper of `fn` that records a span `name` per call and then
        calls `after(args, result)`, which may replace the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            return after(args, result) if after else result
        return traced

    # -- counts recorded at layer boundaries -------------------------------

    def _count_points(self, args, result):
        self.counts["problems.points"] += int(np.broadcast(*args[:2]).size)
        return result

    def _traced_spec(self, args, spec):
        """A copy of the problem whose point-evaluated fields are traced."""
        ev = functools.partial(self.wrap, "problems.eval",
                               after=self._count_points)
        exact = spec.exact
        if exact is not None:
            exact = dataclasses.replace(
                exact, **{f: ev(getattr(exact, f)) for f in EXACT_FIELDS})
        return dataclasses.replace(
            spec, exact=exact, **{f: ev(getattr(spec, f)) for f in SPEC_FIELDS})

    def _count_local(self, args, result):
        mesh, spec, cfg = args[:3]
        digest = hashlib.sha1(mesh.x_nodes.tobytes() + mesh.y_nodes.tobytes())
        self._local_keys.add((digest.hexdigest(), spec.name, spec.epsilon, cfg))
        return result

    def _count_refined(self, args, result):
        self.counts["layerquad.refined_cells"] += len(result)
        return result

    def _count_solve(self, args, result):
        self.counts["linalg.dofs"] += args[0].n
        self.counts["linalg.nnz"] += args[0].nnz
        return result

    def _count_lu(self, args, lu):
        self.counts["linalg.lu_nnz"] += int(lu.nnz)
        return lu

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module at each binding.
        Returns the list of (owner, attribute, original) to restore."""
        mods = {m: importlib.import_module(f"shishkin_hdg.{m}") for m in LAYERS}
        self.ref_tables = mods["refelem"].ref_tables
        after = {"problems.get_problem": self._traced_spec,
                 "assembly.build_local_systems": self._count_local,
                 "layerquad.refined_cells": self._count_refined}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                # functions, and lru_cache wrappers such as ref_tables
                if attr.startswith("_") or inspect.isclass(obj) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, after.get(name))
        # CellQuad is a class whose construction is the quadrature set-up
        cq = mods["refelem"].CellQuad
        wrapped[id(cq)] = self.wrap("refelem.CellQuad", cq)

        patches = []
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        sm = mods["linalg"].SparseMatrix
        patches.append((sm, "solve", sm.solve))
        sm.solve = self.wrap("linalg.SparseMatrix.solve", sm.solve,
                             self._count_solve)
        # the SuperLU factorization linalg calls through scipy
        spla = mods["linalg"].spla
        patches.append((spla, "splu", spla.splu))
        spla.splu = self.wrap("linalg.splu", spla.splu, self._count_lu)
        return patches

    @staticmethod
    def uninstall(patches):
        for owner, attr, obj in reversed(patches):
            setattr(owner, attr, obj)

    # -- derived metrics -------------------------------------------------------

    def inclusive(self) -> tuple:
        """(calls, seconds) per span name, counting only the outermost span
        of a name so recursion is not double counted."""
        calls, secs = defaultdict(int), defaultdict(float)
        spans = self.spans
        for name, start, end, parent in spans:
            calls[name] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                secs[name] += end - start
        return calls, secs

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def metrics(self, pass_wall: float, pass_cpu: float, cache_delta) -> dict:
        """The per-layer metrics of one traced pass, as name -> (value, unit)."""
        calls, secs = self.inclusive()
        c = self.counts
        hits, misses = cache_delta
        n_local = calls["assembly.build_local_systems"]
        m = {
            "harness.cells": (calls["harness.solve_cell"], "count"),
            "harness.cell_s": (secs["harness.solve_cell"], "s"),
            "harness.cpu_s": (pass_cpu, "s"),
            "harness.overhead_s": (pass_wall - secs["harness.solve_cell"], "s"),
            "problems.points": (c["problems.points"], "count"),
            "problems.eval_s": (secs["problems.eval"], "s"),
            "refelem.gauss_rule.calls": (calls["refelem.gauss_rule"], "count"),
            "refelem.gauss_rule_s": (secs["refelem.gauss_rule"], "s"),
            "refelem.cellquad.calls": (calls["refelem.CellQuad"], "count"),
            "refelem.cellquad_s": (secs["refelem.CellQuad"], "s"),
            "refelem.ref_tables.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "layerquad.refined_cells": (c["layerquad.refined_cells"], "count"),
            "layerquad.cell_rule.calls": (calls["layerquad.cell_rule"], "count"),
            "layerquad.cell_rule_s": (secs["layerquad.cell_rule"], "s"),
            "assembly.local.calls": (n_local, "count"),
            "assembly.local.distinct_ratio": (
                len(self._local_keys) / n_local if n_local else 0.0, "ratio"),
            "assembly.local_s": (secs["assembly.build_local_systems"], "s"),
            "assembly.condense_s": (secs["assembly.condense"], "s"),
            "assembly.scatter_s": (secs["assembly.assemble_trace_system"], "s"),
            "assembly.stab_s": (secs["assembly.check_stabilization"], "s"),
            "assembly.solve_total_s": (secs["assembly.assemble_and_solve"], "s"),
            "linalg.dofs": (c["linalg.dofs"], "count"),
            "linalg.nnz": (c["linalg.nnz"], "count"),
            "linalg.lu_nnz": (c["linalg.lu_nnz"], "count"),
            "linalg.solve_s": (secs["linalg.SparseMatrix.solve"], "s"),
            "projections.project_s": (secs["projections.project_exact"], "s"),
            "norms.error_report_s": (secs["norms.error_report"], "s"),
            "norms.refined_corrections_s": (
                secs["norms.refined_error_corrections"], "s"),
            "norms.bilinear_residual_s": (secs["norms.bilinear_residual"], "s"),
            "mesh.build_s": (secs["mesh.build_mesh"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        for layer, s in self.self_times().items():
            m[f"{layer}.self_s"] = (s, "s")
        return m

    def dump(self, path: str):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
