"""Spans around the public functions of lieposet, installed from outside.

The tracer replaces each listed function in its defining module and in
every loaded lieposet module that imported it by name, patches the listed
methods on their classes, and wraps the entries of the harness check
registry.  Each call becomes a span (name, start, end, parent id); spans
stay in memory until the run ends.  Nothing inside the package changes:
uninstall() puts every original object back.

Self time is a span's duration minus the time its direct children cover;
spans are properly nested because the program runs in one thread.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
import sys
from array import array
from time import perf_counter

from workloads import tail

# (module, attribute path) of every layer boundary that gets a span.  A
# name missing from the program is skipped and listed in `missing`.
BOUNDARIES = (
    ("posets", "poset_from_mask"),
    ("posets", "poset_from_graph"),
    ("posets", "build_poset"),
    ("posets", "relation_graph"),
    ("posets", "height"),
    ("posets", "graph_components"),
    ("posets", "induced_subposet"),
    ("algebra", "structure_constants"),
    ("algebra", "build_basis"),
    ("algebra", "decompose"),
    ("algebra", "verify_CD_isomorphism"),
    ("algebra", "verify_B_reduction"),
    ("algebra", "SparseMatrixQ.commutator"),
    ("index_engine", "commutator_matrix"),
    ("index_engine", "generic_rank"),
    ("index_engine", "index_oracle"),
    ("index_engine", "index_formula"),
    ("index_engine", "reduce"),
    ("index_engine", "CommutatorMatrix.evaluate"),
    ("linalg", "ExactMatrix.__init__"),
    ("linalg", "ExactMatrix.rank"),
    ("linalg", "ExactMatrix.solve"),
    ("frobenius", "is_frobenius_by_graph"),
    ("frobenius", "frobenius_functional"),
    ("frobenius", "kernel_dim"),
    ("frobenius", "principal_element"),
    ("frobenius", "spectrum"),
    ("frobenius", "Functional.point"),
    ("harness", "run_campaign"),
    ("harness", "run_checks_on_poset"),
    ("harness", "report_json_bytes"),
    ("formats", "parse_inline"),
    ("formats", "poset_to_json_obj"),
    ("formats", "principal_element_json_obj"),
    ("formats", "spectrum_json_obj"),
    ("formats", "reduction_trace_json_obj"),
    ("formats", "structure_constants_json_obj"),
)

# the reduction reseeds attempt k with seed + RESEED_STEP * k
RESEED_STEP = 1000003


def _span_name(module, path):
    return f"{module}.{path.replace('__init__', 'init')}"


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("i")
        self.parent = array("i")
        self.values = {}  # span id -> value recorded at the boundary
        self.stack = [-1]
        self.patches = []  # (setter, owner, key, original), undone in reverse
        self.missing = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A stand-in for fn that records one span per call.

        before() runs just ahead of the call; after(state, args, kwargs,
        result) returns the value stored with the span, if any.
        """
        nid = len(self.names)
        self.names.append(name)
        start, end, name_of, parent = self.start, self.end, self.name_of, self.parent
        stack, values = self.stack, self.values

        def traced(*args, **kwargs):
            state = before() if before else None
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            start[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after:
                value = after(state, args, kwargs, result)
                if value is not None:
                    values[sid] = value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def install(self):
        modules = {
            short: importlib.import_module(f"lieposet.{short}")
            for short in sorted({m for m, _ in BOUNDARIES})
        }
        loaded = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "lieposet"]
        for short, path in BOUNDARIES:
            owner = modules[short]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.missing.append(_span_name(short, path))
                continue
            name = _span_name(short, path)
            before, after = self._hooks(name, original)
            traced = self.wrap(name, original, before, after)
            if len(parts) > 1:
                self._set(setattr, owner, attr, traced)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(setattr, module, key, traced)
        harness = modules["harness"]
        for key, check in list(harness.CHECKS.items()):
            self._set(dict.__setitem__, harness.CHECKS, key,
                      self.wrap(f"harness.check.{key}", check))

    def _set(self, setter, owner, key, value):
        original = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
        self.patches.append((setter, owner, key, original))
        setter(owner, key, value)

    def uninstall(self):
        while self.patches:
            setter, owner, key, original = self.patches.pop()
            setter(owner, key, original)

    def _hooks(self, name, original):
        """Boundary-specific values: cache misses, ranks, oracle keys, retries."""
        if name == "algebra.structure_constants":
            info = getattr(original, "cache_info", None)
            if info is None:  # no cache: every call computes
                return None, lambda state, a, k, r: 1
            return (lambda: info().misses), (
                lambda state, a, k, r: int(info().misses > state)
            )
        if name == "linalg.ExactMatrix.rank":
            return None, lambda state, a, k, r: (r, a[0].nrows * a[0].ncols)
        if name == "index_engine.index_oracle":
            sig = inspect.signature(original)

            def oracle_key(state, a, k, r):
                bound = sig.bind(*a, **k)
                bound.apply_defaults()
                return tuple(bound.arguments.values())

            return None, oracle_key
        if name == "index_engine.reduce":
            sig = inspect.signature(original)

            def steps_retries(state, a, k, r):
                bound = sig.bind(*a, **k)
                bound.apply_defaults()
                seed = bound.arguments.get("seed", r.seed)
                return len(r.steps), (r.seed - seed) // RESEED_STEP

            return None, steps_retries
        return None, None

    # -- reading ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, total_s, self_s, durations and values."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "values": []}
            for name in self.names
        }
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += dur[i] - covered[i]
            entry["durations"].append(dur[i])
            if i in self.values:
                entry["values"].append(self.values[i])
        return out

    def late_max(self):
        """generic_rank calls whose best rank came after the first trial."""
        try:
            gid = self.names.index("index_engine.generic_rank")
            rid = self.names.index("linalg.ExactMatrix.rank")
        except ValueError:
            return 0
        ranks = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name_of[i] == rid and i in self.values and p >= 0 and self.name_of[p] == gid:
                ranks.setdefault(p, []).append(self.values[i][0])
        return sum(1 for seq in ranks.values() if max(seq) > seq[0])

    def write(self, path):
        """Dump every span as gzip'd text: id parent name start end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names: " + " ".join(self.names) + "\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i} {self.parent[i]} {self.name_of[i]} "
                    f"{self.start[i]:.9f} {self.end[i]:.9f}\n"
                )


def layer_metrics(tracer):
    """The per-layer metrics every traced run reports, by metric name."""
    s = tracer.summary()
    out = {}
    for name, entry in s.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.total_s"] = entry["total_s"]
        out[f"{name}.self_s"] = entry["self_s"]
    cache = s.get("algebra.structure_constants", {"values": [], "durations": []})
    flags = cache["values"]
    out["algebra.structure_constants.misses"] = sum(flags)
    out["algebra.structure_constants.hits"] = len(flags) - sum(flags)
    out["algebra.structure_constants.miss_s"] = sum(
        d for d, miss in zip(cache["durations"], flags) if miss
    )
    keys = s.get("index_engine.index_oracle", {"values": []})["values"]
    out["index_engine.index_oracle.distinct"] = len(set(keys))
    out["linalg.ExactMatrix.rank.cells"] = sum(
        cells for _, cells in s.get("linalg.ExactMatrix.rank", {"values": []})["values"]
    )
    red = s.get("index_engine.reduce", {"values": []})["values"]
    out["index_engine.reduce.steps"] = sum(steps for steps, _ in red)
    out["index_engine.reduce.retries"] = sum(retries for _, retries in red)
    out["index_engine.generic_rank.late_max"] = tracer.late_max()
    per_poset = s.get("harness.run_checks_on_poset", {"durations": []})["durations"]
    if per_poset:
        out["harness.run_checks_on_poset.p50_ms"] = statistics.median(per_poset) * 1e3
        out["harness.run_checks_on_poset.tail_ms"] = tail(per_poset, 99)[1] * 1e3
    out["trace.spans"] = len(tracer.start)
    return out

