"""Span tracer around the package's public functions, installed from outside.

Each listed function is wrapped once and the wrapper is rebound in every
``suborbifolds`` module that bound the original by name (``solve_affine``
is bound in ``linalg``, ``classify`` and ``maps``, for example). The
``FiniteMatrixGroup`` constructor is traced by wrapping ``__init__``.
Spans ``(name, start, end, parent, value)`` stay in memory until the run
ends; self time and the counters are derived from them afterwards.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time

LAYERS = {
    "linalg": ("solve_affine", "intersect", "affine_subspace", "transform_subspace",
               "mat_mul"),
    "groups": ("generate_group", "FiniteMatrixGroup", "all_subgroups", "find_complement",
               "pointwise_stabilizer", "stabilizer", "quotient_group", "iso_fingerprint"),
    "classify": ("classify", "check_saturated", "check_full", "check_embedded",
                 "induced_chart", "isotropy_sub_point", "isotropy_point"),
    "maps": ("product_chart", "graph_suborbifold", "intersect_full",
             "preimage_suborbifold", "fibered_product"),
    "metric": ("lemma_metrics_check", "quotient_distance", "intrinsic_quotient_distance"),
    "scene": ("parse_scene", "dump_machine_report"),
    "cli": ("main",),
    "corpus": ("run_corpus",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
PACKAGE = "suborbifolds"


def _span_value(name, args, result):
    """A per-span count: subgroups returned, complement found, table cells."""
    if name == "groups.all_subgroups":
        return len(result)
    if name == "groups.find_complement":
        return int(not hasattr(result, "subgroups_checked"))
    if name == "groups.FiniteMatrixGroup":
        return args[0].order ** 2
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name_id, fn):
        spans, stack = self.spans, self._stack
        name = NAMES[name_id]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            value = 0
            try:
                result = fn(*args, **kwargs)
                value = _span_value(name, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, value)

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name_id, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:  # a module the workload never imports has no calls
                continue
            original = getattr(home, fn_name)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap(name_id, init)
                continue
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,value\n")
            for name_id, start, end, parent, value in self.spans:
                fh.write(f"{NAMES[name_id]},{start:.9f},{end:.9f},{parent},{value}\n")

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(NAMES, 0)
        for span in self.spans:
            out[NAMES[span[0]]] += 1
        return out

    def metrics(self, untraced_s: float, traced_s: float,
                time_scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics derived from the spans.

        Self times are multiplied by ``time_scale`` (see ``speed``).
        """
        n = len(NAMES)
        calls = [0] * n
        self_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        cells = subgroups = enumerated = found = 0
        complement = NAMES.index("groups.find_complement")
        for idx, (name_id, start, end, parent, value) in enumerate(self.spans):
            calls[name_id] += 1
            self_s[name_id] += ((end - start) - child[idx]) * time_scale
            name = NAMES[name_id]
            if name == "groups.FiniteMatrixGroup":
                cells += value
            elif name == "groups.all_subgroups":
                subgroups += value
                if self._has_ancestor(idx, complement):
                    enumerated += value
            elif name_id == complement:
                found += value
        out = {}
        for mod, fns in LAYERS.items():
            total = 0.0
            for fn in fns:
                i = NAMES.index(f"{mod}.{fn}")
                out[f"{mod}.{fn}.calls"] = calls[i]
                out[f"{mod}.{fn}.self_s"] = self_s[i]
                total += self_s[i]
            out[f"{mod}.self_s"] = total
        out["groups.FiniteMatrixGroup.table_cells"] = cells
        out["groups.all_subgroups.subgroups"] = subgroups
        out["groups.find_complement.hit_ratio"] = found / enumerated if enumerated else 0.0
        n_classify = calls[NAMES.index("classify.classify")]
        out["classify.check_saturated.per_classify"] = (
            calls[NAMES.index("classify.check_saturated")] / n_classify if n_classify else 0.0)
        out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
        return out

    def _has_ancestor(self, idx, name_id):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name_id:
                return True
            parent = self.spans[parent][3]
        return False


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
        units[f"{mod}.self_s"] = "s"
    units.update({
        "groups.FiniteMatrixGroup.table_cells": "count",
        "groups.all_subgroups.subgroups": "count",
        "groups.find_complement.hit_ratio": "ratio",
        "classify.check_saturated.per_classify": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units
