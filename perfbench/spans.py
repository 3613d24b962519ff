"""Outside-in tracing: spans around the public entry points of each module.

The program imports names by value, so a function is wrapped by rebinding
every module attribute that refers to it, in every ``maxnoether`` module.
Cached functions are wrapped outside their ``lru_cache``, so a span is a
call as the caller sees it, hit or miss, and hits and misses come from
``cache_info()``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

from maxnoether import blowup, curves, linalg, local, reports, semigroup, suites, valueset

LAYERS = ("semigroup", "valueset", "local", "blowup", "linalg", "curves", "suites", "reports")


def _note_rref(counters: Counter, result) -> None:
    rows, rank = result
    counters["rref_rows"] += len(rows)
    counters["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counters["rref_rank"] += rank


# span name -> (owner, attribute, kind, note)
TARGETS = {
    "linalg.rref": (linalg, "rref", "function", _note_rref),
    "linalg.nullspace": (linalg, "nullspace", "function", None),
    "linalg.span": (linalg.Subspace, "span", "classmethod", None),
    "curves.sections": (curves, "global_sections", "function", None),
    "curves.products": (curves, "products_span", "function", None),
    "curves.orders": (curves, "_subspace_orders", "function", None),
    "curves.constraint_rows": (curves, "_constraint_rows", "function", None),
    "curves.noether": (curves, "max_noether_holds", "function", None),
    "curves.resolution": (curves, "check_resolution_quotient", "function", None),
    "semigroup.enumerate": (semigroup, "enumerate_semigroups", "generator", None),
    "semigroup.from_gaps": (semigroup.NumericalSemigroup, "from_gaps", "classmethod", None),
    "valueset.sumset": (valueset, "sumset", "function", None),
    "valueset.n_fold": (valueset, "n_fold", "function", None),
    "local.verify": (local, "verify_local_surjectivity", "function", None),
    "local.certificates": (local, "build_certificates", "function", None),
    "blowup.analyze": (blowup, "analyze", "function", None),
    "suites.run_suite": (suites, "run_suite", "function", None),
    "suites.value_route_dim": (suites, "_value_route_dim", "function", None),
    "reports.write_jsonl": (reports, "write_jsonl", "function", None),
}

CACHES = {
    "sections": curves.global_sections,
    "products": curves.products_span,
    "embedded": curves._embedded_resolved_sections,
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, check id.

    The check id is the index of the check in progress, read from the
    runner's ``marks``: -1 during set-up, and the number of checks for the
    JSONL encoding after the last one.
    """

    def __init__(self, marks: list[float]):
        self.marks = marks
        self.in_loop = False
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        check = len(self.marks) if self.in_loop else -1
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, check]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if note is not None:
                note(self.counters, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, so time spent by the consumer is not counted."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                record = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(record)
                self.counters[name + ".yielded"] += 1
                yield item

        return traced

    def install(self) -> None:
        """Rebind every wrapped entry point in every loaded maxnoether module."""
        modules = [
            m for k, m in sys.modules.items() if k == "maxnoether" or k.startswith("maxnoether.")
        ]
        for name, (owner, attr, kind, note) in TARGETS.items():
            if kind == "classmethod":
                fn = owner.__dict__[attr].__func__
                setattr(owner, attr, classmethod(self.wrap(name, fn)))
                continue
            fn = getattr(owner, attr)
            if kind == "generator":
                wrapped = self.wrap_generator(name, fn)
            else:
                wrapped = self.wrap(name, fn, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the traced run."""
        spans = self.spans
        duration = [end - start for _, start, end, _, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for i, (name, _, _, parent, _) in enumerate(spans):
            calls[name] += 1
            self_time[name.split(".")[0]] += duration[i] - child_time[i]
            # time of a name counts only its outermost span, so recursion is not doubled
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += duration[i]
        c = self.counters
        out = {
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_s": inclusive["linalg.rref"],
            "linalg.rref_rows": c["rref_rows"],
            "linalg.rref_cells": c["rref_cells"],
            "linalg.rref_rank_ratio": c["rref_rank"] / c["rref_rows"] if c["rref_rows"] else 0.0,
            "linalg.nullspace_calls": calls["linalg.nullspace"],
            "linalg.nullspace_s": inclusive["linalg.nullspace"],
            "linalg.span_calls": calls["linalg.span"],
            "linalg.span_s": inclusive["linalg.span"],
            "curves.orders_calls": calls["curves.orders"],
            "curves.orders_s": inclusive["curves.orders"],
        }
        for key in ("sections", "products"):
            info = CACHES[key].cache_info()
            looked_up = info.hits + info.misses
            out[f"curves.{key}_calls"] = calls[f"curves.{key}"]
            out[f"curves.{key}_s"] = inclusive[f"curves.{key}"]
            out[f"curves.{key}_hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out.update(
            {
                "curves.constraint_rows_s": inclusive["curves.constraint_rows"],
                "curves.resolution_s": inclusive["curves.resolution"],
                "curves.noether_s": inclusive["curves.noether"],
                "curves.cache_entries": sum(f.cache_info().currsize for f in CACHES.values()),
                "semigroup.enumerate_s": inclusive["semigroup.enumerate"],
                "semigroup.yielded": c["semigroup.enumerate.yielded"],
                "semigroup.from_gaps_calls": calls["semigroup.from_gaps"],
                "semigroup.from_gaps_s": inclusive["semigroup.from_gaps"],
                "valueset.sumset_calls": calls["valueset.sumset"],
                "valueset.sumset_s": inclusive["valueset.sumset"],
                "valueset.n_fold_calls": calls["valueset.n_fold"],
                "valueset.n_fold_s": inclusive["valueset.n_fold"],
                "local.verify_calls": calls["local.verify"],
                "local.verify_s": inclusive["local.verify"],
                "local.certificates_calls": calls["local.certificates"],
                "local.certificates_s": inclusive["local.certificates"],
                "blowup.analyze_calls": calls["blowup.analyze"],
                "blowup.analyze_s": inclusive["blowup.analyze"],
                "reports.write_jsonl_s": inclusive["reports.write_jsonl"],
                "trace.spans": len(spans),
            }
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out

    def write(self, path, workload: str) -> None:
        """Write the spans as gzipped JSONL, one object per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            for name, start, end, parent, check in self.spans:
                fp.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "workload": workload, "check": check},
                        separators=(",", ":"),
                    )
                )
                fp.write("\n")
