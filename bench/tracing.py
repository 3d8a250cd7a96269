"""Span tracing for the traced benchmark run.

The tracer replaces the module attributes through which ``dfalab.cli``
and ``ProgramPipeline`` reach each layer with timing wrappers, and puts
the originals back on ``uninstall``.  Nothing inside dfalab changes.

Each call into a layer becomes a span: request id (the program's index
in the pass), label, start, end and parent span.  A span's self time
is its duration minus the time its child spans cover.  Counters sit at
the same boundaries, so ratios such as weight searches per lookup are
measured where the work happens.

A wrapper whose target attribute no longer exists is skipped and its
layer is listed in ``absent``; its metrics read 0.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

KINDS = ("cp", "faint", "avail", "reach", "live")

# Time layers, as (span name, metric prefix, one metric per analysis kind).
SPAN_LAYERS = (
    ("cli.report", "cli.report_s", False),
    ("ir.parse", "ir.parse_s", False),
    ("ir.build_cfg", "ir.build_cfg_s", False),
    ("cfg_metrics.depth", "cfg_metrics.depth_s", False),
    ("cfg_metrics.weight", "cfg_metrics.weight_s", False),
    ("analyses.framework", "analyses.framework_s", True),
    ("analyses.renamed_sets", "analyses.renamed_sets_s", False),
    ("engine.solve", "engine.solve_s", True),
    ("edg.build", "edg.build_s", True),
    ("edg.delta", "edg.delta_s", True),
    ("bounds.record", "bounds.record_s", False),
    ("bounds.emit", "bounds.emit_s", False),
)

# Count layers, as (metric prefix, one metric per analysis kind).
COUNT_LAYERS = (
    ("cfg_metrics.weight_lookups", False),
    ("cfg_metrics.weight_searches", False),
    ("engine.passes", True),
    ("engine.trace_records", True),
    ("edg.nodes", True),
    ("edg.edges", True),
    ("edg.delta_vector_calls", True),
    ("bounds.records", False),
)

# Set by the runner, not by a wrapper.
EXTRA_LAYERS = (
    ("generator.generate_s", "s"),
    ("trace.overhead_pct", "%"),
)


def _expand(prefix: str, per_kind: bool) -> list[str]:
    return [f"{prefix}.{k}" for k in KINDS] if per_kind else [prefix]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for _, prefix, per_kind in SPAN_LAYERS:
        units.update((n, "s") for n in _expand(prefix, per_kind))
    for prefix, per_kind in COUNT_LAYERS:
        units.update((n, "count") for n in _expand(prefix, per_kind))
    units.update(EXTRA_LAYERS)
    return units


class Tracer:
    """Records spans and counts around dfalab's layer boundaries."""

    def __init__(self) -> None:
        # Each span: [request, label, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.request = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn inside a span labelled `label`."""
        index = len(self.spans)
        self.spans.append([self.request, label, 0.0, 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            span = self.spans[index]
            span[2], span[3] = start, end

    def spanned(self, label, fn, after=None):
        """Wrap fn in a span; `label` may be a function of fn's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(*args) if callable(label) else label
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(name, args, result)
            return result
        return wrapper

    def counted(self, counter, fn):
        """Wrap fn so that each call bumps the counter counter(*args)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter(*args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------

    def patch(self, owner, attr: str, layer: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original), or note it absent."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{layer} ({getattr(owner, '__name__', owner)}.{attr})")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self, modules) -> None:
        """Wrap every layer boundary; `modules` maps short names to modules."""
        self.absent = []
        cli, bounds, cfg_metrics, edg = (modules[n] for n in
                                         ("cli", "bounds", "cfg_metrics", "edg"))
        counts = self.counts

        def by_kind(prefix, pick):
            return lambda *args: f"{prefix}.{pick(args)}"

        def after_solve(name, args, result):
            kind = name.rsplit(".", 1)[1]
            counts[f"engine.passes.{kind}"] += result.passes_executed
            counts[f"engine.trace_records.{kind}"] += len(result.trace)

        def after_edg(name, args, result):
            kind = name.rsplit(".", 1)[1]
            counts[f"edg.nodes.{kind}"] += len(result.nodes)
            counts[f"edg.edges.{kind}"] += len(result.edges)

        def after_search(name, args, result):
            counts["cfg_metrics.weight_searches"] += 1

        def after_record(name, args, result):
            counts["bounds.records"] += 1

        def weight_table(original):
            class CountingWeightTable(original):
                def weight(self, frm, to):
                    counts["cfg_metrics.weight_lookups"] += 1
                    return super().weight(frm, to)
            return CountingWeightTable

        span = self.spanned
        self.patch(cli, "parse_program", "ir.parse",
                   lambda f: span("ir.parse", f))
        self.patch(bounds, "build_cfg", "ir.build_cfg",
                   lambda f: span("ir.build_cfg", f))
        self.patch(bounds, "WeightTable", "cfg_metrics.weight_lookups", weight_table)
        self.patch(cfg_metrics, "depth", "cfg_metrics.depth",
                   lambda f: span("cfg_metrics.depth", f))
        self.patch(cfg_metrics, "max_backedge_acyclic_weight", "cfg_metrics.weight",
                   lambda f: span("cfg_metrics.weight", f, after_search))
        self.patch(bounds, "make_framework", "analyses.framework",
                   lambda f: span(by_kind("analyses.framework", lambda a: a[1]), f))
        for attr in ("reaching_definitions", "live_uses"):
            self.patch(edg, attr, "analyses.renamed_sets",
                       lambda f: span("analyses.renamed_sets", f))
        self.patch(bounds, "round_robin_solve", "engine.solve",
                   lambda f: span(by_kind("engine.solve", lambda a: a[0].kind),
                                  f, after_solve))
        self.patch(bounds, "build_edg", "edg.build",
                   lambda f: span(by_kind("edg.build", lambda a: a[1].kind),
                                  f, after_edg))
        self.patch(bounds, "degree_of_dependence", "edg.delta",
                   lambda f: span(by_kind("edg.delta", lambda a: a[0].kind), f))
        self.patch(edg, "delta_vector", "edg.delta_vector_calls",
                   lambda f: self.counted(
                       by_kind("edg.delta_vector_calls", lambda a: a[0].kind), f))
        self.patch(getattr(bounds, "ProgramPipeline", None), "record", "bounds.record",
                   lambda f: span("bounds.record", f, after_record))
        self.patch(cli, "emit_report", "bounds.emit",
                   lambda f: span("bounds.emit", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------

    def self_times(self) -> Counter[str]:
        """Self time per span label, summed over all spans."""
        child = [0.0] * len(self.spans)
        for request, label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter[str] = Counter()
        for index, (_, label, start, end, _) in enumerate(self.spans):
            totals[label] += (end - start) - child[index]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every span and count metric; layers never reached read 0."""
        selfs = self.self_times()
        values: dict[str, float] = {}
        for span_name, prefix, per_kind in SPAN_LAYERS:
            if per_kind:
                for kind in KINDS:
                    values[f"{prefix}.{kind}"] = selfs.get(f"{span_name}.{kind}", 0.0)
            else:
                values[prefix] = selfs.get(span_name, 0.0)
        for prefix, per_kind in COUNT_LAYERS:
            for name in _expand(prefix, per_kind):
                values[name] = self.counts.get(name, 0)
        return values

    def write_spans(self, path: Path) -> None:
        """Write one JSON line per span, start and end in seconds."""
        with path.open("w", encoding="utf-8") as out:
            for request, label, start, end, parent in self.spans:
                out.write(json.dumps({"request": request, "name": label,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")
