"""Spans and counters recorded from the benchmark's own code.

The tracer wraps public names the pipeline calls -- module attributes and
class methods -- with functions that open a span (name, start, end, parent)
or bump a counter before delegating to the original.  Nothing inside
``src/`` changes: the traced run executes the same program, only looked up
through the wrappers.  Spans stay in memory and are written once, when the
benchmark ends.

Hot leaf calls (partition products, closures, backend decisions) record a
count and a summed duration instead of one span each, so tracing them does
not dominate the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

#: Stages of ``StructureDiscovery.run``, as the names it calls.
STAGE_CALLS = {
    "cluster_tuples": "tuple_clustering",
    "cluster_values": "value_clustering",
    "group_attributes": "attribute_grouping",
    "fdep": "mining",
    "tane": "mining",
    "mine_reliable_fds": "mining",
    "minimum_cover": "cover",
    "fd_rank": "rank",
}

STAGES = ("tuple_clustering", "value_clustering", "attribute_grouping",
          "mining", "cover", "rank")

#: Stages whose RSS high-water mark is recorded.
RSS_STAGES = ("tuple_clustering", "value_clustering", "mining")

#: Where each ``repro.kernels`` backend decision is taken.
DECISION_SITES = {
    "repro.clustering.dcf_tree": "dcf_tree",
    "repro.clustering.aib": "aib",
    "repro.clustering.limbo": "assign",
}


def read_hwm_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``), in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_hwm() -> bool:
    """Reset ``VmHWM`` to the current RSS; false where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


class Tracer:
    """Nested spans plus per-name counters, all in memory.

    Each thread keeps its own span stack, so the daemon's handler threads
    nest their spans correctly.  Leaf counters are kept per ``discover``
    span (the innermost one open on the calling thread), and under ``None``
    outside any discover.
    """

    def __init__(self):
        self.active = False
        self.spans: list[dict] = []
        self.leaves: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.sinks = []
        return stack

    def open(self, name: str, **attrs) -> int:
        stack = self._stack()
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": stack[-1] if stack else None, "attrs": attrs}
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        if name == "discover":
            self._local.sinks.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["attrs"].update(attrs)
        if self._stack().pop() != index:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        if span["name"] == "discover":
            self._local.sinks.pop()

    def bump(self, name: str, amount=1) -> None:
        """Add ``amount`` to a leaf counter of the current discover."""
        self._stack()
        sink = self._local.sinks[-1] if self._local.sinks else None
        with self._lock:
            self.leaves.setdefault(sink, Counter())[name] += amount

    # -- wrapping ----------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def span_call(self, owner, attr: str, name: str, before=None,
                  after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``before(args, kwargs)`` and
        ``after(result, args, kwargs)`` return extra span attributes."""
        tracer = self

        def wrapper(original):
            def traced(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                index = tracer.open(name, **(before(args, kwargs)
                                             if before else {}))
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer.close(index, error=True)
                    raise
                tracer.close(index, **(after(result, args, kwargs)
                                       if after else {}))
                return result
            return traced

        self.patch(owner, attr, wrapper)

    def leaf_call(self, owner, attr: str, name: str, timed: bool = True,
                  outcome=None) -> None:
        """Count calls to ``owner.attr`` as ``name`` (and sum their
        seconds as ``name + "_s"`` when ``timed``); ``outcome(result,
        caller_module)`` names one more counter to bump, such as a backend
        decision."""
        tracer = self

        def wrapper(original):
            def counted(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                start = time.perf_counter() if timed else 0.0
                result = original(*args, **kwargs)
                if timed:
                    tracer.bump(name + "_s", time.perf_counter() - start)
                tracer.bump(name)
                if outcome is not None:
                    caller = sys._getframe(1).f_globals.get("__name__", "")
                    tracer.bump(outcome(result, caller))
                return result
            return counted

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "leaves": {str(k): v for k, v in self.leaves.items()}},
                      handle)


def install_pipeline(tracer: Tracer) -> None:
    """Wrap the names ``StructureDiscovery.run`` reaches, layer by layer."""
    # By module path: ``repro.fd`` re-exports functions named like their
    # modules (``tane``, ``fdep``), which shadow ``from repro.fd import``.
    module = importlib.import_module
    kernels = module("repro.kernels")
    discovery = module("repro.core.discovery")
    tuple_clustering = module("repro.core.tuple_clustering")
    value_clustering = module("repro.core.value_clustering")
    cover, fdep = module("repro.fd.cover"), module("repro.fd.fdep")
    reliable, tane = module("repro.fd.reliable"), module("repro.fd.tane")
    Limbo = module("repro.clustering.limbo").Limbo

    def stage_rss(args, kwargs):
        reset_hwm()
        return {}

    def stage_after(result, args, kwargs):
        return {"rss_hw_mb": read_hwm_mb()}

    tracer.span_call(discovery.StructureDiscovery, "run", "discover",
                     after=lambda report, args, kwargs: report_sizes(report))
    for attr, stage in STAGE_CALLS.items():
        if stage in RSS_STAGES:
            tracer.span_call(discovery, attr, stage, before=stage_rss,
                             after=stage_after)
        else:
            tracer.span_call(discovery, attr, stage)

    tracer.span_call(tuple_clustering, "build_tuple_view",
                     "relation.tuple_view")
    tracer.span_call(value_clustering, "build_tuple_view",
                     "relation.tuple_view")
    tracer.span_call(value_clustering, "build_value_view",
                     "relation.value_view")

    tracer.span_call(Limbo, "fit", "limbo.phase1")
    tracer.span_call(Limbo, "merge_sequence", "limbo.phase2")

    def assign_cells(args, kwargs):
        limbo, representatives = args[0], args[1]
        rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
        rows = limbo._rows if rows is None else rows
        return {"cells": len(rows) * len(representatives)}

    tracer.span_call(Limbo, "assign", "limbo.phase3", before=assign_cells)

    def decision(result, caller):
        return (f"kernels.use_dense.{DECISION_SITES.get(caller, 'other')}."
                f"{'dense' if result else 'sparse'}")

    tracer.leaf_call(kernels, "use_dense", "kernels.use_dense_calls",
                     timed=False, outcome=decision)
    tracer.leaf_call(kernels, "use_dense_assign",
                     "kernels.use_dense_assign_calls", timed=False,
                     outcome=decision)
    tracer.leaf_call(kernels, "assign_many", "kernels.assign_many")

    tracer.leaf_call(tane, "product", "fd.product")
    tracer.leaf_call(tane, "partition_of", "fd.partition_of")
    tracer.leaf_call(fdep, "partition_of", "fd.partition_of")
    tracer.leaf_call(cover, "closure", "cover.closure", timed=False)

    # The miners fill work counters only when handed a stats object; the
    # wrappers hand one in so the traced run can read lattice work.
    def with_stats(factory, key):
        def wrapper(original):
            def wrapped(*args, **kwargs):
                if tracer.active and kwargs.get("stats") is None:
                    kwargs["stats"] = factory()
                    result = original(*args, **kwargs)
                    tracer.bump(key, _partitions(kwargs["stats"]))
                    return result
                return original(*args, **kwargs)
            return wrapped
        return wrapper

    tracer.patch(discovery, "tane", with_stats(dict, "fd.tane.partitions"))
    tracer.patch(discovery, "mine_reliable_fds",
                 with_stats(reliable.ReliableMiningStats,
                            "fd.reliable.partitions"))


def _partitions(stats) -> int:
    if isinstance(stats, dict):
        return int(stats.get("partitions_computed", 0))
    return int(stats.partitions_computed)


# -- per-discover aggregation ---------------------------------------------------


def _children(spans, index):
    return [i for i, span in enumerate(spans) if span["parent"] == index]


def _duration(span) -> float:
    return span["end"] - span["start"]


def report_sizes(report) -> dict:
    """Artifact sizes of a finished report, kept on its ``discover`` span."""
    tuples = report.tuple_clustering.limbo
    values = report.value_clustering.limbo
    return {"tuple_summaries": len(tuples.summaries) if tuples else 0,
            "value_summaries": len(values.summaries) if values else 0,
            "fds": len(report.dependencies), "cover": len(report.cover)}


def discover_layers(tracer: Tracer, root: int) -> dict:
    """Per-layer figures of one traced ``StructureDiscovery.run``."""
    spans = tracer.spans
    counts = tracer.leaves.get(root, Counter())
    total = _duration(spans[root])
    values: dict = {}
    stage_total = 0.0
    for name in STAGES:
        values[f"{name}.s"] = 0.0
    for name in RSS_STAGES:
        values[f"{name}.rss_hw_mb"] = 0.0
    for child in _children(spans, root):
        span = spans[child]
        if span["name"] in STAGES:
            values[f"{span['name']}.s"] += _duration(span)
            stage_total += _duration(span)
            if "rss_hw_mb" in span["attrs"]:
                values[f"{span['name']}.rss_hw_mb"] = span["attrs"]["rss_hw_mb"]
    values["discover.s"] = total
    values["discover.unattributed_s"] = total - stage_total

    # Everything below a stage, attributed to the stage that caused it.
    stage_of: dict = {}
    for index in range(root + 1, len(spans)):
        parent = spans[index]["parent"]
        if parent == root:
            stage_of[index] = spans[index]["name"]
        elif parent in stage_of:
            stage_of[index] = stage_of[parent]
    phases = Counter()
    views = Counter()
    cells = Counter()
    for index, stage in stage_of.items():
        span = spans[index]
        if span["name"].startswith("limbo.phase"):
            phases[f"{stage}.{span['name'][len('limbo.'):]}_s"] += \
                _duration(span)
            cells[stage] += span["attrs"].get("cells", 0)
        elif span["name"].startswith("relation."):
            views[f"{span['name']}_s"] += _duration(span)
    for stage in ("tuple_clustering", "value_clustering"):
        for phase in ("phase1", "phase2", "phase3"):
            values[f"{stage}.{phase}_s"] = phases[f"{stage}.{phase}_s"]
    values["tuple_clustering.assign_cells"] = cells["tuple_clustering"]
    values["relation.tuple_view_s"] = views["relation.tuple_view_s"]
    values["relation.value_view_s"] = views["relation.value_view_s"]

    values["kernels.assign_many_s"] = counts.get("kernels.assign_many_s", 0.0)
    for site in sorted(set(DECISION_SITES.values())):
        for choice in ("dense", "sparse"):
            key = f"kernels.use_dense.{site}.{choice}"
            values[key] = counts.get(key, 0)
    values["fd.partition_products"] = counts.get("fd.product", 0)
    values["fd.product_s"] = counts.get("fd.product_s", 0.0)
    values["fd.partition_of_calls"] = counts.get("fd.partition_of", 0)
    values["fd.tane.partitions"] = counts.get("fd.tane.partitions", 0)
    values["fd.reliable.partitions"] = counts.get("fd.reliable.partitions", 0)
    values["cover.closure_calls"] = counts.get("cover.closure", 0)

    sizes = spans[root]["attrs"]
    values["tuple_clustering.summaries"] = sizes["tuple_summaries"]
    values["value_clustering.summaries"] = sizes["value_summaries"]
    values["mining.fds"] = sizes["fds"]
    cover_ran = values["cover.s"] > 0.0
    values["cover.size"] = sizes["cover"] if cover_ran else 0
    values["cover.ratio"] = (sizes["cover"] / sizes["fds"]
                             if cover_ran and sizes["fds"] else 0.0)
    return values
