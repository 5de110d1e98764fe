"""The fresh process that runs one batch workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
:mod:`repro`, loads the workload CSV through ``read_csv`` (as
``repro discover`` does), then calls ``StructureDiscovery(...).run`` back to
back -- one caller, closed loop.  Between runs, outside the timed region,
every report is audited, digested and compared with an exact group-by of
identical conditionals.  Prints one JSON object on its last line.

``--setup-only`` stops after the load and reports the set-up time alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time


def report_digest(report) -> str:
    """SHA-256 of the report's canonical JSON (summary plus artifacts)."""
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_summary_counts(relation) -> dict:
    """Summary counts a phi=0 run must produce: one per distinct conditional.

    Built from the same tuple and value views the pipeline clusters, but
    grouped by exact identity rather than by the DCF tree.
    """
    from repro.relation import build_tuple_view, build_value_view

    def distinct(rows):
        return len({tuple(sorted(row.items())) for row in rows})

    return {"tuples": distinct(build_tuple_view(relation).rows),
            "values": distinct(build_value_view(relation).rows)}


def ingest_sample(read_csv, path) -> float:
    """One warm ``read_csv`` of the workload CSV, in ms.

    Re-loading the CSV is the batch ingest path.  A sample averages
    back-to-back loads over at least 20 ms, so a 90-row file is not timed
    at the clock's resolution.
    """
    loads = 0
    started = time.perf_counter()
    while loads == 0 or time.perf_counter() - started < 0.02:
        read_csv(path)
        loads += 1
    return (time.perf_counter() - started) * 1000.0 / loads


def measure(discovery, relation, seconds, tracer, traced, state,
            ingest=None) -> dict:
    """Run discovers until ``seconds`` have passed (at least one).

    ``ingest``, when given, takes ingest samples after each discover for a
    tenth of its wall time (at least one), so the samples spread over the
    run like the discovers do.
    """
    from repro import kernels
    from repro.audit import Auditor

    from tracer import discover_layers, read_hwm_mb, report_sizes, reset_hwm

    out = {"wall_s": [], "cpu_s": [], "rss_mb": [], "layers": []}
    started = time.perf_counter()
    while True:
        gc.collect()
        reset_hwm()
        tracer.active = traced
        roots = len(tracer.spans)
        packed = kernels.pack_seconds()
        wall = time.perf_counter()
        cpu = time.process_time()
        report = discovery.run(relation)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        tracer.active = False
        out["rss_mb"].append(read_hwm_mb())
        out["wall_s"].append(wall)
        out["cpu_s"].append(cpu)
        if traced:
            layers = discover_layers(tracer, roots)
            layers["kernels.pack_s"] = kernels.pack_seconds() - packed
            out["layers"].append(layers)

        state["attempted"] += 1
        problems = []
        digest = report_digest(report)
        state["digests"].setdefault(digest, 0)
        state["digests"][digest] += 1
        if not report.healthy:
            problems.append(f"unhealthy report: {report.health()}")
        audit = time.perf_counter()
        certificate = Auditor(seed=discovery.seed).audit(
            report, source_relation=relation)
        state["audit_s"].append(time.perf_counter() - audit)
        if not certificate.ok:
            problems.append(f"audit rejected the report: "
                            f"{certificate.describe()}")
        sizes = report_sizes(report)
        counts = {"tuples": sizes["tuple_summaries"],
                  "values": sizes["value_summaries"]}
        if state["phi_zero"] and counts != state["exact"]:
            state["inexact"] += 1
        if problems:
            state["failures"].append("; ".join(problems))
        if ingest is not None:
            ingest_until = time.perf_counter() + wall / 10.0
            ingest()
            while time.perf_counter() < ingest_until:
                ingest()
        if time.perf_counter() - started >= seconds:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--params", default="{}",
                        help="StructureDiscovery keyword arguments, as JSON")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro  # noqa: F401  -- part of the measured set-up
    from repro.relation.io import read_csv

    relation = read_csv(args.csv)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro import StructureDiscovery

    from tracer import Tracer, install_pipeline

    ingest_ms = [ingest_sample(read_csv, args.csv) for _ in range(5)]

    params = json.loads(args.params)
    discovery = StructureDiscovery(**params)
    phi_zero = not params.get("phi_t") and not params.get("phi_v")
    state = {"attempted": 0, "failures": [], "digests": {}, "audit_s": [],
             "inexact": 0, "phi_zero": phi_zero,
             "exact": exact_summary_counts(relation)}
    # Wrappers go in only for the traced share: the untraced runs execute
    # the program exactly as a caller would.
    tracer = Tracer()
    untraced_share = args.seconds / 2.0 if args.trace else args.seconds
    result = {"setup_s": setup_s, "ingest_ms": ingest_ms}
    result["untraced"] = measure(
        discovery, relation, untraced_share, tracer, False, state,
        ingest=lambda: ingest_ms.append(ingest_sample(read_csv, args.csv)))
    if args.trace:
        digests_before = set(state["digests"])
        install_pipeline(tracer)
        result["traced"] = measure(discovery, relation,
                                   args.seconds - untraced_share,
                                   tracer, True, state)
        if set(state["digests"]) != digests_before:
            state["failures"].append(
                "traced report digest differs from the untraced one")
        if args.trace_out:
            tracer.write(args.trace_out)
        tracer.uninstall()
    if len(state["digests"]) > 1:
        state["failures"].append(
            f"reports differ between runs of one input: "
            f"{len(state['digests'])} distinct digests")
    result.update(state)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
