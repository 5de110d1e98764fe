"""Pipeline benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 pipebench/run.py --workload db2 [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` and ``layers.json``): ``db2``,
``dblp-2200``, ``dblp-2200-approx`` (batch ``StructureDiscovery.run`` on a
CSV loaded through ``read_csv``) and ``serve`` (a ``repro serve`` daemon
under one closed-loop reader and one open-loop writer).  ``BENCHMARK.json``
gates ``db2`` and ``serve``; the DBLP batch workloads are for attribution
with ``--trace 1``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits the run into an untraced and a traced share and
reports the per-layer metrics of the traced share, the tracing overhead
and whether the traced output matched the untraced one.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with every metric that
``BENCHMARK.json`` lists for the chosen mode.  The lines above it are a
readable summary, including the figures that are not gated (error and
inexact rates, tails, CPU time, report digest).

Exits 2 without a result when the program's source (``src/repro``) is
not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: inputs, daemon state, trace dumps.
WORK = ROOT / ".pipebench"


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method); needs two values."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args: list, timeout: float) -> dict:
    """Run ``batch_worker.py`` to completion; its last stdout line is JSON."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "batch_worker.py"), *args],
        env=worker_env(), capture_output=True, text=True, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(
            f"batch worker exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- batch workloads -------------------------------------------------------------

#: Set-up samples per run (each a fresh interpreter); the median is reported.
SETUP_REPEATS = 5


def run_batch(name: str, spec: dict, csv_path: Path, seconds: float,
              trace: bool) -> dict:
    base = ["--csv", str(csv_path), "--params", json.dumps(spec["params"])]
    setup = [run_worker(base + ["--setup-only"], timeout=60)["setup_s"]
             for _ in range(SETUP_REPEATS - 1)]
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--trace-out", str(WORK / f"trace-{name}.json")]
    result = run_worker(base + extra, timeout=170)
    setup.append(result["setup_s"])
    result["setup_samples"] = setup
    return result


def batch_end_to_end(result: dict) -> dict:
    untraced = result["untraced"]
    return {
        "setup_s": median(result["setup_samples"]),
        "query_ms.min": min(untraced["wall_s"]) * 1000.0,
        "ingest_ms.min": min(result["ingest_ms"]),
        "peak_rss_mb": max(untraced["rss_mb"]),
    }


def batch_summary(result: dict) -> list[tuple]:
    """The ungated figures of a batch run, as (name, value, unit)."""
    walls = result["untraced"]["wall_s"]
    attempted = result["attempted"]
    return [
        ("discover_s.p50", median(walls), "s"),
        ("ingest_ms.p50", median(result["ingest_ms"]), "ms"),
        ("discover_s.p90", percentile(walls, 90) if len(walls) >= 100
         else None, "s"),
        ("discover_cpu_s", median(result["untraced"]["cpu_s"]), "s"),
        ("discovers", len(walls), "count"),
        ("error_rate", len(result["failures"]) / attempted, "ratio"),
        ("inexact_rate", result["inexact"] / attempted
         if result["phi_zero"] else None, "ratio"),
        ("audit_s.p50", median(result["audit_s"]), "s"),
    ]


def batch_per_layer(result: dict, serve_defaults: dict) -> dict:
    traced = result["traced"]
    layers = traced["layers"]
    keys = layers[0].keys()
    values = {key: median([entry[key] for entry in layers]) for key in keys}
    values["relation.read_csv_s"] = median(result["ingest_ms"]) / 1000.0
    values["value_clustering.exact_summaries"] = result["exact"]["values"]
    values["audit.s"] = median(result["audit_s"])
    values["trace.overhead"] = (median(traced["wall_s"])
                                / median(result["untraced"]["wall_s"]))
    values.update(serve_defaults)
    return values


# -- output ----------------------------------------------------------------------


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def emit(contract: dict, trace: bool, metrics: dict, summary: list,
         attempted: int, failures: list, header: str) -> None:
    section = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    print(header)
    for name, value, unit in summary:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {unit}")
    print(f"  {'-- gated' if not trace else '-- per layer':<34}")
    for metric in section:
        print(f"  {metric['name']:<34} {metrics[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in section},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pipeline benchmark for the repro package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="row-order seed; 0 keeps the generator's order")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, write_input

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    spec = WORKLOADS[args.workload]
    seed = args.seed
    contract = load_contract()
    trace = bool(args.trace)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        csv_path = work / "input.csv"
        write_input(args.workload, seed, csv_path)
        if spec["kind"] == "batch":
            from serve import SERVE_LAYER_DEFAULTS

            result = run_batch(args.workload, spec, csv_path, args.seconds,
                               trace)
            summary = batch_summary(result)
            metrics = (batch_per_layer(result, SERVE_LAYER_DEFAULTS) if trace
                       else batch_end_to_end(result))
            attempted, failures = result["attempted"], result["failures"]
            digest = next(iter(result["digests"]))
            header = (f"workload {args.workload} seed {seed}: "
                      f"{len(result['untraced']['wall_s'])} untraced "
                      f"discovers; report sha256 {digest}")
        else:
            from serve import run_serve

            outcome = run_serve(seed, csv_path, args.seconds, trace, work,
                                worker_env())
            metrics, summary = outcome["metrics"], outcome["summary"]
            attempted, failures = outcome["attempted"], outcome["failures"]
            header = (f"workload serve seed {seed}: model top-k sha256 "
                      f"{outcome['digest']}")
        emit(contract, trace, metrics, summary, attempted, failures, header)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"pipebench: {time.perf_counter() - started:.1f} s wall",
          file=sys.stderr)
    sys.exit(code)
