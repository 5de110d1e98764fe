"""The ``serve`` workload: a ``repro serve`` daemon with reads beside writes.

Set-up spawns the daemon, waits for ``/readyz``, creates relation ``dblp``
and seeds it with one 2000-row chunk.  After a cold ``POST /model`` the load
runs for the measured seconds with two clients, each on its own
connection per request:

* the **reader**, a closed loop: 60% ``GET /fds``, 40% ``POST /assign`` of
  held-out rows;
* the **writer**, an open loop: a 10-row chunk every 200 ms, each timed
  from when it was due, so a stalled daemon also delays later chunks.

Background re-mines start whenever the daemon's staleness watermark
(``--remine-after``) is crossed.  After the load the benchmark forces a
model of the final rows and checks it against a batch
``StructureDiscovery`` run with the daemon's own parameters on the same
rows, and ``GET /relations/dblp/verify`` must certify it.

The untraced run uses a daemon subprocess, as users run it.  The traced run
hosts two daemons in this process, one untraced and one traced, so the
tracer can wrap the service layer and the pipeline below it.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (
    SERVE_CHUNK_PERIOD_S,
    SERVE_CHUNK_ROWS,
    SERVE_FDS_SHARE,
    SERVE_HELD_OUT,
    SERVE_MAX_INFLIGHT,
    SERVE_REMINE_AFTER,
    SERVE_SEED_ROWS,
    read_rows,
)

RID = "dblp"

#: Per-layer metrics that only the service workload measures; batch
#: workloads report them as zero.
SERVE_LAYER_DEFAULTS = {
    name: 0 for name in (
        "service.cache.hits", "service.cache.misses",
        "service.cache.hit_ratio", "service.admission.shed",
        "service.admission.service_time_ema_ms", "service.remines",
        "service.stale_rows.max", "service.app.append_rows_s",
        "service.app.assign_s", "service.app.top_fds_s",
        "service.app.build_model_s", "checkpoint.save_calls",
        "checkpoint.bytes_written", "checkpoint.write_amp",
        "bench.writer_lag_ms.max")
}

SETUP_REPEATS = 3


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: int) -> float | None:
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- daemons ---------------------------------------------------------------------


class SubprocessDaemon:
    """``python -m repro serve`` in its own process, as users run it."""

    def __init__(self, directory: Path, env: dict):
        directory.mkdir(parents=True)
        self.directory = directory
        self.log = open(directory.parent / f"{directory.name}.log", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--checkpoint-dir", str(directory),
             "--max-inflight", str(SERVE_MAX_INFLIGHT),
             "--remine-after", str(SERVE_REMINE_AFTER)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_port(self, timeout: float = 60.0) -> int:
        endpoint = self.directory / "service.json"
        stop_at = time.monotonic() + timeout
        while time.monotonic() < stop_at:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited during start-up ({self.process.returncode})")
            try:
                self.port = int(json.loads(endpoint.read_text())["port"])
                return self.port
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        raise RuntimeError("daemon never published its port")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.log.close()


class InProcessDaemon:
    """The same daemon on an event loop in a thread of this process."""

    def __init__(self, directory: Path):
        from repro.checkpoint import CheckpointStore
        from repro.service import Daemon, DiscoveryApp

        self.store = CheckpointStore(directory)
        self.store.acquire_lock()
        self.app = DiscoveryApp(self.store, params={"fd_k": 10, "seed": 0},
                                remine_after=SERVE_REMINE_AFTER)
        self.daemon = Daemon(self.app, port=0,
                             max_inflight=SERVE_MAX_INFLIGHT)
        self.loop = None
        self.started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.port = None

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()

        async def main():
            await self.daemon.start()
            self.started.set()
            return await self.daemon.serve_forever()

        try:
            self.loop.run_until_complete(main())
        finally:
            self.started.set()
            self.loop.close()

    def wait_port(self, timeout: float = 60.0) -> int:
        if not self.started.wait(timeout) or not self.daemon.port:
            raise RuntimeError("in-process daemon did not start")
        self.port = self.daemon.port
        return self.port

    def stop(self) -> None:
        if self.thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.daemon.drain(reason="benchmark done"), self.loop)
            future.result(30)
            self.thread.join(30)
        self.store.release_lock()


def daemon_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


# -- the load --------------------------------------------------------------------


class Recorder:
    """Requests attempted and failed across both clients."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def call(self, client, method: str, path: str, body=None):
        """One request; any non-2xx answer or transport error is a failure."""
        with self._lock:
            self.attempted += 1
        try:
            status, _, payload = client.request_once(method, path, body)
        except (OSError, http.client.HTTPException) as exc:
            status, payload = None, {"error": f"{type(exc).__name__}: {exc}"}
        if status is None or not 200 <= status < 300:
            with self._lock:
                self.failures.append(f"{method} {path} -> {status} "
                                     f"{str(payload)[:200]}")
            return None
        return payload

    def check(self, ok: bool, message: str) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(message)


def set_up(daemon, rows_seed: list, header: list, recorder: Recorder,
           started: float) -> float:
    """Readiness, relation creation and the seed chunk; returns seconds."""
    from repro.service import ServiceClient

    client = ServiceClient(port=daemon.wait_port())
    stop_at = time.perf_counter() + 60.0
    while True:
        try:
            status, _, _ = client.request_once("GET", "/readyz")
        except (OSError, http.client.HTTPException):
            status = None
        if status == 200:
            break
        if time.perf_counter() > stop_at:
            raise RuntimeError("daemon never answered /readyz with 200")
        time.sleep(0.005)
    recorder.call(client, "POST", f"/relations/{RID}",
                  {"attributes": header})
    recorder.call(client, "POST", f"/relations/{RID}/rows",
                  {"rows": rows_seed, "seq": 1})
    return time.perf_counter() - started


def run_load(port: int, held_out: list, stream: list, seconds: float,
             seed: int, recorder: Recorder) -> dict:
    """Reader and writer threads for ``seconds``; returns their samples."""
    from repro.service import ServiceClient

    reads: list[float] = []
    writes: list[dict] = []
    t0 = time.perf_counter() + 0.05
    stop_at = t0 + seconds

    def reader():
        client = ServiceClient(port=port)
        rng = random.Random(seed)
        index = 0
        while time.perf_counter() < t0:
            time.sleep(0.001)
        while time.perf_counter() < stop_at:
            if rng.random() < SERVE_FDS_SHARE:
                method, path, body = "GET", f"/relations/{RID}/fds?k=5", None
            else:
                method, path = "POST", f"/relations/{RID}/assign"
                body = {"row": held_out[index % len(held_out)]}
                index += 1
            start = time.perf_counter()
            if recorder.call(client, method, path, body) is not None:
                reads.append(time.perf_counter() - start)

    def writer():
        client = ServiceClient(port=port)
        chunk = 0
        while True:
            due = t0 + chunk * SERVE_CHUNK_PERIOD_S
            if due >= stop_at:
                return
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            rows = stream[chunk * SERVE_CHUNK_ROWS:
                          (chunk + 1) * SERVE_CHUNK_ROWS]
            payload = recorder.call(client, "POST", f"/relations/{RID}/rows",
                                    {"rows": rows, "seq": chunk + 2})
            done = time.perf_counter()
            writes.append({"lag": sent - due, "latency": done - due,
                           "done": done, "bytes": len(json.dumps(rows)),
                           "ok": payload is not None,
                           "n_rows": (payload or {}).get("n_rows", 0),
                           "stale": (payload or {}).get("stale_rows", 0)})
            chunk += 1

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 60)
        if thread.is_alive():
            raise RuntimeError("a load client did not finish")
    return {"reads": reads, "writes": writes, "seconds": seconds}


def freshness(writes: list) -> tuple[list, tuple | None]:
    """Seconds from each watermark crossing until the served model holds it.

    A chunk crosses when its acknowledgement is the first to report at
    least ``--remine-after`` stale rows; the crossing is fresh once a later
    acknowledgement shows a model (rows minus stale rows) that includes it.
    Returns the lags and the crossing still pending at the end, if any, as
    ``(acknowledged_at, rows)``.
    """
    lags = []
    previous = 0
    pending = None
    for entry in writes:
        if not entry["ok"]:
            continue
        model_rows = entry["n_rows"] - entry["stale"]
        if pending is not None and model_rows >= pending[1]:
            lags.append(entry["done"] - pending[0])
            pending = None
        if (pending is None and previous < SERVE_REMINE_AFTER
                <= entry["stale"]):
            pending = (entry["done"], entry["n_rows"])
        previous = entry["stale"]
    return lags, pending


def settle(port: int, load: dict, recorder: Recorder,
           timeout: float = 60.0) -> None:
    """After the load, wait for a pending crossing to become fresh, so its
    lag is measured even when the re-mine outlasts the load."""
    from repro.service import ServiceClient

    lags, pending = freshness(load["writes"])
    load["fresh_lags"] = lags
    if pending is None:
        return
    client = ServiceClient(port=port)
    stop_at = time.perf_counter() + timeout
    while time.perf_counter() < stop_at:
        status = recorder.call(client, "GET", f"/relations/{RID}") or {}
        if status.get("n_rows", 0) - status.get("stale_rows", 0) >= pending[1]:
            lags.append(time.perf_counter() - pending[0])
            return
        time.sleep(0.02)
    recorder.check(False, f"re-mine never caught up with {pending[1]} rows")


# -- correctness -----------------------------------------------------------------


def batch_expectation(header: list, rows: list, params: dict) -> tuple:
    """The model a batch run gives on ``rows``: (top-k dependencies, key)."""
    from repro import StructureDiscovery
    from repro.checkpoint.store import relation_fingerprint
    from repro.relation import NULL, Relation
    from repro.service.model_cache import model_key

    kwargs = {k: v for k, v in params.items() if k != "memory_limit_bytes"}
    kwargs["memory_limit"] = params["memory_limit_bytes"]
    discovery = StructureDiscovery(**kwargs)
    relation = Relation(header, [tuple(NULL if cell is None else cell
                                       for cell in row) for row in rows])
    report = discovery.run(relation)
    key = model_key(relation_fingerprint(relation),
                    discovery.manifest_params())
    return report.summary(top=discovery.fd_k)["dependencies"], key


def check_final_model(port: int, header: list, rows: list,
                      recorder: Recorder) -> tuple[str, float]:
    """Force a model of the final rows, compare it with the batch run and
    have the daemon verify it; returns the model's top-k digest and the
    seconds the verification took."""
    from repro.service import ServiceClient

    client = ServiceClient(port=port, timeout=120.0)
    stats = recorder.call(client, "GET", "/stats") or {}
    params = stats.get("params", {})
    served = {}

    def build():
        served["model"] = recorder.call(
            client, "POST", f"/relations/{RID}/model?top={params['fd_k']}")

    model_thread = threading.Thread(target=build)
    model_thread.start()
    expected, key = batch_expectation(header, rows, params)
    model_thread.join(150)
    model = served.get("model") or {}
    recorder.check(model.get("dependencies") == expected,
                   "served top-k FDs differ from the batch run on the same "
                   "rows")
    recorder.check(model.get("model_key") == key,
                   f"served model key {model.get('model_key')} != batch key "
                   f"{key}")
    verify_started = time.perf_counter()
    verdict = recorder.call(client, "GET", f"/relations/{RID}/verify") or {}
    verify_s = time.perf_counter() - verify_started
    recorder.check(verdict.get("ok") is True,
                   f"daemon verify failed: {verdict.get('violations')}")
    return top_k_digest(model), verify_s


def top_k_digest(model: dict) -> str:
    text = json.dumps(model.get("dependencies"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the run ---------------------------------------------------------------------


def _split(csv_path: Path):
    header, rows = read_rows(csv_path)
    seed_rows = rows[:SERVE_SEED_ROWS]
    held_out = rows[SERVE_SEED_ROWS:SERVE_SEED_ROWS + SERVE_HELD_OUT]
    stream = rows[SERVE_SEED_ROWS + SERVE_HELD_OUT:]
    return header, seed_rows, held_out, stream


def _sent_rows(seed_rows, stream, writes) -> list:
    chunks = sum(1 for entry in writes if entry["ok"])
    return seed_rows + stream[:chunks * SERVE_CHUNK_ROWS]


def _load_summary(load: dict, cold_model_s: float) -> list[tuple]:
    reads = [s * 1000.0 for s in load["reads"]]
    writes = [entry["latency"] * 1000.0 for entry in load["writes"]]
    lags = load["fresh_lags"]
    return [
        ("read_ms.p50", _median(reads), "ms"),
        ("read_ms.p99", _percentile(reads, 99) if len(reads) >= 1000
         else None, "ms"),
        ("write_ms.p50", _median(writes), "ms"),
        ("write_ms.p90", _percentile(writes, 90) if len(writes) >= 100
         else None, "ms"),
        ("reads_per_s", len(reads) / load["seconds"], "1/s"),
        ("cold_model_s", cold_model_s, "s"),
        ("fresh_lag_s", _median(lags) if lags else None, "s"),
        ("reads", len(reads), "count"),
        ("writes", len(writes), "count"),
        ("bench.writer_lag_ms.max",
         max(e["lag"] for e in load["writes"]) * 1000.0, "ms"),
    ]


def _cold_model(port: int, recorder: Recorder) -> tuple[float, dict]:
    """The first ``POST /model`` of a daemon (a cache miss)."""
    from repro.service import ServiceClient

    start = time.perf_counter()
    model = recorder.call(ServiceClient(port=port, timeout=120.0), "POST",
                          f"/relations/{RID}/model?top=10")
    return time.perf_counter() - start, model or {}


def run_serve(seed: int, csv_path: Path, seconds: float, trace: bool,
              work: Path, env: dict) -> dict:
    header, seed_rows, held_out, stream = _split(csv_path)
    recorder = Recorder()
    if trace:
        return _run_traced(seed, header, seed_rows, held_out, stream,
                           seconds, work, recorder)

    setup = []
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            daemon = SubprocessDaemon(work / f"daemon{attempt}", env)
            setup.append(set_up(daemon, seed_rows, header, recorder, started))
        cold, _ = _cold_model(daemon.port, recorder)
        load = run_load(daemon.port, held_out, stream, seconds, seed,
                        recorder)
        settle(daemon.port, load, recorder)
        peak = daemon_hwm_mb(daemon.pid)
        digest, _ = check_final_model(
            daemon.port, header, _sent_rows(seed_rows, stream, load["writes"]),
            recorder)
    finally:
        if daemon is not None:
            daemon.stop()
    summary = _load_summary(load, cold)
    summary.append(("error_rate",
                    len(recorder.failures) / recorder.attempted, "ratio"))
    metrics = {
        "setup_s": _median(setup),
        "query_ms.min": min(load["reads"]) * 1000.0,
        "ingest_ms.min": min(e["latency"] for e in load["writes"] if e["ok"])
        * 1000.0,
        "peak_rss_mb": peak,
    }
    return {"metrics": metrics, "summary": summary, "digest": digest,
            "attempted": recorder.attempted, "failures": recorder.failures}


def _run_traced(seed, header, seed_rows, held_out, stream, seconds, work,
                recorder) -> dict:
    """Two in-process daemons: untraced, then traced, each for half the
    seconds; per-layer figures come from the traced one."""
    from repro import kernels
    from repro.checkpoint import CheckpointStore
    from repro.service.app import DiscoveryApp

    from tracer import Tracer, discover_layers, install_pipeline

    share = seconds / 2.0
    daemon = InProcessDaemon(work / "untraced")
    try:
        set_up(daemon, seed_rows, header, recorder, time.perf_counter())
        _, untraced_cold = _cold_model(daemon.port, recorder)
        untraced = run_load(daemon.port, held_out, stream, share, seed,
                            recorder)
        settle(daemon.port, untraced, recorder)
    finally:
        daemon.stop()

    tracer = Tracer()
    install_pipeline(tracer)
    for method in ("append_rows", "assign", "top_fds", "build_model"):
        tracer.span_call(DiscoveryApp, method, f"service.app.{method}")

    def saves(original):
        def counted(*args, **kwargs):
            written = original(*args, **kwargs)
            if tracer.active:
                tracer.bump("checkpoint.save_calls")
                tracer.bump("checkpoint.bytes_written", written or 0)
            return written
        return counted

    tracer.patch(CheckpointStore, "save_named", saves)
    daemon = InProcessDaemon(work / "traced")
    try:
        tracer.active = True
        packed = kernels.pack_seconds()
        set_up(daemon, seed_rows, header, recorder, time.perf_counter())
        cold, traced_cold = _cold_model(daemon.port, recorder)
        recorder.check(top_k_digest(traced_cold) == top_k_digest(untraced_cold),
                       "traced daemon's model differs from the untraced one")
        relation = daemon.app.relations[RID]
        remines_before = relation.remines
        ingest_before = tracer.leaves.get(None, {}).copy()
        traced = run_load(daemon.port, held_out, stream, share, seed,
                          recorder)
        settle(daemon.port, traced, recorder)
        saved = tracer.leaves.get(None, {})
        remines = relation.remines - remines_before
        cache = daemon.app.cache.stats()
        admission = daemon.daemon.admission
        tracer.active = False
        packed = kernels.pack_seconds() - packed
        digest, audit_s = check_final_model(
            daemon.port, header,
            _sent_rows(seed_rows, stream, traced["writes"]), recorder)
    finally:
        tracer.active = False
        daemon.stop()
        tracer.uninstall()
    tracer.write(Path(work).parent / "trace-serve.json")

    values = {}
    discovers = [i for i, span in enumerate(tracer.spans)
                 if span["name"] == "discover" and span["end"] is not None]
    per_discover = [discover_layers(tracer, index) for index in discovers]
    for key in per_discover[0]:
        values[key] = _median([entry[key] for entry in per_discover])
    for method in ("append_rows", "assign", "top_fds", "build_model"):
        values[f"service.app.{method}_s"] = _median([
            span["end"] - span["start"] for span in tracer.spans
            if span["name"] == f"service.app.{method}" and span["end"]])
    ingested = sum(entry["bytes"] for entry in traced["writes"])
    written = (saved.get("checkpoint.bytes_written", 0)
               - ingest_before.get("checkpoint.bytes_written", 0))
    hits, misses = cache["hits"], cache["misses"]
    values.update({
        "relation.read_csv_s": 0.0,
        "value_clustering.exact_summaries": 0,
        "kernels.pack_s": packed / len(discovers),
        "audit.s": audit_s,
        "service.cache.hits": hits,
        "service.cache.misses": misses,
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "service.admission.shed": admission.shed,
        "service.admission.service_time_ema_ms":
            admission.service_time_ema * 1000.0,
        "service.remines": remines,
        "service.stale_rows.max": max(
            (entry["stale"] for entry in traced["writes"]), default=0),
        "checkpoint.save_calls": (saved.get("checkpoint.save_calls", 0)
                                  - ingest_before.get(
                                      "checkpoint.save_calls", 0)),
        "checkpoint.bytes_written": written,
        "checkpoint.write_amp": written / ingested if ingested else 0.0,
        "bench.writer_lag_ms.max": max(
            (entry["lag"] for entry in traced["writes"]), default=0.0)
        * 1000.0,
        "trace.overhead": (_median(traced["reads"])
                           / _median(untraced["reads"])),
    })
    summary = _load_summary(traced, cold)
    summary.append(("discovers traced", len(discovers), "count"))
    return {"metrics": values, "summary": summary, "digest": digest,
            "attempted": recorder.attempted, "failures": recorder.failures}
