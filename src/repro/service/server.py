"""The asyncio HTTP/1.1 daemon wrapping :class:`~repro.service.app.DiscoveryApp`.

Pure stdlib: ``asyncio.start_server`` plus a small hand-rolled HTTP/1.1
request parser (one request per connection, ``Connection: close``) -- the
service speaks JSON over a deliberately tiny HTTP subset, and a dependency
footprint of zero is part of the robustness story.

Life of a request::

    accept -> [service.accept] -> parse head+body (bounded)
           -> admission.slot()          (429/503 shed *before* any work)
           -> [service.handler] inside a worker thread
           -> app.handle(..., budget=per-request Budget)
           -> JSON response, close

The event loop only parses, sheds and serializes; every CPU-bound handler
runs in a worker thread via ``asyncio.to_thread`` under a per-request
:class:`~repro.budget.Budget` derived from the daemon's own (so no request
can outlive the daemon's deadline, and all requests share one memory
governor).

Shutdown: SIGTERM/SIGINT start a **drain** -- the listener closes, new
requests get 503, admitted requests get ``grace`` seconds to finish, the
resident state is persisted, the daemon lock released, and the process
exits 0 (``classify_exit(0) == "completed"``, so a supervisor treats a
drained daemon exactly like a finished batch run).  A second signal during
the drain forces an immediate exit.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import signal
import socket
import sys

from repro.budget import Budget
from repro.errors import ReproError
from repro.service.admission import AdmissionController
from repro.service.app import DiscoveryApp, error_payload, status_for
from repro.testing.faults import fault_point

#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

#: Largest accepted request body.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a connection may take to deliver its request.
READ_TIMEOUT = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Paths that bypass admission control: liveness/readiness probes must
#: answer precisely when the daemon is busiest.
_UNGATED = {"/healthz", "/readyz", "/stats"}


class Daemon:
    """One resident discovery daemon: listener, admission, app, lifecycle."""

    def __init__(self, app: DiscoveryApp, host: str = "127.0.0.1",
                 port: int = 0, max_inflight: int = 4, queue_depth: int = 16,
                 request_deadline: float = 30.0, grace: float = 10.0,
                 budget: Budget | None = None):
        self.app = app
        self.host = host
        self.port = port
        self.admission = AdmissionController(max_inflight=max_inflight,
                                             queue_depth=queue_depth)
        self.request_deadline = request_deadline
        self.grace = grace
        self.budget = budget
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        self._remining: set[str] = set()
        self.exit_code = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, rehydrate state, announce readiness."""
        self._stopped = asyncio.Event()
        restored = await asyncio.to_thread(self.app.rehydrate)
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port,
            family=socket.AF_INET, reuse_address=True)
        self.port = self._server.sockets[0].getsockname()[1]
        self._write_endpoint_file()
        print(f"repro: serving on http://{self.host}:{self.port} "
              f"(pid {os.getpid()}, {restored} relation(s) rehydrated)",
              flush=True)

    def _write_endpoint_file(self) -> None:
        """Drop ``service.json`` next to the snapshots so tooling (tests,
        the smoke drill) can find a daemon started with ``--port 0``."""
        try:
            from repro.relation.io import atomic_write

            path = self.app.store.directory / "service.json"
            with atomic_write(path) as handle:
                json.dump({"host": self.host, "port": self.port,
                           "pid": os.getpid()}, handle)
        except Exception:
            pass  # diagnostics only; the printed line remains authoritative

    async def serve_forever(self) -> int:
        """Run until a drain completes; returns the process exit code."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda s=signum: self._on_signal(s))
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX loop, or the loop runs outside the main thread
                # (tests host the daemon in a thread): rely on drain()
                # being called directly / KeyboardInterrupt.
                pass
        await self._stopped.wait()
        return self.exit_code

    def _on_signal(self, signum: int) -> None:
        if self._draining:
            # Second signal: the operator means it.  Skip the grace period.
            print("repro: forced shutdown during drain", file=sys.stderr,
                  flush=True)
            self._finish()
            return
        asyncio.ensure_future(self.drain(
            reason=signal.Signals(signum).name))

    async def drain(self, reason: str = "shutdown") -> None:
        """Graceful shutdown: shed, finish in-flight work, persist, exit."""
        if self._draining:
            return
        self._draining = True
        self.app.draining = True
        inflight = self.admission.start_drain()
        print(f"repro: draining on {reason}: {inflight} request(s) in "
              f"flight, grace {self.grace:g}s", flush=True)
        try:
            fault_point("service.drain", inflight)
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            drained = await self.admission.wait_idle(self.grace)
            if not drained:
                print(f"repro: grace period expired with "
                      f"{self.admission.inflight} request(s) still running; "
                      "their relations are checkpointed", file=sys.stderr,
                      flush=True)
            await asyncio.to_thread(self.app.persist_all)
        except Exception as exc:
            # A failing drain path must still take the daemon down cleanly:
            # resident state was persisted after every mutation, so exiting
            # without the final safety-net persist loses nothing.
            print(f"repro: drain error ({type(exc).__name__}: {exc}); "
                  "exiting anyway", file=sys.stderr, flush=True)
        self._finish()

    def _finish(self) -> None:
        try:
            self.app.store.release_lock()
        except Exception:
            pass
        if self._server is not None:
            self._server.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- one connection ----------------------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        try:
            peer = writer.get_extra_info("peername")
            fault_point("service.accept", peer)
            try:
                method, path, query, body = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT)
            except _HttpError as exc:
                await self._respond(writer, exc.status,
                                    {"error": "BadRequest",
                                     "message": exc.message})
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return  # client went away or stalled; nothing to answer
            status, payload, headers = await self._dispatch(
                method, path, query, body)
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception:
            # An accept-path failure (including an injected service.accept
            # fault) costs this connection only, never the daemon.
            try:
                await self._respond(writer, 500,
                                    {"error": "InternalError",
                                     "message": "connection handling failed"})
            except Exception:
                pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, method, path, query, body):
        if path in _UNGATED:
            return await self._run_handler(method, path, query, body)
        try:
            async with self.admission.slot():
                return await self._run_handler(method, path, query, body)
        except ReproError as exc:
            return self._error_response(exc)

    async def _run_handler(self, method, path, query, body):
        request_budget = (self.budget.derive(deadline=self.request_deadline)
                          if self.budget is not None
                          else Budget(deadline=self.request_deadline))
        try:
            status, payload = await asyncio.to_thread(
                self.app.handle, method, path, query, body, request_budget)
        except ReproError as exc:
            return self._error_response(exc)
        except Exception as exc:
            # Handler crash (including an injected service.handler fault):
            # a mapped 500 for this request, business as usual for the next.
            return 500, {"error": "InternalError",
                         "message": f"{type(exc).__name__}: {exc}"}, {}
        if path.endswith("/rows") and payload.get("needs_remine"):
            self._schedule_remine(payload["relation"])
        return status, payload, {}

    def _error_response(self, exc: ReproError):
        headers = {}
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            headers["Retry-After"] = str(int(retry_after))
        return status_for(exc), error_payload(exc), headers

    def _schedule_remine(self, rid: str) -> None:
        """Bounded background re-mining: at most one re-mine per relation
        at a time, skipped entirely while draining."""
        if self._draining or rid in self._remining:
            return
        self._remining.add(rid)

        async def _run():
            try:
                budget = (self.budget.derive() if self.budget is not None
                          else None)
                await asyncio.to_thread(self.app.remine, rid, budget)
            except Exception as exc:
                print(f"repro: background re-mine of {rid!r} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr,
                      flush=True)
            finally:
                self._remining.discard(rid)

        asyncio.ensure_future(_run())

    # -- wire format -------------------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > MAX_HEAD_BYTES:
            raise _HttpError(400, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        path, _, raw_query = target.partition("?")
        query = {}
        for pair in raw_query.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value
        body = None
        length = headers.get("content-length")
        if length is not None:
            try:
                n_bytes = int(length)
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if n_bytes > MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
            raw = await reader.readexactly(n_bytes)
            if raw:
                try:
                    body = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    raise _HttpError(400, "body is not valid JSON") from None
        return method.upper(), path, query, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()


class _HttpError(Exception):
    """A wire-level request defect (before routing)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


#: glibc's ``mallopt`` parameter number for the malloc arena cap.
_M_ARENA_MAX = -8


def _share_one_malloc_arena() -> None:
    """Make every thread of this process allocate from glibc's main arena.

    glibc gives a thread that finds the other arenas busy an arena of its
    own (up to 8 per core), and memory freed in one arena is reused only
    by threads bound to it.  The daemon's handler threads and its
    background re-mines each allocate model-sized buffers, so with
    per-thread arenas a re-mine grows the resident set instead of reusing
    what the previous one freed.  Python code allocates under the GIL, so
    one shared arena costs little contention.  A no-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no dlopen
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


async def _main_async(daemon: Daemon) -> int:
    await daemon.start()
    return await daemon.serve_forever()


def run_daemon(daemon: Daemon) -> int:
    """Blocking entry point used by ``repro serve``."""
    _share_one_malloc_arena()  # before asyncio starts worker threads
    try:
        return asyncio.run(_main_async(daemon))
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        return 0
