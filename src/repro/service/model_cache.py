"""Content-addressed model cache: single-flight, LRU, crash-safe.

The daemon's models are pure functions of ``(relation fingerprint,
discovery parameters)`` -- the same purity contract the checkpoint layer
relies on.  That makes them perfectly cacheable: the cache key is a digest
of exactly those two inputs, so a hit can never serve a stale or mismatched
model, and two daemons (or one daemon across a SIGKILL) computing the same
key produce bit-identical values.

Three layers:

* **resident** -- an LRU of deserialized models under a byte budget
  enforced by a dedicated :class:`repro.budget.MemoryGovernor`.  Inserting
  past the budget evicts least-recently-used entries first; an entry larger
  than the whole budget is served but never kept resident (disk-only).
* **durable** -- write-through to named :class:`repro.checkpoint.CheckpointStore`
  snapshots (``model.<key>.ckpt``), which are atomic, checksummed and
  run-token-free, so a restarted daemon rehydrates models instead of
  recomputing them.  Rehydrated bytes flow through the
  ``service.cache_load`` fault point; a corrupt snapshot is quarantined by
  the store and costs a recompute, never a wrong answer.
* **single-flight** -- concurrent requests for the same key block on the
  one computation instead of stampeding.  If the leader fails (its request
  deadline expired, say), one waiter takes over with *its own* budget
  rather than inheriting the leader's failure.

Thread-safe: the daemon executes handlers in worker threads, so the cache
synchronizes with a plain lock; the compute callable runs outside it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict

from repro.budget import MemoryGovernor
from repro.testing.faults import fault_point


def model_key(fingerprint: str, params: dict) -> str:
    """The cache key of one (relation, parameters) pair.

    A digest of the relation fingerprint plus the canonical JSON of the
    discovery parameters -- the same pair the checkpoint manifest uses to
    decide snapshot validity, truncated to stay a filesystem-friendly name.
    """
    blob = fingerprint + "\x00" + json.dumps(params, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class _Entry:
    __slots__ = ("value", "nbytes")

    def __init__(self, value, nbytes: int):
        self.value = value
        self.nbytes = nbytes


class _Flight:
    """One in-progress computation other threads can wait on."""

    __slots__ = ("event", "done")

    def __init__(self):
        self.event = threading.Event()
        self.done = False


class ModelCache:
    """LRU + byte-budget cache with write-through persistence.

    Parameters
    ----------
    store:
        Optional :class:`~repro.checkpoint.CheckpointStore` for the durable
        layer; ``None`` keeps the cache memory-only.
    max_bytes:
        Byte budget for resident entries (``None`` = unbounded residency).
    kind:
        Named-snapshot kind under which values persist.
    """

    def __init__(self, store=None, max_bytes: int | None = None,
                 kind: str = "model"):
        self.store = store
        self.kind = kind
        self.governor = (MemoryGovernor(max_bytes)
                         if max_bytes is not None else None)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._flights: dict[str, _Flight] = {}
        #: Lifetime counters for ``/stats`` and tests.
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.computes = 0
        self.evictions = 0
        self.rehydrate_failures = 0

    # -- the one entry point -----------------------------------------------------

    def get_or_compute(self, key: str, compute, persist: bool = True):
        """The value for ``key``: resident, rehydrated, or computed.

        ``compute`` is called (outside the lock, in the calling thread)
        only when neither cache layer has the value.  ``persist`` may be a
        bool or a ``value -> bool`` predicate deciding write-through per
        value -- the daemon passes ``lambda r: r.healthy`` so degraded
        models are served but never outlive the condition that degraded
        them.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry.value
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.event.wait()
                # Re-check from the top: on success the entry is resident;
                # on leader failure this waiter becomes the next leader.
                continue
            try:
                value, computed = self._produce(key, compute)
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.event.set()
            should_persist = persist(value) if callable(persist) else persist
            if computed and should_persist and self.store is not None:
                written = self.store.save_named(self.kind, key, value)
                nbytes = written if written is not None else _sizeof(value)
            else:
                nbytes = _sizeof(value)
            self._admit(key, value, nbytes)
            return value

    def peek(self, key: str):
        """The value for ``key`` from the cache layers only -- resident or
        rehydrated from disk -- or ``None``; never computes."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry.value
        value = self._rehydrate(key)
        if value is not None:
            self.disk_hits += 1
            self._admit(key, value, _sizeof(value))
        return value

    def _produce(self, key: str, compute):
        """Load from disk or compute; returns ``(value, was_computed)``."""
        value = self._rehydrate(key)
        if value is not None:
            self.disk_hits += 1
            return value, False
        self.misses += 1
        value = compute()
        self.computes += 1
        return value, True

    def _rehydrate(self, key: str):
        """Best-effort durable-layer read; any defect costs a recompute."""
        if self.store is None:
            return None
        path = self.store._named_path(self.kind, key)
        try:
            if not path.exists():
                return None
            raw = path.read_bytes()
            tampered = fault_point("service.cache_load", raw)
            if tampered is not raw:
                # The fault simulated on-disk rot; make it real so the
                # store's checksum path quarantines the snapshot exactly as
                # it would genuine corruption.
                path.write_bytes(tampered)
            return self.store.load_named(self.kind, key)
        except KeyboardInterrupt:
            raise
        except Exception:
            self.rehydrate_failures += 1
            return None

    # -- residency ---------------------------------------------------------------

    def _admit(self, key: str, value, nbytes: int) -> None:
        with self._lock:
            if key in self._entries:
                return
            if self.governor is not None:
                while self._entries and self.governor.would_exceed(nbytes):
                    _, oldest = self._entries.popitem(last=False)
                    self.governor.release(oldest.nbytes)
                    self.evictions += 1
                if self.governor.would_exceed(nbytes):
                    return  # larger than the whole budget: disk-only
                self.governor.reserve(nbytes, where="service.model_cache")
            self._entries[key] = _Entry(value, nbytes)

    def release(self, key: str) -> None:
        """Drop a key from the resident layer only; its durable snapshot
        stays, so a later request rehydrates it instead of recomputing."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None and self.governor is not None:
                self.governor.release(entry.nbytes)

    def invalidate(self, key: str) -> None:
        """Drop a key from both layers (used by background re-mining)."""
        self.release(key)
        if self.store is not None:
            self.store.delete_named(self.kind, key)

    def resident_keys(self) -> list[str]:
        """Currently resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Counters for the ``/stats`` endpoint."""
        with self._lock:
            resident_bytes = sum(e.nbytes for e in self._entries.values())
            return {
                "resident": len(self._entries),
                "resident_bytes": resident_bytes,
                "max_bytes": (self.governor.max_bytes
                              if self.governor is not None else None),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "computes": self.computes,
                "evictions": self.evictions,
                "rehydrate_failures": self.rehydrate_failures,
            }


def _sizeof(value) -> int:
    """Resident-cost estimate of a value (its pickled size)."""
    try:
        return len(pickle.dumps(value))
    except Exception:
        return 1 << 20  # unpicklable: assume a meaningful footprint
