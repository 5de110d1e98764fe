"""Unit tests for the service building blocks: admission, cache, client."""

import asyncio
import pickle
import threading
import time

import pytest

from repro.checkpoint import CheckpointStore
from repro.errors import (
    InputError,
    MemoryLimitExceeded,
    NotFoundError,
    ReproError,
    ResourceLimitExceeded,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.service import AdmissionController, ModelCache, ServiceClient
from repro.service.app import status_for
from repro.testing import inject


# -- admission control --------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_admits_within_capacity(self):
        async def main():
            controller = AdmissionController(max_inflight=2, queue_depth=0)
            async with controller.slot():
                assert controller.inflight == 1
            assert controller.inflight == 0
            assert controller.admitted == 1

        run(main())

    def test_sheds_when_queue_full(self):
        async def main():
            controller = AdmissionController(max_inflight=1, queue_depth=1)
            release = asyncio.Event()

            async def hold():
                async with controller.slot():
                    await release.wait()

            holder = asyncio.ensure_future(hold())
            await asyncio.sleep(0)  # holder takes the slot
            waiter = asyncio.ensure_future(hold())
            await asyncio.sleep(0)  # waiter fills the queue
            assert controller.inflight == 1
            assert controller.waiting == 1
            with pytest.raises(ServiceOverloaded) as excinfo:
                async with controller.slot():
                    pass
            assert excinfo.value.retry_after >= 1
            assert controller.shed == 1
            release.set()
            await asyncio.gather(holder, waiter)
            assert controller.inflight == 0
            assert controller.admitted == 2

        run(main())

    def test_drain_refuses_new_work_and_waits_idle(self):
        async def main():
            controller = AdmissionController(max_inflight=1, queue_depth=4)
            release = asyncio.Event()

            async def hold():
                async with controller.slot():
                    await release.wait()

            holder = asyncio.ensure_future(hold())
            await asyncio.sleep(0)
            assert controller.start_drain() == 1
            with pytest.raises(ServiceUnavailable):
                async with controller.slot():
                    pass
            assert not await controller.wait_idle(grace=0.01)
            release.set()
            await holder
            assert await controller.wait_idle(grace=1.0)
            assert controller.refused_draining == 1

        run(main())

    def test_retry_after_scales_with_backlog(self):
        async def main():
            controller = AdmissionController(max_inflight=2, queue_depth=8)
            controller.service_time_ema = 2.0
            controller.inflight, controller.waiting = 2, 4
            # Backlog of 5 beyond capacity, drained 2 per 2s -> ceil(5).
            assert controller.retry_after() == 5
            controller.waiting = 0
            assert controller.retry_after() >= 1

        run(main())

    def test_observe_moves_the_ema(self):
        async def main():
            controller = AdmissionController(ema_alpha=0.5)
            before = controller.service_time_ema
            controller.observe(before + 2.0)
            assert controller.service_time_ema == pytest.approx(before + 1.0)

        run(main())


# -- the model cache ----------------------------------------------------------------


class TestModelCache:
    def test_single_flight_dedups_concurrent_computes(self):
        cache = ModelCache()
        calls = []
        barrier = threading.Barrier(4)

        def compute():
            calls.append(1)
            time.sleep(0.05)
            return {"model": 42}

        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("k", compute))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(result == {"model": 42} for result in results)
        assert cache.hits + cache.disk_hits + cache.computes >= 4 - 3

    def test_leader_failure_promotes_a_waiter(self):
        cache = ModelCache()
        behavior = [RuntimeError("leader died"), {"model": 1}]
        started = threading.Event()

        def compute():
            started.set()
            time.sleep(0.05)
            action = behavior.pop(0)
            if isinstance(action, Exception):
                raise action
            return action

        outcomes = []

        def worker():
            try:
                outcomes.append(cache.get_or_compute("k", compute))
            except RuntimeError as exc:
                outcomes.append(exc)

        leader = threading.Thread(target=worker)
        leader.start()
        started.wait(2.0)
        follower = threading.Thread(target=worker)
        follower.start()
        leader.join()
        follower.join()
        # The leader's own failure surfaced to it; the waiter recomputed
        # with its "own budget" instead of inheriting the failure.
        assert any(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert any(outcome == {"model": 1} for outcome in outcomes)

    def test_lru_eviction_under_byte_budget(self):
        payload = "x" * 1000
        nbytes = len(pickle.dumps(payload))
        cache = ModelCache(max_bytes=3 * nbytes + 10)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda: payload)
        cache.get_or_compute("a", lambda: payload)  # refresh a's recency
        cache.get_or_compute("d", lambda: payload)  # evicts b (LRU)
        assert set(cache.resident_keys()) == {"c", "a", "d"}
        assert cache.evictions == 1

    def test_value_larger_than_budget_stays_disk_only(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cache = ModelCache(store=store, max_bytes=64)
        value = cache.get_or_compute("big", lambda: "y" * 10_000)
        assert value == "y" * 10_000
        assert cache.resident_keys() == []
        # ... but the durable layer still has it.
        assert ModelCache(store=store).peek("big") == "y" * 10_000

    def test_write_through_and_rehydration(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cache = ModelCache(store=store)
        cache.get_or_compute("k", lambda: {"model": 7})
        reborn = ModelCache(store=CheckpointStore(tmp_path))
        assert reborn.peek("k") == {"model": 7}
        assert reborn.disk_hits == 1
        assert reborn.computes == 0

    def test_persist_predicate_gates_write_through(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cache = ModelCache(store=store)
        cache.get_or_compute("degraded", lambda: {"model": 0},
                             persist=lambda value: False)
        assert cache.peek("degraded") == {"model": 0}  # resident
        assert ModelCache(store=store).peek("degraded") is None  # not durable

    def test_corrupt_snapshot_quarantines_and_recomputes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ModelCache(store=store).get_or_compute("k", lambda: {"model": 1})

        def flip(raw):
            data = bytearray(raw)
            data[-5] ^= 0xFF
            return bytes(data)

        reborn = ModelCache(store=CheckpointStore(tmp_path))
        with inject("service.cache_load", corrupt=flip) as fault:
            value = reborn.get_or_compute("k", lambda: {"model": 1})
        assert fault.fired == 1
        assert value == {"model": 1}
        assert reborn.computes == 1  # rot cost a recompute, never an answer
        assert list(tmp_path.glob("*.quarantined-*"))

    def test_unreadable_snapshot_recomputes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ModelCache(store=store).get_or_compute("k", lambda: {"model": 1})
        reborn = ModelCache(store=CheckpointStore(tmp_path))
        with inject("service.cache_load", raises=OSError("disk fell off")):
            assert reborn.get_or_compute("k", lambda: {"model": 2}) == \
                {"model": 2}
        assert reborn.rehydrate_failures == 1

    def test_release_keeps_the_durable_snapshot(self, tmp_path):
        cache = ModelCache(store=CheckpointStore(tmp_path), max_bytes=1 << 20)
        cache.get_or_compute("k", lambda: {"model": 1})
        cache.release("k")
        assert cache.resident_keys() == []
        assert cache.governor.reserved == 0
        assert cache.peek("k") == {"model": 1}
        assert cache.disk_hits == 1

    def test_invalidate_drops_both_layers(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cache = ModelCache(store=store)
        cache.get_or_compute("k", lambda: {"model": 1})
        cache.invalidate("k")
        assert cache.resident_keys() == []
        assert ModelCache(store=store).peek("k") is None


# -- the retrying client ------------------------------------------------------------


class _ScriptedClient(ServiceClient):
    """A client whose raw exchanges are a scripted list (no sockets)."""

    def __init__(self, script, **kwargs):
        self.script = list(script)
        self.sleeps = []
        kwargs.setdefault("sleep", self.sleeps.append)
        super().__init__(port=1, **kwargs)

    def request_once(self, method, path, body=None):
        self.attempts += 1
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class TestClientRetries:
    def test_retry_honors_retry_after_header(self):
        client = _ScriptedClient([
            (429, {"Retry-After": "3"}, {"message": "shed"}),
            (200, {}, {"ok": True}),
        ])
        assert client.call("GET", "/x") == {"ok": True}
        assert client.sleeps == [3.0]
        assert client.retried == 1

    def test_backoff_is_capped_exponential_with_jitter(self):
        import random

        client = _ScriptedClient(
            [(503, {}, {"message": "draining"})] * 4 + [(200, {}, {})],
            backoff=0.1, max_backoff=0.4, rng=random.Random(7),
        )
        client.call("GET", "/x")
        assert len(client.sleeps) == 4
        for attempt, wait in enumerate(client.sleeps):
            base = min(0.4, 0.1 * 2 ** attempt)
            assert base * 0.5 <= wait <= base

    def test_connection_errors_retry_then_surface_as_unavailable(self):
        client = _ScriptedClient([ConnectionRefusedError()] * 3, retries=3)
        with pytest.raises(ServiceUnavailable, match="cannot reach"):
            client.call("GET", "/x")
        assert client.attempts == 3

    def test_client_errors_never_retry(self):
        client = _ScriptedClient([(400, {}, {"message": "bad row"})])
        with pytest.raises(InputError, match="bad row"):
            client.call("POST", "/x")
        assert client.attempts == 1
        client = _ScriptedClient([(404, {}, {"message": "no such"})])
        with pytest.raises(NotFoundError):
            client.call("GET", "/x")

    def test_deadline_bounds_total_retrying(self):
        client = _ScriptedClient(
            [(429, {"Retry-After": "50"}, {"message": "shed"})] * 5,
            deadline=1.0,
        )
        with pytest.raises(ServiceOverloaded):
            client.call("GET", "/x")
        assert client.attempts == 1  # the 50s hint would blow the deadline
        assert client.sleeps == []


# -- the error -> HTTP mapping ------------------------------------------------------


class TestStatusMapping:
    @pytest.mark.parametrize("exc,status", [
        (InputError("bad"), 400),
        (NotFoundError("gone"), 404),
        (ServiceOverloaded("full"), 429),
        (ServiceUnavailable("draining"), 503),
        (ResourceLimitExceeded("deadline"), 503),
        (MemoryLimitExceeded("cap"), 503),
        (ReproError("other"), 500),
        (RuntimeError("untyped"), 500),
    ])
    def test_most_derived_class_wins(self, exc, status):
        assert status_for(exc) == status
