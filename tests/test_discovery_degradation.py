"""Graceful degradation of the discovery pipeline, proven by fault injection."""

import pytest

from repro import Budget, Relation, StructureDiscovery
from repro.core.discovery import STAGES, deterministic_sample
from repro.errors import StageFailure
from repro.testing import inject


@pytest.fixture(scope="module")
def relation():
    from repro.datasets import db2_sample

    return db2_sample(seed=0).relation


#: The fallback each stage is expected to apply when its primary path dies
#: (None = the stage has no ladder rung and reports ``failed``).
EXPECTED_FALLBACK = {
    "tuple_clustering": "exact-duplicate scan",
    "value_clustering": "sample",
    "attribute_grouping": None,
    "mining": "FDEP",
    "cover": "raw mined dependencies",
    "rank": "singleton grouping",
}


class TestStageGuards:
    @pytest.mark.parametrize("stage", STAGES)
    def test_injected_failure_degrades_not_dies(self, relation, stage):
        with inject(f"discovery.{stage}", raises=RuntimeError("injected")) as fault:
            report = StructureDiscovery().run(relation)
        assert fault.fired == 1
        outcome = report.outcome(stage)
        assert outcome is not None
        expected = EXPECTED_FALLBACK[stage]
        if expected is None:
            assert outcome.status == "failed"
        else:
            assert outcome.status == "degraded"
            assert expected in outcome.fallback
        assert not report.healthy
        # The report still renders, and its health section names the stage.
        rendered = report.render()
        assert "Pipeline health: DEGRADED" in rendered
        assert stage in rendered

    @pytest.mark.parametrize("stage", STAGES)
    def test_strict_mode_raises_stage_failure(self, relation, stage):
        with inject(f"discovery.{stage}", raises=RuntimeError("injected")):
            with pytest.raises(StageFailure) as info:
                StructureDiscovery(strict=True).run(relation)
        assert info.value.stage == stage

    def test_healthy_run_reports_all_ok(self, relation):
        report = StructureDiscovery().run(relation)
        assert report.healthy
        assert [o.stage for o in report.outcomes] == list(STAGES)
        assert "Pipeline health: all stages ok" in report.render()

    def test_keyboard_interrupt_propagates(self, relation):
        with inject("discovery.mining", raises=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                StructureDiscovery().run(relation)

    def test_grouping_failure_degrades_rank_to_cover_order(self, relation):
        with inject("discovery.attribute_grouping", raises=RuntimeError("x")):
            report = StructureDiscovery().run(relation)
        assert report.attribute_grouping is None
        assert report.cover
        # The cover is still surfaced, unranked, in deterministic order.
        assert [r.fd for r in report.ranked] == sorted(
            report.cover, key=lambda fd: fd.sort_key()
        )
        assert all(r.gathered_loss is None for r in report.ranked)
        assert report.outcome("rank").status == "degraded"

    def test_double_fault_marks_stage_failed(self, relation):
        # Kill the miner AND its sample fallback (FDEP's pair scan).
        with inject("discovery.mining", raises=RuntimeError("primary")):
            with inject("fd.fdep.pairs", raises=RuntimeError("fallback too")):
                report = StructureDiscovery().run(relation)
        outcome = report.outcome("mining")
        assert outcome.status == "failed"
        assert "fallback" in outcome.detail
        assert report.dependencies == []
        assert report.render()  # still renders


class TestParallelStage:
    """The pool degrades to sequential execution -- it never takes the run down."""

    @pytest.fixture
    def small_shards(self, monkeypatch):
        """Force a multi-shard layout on the 90-tuple fixture.

        The discovery driver resolves ``ShardedExecutor`` from
        :mod:`repro.parallel` at run time, so wrapping the constructor is
        enough to shrink the shards without touching production defaults.
        At the default ``phi = 0`` LIMBO groups rows in-process, so FDEP's
        pair blocks are shrunk too: its agree-set scan is the stage that
        fans out to the pool.
        """
        import importlib

        import repro.parallel as parallel

        real = parallel.ShardedExecutor

        def factory(**kwargs):
            kwargs.setdefault("shard_size", 8)
            return real(**kwargs)

        monkeypatch.setattr(parallel, "ShardedExecutor", factory)
        monkeypatch.setattr(importlib.import_module("repro.fd.fdep"),
                            "_PAIRS_PER_BLOCK", 512)

    def test_sequential_default_records_no_parallel_stage(self, relation):
        report = StructureDiscovery().run(relation)
        assert report.outcome("parallel") is None

    def test_healthy_parallel_run_reports_ok(self, relation, small_shards):
        report = StructureDiscovery(workers=2).run(relation)
        assert report.healthy
        assert [o.stage for o in report.outcomes] == list(STAGES) + ["parallel"]
        assert report.outcome("parallel").status == "ok"
        assert "Pipeline health: all stages ok" in report.render()

    def test_worker_fault_degrades_not_dies(self, relation, small_shards):
        with inject("parallel.worker", raises=RuntimeError("injected")) as fault:
            report = StructureDiscovery(workers=2).run(relation)
        # Retry-then-sticky-degradation: the dispatch and its one retry hit
        # the fault, then everything ran sequentially.
        assert fault.fired == 2
        outcome = report.outcome("parallel")
        assert outcome is not None
        assert outcome.status == "degraded"
        assert "dispatch-failure" in outcome.detail
        assert outcome.fallback == "sequential execution"
        assert not report.healthy
        assert "Pipeline health: DEGRADED" in report.render()
        # Every *pipeline* stage still took its primary path.
        for stage in STAGES:
            assert report.outcome(stage).status == "ok"

    def test_single_worker_fault_recovers_without_degrading(
        self, relation, small_shards
    ):
        with inject(
            "parallel.worker", raises=RuntimeError("injected"), limit=1
        ) as fault:
            report = StructureDiscovery(workers=2).run(relation)
        assert fault.fired == 1
        outcome = report.outcome("parallel")
        assert outcome is not None
        assert outcome.status == "ok"
        assert outcome.detail.startswith("recovered: ")
        assert report.healthy
        assert "Pipeline health: all stages ok" in report.render()

    def test_degraded_run_matches_clean_run(self, relation, small_shards):
        # Re-executed shards are pure functions of their payloads, so a
        # run that lost its pool produces the same artifacts as one that
        # kept it.
        with inject("parallel.worker", raises=RuntimeError("injected")):
            degraded = StructureDiscovery(workers=2).run(relation)
        clean = StructureDiscovery(workers=2).run(relation)
        assert degraded.dependencies == clean.dependencies
        assert degraded.cover == clean.cover
        assert [r.fd for r in degraded.ranked] == [r.fd for r in clean.ranked]
        assert (
            len(degraded.tuple_clustering.duplicate_groups)
            == len(clean.tuple_clustering.duplicate_groups)
        )


class TestBudgetedRun:
    def test_exhausted_budget_yields_degraded_report(self, relation):
        report = StructureDiscovery().run(relation, budget=Budget(max_units=1))
        assert not report.healthy
        outcome = report.outcome("tuple_clustering")
        assert outcome.status == "degraded"
        assert "budget exhausted" in outcome.detail
        assert report.render()

    def test_constructor_budget_is_default(self, relation):
        discovery = StructureDiscovery(budget=Budget(max_units=1))
        assert not discovery.run(relation).healthy

    def test_mining_over_budget_falls_back_to_sampled_fdep(self, relation):
        # Let clustering run unbudgeted; starve only the miner via a delay
        # fault right before TANE's first level with a tiny deadline.
        discovery = StructureDiscovery(miner="tane")
        with inject("fd.tane.level", delay=0.05):
            report = discovery.run(relation, budget=Budget(deadline=0.04))
        outcome = report.outcome("mining")
        assert outcome.status == "degraded"
        assert "FDEP" in outcome.fallback
        assert report.dependencies  # the sampled miner still found FDs

    def test_cover_over_budget_falls_back_to_raw_dependencies(self, relation):
        # Count the work units spent up to the cover's first checkpoint,
        # then cap a fresh budget one unit short of it.
        ticks = []
        probe = Budget()
        probe.on_checkpoint(lambda units, where: ticks.append((units, where)))
        StructureDiscovery().run(relation, budget=probe)
        first = next(units for units, where in ticks if where == "fd.cover")
        report = StructureDiscovery().run(
            relation, budget=Budget(max_units=first - 1))
        assert report.outcome("mining").ok
        outcome = report.outcome("cover")
        assert outcome.status == "degraded"
        assert "budget exhausted" in outcome.detail
        assert "fd.cover" in outcome.detail
        assert outcome.fallback == "raw mined dependencies"
        assert report.cover == list(report.dependencies)


class TestDeterministicSample:
    def test_small_relation_returned_whole(self):
        r = Relation(["A"], [("1",), ("2",)])
        assert deterministic_sample(r, cap=10) is r

    def test_sample_is_capped_and_stable(self):
        rows = [(str(i), str(i % 7)) for i in range(1000)]
        r = Relation(["A", "B"], rows)
        first = deterministic_sample(r, cap=50)
        second = deterministic_sample(r, cap=50)
        assert len(first) == 50
        assert first.rows == second.rows
        assert first.schema == r.schema
