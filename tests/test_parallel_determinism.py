"""Worker-count invariance: any ``workers=N`` is bit-identical to ``workers=1``.

The parallel layer's contract is that the shard layout is a pure function of
the input (never of the worker count) and that every task function either
reuses its sequential twin's code path or computes a content-based result.
These tests pin the contract down empirically: LIMBO merge sequences, FD
minimum covers, FD-RANK orderings and whole discovery reports must compare
``==`` -- not approximately -- across ``workers in {1, 2, 4, 7}`` and both
clustering backends.

``workers=1`` is the in-process oracle: same payloads, same shard layout,
no pool.  Comparing the pooled runs against it proves process boundaries
(and fork vs. spawn) leak nothing into the results.  The sequential run
(``workers=None``, no executor at all) must match them too: the docs call
every worker setting equivalent, the sequential default included.
"""

import importlib
import multiprocessing

import pytest

from repro import ShardedExecutor, StructureDiscovery
from repro.clustering import DCF, Limbo, aib
from repro.core import fd_rank, group_attributes
from repro.fd import fdep, minimum_cover, tane
from repro.relation import build_tuple_view

WORKERS = (1, 2, 4, 7)
BACKENDS = ("sparse", "dense")

#: Small enough that sharding kicks in on the 90-tuple fixture.
SHARD_SIZE = 16


@pytest.fixture(scope="module")
def relation():
    from repro.datasets import db2_sample

    return db2_sample(seed=0).relation


@pytest.fixture(scope="module")
def view(relation):
    return build_tuple_view(relation)


@pytest.fixture(scope="module")
def tight_gates():
    """Shrink the parallel-dispatch gates so the 90-tuple fixture fans out.

    The production gates only engage the pool when a fan-out is big enough
    to win; at test scale they would leave every map with a single payload
    and the invariance claim unexercised.  Only sizes change -- the code
    paths under test are the production ones.
    """
    fdep_mod = importlib.import_module("repro.fd.fdep")
    tane_mod = importlib.import_module("repro.fd.tane")
    aib_mod = importlib.import_module("repro.clustering.aib")
    saved = (
        fdep_mod._PARALLEL_MIN_TUPLES, fdep_mod._PAIRS_PER_BLOCK,
        tane_mod._PARALLEL_MIN_CANDIDATES, tane_mod._CANDIDATE_CHUNK,
        aib_mod._PARALLEL_MIN_OBJECTS, aib_mod._PAIRS_PER_BLOCK,
    )
    fdep_mod._PARALLEL_MIN_TUPLES = 8
    fdep_mod._PAIRS_PER_BLOCK = 512
    tane_mod._PARALLEL_MIN_CANDIDATES = 2
    tane_mod._CANDIDATE_CHUNK = 4
    aib_mod._PARALLEL_MIN_OBJECTS = 16
    aib_mod._PAIRS_PER_BLOCK = 512
    yield
    (
        fdep_mod._PARALLEL_MIN_TUPLES, fdep_mod._PAIRS_PER_BLOCK,
        tane_mod._PARALLEL_MIN_CANDIDATES, tane_mod._CANDIDATE_CHUNK,
        aib_mod._PARALLEL_MIN_OBJECTS, aib_mod._PAIRS_PER_BLOCK,
    ) = saved


def make_executor(workers: int) -> ShardedExecutor:
    return ShardedExecutor(workers=workers, shard_size=SHARD_SIZE)


def summary_fingerprints(summaries) -> list[tuple]:
    """Bitwise identity of Phase-1 leaves: weight, masses, member order."""
    return [
        (s.weight, tuple(sorted(s.conditional.items())), tuple(s.members))
        for s in summaries
    ]


def merge_records(dendrogram) -> list[tuple]:
    return [(m.left, m.right, m.parent, m.loss) for m in dendrogram.merges]


def canonical(fds) -> list:
    return sorted(fds, key=lambda fd: fd.sort_key())


# -- LIMBO --------------------------------------------------------------------------


def run_limbo(view, backend: str, workers: int, phi: float):
    with make_executor(workers) as executor:
        limbo = Limbo(phi=phi, backend=backend, executor=executor)
        limbo.fit(view.rows, view.priors)
        dendrogram = limbo.merge_sequence().dendrogram
        assignment = limbo.assign(limbo.summaries)
        assert executor.events == []
    return (
        summary_fingerprints(limbo.summaries),
        merge_records(dendrogram),
        assignment,
    )


class TestLimboInvariance:
    _oracle: dict = {}

    @classmethod
    def oracle(cls, view, backend, phi):
        key = (backend, phi)
        if key not in cls._oracle:
            cls._oracle[key] = run_limbo(view, backend, workers=1, phi=phi)
        return cls._oracle[key]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_phi_zero_bit_identical(self, view, backend, workers):
        summaries, merges, assignment = run_limbo(view, backend, workers, phi=0.0)
        base_summaries, base_merges, base_assignment = self.oracle(view, backend, 0.0)
        assert summaries == base_summaries
        assert merges == base_merges
        assert assignment == base_assignment

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_positive_phi_bit_identical(self, view, backend, workers):
        # The positive-threshold path (per-shard DCF trees + cross-shard
        # re-insert) must be just as worker-invariant as the phi=0 one.
        result = run_limbo(view, backend, workers, phi=0.5)
        assert result == self.oracle(view, backend, 0.5)


# -- AIB ----------------------------------------------------------------------------


def synthetic_dcfs(n: int = 150, universe: int = 40) -> list[DCF]:
    """Deterministic, collision-rich DCFs big enough to cross the AIB gate."""
    dcfs = []
    for i in range(n):
        row = {(i * 7 + k) % universe: (k + 1) / 6.0 for k in range(3)}
        dcfs.append(DCF.singleton(i, 1.0 / n, row))
    return dcfs


class TestAIBInvariance:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_pairwise_block_build_bit_identical(self, tight_gates, workers):
        baseline = merge_records(aib(synthetic_dcfs(), backend="dense").dendrogram)
        with make_executor(workers) as executor:
            result = aib(synthetic_dcfs(), backend="dense", executor=executor)
            assert executor.events == []
        assert merge_records(result.dendrogram) == baseline


# -- FD mining and ranking ----------------------------------------------------------


class TestMinerInvariance:
    @pytest.fixture(scope="class")
    def fdep_baseline(self, relation):
        return canonical(fdep(relation))

    @pytest.fixture(scope="class")
    def tane_baseline(self, relation):
        return canonical(tane(relation, max_lhs_size=2))

    @pytest.mark.parametrize("workers", WORKERS)
    def test_fdep_minimum_cover_invariant(
        self, relation, tight_gates, fdep_baseline, workers
    ):
        with make_executor(workers) as executor:
            fds = fdep(relation, executor=executor)
            assert executor.events == []
        assert canonical(fds) == fdep_baseline
        assert minimum_cover(fds, group_rhs=True) == minimum_cover(
            fdep_baseline, group_rhs=True
        )

    @pytest.mark.parametrize("workers", WORKERS)
    def test_tane_invariant(self, relation, tight_gates, tane_baseline, workers):
        with make_executor(workers) as executor:
            fds = tane(relation, max_lhs_size=2, executor=executor)
            assert executor.events == []
        assert canonical(fds) == tane_baseline

    @pytest.mark.parametrize("workers", WORKERS)
    def test_fd_rank_ordering_invariant(
        self, relation, tight_gates, fdep_baseline, workers
    ):
        with make_executor(workers) as executor:
            fds = fdep(relation, executor=executor)
            grouping = group_attributes(relation, phi_v=0.0, executor=executor)
            ranked = fd_rank(
                minimum_cover(fds, group_rhs=True), grouping, psi=0.5
            )
            assert executor.events == []
        baseline = fd_rank(
            minimum_cover(fdep_baseline, group_rhs=True),
            group_attributes(relation, phi_v=0.0),
            psi=0.5,
        )
        assert [(str(e.fd), e.rank) for e in ranked] == [
            (str(e.fd), e.rank) for e in baseline
        ]


# -- end to end ---------------------------------------------------------------------


class TestDiscoveryInvariance:
    def test_report_renders_byte_identical(self, relation, tight_gates):
        renders = {}
        for workers in WORKERS:
            report = StructureDiscovery(workers=workers).run(relation)
            assert report.healthy
            assert report.outcome("parallel").status == "ok"
            renders[workers] = report.render()
        distinct = set(renders.values())
        assert len(distinct) == 1, (
            "discovery reports differ across worker counts: "
            f"{sorted(renders)}"
        )


class TestSequentialShardedIdentity:
    """``workers=None`` produces the same report as any worker count.

    DB2 and DBLP-2200 at data seed 7 are the inputs on which a sequential
    phi = 0 DCF tree once split identical values across leaves (108 value
    summaries on DB2 where the sharded runs found the exact 107).  Only
    the ``parallel`` health entry, which sequential runs do not carry, is
    left out of the comparison.
    """

    _relations: dict = {}
    _reports: dict = {}

    @classmethod
    def relation(cls, name):
        from repro.datasets import db2_sample, dblp

        if name not in cls._relations:
            cls._relations[name] = (db2_sample(seed=7).relation if name == "db2"
                                    else dblp(2200, seed=7))
        return cls._relations[name]

    @classmethod
    def report(cls, name, workers):
        key = (name, workers)
        if key not in cls._reports:
            relation = cls.relation(name)
            blob = StructureDiscovery(workers=workers).run(relation).to_json()
            blob["stages"] = [
                stage for stage in blob["stages"] if stage["stage"] != "parallel"
            ]
            cls._reports[key] = blob
        return cls._reports[key]

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("name", ("db2", "dblp-2200"))
    def test_sharded_report_equals_sequential(self, name, workers):
        sequential = self.report(name, None)
        assert sequential["healthy"]
        assert self.report(name, workers) == sequential


# -- start methods ------------------------------------------------------------------


class TestStartMethodInvariance:
    @pytest.mark.parametrize(
        "start_method", multiprocessing.get_all_start_methods()
    )
    def test_fdep_invariant_under_every_start_method(
        self, relation, tight_gates, start_method
    ):
        with ShardedExecutor(
            workers=2, start_method=start_method, shard_size=SHARD_SIZE
        ) as executor:
            fds = fdep(relation, executor=executor)
            assert executor.events == []
        assert canonical(fds) == canonical(fdep(relation))
