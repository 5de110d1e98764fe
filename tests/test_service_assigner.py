"""The daemon's row absorption against the scalar Phase-3 argmin.

``repro serve`` keeps ``/assign`` answering between re-mines by absorbing
each new row into its closest mined summary.  The
:class:`repro.kernels.PostingStore` behind it must pick, for every absorbed
and every held-out row, the summary :func:`reference_closest_summary`
picks (one scalar ``merge_cost`` per summary), and its weights and masses
must equal a ``DCF.absorb`` replay bit for bit.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore
from repro.clustering.dcf import DCF
from repro.core.tuple_clustering import TupleClusteringResult, cluster_tuples
from repro.datasets import db2_sample, dblp
from repro.kernels import PostingStore
from repro.relation import NULL, Relation, Schema
from repro.service import DiscoveryApp
from repro.service.app import _Assigner
from repro.testing.oracles import reference_closest_summary


def unseen_rows(template, count: int = 3) -> list:
    """Held-out rows carrying values no catalog has: one unseen cell, half
    the cells unseen, and every cell unseen (an empty singleton)."""
    arity = len(template)
    masks = [{0}, set(range(0, arity, 2)), set(range(arity))][:count]
    return [tuple(f"unseen-{n}-{a}" if a in mask else cell
                  for a, cell in enumerate(template))
            for n, mask in enumerate(masks)]


def assert_parity(seed_relation, absorbed, held_out, value_scope="global",
                  phi_t=0.0):
    clustering = cluster_tuples(seed_relation, phi_t=phi_t,
                                value_scope=value_scope)
    assigner = _Assigner(clustering, seed_relation)
    replay = [summary.copy() for summary in clustering.limbo.summaries]

    for row in absorbed:
        index = assigner.absorb(row)
        singleton = DCF(assigner.base_prior,
                        assigner.distribution(row, allocate=False))
        assert index == reference_closest_summary(replay, singleton), row
        replay[index].absorb(singleton)
    assert assigner.absorbed == len(absorbed)
    assert assigner.store.weights.tolist() == [s.weight for s in replay]
    assert assigner.store.masses() == [s.mass for s in replay]

    n_values = len(assigner.keys)
    for row in held_out:
        singleton = DCF(assigner.base_prior,
                        assigner.distribution(row, allocate=False))
        assert assigner.assign(row) == reference_closest_summary(
            replay, singleton), row
    assert len(assigner.keys) == n_values  # assign never allocates


def dblp_serve_shape():
    """The serve workload's shape: its 5210-row DBLP relation at data
    seed 7, 2000 seed rows, 200 held-out rows, then 1500 rows streamed in
    and absorbed."""
    relation = dblp(n_tuples=5210, seed=7)
    rows = list(relation.rows)
    held_out = rows[2000:2200] + unseen_rows(rows[0])
    return Relation(relation.schema, rows[:2000]), rows[2200:3700], held_out


def db2_split(seed: int):
    """DB2 at one data seed: 60 seed rows, 30 absorbed (plus rows with
    freshly allocated values), held-out rows with unseen values."""
    relation = db2_sample(seed=seed).relation
    rows = list(relation.rows)
    absorbed = rows[60:] + unseen_rows(rows[1], count=2)
    held_out = rows[:10] + unseen_rows(rows[2])
    return Relation(relation.schema, rows[:60]), absorbed, held_out


@pytest.mark.parametrize(
    "corpus",
    [pytest.param(dblp_serve_shape, id="dblp-serve-seed7")]
    + [pytest.param(lambda seed=seed: db2_split(seed), id=f"db2-seed{seed}")
       for seed in range(10)],
)
def test_store_matches_scalar_argmin(corpus):
    seed_relation, absorbed, held_out = corpus()
    assert_parity(seed_relation, absorbed, held_out)


#: A small alphabet shared by every attribute, so a row often repeats a
#: literal (one value carrying several cells' mass under global scope).
LITERALS = st.sampled_from(["a", "b", "c", 1, NULL])


@st.composite
def split_relations(draw):
    arity = draw(st.integers(2, 4))
    row = st.tuples(*[LITERALS] * arity)
    seed_rows = draw(st.lists(row, min_size=1, max_size=12))
    absorbed = draw(st.lists(row, max_size=10))
    held_out = draw(st.lists(row, max_size=4))
    schema = Schema([f"A{a}" for a in range(arity)])
    return Relation(schema, seed_rows), absorbed, held_out


@pytest.mark.parametrize(
    "value_scope",
    [pytest.param("global", id="global"),
     pytest.param("attribute", id="attribute")],
)
@given(corpus=split_relations(), phi_t=st.sampled_from([0.0, 0.3]))
def test_store_matches_scalar_argmin_on_random_relations(
        value_scope, corpus, phi_t):
    seed_relation, absorbed, held_out = corpus
    held_out = held_out + unseen_rows(seed_relation.rows[0])
    assert_parity(seed_relation, absorbed, held_out,
                  value_scope=value_scope, phi_t=phi_t)


def test_store_rejects_zero_summaries():
    with pytest.raises(ValueError):
        PostingStore([])


def test_degraded_clustering_has_no_assigner():
    relation = Relation(Schema(["A", "B"]), [("a", "b")])
    degraded = TupleClusteringResult(relation=relation, view=None, limbo=None,
                                     assignment=[0], duplicate_groups=[])
    with pytest.raises(ValueError, match="no cluster summaries"):
        _Assigner(degraded, relation)


# -- the daemon --------------------------------------------------------------------

ATTRS = ["emp", "dept", "loc", "mgr"]


def make_rows(n, offset=0):
    return [[f"e{i}", f"d{i % 3}", f"loc_{i % 3}", f"m{i % 3}"]
            for i in range(offset, offset + n)]


@pytest.fixture()
def app_factory(tmp_path):
    stores = []

    def make():
        store = CheckpointStore(tmp_path / "svc")
        store.acquire_lock()
        stores.append(store)
        app = DiscoveryApp(store, params={"fd_k": 5, "seed": 0},
                           remine_after=0)
        app.rehydrate()
        return app

    yield make
    for store in stores:
        store.release_lock()


def test_rows_acknowledged_during_a_remine_are_absorbed(app_factory):
    app = app_factory()
    app.create_relation("emp", {"attributes": ATTRS})
    app.append_rows("emp", {"rows": make_rows(40), "seq": 1})
    app.build_model("emp")
    app.append_rows("emp", {"rows": make_rows(5, offset=40), "seq": 2})

    compute = app._compute

    def compute_while_rows_arrive(frozen, budget):
        report = compute(frozen, budget)
        app.append_rows("emp", {"rows": make_rows(30, offset=45), "seq": 3})
        return report

    app._compute = compute_while_rows_arrive
    remined = app.remine("emp")
    assert remined["stale_rows"] == 30
    assigner = app.relations["emp"].assigner
    assert assigner.absorbed == 30
    verdict = app.assign("emp", {"row": make_rows(1, offset=99)[0]})
    assert verdict["approximate"] is True
    assert verdict["stale_rows"] == 30
    assert verdict["clusters"] == len(assigner.store)


def test_restarted_daemon_absorbs_rows_after_its_model(app_factory):
    app = app_factory()
    app.create_relation("emp", {"attributes": ATTRS})
    app.append_rows("emp", {"rows": make_rows(40), "seq": 1})
    app.build_model("emp")
    app.append_rows("emp", {"rows": make_rows(7, offset=40), "seq": 2})
    app.store.release_lock()

    restarted = app_factory()
    verdict = restarted.assign("emp", {"row": make_rows(1, offset=99)[0]})
    assert verdict["stale_rows"] == 7
    assert verdict["approximate"] is True
    assert restarted.relations["emp"].assigner.absorbed == 7


def test_remine_drops_the_superseded_model_from_memory(app_factory):
    app = app_factory()
    for rid in ("emp", "twin"):
        app.create_relation(rid, {"attributes": ATTRS})
        app.append_rows(rid, {"rows": make_rows(40), "seq": 1})
        app.build_model(rid)
    shared = app.relations["emp"].model_key
    assert app.relations["twin"].model_key == shared

    app.append_rows("emp", {"rows": make_rows(5, offset=40), "seq": 2})
    app.remine("emp")
    assert shared in app.cache.resident_keys()  # "twin" still serves it

    app.append_rows("twin", {"rows": make_rows(6, offset=40), "seq": 2})
    app.remine("twin")
    resident = app.cache.resident_keys()
    assert shared not in resident
    assert resident == [app.relations["emp"].model_key,
                        app.relations["twin"].model_key]
    assert app.cache.peek(shared) is not None  # rehydrated from disk
