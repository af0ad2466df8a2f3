"""One vertex-position table per host (ARCHITECTURE.md §3).

A host — the engine on sim, a worker process's host on the process
backend — keeps one ``int32[V]`` table of each vertex's position within
its owner, and every worker answers ``local_index`` from it, checked
against ``owner``.  Pinned here: the lookup equals the dense per-worker
table it replaced, for any placement; received ids are refused by name
as before; the table follows ``owner`` through a migration on both
backends and into a confined replay; and a graph whose positions an
int32 cannot hold is refused when the engine or the child's host is made.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.runtime.executor
from helpers import MOVERS, mover
from repro.core import ChannelEngine, CombinedMessage, VertexProgram
from repro.core.channels._records import local_ids
from repro.core.recovery import confined_recovery
from repro.core.combiner import SUM_F64
from repro.core.worker import MAX_VERTICES, OwnerTable
from repro.graph import rmat
from repro.graph.graph import Graph
from repro.graph.partition import degree_range_partition, hash_partition, range_partition
from repro.obs.live import LIVE_COUNTERS, LiveMetrics
from repro.runtime.parallel.worker_proc import _WorkerHost
from repro.runtime.rebalance import RebalancePolicy


def dense_table(owner: np.ndarray, worker_id: int) -> np.ndarray:
    """The per-worker ``int64[V]`` index the position table replaced."""
    table = np.full(owner.size, -1, dtype=np.int64)
    mine = np.flatnonzero(owner == worker_id)
    table[mine] = np.arange(mine.size)
    return table


def lookup_agrees(worker) -> bool:
    """Whether ``worker.local_index`` — array and scalar form — is the
    dense table of the ownership it was built under."""
    expected = dense_table(worker.owner, worker.worker_id)
    ids = np.arange(worker.owner.size)
    got = worker.local_index(ids)
    return (
        got.dtype == np.int64
        and np.array_equal(got, expected)
        and [worker.local_index(int(i)) for i in ids] == expected.tolist()
    )


class _Idle(VertexProgram):
    def compute(self, v):
        v.vote_to_halt()


@st.composite
def placements(draw):
    """A random graph, a worker count of 1, 2 or 8, and an owner array of
    one of four kinds; an arbitrary one may leave workers empty."""
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))
    graph = Graph(n, [s for s, _ in edges], [d for _, d in edges])
    workers = draw(st.sampled_from([1, 2, 8]))
    kind = draw(st.sampled_from(["range", "degree", "hash", "arbitrary"]))
    if kind == "range":
        owner = range_partition(n, workers)
    elif kind == "degree":
        owner = degree_range_partition(graph, workers)
    elif kind == "hash":
        owner = hash_partition(n, workers, seed=draw(st.integers(0, 3)))
    else:
        owner = np.array(draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)))
    return graph, workers, owner


@settings(max_examples=60, deadline=None)
@given(placements())
def test_the_lookup_is_the_dense_table_it_replaced(placement):
    graph, workers, owner = placement
    engine = ChannelEngine(graph, _Idle, num_workers=workers, partition=owner)
    assert engine.positions.dtype == np.int32 and engine.positions.size == graph.num_vertices
    for worker in engine.workers:
        assert worker._positions is engine.positions  # one table per host
        assert lookup_agrees(worker)


@settings(max_examples=40, deadline=None)
@given(placements(), st.data())
def test_received_ids_are_refused_by_name(placement, data):
    """``local_ids`` answers owned ids from the lookup and refuses an id
    outside ``[0, V)`` or owned elsewhere with the same ``RuntimeError``
    as with the dense table."""
    graph, workers, owner = placement
    n = graph.num_vertices
    engine = ChannelEngine(graph, _Idle, num_workers=workers, partition=owner)
    me = data.draw(st.integers(0, workers - 1))
    channel = CombinedMessage(engine.workers[me], SUM_F64)
    mine = np.flatnonzero(owner == me)
    np.testing.assert_array_equal(local_ids(channel, 0, mine), np.arange(mine.size))
    for bad in (-1, n, n + 7):
        with pytest.raises(RuntimeError, match=rf"worker 0 sent id {bad} outside \[0, {n}\)"):
            local_ids(channel, 0, np.append(mine, bad))
    foreign = np.flatnonzero(owner != me)
    if foreign.size:
        bad = data.draw(st.sampled_from(foreign.tolist()))
        with pytest.raises(RuntimeError, match=rf"id {bad}, which worker {me} does not own"):
            local_ids(channel, 0, np.append(mine, bad))


# -- the table follows owner ------------------------------------------------------

STEPS = 6
GRAPH = rmat(7, edge_factor=8, seed=5)


class Lookup(VertexProgram):
    """Keeps every vertex active for ``STEPS`` supersteps; ``finalize``
    reports each owned vertex's local index, or -2 everywhere when this
    worker's lookup disagrees with the dense table of its ownership."""

    def compute(self, v):
        if self.worker.step_num >= STEPS:
            v.vote_to_halt()

    def finalize(self):
        worker = self.worker
        ok = lookup_agrees(worker)
        return {
            int(g): i if ok else -2
            for i, g in enumerate(worker.local_ids.tolist())
        }


def _migrating_run(monkeypatch, **options):
    """A run whose planted skew migrates at superstep 2, with every
    confined replay's workers checked against the ownership of the
    moment; returns ``(engine, result, replay checks, after)``, where
    ``after`` holds the state blobs captured once the run is over and
    the live slots' counters."""
    replays = []
    def spy(engine, doomed):
        lives = confined_recovery(engine, doomed)
        replays.extend(
            lookup_agrees(life.worker) and life.worker.owner is engine.owner
            for life in lives.values()
        )
        return lives

    monkeypatch.setattr(repro.runtime.executor, "confined_recovery", spy)
    skew = range_partition(GRAPH.num_vertices, 2)
    skew[: GRAPH.num_vertices // 4] = 0  # worker 0 holds the RMAT hubs and more
    live = LiveMetrics.create(2)
    engine = ChannelEngine(
        GRAPH,
        Lookup,
        num_workers=2,
        partition=skew,
        rebalance="superstep",
        rebalance_every=2,
        rebalance_policy=RebalancePolicy(num_workers=2, min_supersteps=2, skew_threshold=0.0),
        live=live,
        **options,
    )
    try:
        result = engine.run()
        after = {
            "blobs": engine.backend.capture_state_blobs(),
            "live": [{k: row[k] for k in LIVE_COUNTERS} for row in live.snapshot()],
        }
    finally:
        engine.close()
        live.close(unlink=True)
    assert result.metrics.num_rebalances > 0, "the planted skew must migrate"
    assert not np.array_equal(engine.owner, skew)
    return engine, result, replays, after


def _expected(owner: np.ndarray) -> dict:
    return {
        g: int(dense_table(owner, int(owner[g]))[g]) for g in range(owner.size)
    }


@pytest.mark.parametrize("backend", ["sim", *MOVERS])
def test_a_migration_rebuilds_the_table_from_the_new_owner(monkeypatch, backend):
    if backend == "sim":
        engine, result, _, _ = _migrating_run(monkeypatch)
    else:
        with mover(backend):
            engine, result, _, _ = _migrating_run(monkeypatch, executor="process")
    assert dict(result.data) == _expected(engine.owner)


@pytest.mark.parametrize(
    "executor", [dict(), dict(executor="process")], ids=["sim", "process"]
)
def test_a_confined_replay_after_a_migration_reads_the_new_table(monkeypatch, executor):
    """The migration forces a checkpoint; worker 1 then dies and replays
    from it, built on the engine after ``owner`` was reassigned."""
    engine, result, replays, _ = _migrating_run(
        monkeypatch, failures=[(1, 4)], recovery="confined", **executor
    )
    assert result.metrics.num_failures == 1
    assert replays == [True]
    assert dict(result.data) == _expected(engine.owner)


def test_a_confined_replay_after_a_migration_agrees_across_backends(monkeypatch):
    """Sim recovers as the process backend does: after the migration and
    the replay, every worker's state bytes, the recovery's byte count and
    the live slots' counters are the same on sim, shm and pipe."""
    runs = {"sim": _migrating_run(monkeypatch, failures=[(1, 4)], recovery="confined")}
    for name in MOVERS:
        with mover(name):
            runs[name] = _migrating_run(
                monkeypatch, failures=[(1, 4)], recovery="confined", executor="process"
            )
    engine, result, replays, after = runs["sim"]
    assert result.metrics.recovery_bytes > 0
    assert after["live"][0]["superstep"] == result.metrics.supersteps
    for name in MOVERS:
        other_engine, other, other_replays, other_after = runs[name]
        assert other_replays == replays == [True], name
        assert np.array_equal(other_engine.owner, engine.owner), name
        assert dict(other.data) == dict(result.data), name
        assert other_after["blobs"] == after["blobs"], name
        assert other.metrics.recovery_bytes == result.metrics.recovery_bytes, name
        assert other_after["live"] == after["live"], name


# -- the configure-time limit -----------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda graph: ChannelEngine(graph, _Idle, num_workers=2),
        lambda graph: _WorkerHost(graph, np.zeros(0, dtype=np.int64), 2),
    ],
    ids=["engine", "child host"],
)
def test_a_graph_past_int32_positions_is_refused_at_construction(make):
    """A stub graph: nothing of it is read before the check."""
    with pytest.raises(ValueError, match=rf"{2**31 + 1} vertices: a host places at most {MAX_VERTICES}"):
        make(SimpleNamespace(num_vertices=2**31 + 1))


def test_the_limit_is_the_last_position_an_int32_holds():
    OwnerTable.check_vertices(MAX_VERTICES)  # positions 0 .. 2**31 - 1
    assert MAX_VERTICES - 1 == np.iinfo(np.int32).max
