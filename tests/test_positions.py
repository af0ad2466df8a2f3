"""One vertex-position table per host (ARCHITECTURE.md §3).

A host — the engine on sim, a worker process's host on the process
backend — keeps one ``int32[V]`` table of each vertex's position within
its owner, and every worker answers ``local_index`` from it, checked
against ``owner``.  Pinned here: the lookup equals the dense per-worker
table it replaced, for any placement; received ids are refused by name
as before; every worker on either backend, a confined replay's included,
reads the table of the run's one ownership; and a graph whose positions
an int32 cannot hold is refused when the engine or the child's host is
made.
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
from repro.runtime.parallel.worker_proc import _WorkerHost


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


# -- every worker reads the table of the run's ownership -------------------------

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


@pytest.mark.parametrize("backend", ["sim", *MOVERS])
def test_every_worker_and_a_confined_replay_read_the_table_of_the_owner(monkeypatch, backend):
    """A skewed range placement; worker 1 dies at superstep 4 and replays
    from the superstep-0 checkpoint, built on the engine's ``owner``."""
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
    options = dict(failures=[(1, 4)], recovery="confined")
    if backend == "sim":
        engine = ChannelEngine(GRAPH, Lookup, num_workers=2, partition=skew, **options)
        result = engine.run()
    else:
        with mover(backend):
            engine = ChannelEngine(
                GRAPH, Lookup, num_workers=2, partition=skew, executor="process", **options
            )
            try:
                result = engine.run()
            finally:
                engine.close()
    assert result.metrics.num_failures == 1
    assert replays == [True]
    assert dict(result.data) == {
        g: int(dense_table(skew, int(skew[g]))[g]) for g in range(skew.size)
    }


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
