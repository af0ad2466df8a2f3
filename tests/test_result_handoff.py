"""Results leave the workers as arrays and still read as the dict they
stand for.

``EngineResult.data`` used to be a ``dict`` built per element in every
``finalize``, merged by ``dict.update`` and turned back into an array by
``gather``.  It is now a :class:`~repro.core.program.VertexResults` —
``(ids, array)`` concatenated across workers — that builds the same dict
only if somebody reads it as a mapping.  These tests pin both halves: the
mapping is the old dict (keys, Python value types, order), and the array
path never builds it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import ChannelEngine, VertexProgram
from repro.core.program import VertexResults
from repro.graph import rmat
from repro.graph.partition import hash_partition
from repro.runtime.parallel.pool import WorkerPool

WORKERS = 2

#: executor keyword sets: the simulator and both process transports
BACKENDS = {
    "sim": {},
    "shm": {"executor": "process", "transport": "shm"},
    "pipe": {"executor": "process", "transport": "pipe"},
}


@pytest.fixture(scope="module")
def graph():
    return rmat(7, edge_factor=6, seed=21, directed=False, weighted=True)


RUNS = {
    "pagerank": (lambda g, **kw: run_pagerank(g, variant="scatter", mode="bulk", iterations=4, **kw), float),
    "sssp": (lambda g, **kw: run_sssp(g, source=2, mode="bulk", **kw), float),
    "sv": (lambda g, **kw: run_sv(g, variant="both", **kw), int),
    "wcc": (lambda g, **kw: run_wcc(g, mode="bulk", **kw), int),
}


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("algo", list(RUNS))
def test_data_reads_as_the_per_worker_dict(graph, algo, backend):
    """``result.data`` equals what ``dict.update`` over the workers'
    ``{id: value}`` dicts used to build: int keys, plain Python values,
    worker by worker in local order."""
    run, scalar = RUNS[algo]
    owner = hash_partition(graph.num_vertices, WORKERS)
    dense, result = run(graph, num_workers=WORKERS, partition=owner, **BACKENDS[backend])
    expected = {}
    for w in range(WORKERS):
        ids = np.flatnonzero(owner == w)
        expected.update(zip(ids.tolist(), dense[ids].tolist()))
    data = result.data
    assert isinstance(data, VertexResults) and data._dict is None  # gather read arrays
    assert data == expected and expected == data
    assert list(data) == list(expected) and len(data) == graph.num_vertices
    assert all(type(k) is int for k in data)
    assert all(type(v) is scalar for v in data.values())
    assert list(data.items()) == list(expected.items())
    assert data[5] == expected[5] and data.get(-1) is None and 5 in data and -1 not in data
    assert isinstance(data._dict, dict)  # built once, on the first mapping read


def test_run_pagerank_returns_its_array_without_building_the_dict(graph):
    ranks, result = run_pagerank(graph, variant="scatter", mode="bulk", iterations=3, num_workers=3)
    assert ranks.dtype == np.float64 and ranks.shape == (graph.num_vertices,)
    assert result.data._dict is None
    assert result.data.array.base is None  # a copy: later runs cannot reach into it
    np.testing.assert_array_equal(ranks[result.data.ids], result.data.array)


class _NamedKey(VertexProgram):
    """Per-vertex results plus one named aggregate per worker."""

    def __init__(self, worker):
        super().__init__(worker)
        self.seen = np.zeros(worker.num_local, dtype=np.int64)

    def compute(self, v):
        self.seen[v.local] = v.id * 2
        v.vote_to_halt()

    def finalize(self):
        return {**self.vertex_results(self.seen), f"count_{self.worker.worker_id}": self.num_local}


class _PlainDict(_NamedKey):
    def finalize(self):
        return {int(g): int(x) for g, x in zip(self.worker.local_ids, self.seen)}


class _SharedKey(_NamedKey):
    """Every worker reports the same named key: the last worker's wins."""

    def finalize(self):
        return {"last": self.worker.worker_id}


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_finalize_returning_a_dict_still_merges(graph, backend):
    n = graph.num_vertices
    owner = hash_partition(n, WORKERS)
    per_vertex = {v: 2 * v for w in range(WORKERS) for v in np.flatnonzero(owner == w).tolist()}
    counts = {f"count_{w}": int((owner == w).sum()) for w in range(WORKERS)}

    def run(program):
        return ChannelEngine(
            graph, program, num_workers=WORKERS, partition=owner, **BACKENDS[backend]
        ).run().data

    named = run(_NamedKey)
    assert type(named) is dict and named == {**per_vertex, **counts}
    plain = run(_PlainDict)
    assert type(plain) is dict and list(plain.items()) == list(per_vertex.items())
    assert run(_SharedKey) == {"last": WORKERS - 1}


@pytest.mark.parametrize("transport", ["shm", "pipe"])
def test_process_finalize_reply_is_two_arrays_per_worker(graph, transport, monkeypatch):
    """Nothing per element crosses the control pipe: a child's reply holds
    its ids and its values as two codec arrays."""
    replies = []
    gather = WorkerPool.gather

    def spy(self, phase):
        out = gather(self, phase)
        if phase == "finalize":
            replies.extend(out)
        return out

    monkeypatch.setattr(WorkerPool, "gather", spy)
    owner = hash_partition(graph.num_vertices, WORKERS)
    run_wcc(
        graph, mode="bulk", num_workers=WORKERS, partition=owner,
        executor="process", transport=transport,
    )
    assert len(replies) == WORKERS
    for w, reply in enumerate(replies):
        assert set(reply) == {"data"}
        ids, values = reply["data"]
        assert isinstance(ids, np.ndarray) and isinstance(values, np.ndarray)
        assert ids.tolist() == np.flatnonzero(owner == w).tolist()
        assert values.shape == ids.shape and values.dtype == np.int64


def test_merged_falls_back_to_a_dict_for_mixed_parts():
    a = VertexResults(np.array([0, 2]), np.array([1.5, 2.5]))
    b = VertexResults(np.array([1, 2]), np.array([7, 8]))  # another dtype, id 2 again
    assert VertexResults.merged([a, b]) == {0: 1.5, 2: 8, 1: 7}
    assert type(VertexResults.merged([a, {"k": 1}])) is dict
    assert VertexResults.merged([]) == {}
    both = VertexResults.merged([a, a])
    assert isinstance(both, VertexResults) and both == {0: 1.5, 2: 2.5}
