"""The bulk compute path's core machinery: dispatch, vectorized
halt/activate, local CSR adjacency views, and EngineResult ergonomics."""

from unittest import mock

import numpy as np
import pytest

from repro.core import (
    BulkVertexProgram,
    ChannelEngine,
    CombinedMessage,
    EngineResult,
    SUM_I64,
    VertexProgram,
)
from repro.algorithms._common import gather
from repro.core import adjacency
from repro.core.adjacency import build_local_csr
from repro.graph import rmat
from repro.graph.graph import Graph
from repro.graph.partition import hash_partition, range_partition
from helpers import line_graph


def make_engine(n=6, workers=2):
    class Idle(VertexProgram):
        def compute(self, v):
            v.vote_to_halt()

    return ChannelEngine(line_graph(n), Idle, num_workers=workers)


class TestActivateValidation:
    def test_activate_non_owned_vertex_raises(self):
        """Regression: activate() on a non-owned vertex used to index
        woken[-1], silently corrupting the last local vertex's wake
        state."""
        engine = make_engine(n=6, workers=2)
        w = engine.workers[0]
        foreign = next(v for v in range(6) if engine.owner[v] != 0)
        with pytest.raises(ValueError, match="not owned"):
            w.activate(foreign)

    def test_activate_does_not_corrupt_last_local_vertex(self):
        engine = make_engine(n=6, workers=2)
        w = engine.workers[0]
        w.begin_superstep()
        w.halt_bulk(np.arange(w.num_local))
        foreign = next(v for v in range(6) if engine.owner[v] != 0)
        with pytest.raises(ValueError):
            w.activate(foreign)
        # the bogus wake must not have revived anyone
        assert w.begin_superstep().size == 0

    def test_activate_owned_vertex_still_works(self):
        engine = make_engine(n=6, workers=2)
        w = engine.workers[0]
        w.begin_superstep()
        vid = int(w.local_ids[0])
        w.halt_bulk(np.arange(w.num_local))
        w.activate(vid)
        assert w.begin_superstep().tolist() == [w.local_index(vid)]


class TestHaltBulk:
    def test_halt_bulk_matches_scalar_halt(self):
        engine = make_engine(n=8, workers=1)
        w = engine.workers[0]
        w.begin_superstep()
        w.halt_bulk(np.array([1, 3, 5]))
        assert w.begin_superstep().tolist() == [0, 2, 4, 6, 7]


class TestLocalAdjacency:
    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(7, edge_factor=5, seed=11, directed=True)

    def test_out_rows_match_graph_neighbors(self, graph):
        engine = ChannelEngine(graph, _idle_program(), num_workers=3)
        for w in engine.workers:
            adj = w.local_adjacency()
            for i, g in enumerate(w.local_ids.tolist()):
                np.testing.assert_array_equal(adj.row(i), graph.neighbors(g))
            np.testing.assert_array_equal(adj.degrees, graph.out_degrees[w.local_ids])

    def test_both_rows_are_out_then_in(self, graph):
        engine = ChannelEngine(graph, _idle_program(), num_workers=2)
        w = engine.workers[0]
        adj = w.local_adjacency("both")
        for i, g in enumerate(w.local_ids.tolist()):
            expect = np.concatenate([graph.neighbors(g), graph.in_neighbors(g)])
            np.testing.assert_array_equal(adj.row(i), expect)

    def test_gather_concatenates_in_row_order(self, graph):
        engine = ChannelEngine(graph, _idle_program(), num_workers=2)
        w = engine.workers[0]
        adj = w.local_adjacency()
        rows = np.array([0, 2, 3])
        expect = np.concatenate([adj.row(i) for i in rows.tolist()])
        np.testing.assert_array_equal(adj.gather(rows), expect)

    def test_gather_weights_aligned(self):
        g = rmat(6, edge_factor=4, seed=12, directed=True, weighted=True)
        engine = ChannelEngine(g, _idle_program(), num_workers=2)
        w = engine.workers[0]
        adj = w.local_adjacency()
        rows = np.arange(w.num_local)
        expect = np.concatenate(
            [g.edge_weights(int(v)) for v in w.local_ids] or [np.empty(0)]
        )
        np.testing.assert_array_equal(adj.gather_weights(rows), expect)

    def test_unweighted_gather_weights_are_ones(self, graph):
        engine = ChannelEngine(graph, _idle_program(), num_workers=2)
        w = engine.workers[0]
        adj = w.local_adjacency()
        rows = np.arange(min(4, w.num_local))
        np.testing.assert_array_equal(
            adj.gather_weights(rows), np.ones(int(adj.degrees[rows].sum()))
        )

    def test_cached_per_direction(self, graph):
        engine = ChannelEngine(graph, _idle_program(), num_workers=2)
        w = engine.workers[0]
        assert w.local_adjacency() is w.local_adjacency()
        assert w.local_adjacency("both") is w.local_adjacency("both")
        assert w.local_adjacency() is not w.local_adjacency("both")

    def test_degree_split_is_the_per_superstep_split_of_all_rows(self, graph):
        """What PageRank computed from ``degrees[active]`` every superstep,
        cached on the adjacency (so a migration, which rebuilds workers and
        their adjacency, cannot leave it stale) and off the program (so it
        never enters a checkpoint)."""
        from repro.algorithms.pagerank import PageRankScatterBulk

        engine = ChannelEngine(graph, PageRankScatterBulk, num_workers=2)
        for w in engine.workers:
            adj = w.local_adjacency()
            active = np.arange(w.num_local)
            deg = adj.degrees[active]
            senders, degrees, dead = adj.degree_split
            np.testing.assert_array_equal(senders, active[deg > 0])
            np.testing.assert_array_equal(degrees, deg[deg > 0])
            np.testing.assert_array_equal(dead, active[~(deg > 0)])
            assert adj.degree_split[0] is senders  # computed once
        engine.run()
        for w in engine.workers:
            assert set(w.program.state_dict()) == {"rank"}

    def test_bad_direction_rejected(self, graph):
        engine = ChannelEngine(graph, _idle_program(), num_workers=2)
        with pytest.raises(ValueError, match="direction"):
            engine.workers[0].local_adjacency("sideways")


class TestContiguousRunsAreViews:
    """A contiguous run of local ids (range/degree partitions, rebalancer
    output) gets slices of the global CSR; anything else is gathered.
    Both must describe the same adjacency."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    def test_slice_path_equals_gather_path(self, direction, directed, weighted):
        g = rmat(7, edge_factor=5, seed=21, directed=directed, weighted=weighted)
        run = np.arange(30, 90)
        # one extra far-away row breaks contiguity, forcing the gather
        # path; its first len(run) rows are the rows of `run`
        sliced = build_local_csr(g, run, direction)
        gathered = build_local_csr(g, np.append(run, 120), direction)
        n, e = run.size, sliced.num_edges
        assert e > 0
        np.testing.assert_array_equal(sliced.indptr, gathered.indptr[: n + 1])
        np.testing.assert_array_equal(sliced.degrees, gathered.degrees[:n])
        np.testing.assert_array_equal(sliced.indices, gathered.indices[:e])
        assert sliced.indices.dtype == gathered.indices.dtype == np.int64
        if weighted:
            np.testing.assert_array_equal(sliced.weights, gathered.weights[:e])
        else:
            assert sliced.weights is None and gathered.weights is None
        rows = np.array([0, 7, 8, n - 1])
        np.testing.assert_array_equal(sliced.gather(rows), gathered.gather(rows))

    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    def test_dense_and_sparse_row_sets_read_their_rows(self, direction):
        """Ascending rows that hold a quarter of the entries between their
        first and last or more are read by masking that span; sparser ones,
        and rows out of order, by an index per entry.  Either way the rows
        are the graph's."""
        g = rmat(7, edge_factor=5, seed=21, directed=True, weighted=True)
        parts = {"out": [g.neighbors], "in": [g.in_neighbors], "both": [g.neighbors, g.in_neighbors]}
        for rows, indexed in (
            (np.arange(10, 100, 2), False),
            (np.array([3, 127]), True),
            (np.array([90, 10, 11]), True),
        ):
            adj = build_local_csr(g, rows, direction)
            with mock.patch.object(adjacency, "expand_ranges", wraps=adjacency.expand_ranges) as spy:
                got = adj.indices
            if direction != "both":  # (which interleaves with one itself)
                assert spy.called == indexed
            expected = [part(v) for v in rows.tolist() for part in parts[direction]]
            np.testing.assert_array_equal(got, np.concatenate(expected))

    def test_out_adjacency_of_a_range_partition_aliases_the_graph(self):
        g = rmat(7, edge_factor=5, seed=21, directed=True, weighted=True)
        engine = ChannelEngine(
            g, _idle_program(), num_workers=3, partition=range_partition(g.num_vertices, 3)
        )
        for w in engine.workers:
            adj = w.local_adjacency()
            assert np.shares_memory(adj.indices, g.indices)
            assert np.shares_memory(adj.weights, g.weights)
            for i, v in enumerate(w.local_ids.tolist()):
                np.testing.assert_array_equal(adj.row(i), g.neighbors(v))

    def test_hash_partition_is_gathered_not_aliased(self):
        g = rmat(7, edge_factor=5, seed=21, directed=True)
        engine = ChannelEngine(
            g, _idle_program(), num_workers=3, partition=hash_partition(g.num_vertices, 3)
        )
        for w in engine.workers:
            assert not np.shares_memory(w.local_adjacency().indices, g.indices)

    def test_only_a_copying_read_hands_the_store_arrays_back(self):
        """Building reads no edge column.  Reading gathered rows copies
        them, and the span of the store they lie in is released
        (``GraphStore.release``; the reverse CSR is heap, and offered all
        the same).  Sliced rows stay views, unreleased, until ``"both"``
        interleaves them into a copy."""
        g = rmat(7, edge_factor=5, seed=21, directed=True, weighted=True)
        run = np.arange(30, 90)

        def released(rows, direction):
            with mock.patch.object(g.store, "release") as release:
                adj = build_local_csr(g, rows, direction)
                assert release.call_count == 0
                adj.indices, adj.weights
            return [call.args[0] for call in release.call_args_list]

        assert released(run, "out") == []
        gathered = released(np.append(run, 120), "out")
        assert [view.size for view in gathered] == [g.indptr[121] - g.indptr[30]] * 2
        for view, column in zip(gathered, (g.indices, g.weights), strict=True):
            assert np.shares_memory(view, column)
        both = released(run, "both")
        assert [view.size for view in both[::2]] == [g.indptr[90] - g.indptr[30]] * 2
        for view, column in zip(both[::2], (g.indices, g.weights), strict=True):
            assert np.shares_memory(view, column)
        for view, column in zip(both[1::2], (g._rev_indices, g._rev_weights), strict=True):
            assert np.shares_memory(view, column)

    def test_single_vertex_and_empty_runs(self):
        g = rmat(6, edge_factor=4, seed=22, directed=True)
        one = build_local_csr(g, np.array([5]))
        np.testing.assert_array_equal(one.row(0), g.neighbors(5))
        assert one.indptr.tolist() == [0, g.out_degree(5)]
        empty = build_local_csr(g, np.empty(0, dtype=np.int64))
        assert empty.num_edges == 0 and empty.indptr.tolist() == [0]

    def test_unsorted_ids_are_not_mistaken_for_a_run(self):
        g = rmat(6, edge_factor=4, seed=22, directed=True)
        adj = build_local_csr(g, np.array([3, 2, 1, 0]))
        for i, v in enumerate([3, 2, 1, 0]):
            np.testing.assert_array_equal(adj.row(i), g.neighbors(v))


def _idle_program():
    class Idle(VertexProgram):
        def compute(self, v):
            v.vote_to_halt()

    return Idle


class TestBulkDispatch:
    def test_compute_bulk_called_once_per_superstep(self):
        calls = []

        class Recorder(BulkVertexProgram):
            def compute_bulk(self, active):
                calls.append((self.worker.worker_id, self.step_num, active.copy()))
                self.worker.halt_bulk(active)

        engine = ChannelEngine(line_graph(6), Recorder, num_workers=2)
        engine.run()
        # one call per worker, all vertices active in superstep 1
        assert sorted(c[0] for c in calls) == [0, 1]
        assert all(step == 1 for _, step, _ in calls)
        assert sum(a.size for _, _, a in calls) == 6

    def test_idle_worker_gets_no_bulk_call(self):
        calls = []

        class SourceOnly(BulkVertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = CombinedMessage(worker, SUM_I64)

            def compute_bulk(self, active):
                calls.append((self.worker.worker_id, self.step_num))
                if self.step_num == 1:
                    li = self.worker.local_index(0)
                    if li >= 0:
                        self.msg.send_messages(
                            np.array([1]), np.array([7], dtype=np.int64)
                        )
                self.worker.halt_bulk(active)

        # vertices 0 and 1 on different workers: in superstep 2 only
        # vertex 1's worker is active, so only it may be called
        g = Graph.from_edges(2, [(0, 1)], directed=True)
        engine = ChannelEngine(
            g, SourceOnly, num_workers=2, partition=np.array([0, 1])
        )
        engine.run()
        assert calls == [(0, 1), (1, 1), (1, 2)]

    def test_scalar_compute_on_bulk_program_raises(self):
        class Bulk(BulkVertexProgram):
            def compute_bulk(self, active):
                self.worker.halt_bulk(active)

        engine = ChannelEngine(line_graph(4), Bulk, num_workers=1)
        with pytest.raises(TypeError, match="bulk program"):
            engine.workers[0].program.compute(None)


class TestEngineResultErgonomics:
    def test_passthrough_properties_match_metrics(self):
        from repro.algorithms.wcc import run_wcc

        _, result = run_wcc(rmat(7, edge_factor=4, seed=13, directed=True), num_workers=4)
        m = result.metrics
        assert result.total_net_bytes == m.total_net_bytes > 0
        assert result.total_messages == m.total_messages > 0
        assert result.simulated_time == m.simulated_time > 0.0
        assert result.supersteps == m.supersteps > 0

    def test_defaults_without_metrics(self):
        # metrics disabled is *not* the same observation as "no traffic":
        # the totals must come back None, never a vacuous 0 that would
        # make two unmeasured runs compare as byte-identical
        empty = EngineResult()
        assert empty.total_net_bytes is None
        assert empty.total_messages is None
        assert empty.simulated_time is None
        assert empty.supersteps is None


class TestVertexResults:
    """``VertexProgram.vertex_results`` is the one finalize body: same
    keys, value types and order as the per-vertex comprehension it
    replaced."""

    @pytest.fixture()
    def program(self):
        engine = ChannelEngine(
            line_graph(7), _idle_program(), num_workers=2, partition=hash_partition(7, 2)
        )
        return engine.workers[1].program

    @pytest.mark.parametrize(
        "values, cast",
        [
            (np.array([5, -1, 2**40], dtype=np.int64), int),
            (np.array([1, -2, 3], dtype=np.int8), int),
            (np.array([0.1, np.inf, -0.0], dtype=np.float64), float),
            (np.array([True, False, True]), bool),
        ],
        ids=["int64", "int8", "float64-inf", "bool"],
    )
    def test_matches_the_old_comprehension(self, program, values, cast):
        local_ids = program.worker.local_ids
        values = np.resize(values, local_ids.size)
        expected = {int(g): cast(values[i]) for i, g in enumerate(local_ids)}
        got = program.vertex_results(values)
        assert got == expected
        assert list(got) == list(expected)  # insertion order: local order
        assert all(type(k) is int for k in got)
        assert all(type(v) is cast for v in got.values())
        # bit-identical floats (== would let -0.0 pass as 0.0)
        if cast is float:
            assert [v.hex() for v in got.values()] == [
                v.hex() for v in expected.values()
            ]

    @pytest.mark.parametrize(
        "values",
        [
            np.array([4, 0, -7, 2**40, 1, 1, 9], dtype=np.int64),
            np.array([0.5, np.inf, 3.0, -0.0, 1e-300, 2.0, 7.0]),
            np.array([True, False, False, True, True, False, True]),
        ],
        ids=["int64", "float64-inf", "bool"],
    )
    def test_gather_round_trips(self, values):
        engine = ChannelEngine(
            line_graph(7), _idle_program(), num_workers=3, partition=hash_partition(7, 3)
        )
        data = {}
        for w in engine.workers:
            data.update(w.program.vertex_results(values[w.local_ids]))
        dense = gather(EngineResult(data=data), 7, dtype=values.dtype)
        assert dense.dtype == values.dtype
        assert dense.tobytes() == values.tobytes()
