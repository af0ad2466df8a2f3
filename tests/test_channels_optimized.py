"""Unit tests for the optimized channels: ScatterCombine, RequestRespond,
Propagation (Table II)."""

import importlib.util
import mmap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.util
from repro.core import (
    ChannelEngine,
    CombinedMessage,
    MAX_F64,
    MAX_I32,
    MAX_I64,
    MIN_F64,
    MIN_I32,
    MIN_I64,
    MirroredScatter,
    Propagation,
    RequestRespond,
    ScatterCombine,
    SUM_F64,
    SUM_I64,
    VertexProgram,
)
from repro.core import combiner as combiner_module
from repro.core.adjacency import build_local_csr
from repro.core.combiner import make_combiner
from repro.core.channels import _edges, scatter_combine
from repro.core.channels._records import decode_pattern
from repro.graph import Graph, rmat, star
from repro.graph.graph import VERTEX_ID
from repro.graph.partition import hash_partition, range_partition
from repro.graph.store import MmapStore
from repro.runtime.checkpoint import decode_state, encode_state
from repro.runtime.serialization import INT32, INT64
from helpers import line_graph, scan_segments, two_triangles
from test_static_pattern import split


def _narrowest(bound: int) -> type:
    """The narrowest of uint16/uint32 that indexes ``[0, bound)``."""
    return np.uint16 if bound <= 2**16 else np.uint32


def run(graph, program_cls, workers=2, **kw):
    return ChannelEngine(graph, program_cls, num_workers=workers, **kw).run()


class TestScatterCombine:
    def _program(self, combiner=SUM_F64, rounds=2):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = ScatterCombine(worker, combiner)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.out_degree:
                        self.msg.add_edges(v, v.edges)
                    self.msg.set_message(v, float(v.id + 1))
                elif self.step_num <= rounds:
                    self.got[v.id] = float(self.msg.get_message(v))
                    self.msg.set_message(v, float(v.id + 1))
                else:
                    self.got[v.id] = float(self.msg.get_message(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        return P

    def test_combined_per_receiver(self):
        g = two_triangles()
        res = run(g, self._program())
        # vertex 0's neighbors are 1 and 2 -> 2 + 3
        assert res.data[0] == 5.0
        assert res.data[3] == 5.0 + 6.0

    def test_values_refresh_each_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = ScatterCombine(worker, SUM_F64)
                self.seen = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.add_edges(v, v.edges)
                    self.msg.set_message(v, 1.0)
                elif self.step_num == 2:
                    self.seen.setdefault(v.id, []).append(float(self.msg.get_message(v)))
                    self.msg.set_message(v, 10.0)
                else:
                    self.seen.setdefault(v.id, []).append(float(self.msg.get_message(v)))
                    v.vote_to_halt()

            def finalize(self):
                return self.seen

        res = run(line_graph(3), P)
        # middle vertex has 2 neighbors: 2.0 then 20.0
        assert res.data[1] == [2.0, 20.0]

    def test_nothing_sent_when_no_set_message(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = ScatterCombine(worker, SUM_F64)

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.add_edges(v, v.edges)
                    # no set_message at all
                v.vote_to_halt()

        res = run(line_graph(4), P)
        assert res.supersteps == 1  # nobody woken: no traffic

    def test_dedups_destinations_per_worker(self):
        """The Fig. 5 byte saving: per unique destination, not per edge.
        Only the leaves scatter (all toward the single hub)."""
        hub = star(9, center=0)  # leaves 1..8 all point at 0

        def net_bytes(channel):
            class P(VertexProgram):
                def __init__(self, worker):
                    super().__init__(worker)
                    if channel == "scatter":
                        self.msg = ScatterCombine(worker, SUM_F64)
                    else:
                        self.msg = CombinedMessage(worker, SUM_F64)

                def compute(self, v):
                    if self.step_num == 1 and v.id != 0:
                        if channel == "scatter":
                            self.msg.add_edges(v, v.edges)
                            self.msg.set_message(v, 1.0)
                        else:
                            for e in v.edges:
                                self.msg.send_message(int(e), 1.0)
                    else:
                        v.vote_to_halt()

            part = np.zeros(9, dtype=np.int64)
            part[1:] = 1  # all leaves on worker 1, hub on worker 0
            res = ChannelEngine(hub, P, num_workers=2, partition=part).run()
            return res.metrics.total_net_bytes

        # 8 leaf->hub records collapse into 1 for scatter
        assert net_bytes("scatter") < net_bytes("basic") / 3

    def test_matches_combined_message_results(self):
        """Same traffic semantics as CombinedMessage for static patterns."""
        g = rmat(6, edge_factor=3, seed=2)

        results = {}
        for mode in ("scatter", "basic"):

            class P(VertexProgram):
                def __init__(self, worker):
                    super().__init__(worker)
                    if mode == "scatter":
                        self.msg = ScatterCombine(worker, SUM_F64)
                    else:
                        self.msg = CombinedMessage(worker, SUM_F64)
                    self.got = {}

                def compute(self, v):
                    if self.step_num == 1:
                        if mode == "scatter":
                            self.msg.add_edges(v, v.edges)
                            self.msg.set_message(v, float(v.id))
                        else:
                            for e in v.edges:
                                self.msg.send_message(int(e), float(v.id))
                    else:
                        self.got[v.id] = float(self.msg.get_message(v))
                        v.vote_to_halt()

                def finalize(self):
                    return self.got

            results[mode] = run(g, P, workers=3).data

        assert results["scatter"] == results["basic"]

    def test_hash_ablation_matches_linear_scan(self):
        """The D2 ablation (a ScatterCombine subclass that lives with its
        one caller, benchmarks/bench_ablations.py) combines per edge
        through a hash table; with exact (integer) arithmetic its values,
        their order on the wire and the traffic must equal the linear
        scan's."""
        spec = importlib.util.spec_from_file_location(
            "bench_ablations",
            Path(__file__).resolve().parent.parent / "benchmarks" / "bench_ablations.py",
        )
        bench_ablations = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_ablations)

        def scatter(channel):
            class P(VertexProgram):
                def __init__(self, worker):
                    super().__init__(worker)
                    self.msg = channel(worker, SUM_I64)
                    self.got = {}

                def compute(self, v):
                    if self.step_num == 1 and v.out_degree:
                        self.msg.add_edges(v, v.edges)
                    if self.step_num > 1:
                        self.got[v.id] = int(self.msg.get_message(v))
                    if self.step_num < 4:
                        self.msg.set_message(v, v.id * self.step_num + 1)
                    else:
                        v.vote_to_halt()

                def finalize(self):
                    return self.got

            res = run(rmat(7, edge_factor=5, seed=4), P, workers=3)
            return res.data, res.metrics.total_net_bytes, res.metrics.total_messages

        hashed = scatter(bench_ablations.HashScatterCombine)
        scanned = scatter(ScatterCombine)
        assert hashed == scanned and len(hashed[0]) > 64


class _Idle(VertexProgram):
    def compute(self, v):
        v.vote_to_halt()


#: every channel that owns a static edge set
STATIC_EDGE_CHANNELS = pytest.mark.parametrize(
    "channel",
    [
        lambda w: ScatterCombine(w, SUM_F64),
        lambda w: MirroredScatter(w, SUM_F64),
        lambda w: Propagation(w, MIN_F64),
    ],
    ids=["ScatterCombine", "MirroredScatter", "Propagation"],
)


class TestScatterCombineBuild:
    """The one-off routing build: independent of how the edges arrived,
    reproducible from a snapshot, and loud about ids it cannot route."""

    @staticmethod
    def _worker(workers=2):
        g = rmat(6, edge_factor=4, seed=5)
        return ChannelEngine(g, _Idle, num_workers=workers).workers[0]

    @staticmethod
    def _edges(worker):
        adj = worker.local_adjacency()
        src = np.repeat(np.arange(worker.num_local, dtype=np.int64), adj.degrees)
        return src, adj.indices.astype(np.int64)  # the edge columns' dtype

    @staticmethod
    def _tables(ch):
        """Of a channel that has not announced: sorted senders, segment
        starts, and per peer what it will announce (``encode_pattern``'s
        arguments) and the positions of its values in destination order (a
        slice or an index array)."""
        ch._build()
        senders, starts = scan_segments(ch._scan)
        positions = np.arange(starts.size)
        return (
            senders.tolist(),
            starts.tolist(),
            [{form: np.asarray(part).tolist() for form, part in w.items()} for w in ch._words],
            [positions[sel].tolist() for sel in ch._peer_select],
        )

    def _register(self, worker, how):
        src, dst = self._edges(worker)
        ch = ScatterCombine(worker, SUM_F64)
        v = worker._vertex
        if how == "scalar":
            for s_, d_ in zip(src.tolist(), dst.tolist()):
                ch.add_edge(v._bind(s_), d_)
        elif how == "per-vertex":
            for i in range(worker.num_local):
                ch.add_edges(v._bind(i), dst[src == i])
        elif how == "one-chunk":
            ch.add_edges_bulk(src, dst)
        elif how == "three-chunks":
            for part in np.array_split(np.arange(src.size), 3):
                ch.add_edges_bulk(src[part], dst[part])
        elif how == "scalar-then-chunk":
            half = src.size // 2
            for s_, d_ in zip(src[:half].tolist(), dst[:half].tolist()):
                ch.add_edge(v._bind(s_), d_)
            ch.add_edges_bulk(src[half:], dst[half:])
        return ch

    def test_tables_match_a_stable_argsort_reference(self):
        """The edges of the destinations the peer folds
        (:func:`test_static_pattern.split`) leave the scan, and its words
        name the destinations combined here and the senders that cross."""
        worker = self._worker()
        src, dst = self._edges(worker)
        crossing, folded = {}, {}
        for peer in range(worker.num_workers):
            into = worker.owner[dst] == peer
            if peer != worker.worker_id and into.any():
                combined, crossing[peer] = split(src[into], dst[into])
                folded[peer] = np.unique(dst[into]).size - combined.size
                kept = ~into | np.isin(dst, combined)
                src, dst = src[kept], dst[kept]
        assert any(senders.size for senders in crossing.values())
        order = np.argsort(dst, kind="stable")
        uniq, starts = np.unique(dst[order], return_index=True)
        seg_src, seg_starts, wire, positions = self._tables(
            self._register(worker, "one-chunk")
        )
        assert seg_src == src[order].tolist()
        assert seg_starts == starts.tolist()
        owners = worker.owner[uniq]
        for peer in range(worker.num_workers):
            ids = uniq[owners == peer].tolist()
            senders = crossing.get(peer, [])
            if len(senders):
                senders = worker.local_ids[senders].tolist()
                assert wire[peer] == {"ids": senders, "destinations": folded[peer], "combined": ids}
            else:
                assert wire[peer] == {"ids": ids}
            assert positions[peer] == np.flatnonzero(owners == peer).tolist()

    @pytest.mark.parametrize(
        "how", ["scalar", "per-vertex", "three-chunks", "scalar-then-chunk"]
    )
    def test_tables_do_not_depend_on_the_registration_path(self, how):
        worker = self._worker()
        assert self._tables(self._register(worker, how)) == self._tables(
            self._register(worker, "one-chunk")
        )

    def test_single_chunk_is_aliased_and_never_written(self):
        worker = self._worker()
        src, dst = self._edges(worker)
        src.setflags(write=False)
        dst.setflags(write=False)  # a store view is read-only too
        ch = ScatterCombine(worker, SUM_F64)
        ch.add_edges_bulk(src, dst)
        got_src, got_dst = ch._edges.flat()
        assert got_src is src and got_dst is dst
        self._tables(ch)  # the build only reads them

    def test_snapshot_restore_rebuilds_the_same_tables(self):
        worker = self._worker()
        ch = self._register(worker, "scalar-then-chunk")
        expected = self._tables(ch)
        restored = ScatterCombine(worker, SUM_F64)
        restored.restore(ch.snapshot())
        assert not restored._built
        assert self._tables(restored) == expected

    def test_no_edges_builds_empty_tables(self):
        ch = ScatterCombine(self._worker(), SUM_F64)
        seg_src, seg_starts, wire, _ = self._tables(ch)
        assert seg_src == [] and seg_starts == [] and all(w == {"ids": []} for w in wire)

    @staticmethod
    def _run_snapshotting(register):
        """Three PageRank iterations on two range-partitioned workers (whose
        adjacency is a view of the graph's own arrays), with ``register``
        declaring each scatter channel's edge set at construction; per
        worker ``(channel, its snapshot before anything was built, a
        private copy of the adjacency's destination column)``."""
        from repro.algorithms.pagerank import PageRankScatterBulk, _PageRankBulkBase
        from repro.graph.partition import range_partition

        taken = {}

        class Snapshotting(PageRankScatterBulk):
            iterations = 3

            def __init__(self, worker):
                _PageRankBulkBase.__init__(self, worker)
                self.msg = ScatterCombine(worker, SUM_F64)
                register(self.msg, worker.local_adjacency())

            def compute_bulk(self, active):
                if self.step_num == 1:
                    snap = self.msg.snapshot()
                    indices = self.worker.local_adjacency().indices.copy()
                    taken[self.worker.worker_id] = (self.msg, snap, indices)
                super().compute_bulk(active)

        g = rmat(7, edge_factor=6, seed=9)
        result = ChannelEngine(
            g, Snapshotting, num_workers=2, partition=range_partition(g.num_vertices, 2)
        ).run()
        assert result.supersteps >= 4 and sorted(taken) == [0, 1]
        assert all(indices.size for _, _, indices in taken.values())
        return taken.values()

    def test_snapshot_taken_before_supersteps_is_unchanged_after(self):
        """The snapshot aliases the registered chunk; nothing the channel
        does in later supersteps may write through that alias."""

        def explicit(channel, adj):
            src = np.repeat(np.arange(adj.degrees.size, dtype=np.int64), adj.degrees)
            channel.add_edges_bulk(src, adj.indices)

        for channel, snap, indices in self._run_snapshotting(explicit):
            indptr = channel.worker.local_adjacency().indptr
            senders = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
            for state in (snap, channel.snapshot()):
                np.testing.assert_array_equal(state["edge_src"], senders)
                np.testing.assert_array_equal(state["edge_dst"], indices)

    def test_adjacency_named_before_supersteps_is_unchanged_after(self):
        """The twin for ``add_adjacency``: the snapshot holds the direction
        before and after, and the adjacency the builds read — a view of the
        graph — was never written."""
        for channel, snap, indices in self._run_snapshotting(
            lambda channel, adj: channel.add_adjacency("out")
        ):
            assert channel._built
            assert snap["edge_adjacency"] == channel.snapshot()["edge_adjacency"] == "out"
            assert not {"edge_src", "edge_dst"} & set(snap)
            np.testing.assert_array_equal(channel.worker.local_adjacency().indices, indices)

    @STATIC_EDGE_CHANNELS
    @pytest.mark.parametrize(
        "src, dst, what, bad",
        [
            ([0, 1], [3, -1], "destination", -1),
            ([0, 1], [3, 64], "destination", 64),
            ([0, -3], [3, 4], "local sender index", -3),
            ([0, 10**6], [3, 4], "local sender index", 10**6),
        ],
        ids=["dst-negative", "dst-too-large", "src-negative", "src-too-large"],
    )
    def test_out_of_range_ids_fail_at_build_by_name(
        self, request, channel, src, dst, what, bad
    ):
        """Regression, on every channel with a static edge set: a negative
        id used to wrap through ``owner[...]`` / ``_local_index[...]`` and
        run silently to a wrong answer; one past the end died with a bare
        IndexError deep in ``_build``."""
        worker = self._worker()
        assert worker.graph.num_vertices == 64
        ch = channel(worker)
        v = worker._vertex
        for v.local, d in zip(src, dst):  # the one surface all three share
            ch.add_edge(v, d)
        with pytest.raises(ValueError) as err:
            ch._build()
        msg = str(err.value)
        name = request.node.callspec.id.split("-")[-1]
        assert name in msg and what in msg and f" {bad} " in msg
        bound = 64 if what == "destination" else worker.num_local
        assert f"[0, {bound})" in msg
        assert not ch._built

    @pytest.mark.parametrize(
        "src, dst, what, bad",
        [
            ([1, 0], [-1, 3], "destination", -1),
            ([1, 0], [64, 3], "destination", 64),
            ([1, -3, 0], [3, 4, 5], "local sender index", -3),
            ([10**6, 0], [3, 4], "local sender index", 10**6),
        ],
        ids=["dst-negative", "dst-too-large", "src-negative", "src-too-large"],
    )
    def test_out_of_range_ids_fail_by_name_on_unsorted_senders_too(
        self, src, dst, what, bad
    ):
        """The same four cases registered with descending senders, the
        order that builds through ``stable_order``: the check comes before
        either sort."""
        worker = self._worker()
        ch = ScatterCombine(worker, SUM_F64)
        ch.add_edges_bulk(np.array(src), np.array(dst))
        with pytest.raises(ValueError) as err:
            ch._build()
        msg = str(err.value)
        bound = 64 if what == "destination" else worker.num_local
        assert "ScatterCombine" in msg and what in msg
        assert f" {bad} outside [0, {bound})" in msg and not ch._built

    # -- the two sorts behind the build ----------------------------------------
    @staticmethod
    def _reference_tables(worker, src, dst):
        """The tables as a stable argsort by destination gives them."""
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        order = np.argsort(dst, kind="stable")
        uniq, starts = np.unique(dst[order], return_index=True)
        owners = worker.owner[uniq]
        peers = range(worker.num_workers)
        return (
            src[order].tolist(),
            starts.tolist(),
            [{"ids": uniq[owners == peer].tolist()} for peer in peers],
            [np.flatnonzero(owners == peer).tolist() for peer in peers],
        )

    @pytest.fixture(scope="class")
    def shared_worker(self):
        return self._worker()

    @pytest.fixture()
    def stable_order_calls(self, monkeypatch):
        calls = []

        def spy(keys, bound):
            calls.append(len(keys))
            return spy.real(keys, bound)

        spy.real = repro.util.stable_order
        monkeypatch.setattr(repro.util, "stable_order", spy)
        return calls

    #: edges as (sender, destination) pairs of the 64-vertex, 2-worker
    #: fixture; senders are taken modulo the worker's vertex count
    EDGES = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=80)

    @given(edges=EDGES)
    def test_sorted_senders_build_the_stable_argsort_tables(self, shared_worker, edges):
        """Non-decreasing senders, duplicate ``(sender, destination)`` pairs
        included, build through the packed pair; the tables are the stable
        sort's element for element."""
        worker = shared_worker
        edges = [(s_ % worker.num_local, d_) for s_, d_ in edges]
        edges.sort(key=lambda e: e[0])
        src, dst = [e[0] for e in edges], [e[1] for e in edges]
        ch = ScatterCombine(worker, SUM_F64)
        ch.add_edges_bulk(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
        with mock.patch.object(
            repro.util, "stable_order", side_effect=AssertionError("built an order")
        ):
            tables = self._tables(ch)
        assert tables == self._reference_tables(worker, src, dst)

    @given(edges=EDGES)
    def test_any_registration_order_builds_the_stable_argsort_tables(
        self, shared_worker, edges
    ):
        worker = shared_worker
        src = [s_ % worker.num_local for s_, _ in edges]
        dst = [d_ for _, d_ in edges]
        ch = ScatterCombine(worker, SUM_F64)
        ch.add_edges_bulk(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
        assert self._tables(ch) == self._reference_tables(worker, src, dst)

    def test_shuffled_registration_takes_the_stable_order_build(self, stable_order_calls):
        worker = self._worker()
        src, dst = self._edges(worker)
        shuffle = np.random.default_rng(3).permutation(src.size)
        assert (np.diff(src[shuffle]) < 0).any()
        ch = ScatterCombine(worker, SUM_F64)
        ch.add_edges_bulk(src[shuffle], dst[shuffle])
        assert self._tables(ch) == self._reference_tables(worker, src[shuffle], dst[shuffle])
        assert stable_order_calls == [src.size]
        # the CSR order of the same edges does not
        self._tables(self._register(worker, "one-chunk"))
        assert stable_order_calls == [src.size]

    # -- the per-superstep scan ----------------------------------------------------
    @staticmethod
    def _scan(worker, combiner, src, dst, values):
        """One ``serialize`` of a fresh channel: per peer, the ids and the
        value bytes it announced, and those of a whole-array ``reduceat``
        over the same tables."""
        ch = ScatterCombine(worker, combiner)
        ch.add_edges_bulk(np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
        ch.set_messages(np.arange(worker.num_local), values)
        sent = {}

        def _announced(payload):
            bound = worker.graph.num_vertices
            ids, _, _, values = decode_pattern(memoryview(payload), combiner.codec, bound, None)
            return ids.tolist(), values.tobytes()

        with mock.patch.multiple(
            worker,
            emit=lambda _channel, peer, payload: sent.update({peer: _announced(payload)}),
            count_net_messages=lambda n, _channel: None,  # no superstep is open
        ):
            ch.serialize()
        expected = {}
        senders, starts = scan_segments(ch._scan)
        if senders.size:
            whole = combiner.ufunc.reduceat(ch._values[senders], starts)
            uniq = np.unique(np.asarray(dst, dtype=np.int64))
            owners = worker.owner[uniq]
            for peer in range(worker.num_workers):
                pos = np.flatnonzero(owners == peer)
                if pos.size:  # a first scatter: the ids, the values
                    expected[peer] = (uniq[pos].tolist(), whole[pos].tobytes())
        return ch, sent, expected

    @pytest.mark.parametrize("combiner", [SUM_F64, MIN_I64, MAX_I32], ids=repr)
    @given(edges=EDGES, seed=st.integers(0, 2**16))
    # a hub whose segment is longer than a block, then short segments
    @example(edges=[(i, 7) for i in range(11)] + [(0, 8), (1, 9)], seed=1)
    # blocks that end exactly on the last segment's end
    @example(edges=[(0, 3), (1, 3), (2, 5), (3, 5)], seed=2)
    @example(edges=[(i, d_) for d_ in (3, 5) for i in range(4)], seed=3)
    @example(edges=[], seed=4)
    @example(edges=[(5, 63)], seed=5)
    def test_blocked_scan_equals_the_whole_array_reduceat(
        self, shared_worker, combiner, edges, seed
    ):
        """With 4-edge blocks every shape of block occurs on small inputs:
        the bytes on the wire are those of one ``reduceat`` over all edges
        (a float sum included: a segment is never split)."""
        worker = shared_worker
        rng = np.random.default_rng(seed)
        if combiner is SUM_F64:
            values = rng.standard_normal(worker.num_local) * 10.0 ** rng.integers(-8, 8)
        else:
            values = rng.integers(-1000, 1000, worker.num_local)
        src = [s_ % worker.num_local for s_, _ in edges]
        dst = [d_ for _, d_ in edges]
        with mock.patch.object(scatter_combine, "_BLOCK_EDGES", 4):
            ch, sent, expected = self._scan(worker, combiner, src, dst, values)
        assert sent == expected
        # the long segments' blocks, then the length classes' chunks, tile
        # the segments and the edges, whole; each run's scratch is sized by
        # its item of most edges and its item of most segments
        scan = ch._scan
        items = sorted((item for run, *_ in scan.runs for item in run), key=lambda item: item[1])
        assert [item[1] for item in items] + [scan.segments] == [0] + [item[2] for item in items]
        assert [item[3] for item in items] + [len(edges)] == [0] + [item[4] for item in items]
        short = scatter_combine._SHORT_SEGMENT
        long_end = min([lo for rows, _, _, lo, _ in items if rows], default=len(edges))
        bounds = scan.starts.tolist() + [long_end]
        if scan.positions is not None:  # (else no segment is short)
            assert (np.diff(bounds) > short).all()
        for run, most_edges, most_segments in scan.runs:
            for rows, seg_lo, seg_hi, lo, hi in run:
                if rows:  # a class chunk: seg_hi - seg_lo segments of `rows` edges
                    assert 1 <= rows <= short and hi - lo == rows * (seg_hi - seg_lo)
                else:
                    assert (lo, hi) == (bounds[seg_lo], bounds[seg_hi])
                assert hi - lo <= 4 or seg_hi == seg_lo + 1
                assert hi - lo <= most_edges and seg_hi - seg_lo <= most_segments

    # -- the fold by length class, against reduceat ----------------------------------
    #: every built-in combiner, each over the dtype its codec takes
    BUILTINS = [
        getattr(combiner_module, f"{op}_{kind}")
        for op in ("SUM", "MIN", "MAX")
        for kind in ("F64", "I64", "I32")
    ]
    #: floats where a fold's order shows: signed zeros, infinities,
    #: subnormals, and magnitudes far apart
    SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, 1e16, -1e16]

    @staticmethod
    @st.composite
    def _fold_cases(draw, dtype, nan=False):
        """``(edge_src, starts, values, head)``: segments of 1–40 edges — none
        at all, or all singletons, among them — over a few senders, and
        the per-call values, ``head`` of them passed through."""
        lengths = draw(
            st.one_of(
                st.just([]),
                st.lists(st.just(1), min_size=1, max_size=20),
                st.lists(st.integers(1, 40), min_size=1, max_size=12),
            )
        )
        head, senders = draw(st.integers(0, 3)), draw(st.integers(1, 12))
        edge_src = np.array(
            draw(st.lists(st.integers(0, senders - 1), min_size=sum(lengths), max_size=sum(lengths))),
            dtype=np.int64,
        )
        starts = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        if dtype.kind == "f":
            pool = TestScatterCombineBuild.SPECIAL_FLOATS + ([np.nan, -np.nan] if nan else [])
            value = st.one_of(st.sampled_from(pool), st.floats(allow_nan=nan, width=64))
        else:
            info = np.iinfo(dtype)
            value = st.one_of(st.sampled_from([0, 1, -1, info.min, info.max]), st.integers(info.min, info.max))
        values = np.array(draw(st.lists(value, min_size=head + senders, max_size=head + senders)), dtype=dtype)
        return edge_src, starts, values, head

    @staticmethod
    def _folds(combiner, edge_src, starts, values, head):
        """The scan's output at one and at two lanes (4-edge blocks, so
        two lanes have items to share), and ``reduceat`` over ``int64``
        indices with ``head`` passed through."""
        expected = values[:head].copy()
        with np.errstate(all="ignore"), mock.patch.object(scatter_combine, "_BLOCK_EDGES", 4):
            if starts.size:
                out = np.empty(starts.size, dtype=values.dtype)  # (as the scan's output)
                whole = combiner.reduceat(values[head:][edge_src], starts, out=out)
                expected = np.concatenate((expected, whole))
            got = [
                scatter_combine._Scan(combiner, edge_src.astype(np.uint32), starts, values.size, head, lanes=k)(values)
                for k in (1, 2)
            ]
        return got, expected

    @pytest.mark.parametrize("combiner", BUILTINS, ids=repr)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    # a left fold ((a ⊕ b) ⊕ c) sums this to 0.0; reduceat's a ⊕ (b ⊕ c) to 1.0
    @example(data=None)
    def test_the_class_fold_is_reduceat_bit_for_bit(self, combiner, data):
        dtype = combiner.codec.dtype
        if data is None:
            values = [1.0, 1e16, -1e16] if dtype.kind == "f" else [1, 2, 3]
            case = (np.array([0, 1, 2]), np.array([0]), np.array(values, dtype=dtype), 0)
        else:
            case = data.draw(self._fold_cases(dtype))
        got, expected = self._folds(combiner, *case)
        for folded in got:
            assert folded.dtype == expected.dtype and folded.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("combiner", [c for c in BUILTINS if c.codec.dtype.kind == "f"], ids=repr)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_nan_inputs_fold_to_nan_where_reduceat_does(self, combiner, data):
        """Where a NaN takes part only its sign or payload may differ."""
        got, expected = self._folds(combiner, *data.draw(self._fold_cases(combiner.codec.dtype, nan=True)))
        nan = np.isnan(expected)
        for folded in got:
            np.testing.assert_array_equal(np.isnan(folded), nan)
            assert folded[~nan].tobytes() == expected[~nan].tobytes()

    @STATIC_EDGE_CHANNELS
    def test_out_of_range_scalar_edge_fails_on_first_serialize(self, channel):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = channel(worker)

            def compute(self, v):
                self.msg.add_edge(v, -1)
                if isinstance(self.msg, Propagation):
                    self.msg.set_value(v, 1.0)
                else:
                    self.msg.set_message(v, 1.0)

        engine = ChannelEngine(line_graph(4), P, num_workers=2)
        with pytest.raises(ValueError, match=r"destination -1 outside \[0, 4\)"):
            engine.run(max_supersteps=3)  # bounded: P itself never halts


@st.composite
def _small_graphs(draw):
    """Up to 24 vertices, loops and parallel edges allowed; many vertices
    have no edge, and 8 workers leave some with no vertex."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    return Graph.from_edges(n, edges, directed=draw(st.booleans()))


def _arbitrary_partition(num_vertices, workers):
    """Neither contiguous nor the hash formula; may leave workers empty."""
    rng = np.random.default_rng(31 * num_vertices + workers)
    return rng.integers(0, workers, num_vertices)


#: the two channels that inherit ``ScatterEdges``
SCATTER_EDGE_CHANNELS = pytest.mark.parametrize(
    "channel",
    [lambda w: ScatterCombine(w, SUM_F64), lambda w: MirroredScatter(w, SUM_F64, threshold=3)],
    ids=["ScatterCombine", "MirroredScatter"],
)


def _table_combiner(direction):
    """A sum where both registration forms hand a peer its senders'
    values alike; a selection, which never does, for in- and both-rows:
    per edge they name no adjacency a peer could read them from, so under
    a sum only ``add_adjacency`` would (``tests/test_scatter_placement.py``)."""
    return SUM_F64 if direction == "out" else MIN_I64


class TestAdjacencyRegistration:
    """``add_adjacency``: the edge set is a direction, and what it builds
    is what the per-edge registration of the same rows builds."""

    _tables = staticmethod(TestScatterCombineBuild._tables)

    @staticmethod
    def _explicit(worker, direction, make=None):
        adj = worker.local_adjacency(direction)
        ch = (make or (lambda w: ScatterCombine(w, _table_combiner(direction))))(worker)
        ch.add_edges_bulk(np.repeat(np.arange(worker.num_local), adj.degrees), adj.indices)
        return ch

    @staticmethod
    def _named(worker, direction, make=None):
        ch = (make or (lambda w: ScatterCombine(w, _table_combiner(direction))))(worker)
        ch.add_adjacency(direction)
        return ch

    def _check_tables(self, graph, direction, workers, partition, block):
        """On every worker, the tables streamed from the adjacency in
        ``block``-edge blocks are those of the per-edge registration."""
        engine = ChannelEngine(
            graph, _Idle, num_workers=workers, partition=partition(graph.num_vertices, workers)
        )
        for worker in engine.workers:
            expected = self._tables(self._explicit(worker, direction))
            with mock.patch.object(_edges, "_BLOCK_EDGES", block):
                named = self._named(worker, direction)
                assert self._tables(named) == expected
                assert named._scan.edge_src.dtype == _narrowest(worker.num_local)
                # ... and again from its snapshot, through the checkpoint codec
                restored = ScatterCombine(worker, _table_combiner(direction))
                restored.restore(decode_state(encode_state(named.snapshot())))
                assert not restored._built and not restored._edges.chunks
                assert self._tables(restored) == expected

    @pytest.mark.parametrize("block", [1, 3, 1 << 18])
    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize(
        "partition", [range_partition, hash_partition, _arbitrary_partition]
    )
    @settings(max_examples=20, deadline=None)
    @given(graph=_small_graphs())
    # no edge at all; one row longer than a block among rows without edges
    @example(graph=Graph.from_edges(3, [], directed=True))
    @example(graph=Graph.from_edges(9, [(4, d) for d in (0, 8, 8, 2, 5)], directed=True))
    def test_tables_equal_the_per_edge_registration(
        self, block, direction, workers, partition, graph
    ):
        self._check_tables(graph, direction, workers, partition, block)

    @pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="no madvise here")
    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    @pytest.mark.parametrize("partition", [hash_partition, _arbitrary_partition])
    def test_streamed_blocks_are_the_eager_gather_and_release_one_span_each(
        self, tmp_path, partition, direction
    ):
        """A scattered row set over a mapped store: the blocks a build
        streams are the eager gather cut at row bounds, the tables equal,
        and each block hands back one span of the store — the rows between
        its first and its last, never the whole array (which the next block
        would fault in again).  The reverse CSR is heap: offered, never
        advised."""
        # every row spans two pages, so every block's span holds a whole one
        n, degree = 64, 2 * mmap.PAGESIZE // VERTEX_ID.itemsize
        src = np.repeat(np.arange(n), degree)
        dst = np.random.default_rng(3).integers(0, n, src.size)
        graph = Graph.from_store(MmapStore.save(Graph(n, src, dst), tmp_path))
        base = graph.store._arrays["indices"]
        base._mmap = mock.Mock(wraps=base._mmap)  # the madvise spy
        engine = ChannelEngine(graph, _Idle, num_workers=2, partition=partition(n, 2))
        for worker in engine.workers:
            adj = worker.local_adjacency(direction)
            base._mmap.reset_mock()
            with mock.patch.object(graph.store, "release", wraps=graph.store.release) as release:
                blocks = [(a, b, dsts.copy()) for a, b, dsts in adj.blocks(2 * degree)]
            advised = base._mmap.madvise.call_args_list.copy()
            assert "indices" not in vars(adj)  # streaming gathered no full column
            np.testing.assert_array_equal(
                np.concatenate([dsts for *_, dsts in blocks]), adj.indices
            )
            assert [dsts.size for *_, dsts in blocks] == [
                adj.indptr[b] - adj.indptr[a] for a, b, _ in blocks
            ]
            assert release.call_count == len(blocks) * (2 if direction == "both" else 1)
            assert len(advised) == (0 if direction == "in" else len(blocks))
            assert all(call.args[2] < base.nbytes // 4 for call in advised)
            assert self._tables(self._named(worker, direction)) == self._tables(
                self._explicit(worker, direction)
            )
            # MirroredScatter is ScatterCombine's build with another rule:
            # it streams the same blocks once, releasing each span once
            combiner = _table_combiner(direction)
            mirrored = lambda w: MirroredScatter(w, combiner, threshold=3)  # noqa: E731
            named = self._named(worker, direction, mirrored)
            with (
                mock.patch.object(_edges, "_BLOCK_EDGES", 2 * degree),
                mock.patch.object(graph.store, "release", wraps=graph.store.release) as release,
            ):
                tables = self._mirror_tables(named)
            assert release.call_count == len(blocks) * (2 if direction == "both" else 1)
            assert tables == self._mirror_tables(self._explicit(worker, direction, mirrored))
            assert any(e is not None for e in named._expanded) == (direction == "out")

    @pytest.mark.parametrize("mutation", ["drop", "reorder"])
    def test_a_dropped_or_reordered_block_fails_the_table_property(self, mutation):
        """The property above is not vacuous: an iterator that loses a
        block, or yields two in the wrong order, does not pass it."""
        graph = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3), (3, 0)], directed=True)
        real = ScatterCombine._adjacency_blocks

        def mutated(ch, adj):
            blocks = list(real(ch, adj))
            return iter(blocks[1:] if mutation == "drop" else blocks[::-1])

        self._check_tables(graph, "out", 1, range_partition, 1)
        with mock.patch.object(ScatterCombine, "_adjacency_blocks", mutated):
            with pytest.raises((AssertionError, ValueError)):
                self._check_tables(graph, "out", 1, range_partition, 1)

    @pytest.mark.parametrize("block", [3, 1 << 18])
    @pytest.mark.parametrize("direction", ["out", "both"])
    def test_mirrored_dispatch_equals_the_per_edge_registration(self, direction, block):
        """``MirroredScatter``'s build is ``ScatterCombine``'s with its own
        rule for the senders that cross: the tables, those senders and the
        announcements equal between the two registration forms (which a
        selection, on ``both``, keeps in the paper's form)."""
        make = lambda w: MirroredScatter(w, _table_combiner(direction), threshold=3)  # noqa: E731
        g = rmat(6, edge_factor=4, seed=5)
        for worker in ChannelEngine(g, _Idle, num_workers=2).workers:
            explicit = self._explicit(worker, direction, make)
            named = self._named(worker, direction, make)
            expected = self._mirror_tables(explicit)
            with mock.patch.object(_edges, "_BLOCK_EDGES", block):
                assert self._mirror_tables(named) == expected
            assert any(e is not None for e in named._expanded) == (direction == "out")
            # indexes _values every superstep: the narrowest of uint16/uint32 for it
            assert named._scan.edge_src.dtype == _narrowest(worker.num_local)

    @classmethod
    def _mirror_tables(cls, ch):
        """``_tables`` and, per peer that folds along mirrored senders'
        rows, those senders and its destinations in all."""
        return cls._tables(ch), [e and (e[0].tolist(), e[1]) for e in ch._expanded]

    @SCATTER_EDGE_CHANNELS
    def test_build_holds_a_few_bytes_per_local_edge(self, channel):
        """tracemalloc's peak over an adjacency build on a hash partition,
        per local edge: the 8 B packed pair each edge is sorted as, which
        shrinks in place to the 4 B of ``_scan.edge_src`` it keeps (2 B
        at or under 2¹⁶ local vertices), the group boundaries (found a
        block of keys at a time since they took a byte per edge), and one
        block at a time — never a
        full-length copy of the edges (``MirroredScatter`` peaked at ≈ 55 B
        when it copied the blocks into two columns to sort them per peer;
        both peaked at 14 B while the kept column was ``int64``, 10.1 B
        since).  The blocks are small, so that one block is not what is
        measured."""
        g = rmat(16, edge_factor=16, seed=7)
        engine = ChannelEngine(g, _Idle, num_workers=2, partition=hash_partition(g.num_vertices, 2))
        worker = engine.workers[0]
        num_edges = worker.local_adjacency("out").num_edges
        ch = self._named(worker, "out", channel)
        with mock.patch.object(_edges, "_BLOCK_EDGES", 1 << 14):
            tracemalloc.start()
            try:
                ch._build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 11 * num_edges

    @SCATTER_EDGE_CHANNELS
    def test_snapshot_size_does_not_depend_on_the_edge_count(self, channel):
        sizes, edges = [], []
        for edge_factor in (1, 12):
            g = rmat(6, edge_factor=edge_factor, seed=5)
            owner = range_partition(g.num_vertices, 2)
            worker = ChannelEngine(g, _Idle, num_workers=2, partition=owner).workers[0]
            ch = self._named(worker, "out", channel)
            ch._build()
            sizes.append(len(encode_state(ch.snapshot())))
            edges.append(worker.local_adjacency().num_edges)
        assert edges[1] > 4 * edges[0] > 0
        assert sizes[0] == sizes[1]

    @SCATTER_EDGE_CHANNELS
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_out_of_range_destination_fails_at_build_by_name(self, request, channel, bad):
        """A store whose ``indices`` hold an id the graph does not have:
        the adjacency is checked like any registered column."""
        worker = TestScatterCombineBuild._worker()
        g, adj = worker.graph, worker.local_adjacency()
        # the first edge of the row holding the worker's middle edge
        row = np.searchsorted(adj.indptr, adj.num_edges // 2, side="right") - 1
        indices = g.indices.copy()
        indices[g.indptr[worker.local_ids[row]]] = bad
        bad_graph = Graph.from_csr(
            g.num_vertices, g.indptr, indices, directed=g.directed, validate=False
        )
        worker._local_adj["out"] = build_local_csr(bad_graph, worker.local_ids)
        ch = self._named(worker, "out", channel)
        with pytest.raises(ValueError) as err:
            ch._build()
        msg = str(err.value)
        assert request.node.callspec.id.split("-")[-1] in msg
        assert f"edge destination {bad} outside [0, 64)" in msg and not ch._built

    @SCATTER_EDGE_CHANNELS
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_bad_id_in_a_later_block_fails_like_one_in_the_first(
        self, request, tmp_path, channel, bad
    ):
        """A mapped store whose last block holds an id the graph does not
        have: the blocks before it were packed and released, and still
        nothing is built, announced or sent."""
        g = rmat(6, edge_factor=4, seed=5)
        MmapStore.save(g, tmp_path)
        raw = np.load(tmp_path / "indices.npy", mmap_mode="r+")
        raw[-1] = bad
        raw.flush()
        del raw
        graph = Graph.from_store(MmapStore.open(tmp_path))
        engine = ChannelEngine(graph, _Idle, num_workers=1)
        worker = engine.workers[0]
        ch = self._named(worker, "out", channel)
        ch.set_messages(np.arange(worker.num_local), np.ones(worker.num_local))
        released = []
        with (
            mock.patch.object(_edges, "_BLOCK_EDGES", 16),
            mock.patch.object(graph.store, "release", released.append),
            mock.patch.object(worker, "emit") as emit,
            pytest.raises(ValueError) as err,
        ):
            ch.serialize()
        assert len(released) >= 3  # the bad id was not in an early block
        assert sum(view.size for view in released) < g.num_edges
        name = request.node.callspec.id.split("-")[-1]
        assert f"{name}(id=0, worker=0): edge destination {bad} outside [0, 64)" in str(err.value)
        assert not ch._built and not ch._announced and ch._dirty
        emit.assert_not_called()

    @SCATTER_EDGE_CHANNELS
    def test_both_forms_on_one_channel_raise_by_name(self, request, channel):
        worker = TestScatterCombineBuild._worker()
        name = request.node.callspec.id
        pattern = rf"{name}\(id=\d+, worker=0\): add_adjacency\(\) and per-edge registration"
        v = worker._vertex._bind(0)
        # per-edge first: the adjacency call itself refuses
        for register in (
            lambda ch: ch.add_edge(v, 5),
            lambda ch: ch.add_edges(v, np.array([5, 6])),
            lambda ch: ch.add_edges_bulk(np.array([0]), np.array([5])),
        ):
            ch = channel(worker)
            register(ch)
            with pytest.raises(ValueError, match=pattern):
                ch.add_adjacency()
            # adjacency first: the per-vertex calls stay check-free, the
            # build and the snapshot refuse
            ch = self._named(worker, "out", channel)
            register(ch)
            for use in (ch._build, ch.snapshot):
                with pytest.raises(ValueError, match=pattern):
                    use()
            assert not ch._built

    def test_one_direction_per_channel(self):
        ch = self._named(TestScatterCombineBuild._worker(), "out")
        ch.add_adjacency("out")  # naming it again is not a second edge set
        with pytest.raises(ValueError, match=r"ScatterCombine\(.*add_adjacency\('in'\) after"):
            ch.add_adjacency("in")
        with pytest.raises(ValueError, match="direction must be"):
            self._named(TestScatterCombineBuild._worker(), "sideways")._build()


class TestRequestRespond:
    def _program(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.val = worker.local_ids * 100
                self.rr = RequestRespond(
                    worker,
                    respond_fn=lambda v: int(self.val[v.local]),
                    codec=INT64,
                )
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.rr.add_request(v, (v.id + 1) % self.num_vertices)
                else:
                    target = (v.id + 1) % self.num_vertices
                    self.got[v.id] = int(self.rr.get_respond(target))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        return P

    def test_basic_conversation(self):
        g = line_graph(4)
        res = run(g, self._program())
        assert res.data == {0: 100, 1: 200, 2: 300, 3: 0}

    def test_two_rounds_per_superstep(self):
        res = run(line_graph(4), self._program())
        assert res.metrics.records[0].rounds == 2

    def test_missing_respond_raises(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(worker, respond_fn=lambda v: 0)
                self.raised = {}

            def compute(self, v):
                if self.step_num == 2 and v.id == 0:
                    with pytest.raises(KeyError):
                        self.rr.get_respond(1)
                    self.raised[0] = True
                if self.step_num == 1:
                    pass  # no requests at all
                else:
                    v.vote_to_halt()

            def finalize(self):
                return self.raised

        res = run(line_graph(2), P)
        assert res.data.get(0)

    @pytest.mark.parametrize("bad", [-1, 8])
    @pytest.mark.parametrize("entry", ["add_request", "add_requests"])
    def test_out_of_range_request_fails_by_name(self, entry, bad):
        """A negative id used to wrap through ``owner[-1]`` and answer with
        the last vertex's value; an id >= V was a bare IndexError."""

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(worker, respond_fn=lambda v: v.id)

            def compute(self, v):
                if entry == "add_request":
                    self.rr.add_request(v, bad)
                else:
                    self.rr.add_requests(np.array([v.local]), np.array([bad]))

        with pytest.raises(
            ValueError, match=rf"RequestRespond\(.*\): request id {bad} outside \[0, 8\)"
        ):
            run(line_graph(8), P)

    def test_get_responds_names_the_first_unrequested_id(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(worker, respond_fn=lambda v: v.id + 10)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.id == 0:
                        self.rr.add_requests(np.array([v.local] * 3), np.array([2, 5, 2]))
                    else:
                        v.vote_to_halt()
                else:
                    self.got[0] = self.rr.get_responds(np.array([5, 2, 2])).tolist()
                    with pytest.raises(KeyError, match="vertex 3 was not requested"):
                        self.rr.get_responds(np.array([2, 3, 7]))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        assert run(line_graph(8), P).data == {0: [15, 12, 12]}
        empty = RequestRespond(ChannelEngine(line_graph(2), P).workers[0], lambda v: 0)
        assert empty.get_responds(np.array([], dtype=np.int64)).size == 0
        with pytest.raises(KeyError, match="vertex 1 was not requested"):
            empty.get_responds(np.array([1]))

    @pytest.mark.parametrize("bad", [-1, -8, 8, 2**40])
    def test_get_responds_names_an_id_outside_the_graph(self, bad):
        """Answers are looked up by position: a negative id must not wrap
        onto the last vertex's answer (-1 -> 7 was requested), and one
        >= V must not index past the map.  Either is named like any
        unrequested id, first in ``dsts`` order."""

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(worker, respond_fn=lambda v: v.id + 10)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.id == 0:
                        self.rr.add_requests(np.array([v.local, v.local]), np.array([7, 0]))
                    else:
                        v.vote_to_halt()
                else:
                    self.got[0] = self.rr.get_responds(np.array([7, 0])).tolist()
                    for dsts, named in (([7, bad, 3], bad), ([0, 3, bad], 3), ([bad], bad)):
                        with pytest.raises(KeyError, match=rf"vertex {named} was not requested"):
                            self.rr.get_responds(np.array(dsts))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        assert run(line_graph(8), P).data == {0: [17, 10]}

    def test_request_dedup_on_wire(self):
        """N requesters of the same destination put ONE id on the wire."""
        hub = star(9, center=0)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(
                    worker, respond_fn=lambda v: v.id, codec=INT32
                )

            def compute(self, v):
                if self.step_num == 1:
                    if v.id != 0:
                        self.rr.add_request(v, 0)
                else:
                    v.vote_to_halt()

        part = np.zeros(9, dtype=np.int64)
        part[1:] = 1
        res = ChannelEngine(hub, P, num_workers=2, partition=part).run()
        # worker1 -> worker0: one 4-byte id (+frame); back: one 4-byte value
        assert res.metrics.total_messages == 2

    def test_responses_are_positional_no_id_echo(self):
        """Respond payloads carry bare values: k requests cost k ids one
        way and k values back — not k (id, value) pairs."""
        g = line_graph(8)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.rr = RequestRespond(
                    worker, respond_fn=lambda v: v.id, codec=INT32
                )

            def compute(self, v):
                if self.step_num == 1:
                    self.rr.add_request(v, (v.id + 4) % 8)
                else:
                    assert self.rr.get_respond((v.id + 4) % 8) == (v.id + 4) % 8
                    v.vote_to_halt()

        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        res = ChannelEngine(g, P, num_workers=2, partition=part).run()
        # 8 requests cross (4 each way), 8 responses cross back;
        # payload bytes = 8*4 (ids) + 8*4 (values) = 64
        frame_overhead = 8 * 4  # 4 frames (2 per direction) x 8B header
        assert res.metrics.total_net_bytes == 64 + frame_overhead

    def test_bulk_respond_fn(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.val = worker.local_ids * 7
                self.rr = RequestRespond(
                    worker,
                    respond_fn=lambda v: 0,  # must NOT be used
                    codec=INT64,
                    respond_fn_bulk=lambda idx: self.val[idx],
                )
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.rr.add_request(v, 0)
                else:
                    self.got[v.id] = int(self.rr.get_respond(0))
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        res = run(line_graph(3), P)
        assert all(val == 0 for val in res.data.values())

        # now with a non-zero attribute at vertex 0's owner
        class P2(P):
            def __init__(self, worker):
                super().__init__(worker)
                self.val = worker.local_ids + 50
                self.rr.respond_fn_bulk = lambda idx: self.val[idx]

        res2 = run(line_graph(3), P2)
        assert all(val == 50 for val in res2.data.values())


class TestPropagation:
    def test_min_label_fixpoint_single_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.id] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = two_triangles()
        res = run(g, P, workers=3)
        assert [res.data[i] for i in range(6)] == [0, 0, 0, 3, 3, 3]
        assert res.supersteps == 2  # converged inside superstep 1's rounds

    def test_weighted_relaxation(self):
        class P(VertexProgram):
            SRC = 0

            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_F64, edge_fn=lambda w, d: w + d)
                self.out = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges, np.full(v.out_degree, 2.0))
                    if v.id == self.SRC:
                        self.prop.set_value(v, 0.0)
                else:
                    self.out[v.id] = float(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = line_graph(5)
        res = run(g, P, workers=2)
        assert [res.data[i] for i in range(5)] == [0.0, 2.0, 4.0, 6.0, 8.0]

    @pytest.mark.parametrize(
        "combiner, match",
        [
            (make_combiner(min, 0, INT64, ufunc=None), "ufunc"),
            # not a selection: a seeded 2-cycle would sum until int64
            # wraps (to 0) or float64 overflows (to inf)
            (SUM_I64, "selection combiner.*sum_i64"),
            (SUM_F64, "selection combiner.*sum_f64"),
        ],
        ids=["no-ufunc", "sum_i64", "sum_f64"],
    )
    def test_requires_ufunc_combiner(self, combiner, match):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, combiner)

            def compute(self, v):
                v.vote_to_halt()

        with pytest.raises(ValueError, match=match):
            ChannelEngine(line_graph(2), P, num_workers=1)

    @pytest.mark.parametrize("combiner", [MIN_I64, MIN_F64, MAX_I32, MIN_I32, MAX_I64, MAX_F64])
    def test_selection_combiners_are_accepted(self, combiner):
        worker = TestScatterCombineBuild._worker()
        assert Propagation(worker, combiner).combiner is combiner

    @pytest.mark.parametrize(
        "weights",
        [
            {0: [1.0], 1: [7.0, 100.0], 2: [1.0]},  # 4 weights for 4 edges in all
            {0: [1.0], 1: [7.0], 2: [1.0]},  # one short list
        ],
        ids=["shifted", "short"],
    )
    def test_add_edges_refuses_a_weight_list_of_another_length(self, weights):
        """Arcs 0->1, 0->2, 1->3, 2->3: vertex 0 passes one weight for its
        two edges.  Unchecked, the column shifted onto the next vertex's
        edges (dist(2) came out 7) or ran short at the build."""
        graph = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)], directed=True)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64, edge_fn=lambda w, d: d + w)

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges, weights.get(v.id, []))
                    if v.id == 0:
                        self.prop.set_value(v, 0)
                v.vote_to_halt()

        with pytest.raises(ValueError, match=r"Propagation\(.*1 weights for 2 edges of vertex 0"):
            run(graph, P, workers=1)

    def test_reset_allows_reuse(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = {}

            def before_superstep(self):
                # re-seed a *smaller* subgraph before superstep 3
                if self.worker.step_num == 2:
                    self.prop.reset()
                    self.worker.activate_local_bulk(
                        np.arange(self.worker.num_local)
                    )

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                elif self.step_num == 2:
                    self.out.setdefault("phase1", {})[v.id] = int(
                        self.prop.get_value(v)
                    )
                elif self.step_num == 3:
                    # phase 2: only vertices >= 3 participate
                    if v.id >= 3:
                        self.prop.add_edges(v, v.edges[v.edges >= 3])
                        self.prop.set_value(v, v.id)
                else:
                    if v.id >= 3:
                        self.out.setdefault("phase2", {})[v.id] = int(
                            self.prop.get_value(v)
                        )
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = line_graph(6)
        res = run(g, P, workers=2)
        phase1 = {}
        phase2 = {}
        for data in (res.data,):
            phase1.update(data.get("phase1", {}))
            phase2.update(data.get("phase2", {}))
        assert all(lbl == 0 for lbl in phase1.values())
        assert phase2 == {3: 3, 4: 3, 5: 3}

    def test_propagation_blocked_by_missing_edges(self):
        """Edges not added do not forward values (the SCC aliveness
        mechanism relies on this)."""

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.id != 2:  # vertex 2 adds no edges: blocks the line
                        self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.id] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        g = line_graph(5)
        res = run(g, P, workers=2)
        # 0-1-2 see 0; but 2 does not forward, so 3 sees min(2's push? no)
        # vertex 2 received 0 via 1->2 edge; vertex 3 only via 3<->4 + 2->3?
        # 2 added no edges at all, so nothing flows 2->3.
        assert res.data[0] == 0 and res.data[1] == 0 and res.data[2] == 0
        assert res.data[3] == 3 and res.data[4] == 3

    def test_multiworker_matches_singleworker(self):
        g = rmat(7, edge_factor=2, seed=9, directed=False)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.prop = Propagation(worker, MIN_I64)
                self.out = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.prop.add_edges(v, v.edges)
                    self.prop.set_value(v, v.id)
                else:
                    self.out[v.id] = int(self.prop.get_value(v))
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        r1 = run(g, P, workers=1)
        r4 = run(g, P, workers=4)
        assert r1.data == r4.data

