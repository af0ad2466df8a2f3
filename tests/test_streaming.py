"""Streaming-graph subsystem tests.

The heart is the acceptance parity matrix: for every streaming algorithm
(PageRank, WCC, SSSP) × worker count {2, 8} × batch shape {insert-only,
delete-heavy}, chained over several epochs, the incremental refresh must
produce ``result.data`` **bit-identical** to a cold full run of the
library algorithm on the mutated graph — and to the epoch engine's own
``refresh="full"`` baseline.
"""

import numpy as np
import pytest

from helpers import line_graph, nx_components, nx_sssp
from repro.algorithms.wcc import run_wcc
from repro.core import ChannelEngine
from repro.graph.generators import erdos_renyi, grid_road
from repro.graph.graph import Graph
from repro.graph.partition import extend_partition, hash_partition, range_partition
from repro.streaming import (
    EpochEngine,
    MutationBatch,
    PageRankStream,
    SSSPStream,
    STREAM_ALGORITHMS,
    WCCStream,
    apply_batch,
    build_pagerank_schedule,
    synthesize_batch,
    synthesize_stream,
)


# ---------------------------------------------------------------------------
# MutationBatch
# ---------------------------------------------------------------------------
class TestMutationBatch:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            MutationBatch(insert_src=np.array([1, 2]), insert_dst=np.array([3]))

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match="insertion count"):
            MutationBatch(
                insert_src=np.array([1]),
                insert_dst=np.array([2]),
                insert_weights=np.array([1.0, 2.0]),
            )

    def test_negative_ids(self):
        with pytest.raises(ValueError, match="negative"):
            MutationBatch.from_edges(insertions=[(-1, 2)])

    def test_insert_and_delete_same_edge(self):
        with pytest.raises(ValueError, match="both insertions and deletions"):
            MutationBatch.from_edges(insertions=[(0, 1)], deletions=[(0, 1)])

    def test_deleted_vertex_gaining_edges(self):
        with pytest.raises(ValueError, match="also gain edges"):
            MutationBatch.from_edges(insertions=[(0, 1)], delete_vertices=[1])

    def test_size_and_empty(self):
        assert MutationBatch().empty
        b = MutationBatch.from_edges(
            insertions=[(0, 1)], deletions=[(2, 3)], add_vertices=2
        )
        assert b.size == 4 and not b.empty
        assert b.num_insertions == 1 and b.num_deletions == 1


# ---------------------------------------------------------------------------
# apply_batch
# ---------------------------------------------------------------------------
def _arc_multiset(g: Graph):
    src, dst = g.edge_array()
    w = np.zeros(src.size) if g.weights is None else g.weights
    return sorted(zip(src.tolist(), dst.tolist(), w.tolist()))


class TestDeltaGraph:
    """The graph after each delta, as :func:`apply_batch` builds it."""

    def test_apply_matches_from_scratch_build(self):
        g = erdos_renyi(50, 3.0, seed=1, directed=True)
        src, dst = g.edge_array()
        batch = MutationBatch.from_edges(
            insertions=[(0, 49), (7, 3)], deletions=[(int(src[0]), int(dst[0]))]
        )
        after, _ = apply_batch(g, batch)
        keep = ~((src == src[0]) & (dst == dst[0]))
        expect = Graph(
            50,
            np.concatenate([src[keep], [0, 7]]),
            np.concatenate([dst[keep], [49, 3]]),
            directed=True,
        )
        assert _arc_multiset(after) == _arc_multiset(expect)

    def test_undirected_symmetrization(self):
        g, _ = apply_batch(line_graph(5), MutationBatch.from_edges(insertions=[(0, 4)]))
        assert 4 in g.neighbors(0) and 0 in g.neighbors(4)
        # deleting by the reversed endpoint order removes both arcs
        g, _ = apply_batch(g, MutationBatch.from_edges(deletions=[(4, 0)]))
        assert 4 not in g.neighbors(0) and 0 not in g.neighbors(4)

    def test_deleting_missing_edge_raises(self):
        with pytest.raises(ValueError, match="non-existent"):
            apply_batch(line_graph(4), MutationBatch.from_edges(deletions=[(0, 3)]))

    def test_undirected_reversed_insert_delete_rejected(self):
        # (2,1) insert vs (1,2) delete name the same undirected edge; the
        # batch-level ordered check misses it, apply must not
        with pytest.raises(ValueError, match="both insertions and deletions"):
            apply_batch(
                line_graph(4),
                MutationBatch.from_edges(insertions=[(2, 1)], deletions=[(1, 2)]),
            )

    def test_out_of_range_raises(self):
        g = line_graph(4)
        with pytest.raises(ValueError, match="out of range"):
            apply_batch(g, MutationBatch.from_edges(insertions=[(0, 9)]))
        with pytest.raises(ValueError, match="unknown vertex"):
            apply_batch(g, MutationBatch(delete_vertices=np.array([9])))

    def test_weight_policy(self):
        with pytest.raises(ValueError, match="must not carry weights"):
            apply_batch(
                line_graph(4),
                MutationBatch.from_edges(insertions=[(0, 2)], weights=[1.0]),
            )
        with pytest.raises(ValueError, match="need insert_weights"):
            apply_batch(
                line_graph(4, weighted=True),
                MutationBatch.from_edges(insertions=[(0, 2)]),
            )

    @pytest.mark.parametrize(
        "batch",
        [
            MutationBatch.from_edges(deletions=[(1, 2)]),
            MutationBatch(delete_vertices=np.array([2])),
            MutationBatch(),
        ],
        ids=["edge-deletions", "vertex-deletions", "empty"],
    )
    def test_weighted_batch_without_insertions_needs_no_weights(self, batch):
        g = line_graph(5, weighted=True)
        after, stats = apply_batch(g, batch)
        gone = set(zip(stats.del_src.tolist(), stats.del_dst.tolist()))
        src, dst = g.edge_array()
        kept = [(s, d) not in gone for s, d in zip(src.tolist(), dst.tolist())]
        assert after.weights.tobytes() == g.weights[kept].tobytes()
        assert stats.ins_src.size == 0

    def test_parallel_copies_all_deleted(self):
        g = Graph(3, np.array([0, 0]), np.array([1, 1]), directed=True)
        after, _ = apply_batch(g, MutationBatch.from_edges(deletions=[(0, 1)]))
        assert after.num_edges == 0

    def test_vertex_tombstone(self):
        g, stats = apply_batch(line_graph(5), MutationBatch(delete_vertices=np.array([2])))
        assert g.num_vertices == 5  # id survives
        assert g.out_degree(2) == 0
        assert stats.del_src.size == 4  # both arcs of both incident edges
        # edges elsewhere survive
        assert 1 in g.neighbors(0) and 4 in g.neighbors(3)

    def test_add_vertices_and_reference_them(self):
        g, _ = apply_batch(
            line_graph(3),
            MutationBatch.from_edges(insertions=[(2, 4)], add_vertices=2),
        )
        assert g.num_vertices == 5
        assert 4 in g.neighbors(2)

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_next_graph_is_the_from_scratch_csr(self, directed, weighted):
        """Each row lists its surviving arcs in insertion order: after a
        sequence of batches the graph's CSR equals, bit for bit, a
        from-scratch build of the surviving arcs in insertion order."""
        rng = np.random.default_rng(4)
        w0 = rng.uniform(1, 9, 40) if weighted else None
        g = Graph(20, rng.integers(0, 20, 40), rng.integers(0, 20, 40), w0, directed)
        src, dst = g.edge_array()
        arcs = list(zip(src.tolist(), dst.tolist(), (g.weights if weighted else 0 * src).tolist()))
        degrees = g.out_degrees
        degrees[2] = -1
        busy = int(np.argmax(degrees))  # a tombstone with arcs to drop
        batches = [
            # inserts, parallel copies, and arcs to two new vertices
            dict(insertions=[(0, 21), (5, 7), (5, 7), (20, 3)], add_vertices=2),
            # delete an arc an earlier batch inserted; one more copy
            dict(insertions=[(5, 7), (21, 20)], deletions=[(0, 21)]),
            # every parallel copy goes with one deletion; a tombstone
            dict(insertions=[(2, 21)], deletions=[(5, 7)], delete_vertices=[busy]),
        ]
        cur, n = g, 20
        for spec in batches:
            ins = spec.get("insertions", [])
            w = rng.uniform(1, 9, len(ins)) if weighted else None
            cur, _ = apply_batch(cur, MutationBatch.from_edges(weights=w, **spec))
            gone = set(spec.get("deletions", []))
            gone |= set() if directed else {(v, u) for u, v in gone}
            dead = set(spec.get("delete_vertices", []))
            arcs = [
                a for a in arcs
                if (a[0], a[1]) not in gone and not dead & {a[0], a[1]}
            ]
            new = [(u, v, x) for (u, v), x in zip(ins, w if weighted else [0.0] * len(ins))]
            arcs += new + ([] if directed else [(v, u, x) for u, v, x in new if u != v])
            n += spec.get("add_vertices", 0)
        s, d, w = (np.array(col) for col in zip(*arcs))
        expect = Graph(n, s, d, weights=w if weighted else None, directed=True)
        assert cur.num_vertices == n and cur.directed == directed
        for name in ("indptr", "indices", "weights"):
            got, want = getattr(cur, name), getattr(expect, name)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_apply_never_writes_the_graph_an_epoch_started_from(self):
        g = grid_road(6, 6, seed=3)
        eng = EpochEngine(g, SSSPStream(source=0), num_workers=2)
        eng.bootstrap()
        start = eng.graph
        arrays = (start.indptr, start.indices, start.weights)
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # a write would raise
        src, dst = start.edge_array()
        eng.run_epoch(
            MutationBatch.from_edges(
                insertions=[(0, 36)],
                deletions=[(int(src[0]), int(dst[0]))],
                weights=[1.5],
                add_vertices=1,
                delete_vertices=[int(src[-1])],
            )
        )
        assert eng.graph is not start and start.num_vertices == 36
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The acceptance parity matrix
# ---------------------------------------------------------------------------
def _algo_and_graph(name):
    if name == "pagerank":
        return (
            lambda: PageRankStream(iterations=6),
            erdos_renyi(300, 4.0, seed=31, directed=True),
        )
    if name == "wcc":
        return lambda: WCCStream(), erdos_renyi(300, 2.0, seed=32, directed=True)
    return lambda: SSSPStream(source=0), grid_road(16, 16, seed=33)


def _batches(graph, kind, epochs=3):
    if kind == "insert-only":
        return synthesize_stream(graph, epochs, 12, 0, seed=5)
    # delete-heavy, degree protection off: exercises dead-end churn and
    # the schedule's degrade-to-full path as well
    return synthesize_stream(
        graph, epochs, 4, 12, seed=6, protect_degrees=False
    )


class TestParityMatrix:
    @pytest.mark.parametrize("name", sorted(STREAM_ALGORITHMS))
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("kind", ["insert-only", "delete-heavy"])
    # range partitioning localizes the dirty region on few workers, so it
    # exercises workers that sit out the final supersteps — hash almost
    # never does
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_incremental_is_bit_identical(self, name, workers, kind, partitioner):
        factory, graph = _algo_and_graph(name)
        batches = _batches(graph, kind)
        partition = (
            hash_partition(graph.num_vertices, workers, seed=1)
            if partitioner == "hash"
            else range_partition(graph.num_vertices, workers)
        )
        inc = EpochEngine(
            graph, factory(), num_workers=workers, refresh="incremental",
            partition=partition,
        )
        full = EpochEngine(
            graph, factory(), num_workers=workers, refresh="full",
            partition=partition,
        )
        for batch in batches:
            ei = inc.run_epoch(batch)
            ef = full.run_epoch(batch)
            # identical to the engine's own cold baseline...
            assert ei.data == ef.data
            # ...and to a cold run of the library algorithm on the
            # mutated graph (bit-identical floats, not approx)
            cold, _ = factory().cold_run(inc.graph, workers, inc.owner)
            ids = sorted(ei.data)
            assert np.array_equal(
                np.array([ei.data[v] for v in ids]), cold[np.array(ids)]
            )

    @pytest.mark.parametrize("name", sorted(STREAM_ALGORITHMS))
    @pytest.mark.parametrize("frac", [0.0001, 0.001, 0.01, 0.1])
    def test_every_delta_size_matches_full_refresh(self, name, frac):
        # batch sizes from one edge to a tenth of the graph, half inserts
        # and half deletes: small ones stay incremental, large ones
        # degrade toward full — every epoch is the full refresh either way
        factory, graph = _algo_and_graph(name)
        k = max(1, round(frac * graph.num_input_edges))
        batches = synthesize_stream(graph, 3, k - k // 2, k // 2, seed=7)
        partition = hash_partition(graph.num_vertices, 4, seed=2)
        inc, full = (
            EpochEngine(
                graph, factory(), num_workers=4, refresh=mode,
                partition=partition,
            )
            for mode in ("incremental", "full")
        )
        for batch in batches:
            assert inc.run_epoch(batch).data == full.run_epoch(batch).data

    @pytest.mark.parametrize("name", sorted(STREAM_ALGORITHMS))
    def test_one_edge_delta_moves_fewer_bytes_than_full(self, name):
        factory, graph = _algo_and_graph(name)
        batches = synthesize_stream(graph, 3, 1, 0, seed=8)
        inc, full = (
            EpochEngine(graph, factory(), num_workers=4, refresh=mode)
            for mode in ("incremental", "full")
        )
        for batch in batches:
            ei, ef = inc.run_epoch(batch), full.run_epoch(batch)
            assert ei.data == ef.data
            assert (
                ei.result.metrics.total_net_bytes
                < ef.result.metrics.total_net_bytes
            )

    def test_pagerank_worker_idle_at_final_step(self):
        # regression: worker 0 owns only clean sender vertices whose last
        # scheduled participation is step T (sending shares into the
        # dirty region on worker 1); its finalized ranks must still be
        # the step-T+1 history, not the stale step-T compute
        graph = Graph(
            5,
            np.array([0, 1, 1, 2, 3, 4]),
            np.array([1, 0, 2, 3, 2, 3]),
            directed=True,
        )
        partition = np.array([0, 0, 1, 1, 0])
        eng = EpochEngine(
            graph, PageRankStream(iterations=6), num_workers=2, partition=partition
        )
        epoch = eng.run_epoch(MutationBatch.from_edges(insertions=[(4, 2)]))
        assert epoch.refresh == "incremental"
        cold, _ = PageRankStream(iterations=6).cold_run(eng.graph, 2, partition)
        assert np.array_equal(
            np.array([epoch.data[v] for v in range(5)]), cold
        )

    def test_oracle_agreement_after_mutations(self):
        # belt and braces: the streamed results also match independent
        # serial oracles on the final mutated graph
        graph = grid_road(12, 12, seed=40)
        batches = _batches(graph, "delete-heavy")
        wcc = EpochEngine(graph, WCCStream(), num_workers=4)
        sssp = EpochEngine(graph, SSSPStream(source=0), num_workers=4)
        for batch in batches:
            lw = wcc.run_epoch(batch)
            ls = sssp.run_epoch(batch)
        final = wcc.graph
        labels = np.array([lw.data[v] for v in range(final.num_vertices)])
        assert np.array_equal(labels, nx_components(final))
        dist = np.array([ls.data[v] for v in range(final.num_vertices)])
        oracle = nx_sssp(final, 0)
        assert np.allclose(dist, oracle, rtol=0, atol=1e-9, equal_nan=False)

    def test_vertex_insertions_and_deletions(self):
        graph = erdos_renyi(120, 3.0, seed=41, directed=True)
        eng = EpochEngine(graph, WCCStream(), num_workers=4)
        eng.run_epoch(
            MutationBatch.from_edges(
                insertions=[(5, 120), (120, 121)], add_vertices=2
            )
        )
        eng.run_epoch(MutationBatch(delete_vertices=np.array([5])))
        cold, _ = WCCStream().cold_run(eng.graph, 4, eng.owner)
        data = eng.latest.data
        assert np.array_equal(
            np.array([data[v] for v in sorted(data)]), cold[np.array(sorted(data))]
        )
        # PageRank degrades to full on a vertex-count change but stays exact
        pr = EpochEngine(graph, PageRankStream(iterations=5), num_workers=4)
        epoch = pr.run_epoch(
            MutationBatch.from_edges(insertions=[(3, 120)], add_vertices=1)
        )
        assert epoch.refresh == "full"
        cold, _ = PageRankStream(iterations=5).cold_run(pr.graph, 4, pr.owner)
        assert np.array_equal(
            np.array([epoch.data[v] for v in sorted(epoch.data)]), cold
        )


# ---------------------------------------------------------------------------
# Refresh planning internals
# ---------------------------------------------------------------------------
class TestPageRankSchedule:
    def test_full_schedule_shape(self):
        g = erdos_renyi(40, 3.0, seed=8, directed=True)
        sched = build_pagerank_schedule(g, None, None, 5, full=True)
        assert sched.full and sched.affected == 40
        assert sched.dirty[1:].all()
        assert not sched.senders[6].any()  # no sends at the last step

    def test_incremental_dirty_grows_monotonically(self):
        g = erdos_renyi(60, 3.0, seed=9, directed=True)
        src, dst = g.edge_array()
        after, stats = apply_batch(
            g, MutationBatch.from_edges(deletions=[(int(src[0]), int(dst[0]))])
        )
        sched = build_pagerank_schedule(
            after, stats, g.out_degrees == 0, 6, full=False
        )
        assert not sched.full
        for k in range(2, 7):
            assert (sched.dirty[k] <= sched.dirty[k + 1]).all()
        # every dirty vertex's in-neighborhood sends the step before
        assert sched.dirty[2][int(dst[0])]

    def test_empty_delta_schedules_nothing(self):
        g = erdos_renyi(30, 3.0, seed=10, directed=True)
        _, stats = apply_batch(g, MutationBatch())
        sched = build_pagerank_schedule(g, stats, g.out_degrees == 0, 5, full=False)
        assert sched.affected == 0
        assert not sched.active.any()


class TestWCCPlan:
    """WCC warm-starts only from a batch that deletes nothing: hash-min
    cannot raise a label, so any deleted arc plans a cold run."""

    def test_deleting_batch_runs_cold(self):
        # deleting one edge of a cycle splits nothing, yet the epoch is
        # the cold run itself: same labels, bytes and messages
        n = 8
        src = np.arange(n, dtype=np.int64)
        g = Graph(n, src, (src + 1) % n, directed=False)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        epoch = eng.run_epoch(MutationBatch.from_edges(deletions=[(0, 1)]))
        assert epoch.refresh == "full" and epoch.seeds == n
        labels, cold = run_wcc(
            eng.graph, mode="bulk", num_workers=2, partition=eng.owner
        )
        assert np.array_equal(np.array([epoch.data[v] for v in range(n)]), labels)
        assert epoch.result.total_net_bytes == cold.total_net_bytes
        assert epoch.result.total_messages == cold.total_messages

    def test_insert_only_batch_seeds_its_endpoints(self):
        g = erdos_renyi(60, 1.0, seed=19, directed=False)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        insertions = [(0, 59), (7, 60), (60, 61)]
        epoch = eng.run_epoch(
            MutationBatch.from_edges(insertions=insertions, add_vertices=2)
        )
        endpoints = {v for edge in insertions for v in edge}
        assert epoch.refresh == "incremental"
        assert epoch.seeds == len(endpoints)
        assert epoch.result.metrics.records[0].active_vertices == len(endpoints)
        assert np.array_equal(
            np.array([epoch.data[v] for v in range(62)]), nx_components(eng.graph)
        )

    def test_split_produces_correct_labels(self):
        g = line_graph(6)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        epoch = eng.run_epoch(MutationBatch.from_edges(deletions=[(2, 3)]))
        labels = np.array([epoch.data[v] for v in range(6)])
        assert np.array_equal(labels, np.array([0, 0, 0, 3, 3, 3]))


# ---------------------------------------------------------------------------
# Epoch engine mechanics
# ---------------------------------------------------------------------------
class TestEpochEngine:
    def test_bootstrap_only_once(self):
        g = erdos_renyi(50, 3.0, seed=12, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        eng.bootstrap()
        with pytest.raises(RuntimeError, match="already bootstrapped"):
            eng.bootstrap()

    def test_empty_batch_is_nearly_free(self):
        g = erdos_renyi(50, 3.0, seed=13, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        base = eng.run_epoch(MutationBatch())  # bootstraps, then empty epoch
        assert base.batch_size == 0
        assert base.result.supersteps == 0
        assert base.result.total_net_bytes == 0
        # results survive the idle epoch
        cold, _ = WCCStream().cold_run(eng.graph, 2, eng.owner)
        assert np.array_equal(
            np.array([base.data[v] for v in range(50)]), cold
        )

    def test_epoch_counters_in_summary(self):
        g = erdos_renyi(50, 3.0, seed=14, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        batch = synthesize_batch(g, 4, 0, seed=3)
        epoch = eng.run_epoch(batch)
        row = epoch.summary()
        assert row["epoch"] == 1
        assert row["refresh"] == "incremental"
        assert row["affected_vertices"] == epoch.affected
        m = epoch.result.metrics
        assert m.epoch == 1 and m.refresh_mode == "incremental"

    def test_partition_stays_aligned_across_growth(self):
        g = erdos_renyi(40, 3.0, seed=15, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=4)
        before = eng.owner.copy()
        eng.run_epoch(
            MutationBatch.from_edges(insertions=[(0, 40)], add_vertices=1)
        )
        assert eng.owner.size == 41
        assert np.array_equal(eng.owner[:40], before)

    def test_extend_partition_grouping_invariant(self):
        owner = hash_partition(10, 4, seed=0)
        one_step = extend_partition(owner, 5, 4, seed=7)
        two_step = extend_partition(extend_partition(owner, 2, 4, seed=7), 3, 4, seed=7)
        assert np.array_equal(one_step, two_step)

    @pytest.mark.parametrize("refresh", ["incremental", "full"])
    def test_weighted_epochs_without_insertions(self, refresh):
        # a deletion-only batch and a tombstone-only batch carry no
        # weights; a weighted stream must still apply and refresh them
        graph = grid_road(8, 8, seed=5)
        src, dst = graph.edge_array()
        eng = EpochEngine(graph, SSSPStream(source=0), num_workers=2, refresh=refresh)
        for batch in (
            MutationBatch.from_edges(deletions=[(int(src[3]), int(dst[3]))]),
            MutationBatch(delete_vertices=np.array([int(dst[-1])])),
        ):
            epoch = eng.run_epoch(batch)
            final = eng.graph
            dist = np.array([epoch.data[v] for v in range(final.num_vertices)])
            assert np.allclose(dist, nx_sssp(final, 0), rtol=0, atol=1e-9)
        assert final.num_edges < graph.num_edges

    def test_bad_refresh_mode(self):
        g = erdos_renyi(20, 2.0, seed=16, directed=True)
        with pytest.raises(ValueError, match="refresh must be"):
            EpochEngine(g, WCCStream(), refresh="lazy")

    def test_refresh_is_a_constructor_option_only(self):
        g = erdos_renyi(20, 2.0, seed=16, directed=True)
        eng = EpochEngine(g, WCCStream(), num_workers=2)
        batch = MutationBatch.from_edges(insertions=[(0, 19)])
        with pytest.raises(TypeError):
            eng.run_epoch(batch, refresh="full")
        with pytest.raises(TypeError):
            eng.run([batch], refresh="full")
        with pytest.raises(TypeError):
            WCCStream(probe_cap=8)


class TestInitialActive:
    def test_seeded_engine_restricts_first_superstep(self):
        g = erdos_renyi(40, 3.0, seed=17, directed=True)
        # a WCC run seeded at one vertex floods out from it only
        from repro.algorithms.wcc import WCCBasicBulk

        full = ChannelEngine(g, WCCBasicBulk, num_workers=2).run()
        seeded = ChannelEngine(
            g, WCCBasicBulk, num_workers=2, initial_active=np.array([0])
        ).run()
        assert seeded.metrics.records[0].active_vertices == 1
        assert full.metrics.records[0].active_vertices == 40

    def test_out_of_range_seed_rejected(self):
        g = erdos_renyi(10, 2.0, seed=18, directed=True)
        with pytest.raises(ValueError, match="out-of-range"):
            ChannelEngine(
                g,
                lambda w: None,
                num_workers=2,
                initial_active=np.array([99]),
            )
