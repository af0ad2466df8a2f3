"""Scalar/bulk parity: the columnar compute path must be a pure
performance change.

For every ported algorithm we assert, on a seeded random graph and across
1, 2, and 8 workers:

* identical ``result.data`` (bit-exact, including float PageRank — the
  bulk ports are written to preserve the scalar path's FP operation
  order, see ARCHITECTURE.md);
* identical per-channel traffic (net/local bytes and message counts from
  ``metrics.channel_breakdown()``), plus superstep/round totals and
  checkpoint bytes — except that a bulk port which names its adjacency as
  a scatter channel's edge set (``add_adjacency``) checkpoints a direction
  where the listing checkpoints two edge columns: there, every *other*
  snapshot key is byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import _common
from repro.algorithms.bfs import run_bfs
from repro.algorithms.lpa import run_lpa
from repro.algorithms.mis import run_mis
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import PointerJumpingReqRespBulk, run_pointer_jumping
from repro.algorithms.scc import run_scc
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import BulkVertexProgram, ChannelEngine, LocalCSR, RequestRespond
from repro.graph import Graph, chain, grid_road, random_tree, rmat
from repro.graph.partition import hash_partition, range_partition
from repro.pregel_algorithms import (
    run_pagerank_pregel,
    run_pointer_jumping_pregel,
    run_sssp_pregel,
    run_sv_pregel,
    run_wcc_pregel,
)
from repro.programs import PROGRAMS
from repro.runtime.checkpoint import decode_state, encode_state
from repro.runtime.serialization import INT32
from repro.streaming import EpochEngine, PageRankStream, SSSPStream

WORKERS = [1, 2, 8]


@pytest.fixture(scope="module")
def directed_graph():
    return rmat(9, edge_factor=8, seed=31, directed=True)


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(9, edge_factor=4, seed=32, directed=False, weighted=True)


@pytest.fixture(scope="module")
def undirected_graph():
    return rmat(8, edge_factor=2, seed=34, directed=False)


@pytest.fixture
def engines(monkeypatch):
    """Every engine the ``run_*`` helpers build during the test, in order
    (an engine keeps its latest checkpoint)."""
    built = []

    class Recorded(ChannelEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(_common, "ChannelEngine", Recorded)
    return built


def _assert_same_checkpoint_but_for_the_edges(scalar_engine, bulk_engine):
    """The last checkpoints of the two runs, worker by worker: the bulk
    one names an adjacency, the scalar one lists the edges, and nothing
    else differs by a byte."""
    scalar, bulk = scalar_engine.checkpoint, bulk_engine.checkpoint
    assert scalar.superstep == bulk.superstep
    named = 0
    for blob_s, blob_b in zip(scalar.blobs, bulk.blobs, strict=True):
        state_s, state_b = decode_state(blob_s), decode_state(blob_b)
        for chan_s, chan_b in zip(state_s["channels"], state_b["channels"], strict=True):
            if "edge_adjacency" in chan_b:
                named += 1
                assert {"edge_src", "edge_dst"} <= set(chan_s)
                assert not {"edge_src", "edge_dst"} & set(chan_b)
            for chan in (chan_s, chan_b):
                for key in [k for k in chan if k.startswith("edge_")]:
                    del chan[key]
        assert encode_state(state_s) == encode_state(state_b)
    assert named == len(bulk.blobs)  # one scatter channel on every worker


def _assert_parity(scalar_out, bulk_out, by_adjacency=None):
    """``by_adjacency``: the ``(scalar, bulk)`` engines of a program whose
    bulk port registers its scatter edges with ``add_adjacency``."""
    (data_s, res_s), (data_b, res_b) = scalar_out, bulk_out
    np.testing.assert_array_equal(data_s, data_b)
    assert res_s.data == res_b.data
    ms, mb = res_s.metrics, res_b.metrics
    assert ms.channel_breakdown() == mb.channel_breakdown()
    assert ms.supersteps == mb.supersteps
    assert ms.total_rounds == mb.total_rounds
    assert ms.total_net_bytes == mb.total_net_bytes
    assert ms.total_local_bytes == mb.total_local_bytes
    assert ms.total_messages == mb.total_messages
    assert ms.num_checkpoints == mb.num_checkpoints
    if by_adjacency is None:
        assert ms.checkpoint_bytes == mb.checkpoint_bytes
    else:
        _assert_same_checkpoint_but_for_the_edges(*by_adjacency)


@pytest.mark.parametrize("variant", ["basic", "scatter", "mirror"])
@pytest.mark.parametrize("workers", WORKERS)
def test_pagerank_parity(directed_graph, variant, workers, engines):
    kw = dict(variant=variant, iterations=8, num_workers=workers, checkpoint_every=3)
    scalar = run_pagerank(directed_graph, mode="scalar", **kw)
    assert scalar[1].metrics.checkpoint_bytes > 0
    _assert_parity(
        scalar,
        run_pagerank(directed_graph, mode="bulk", **kw),
        by_adjacency=engines if variant != "basic" else None,
    )


#: directed graphs whose dead ends (rows without out-edges) the bulk
#: programs read off the degree split's mask: every vertex one, every odd
#: one (so some of the 8 workers own dead ends alone under a range
#: partition), and a hub that takes everything in and sends nothing
DEAD_END_GRAPHS = {
    "edgeless": Graph.from_edges(24, [], directed=True),
    "odd-rows-empty": Graph.from_edges(
        64, [(v, (v * 7 + k) % 64) for v in range(0, 64, 2) for k in (1, 2, 5)], directed=True
    ),
    "sink-hub": Graph.from_edges(
        40, [(v, 0) for v in range(1, 40)] + [(v, v + 1) for v in range(1, 39, 3)], directed=True
    ),
}


@pytest.mark.parametrize("variant", ["basic", "scatter", "mirror"])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("graph", DEAD_END_GRAPHS)
def test_pagerank_parity_with_dead_ends(graph, variant, workers, engines):
    graph = DEAD_END_GRAPHS[graph]
    assert (np.diff(graph.indptr) == 0).any()
    kw = dict(
        variant=variant,
        iterations=6,
        num_workers=workers,
        partition=range_partition(graph.num_vertices, workers),
        checkpoint_every=2,
    )
    scalar = run_pagerank(graph, mode="scalar", **kw)
    assert np.isclose(scalar[0].sum(), 1.0)  # the dead ends' mass is handed back
    _assert_parity(
        scalar,
        run_pagerank(graph, mode="bulk", **kw),
        by_adjacency=engines if variant != "basic" else None,
    )


def test_pagerank_parity_under_partial_activity(directed_graph):
    """A third of the vertices start active and some are never woken, so
    every superstep runs the lines indexed by ``active`` — the ones
    ``test_pagerank_parity`` (everyone active: whole-array assignment,
    the adjacency's cached degree split) never reaches.  The basic variant
    only: scatter's scalar setup registers edges per active vertex and its
    bulk setup the whole adjacency, which differ under a seed set (see
    ``test_static_scatter_under_a_seeded_first_superstep``)."""
    seeds = np.arange(0, directed_graph.num_vertices, 3)
    kw = dict(variant="basic", iterations=6, num_workers=2, initial_active=seeds)
    _assert_parity(
        run_pagerank(directed_graph, mode="scalar", **kw),
        run_pagerank(directed_graph, mode="bulk", **kw),
    )


@pytest.mark.parametrize("variant", ["scatter", "mirror"])
def test_static_scatter_under_a_seeded_first_superstep(variant):
    """Where the modes differ, as ``run_pagerank`` documents it: the path
    0 -> 1 -> ... -> 5 on workers {0, 1, 2} and {3, 4, 5}, seeded at vertex
    0.  The listing registers ``v.edges`` of the vertices active in
    superstep 1 — vertex 0 alone — so vertex 1 is woken, scatters along no
    edge, and the rest never run.  The bulk port registers every row of
    the adjacency, whoever is active, and a static channel sends along all
    its edges once any local vertex set a message: worker 0 reaches
    vertices 1-3 in superstep 1, worker 1 the rest in superstep 2."""
    path = Graph.from_edges(6, [(i, i + 1) for i in range(5)], directed=True)
    kw = dict(
        variant=variant,
        iterations=4,
        num_workers=2,
        partition=range_partition(6, 2),
        initial_active=np.array([0]),
    )
    ranks, result = run_pagerank(path, mode="scalar", **kw)
    assert [r.active_vertices for r in result.metrics.records] == [1, 2, 2, 2, 2]
    assert (ranks[:2] > 0).all() and (ranks[2:] == 0).all()
    ranks, result = run_pagerank(path, mode="bulk", **kw)
    assert [r.active_vertices for r in result.metrics.records] == [1, 4, 6, 6, 6]
    assert (ranks > 0).all()


@pytest.mark.parametrize("workers", WORKERS)
def test_wcc_parity(directed_graph, workers):
    _assert_parity(
        run_wcc(directed_graph, mode="scalar", num_workers=workers),
        run_wcc(directed_graph, mode="bulk", num_workers=workers),
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_bfs_parity(directed_graph, workers):
    _assert_parity(
        run_bfs(directed_graph, source=3, mode="scalar", num_workers=workers),
        run_bfs(directed_graph, source=3, mode="bulk", num_workers=workers),
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_sssp_parity(weighted_graph, workers):
    _assert_parity(
        run_sssp(weighted_graph, source=3, mode="scalar", num_workers=workers),
        run_sssp(weighted_graph, source=3, mode="bulk", num_workers=workers),
    )


@pytest.mark.parametrize("variant", tuple(PROGRAMS["sv"]["channel"].variants))
@pytest.mark.parametrize("workers", WORKERS)
def test_sv_parity(undirected_graph, variant, workers, engines):
    kw = dict(variant=variant, num_workers=workers, checkpoint_every=2)
    scalar = run_sv(undirected_graph, mode="scalar", **kw)
    assert scalar[1].metrics.checkpoint_bytes > 0
    _assert_parity(
        scalar,
        run_sv(undirected_graph, mode="bulk", **kw),
        by_adjacency=engines if variant in ("scatter", "both") else None,
    )


@pytest.fixture
def column_reads(monkeypatch):
    """Every ``LocalCSR`` whose ``indices`` were read during the test."""
    reads = []
    gather = LocalCSR.indices.func
    monkeypatch.setattr(LocalCSR, "indices", property(lambda adj: reads.append(adj) or gather(adj)))
    return reads


@pytest.mark.parametrize("algo", ["pagerank", "sv", "mirror"])
@pytest.mark.parametrize("workers", WORKERS)
def test_degree_only_readers_never_gather(
    directed_graph, undirected_graph, algo, workers, engines, column_reads
):
    """Bulk scatter and mirror PageRank and bulk S-V ``both`` read only
    the degrees of their adjacency, and the scatter channel streams its
    rows: on a hash partition no ``LocalCSR.indices`` is ever
    materialized, and results and traffic equal the listing's."""
    if algo in ("pagerank", "mirror"):
        variant = "scatter" if algo == "pagerank" else "mirror"
        graph, run, kw = directed_graph, run_pagerank, dict(variant=variant, iterations=8)
    else:
        graph, run, kw = undirected_graph, run_sv, dict(variant="both")
    owner = hash_partition(graph.num_vertices, workers)
    kw.update(num_workers=workers, partition=owner, checkpoint_every=2)
    scalar = run(graph, mode="scalar", **kw)
    bulk = run(graph, mode="bulk", **kw)
    assert column_reads == []
    _assert_parity(scalar, bulk, by_adjacency=engines)


@pytest.mark.parametrize("forest", [chain(150), random_tree(300, seed=7)], ids=["chain", "tree"])
@pytest.mark.parametrize("workers", WORKERS)
def test_pointer_jumping_parity(forest, workers):
    kw = dict(variant="reqresp", num_workers=workers, checkpoint_every=2)
    _assert_parity(
        run_pointer_jumping(forest, mode="scalar", **kw),
        run_pointer_jumping(forest, mode="bulk", **kw),
    )


@pytest.mark.parametrize("recovery", ["rollback", "confined"])
def test_bulk_sv_recovers_to_its_clean_run(undirected_graph, recovery):
    kw = dict(variant="both", mode="bulk", num_workers=4, checkpoint_every=2)
    labels, clean = run_sv(undirected_graph, **kw)
    labels_f, failed = run_sv(undirected_graph, failures=[(1, 5)], recovery=recovery, **kw)
    mc, mf = clean.metrics, failed.metrics
    assert mf.num_failures == 1 and mf.recovery_bytes > 0
    np.testing.assert_array_equal(labels, labels_f)
    assert clean.data == failed.data
    assert mc.supersteps == mf.supersteps
    assert mc.channel_breakdown() == mf.channel_breakdown()
    assert mc.total_net_bytes == mf.total_net_bytes
    assert mc.total_messages == mf.total_messages


class _RequestProbe(BulkVertexProgram):
    """Superstep 1 asks for ``wants`` (rows of requester id, requested
    id), superstep 2 reads every answer back; ``api`` picks the entry
    points: ``"scalar"``, ``"array"``, or ``"mixed"`` (alternate rows)."""

    wants = np.empty((0, 2), dtype=np.int64)
    api = "array"

    def __init__(self, worker):
        super().__init__(worker)
        self.rr = RequestRespond(
            worker,
            respond_fn=lambda v: v.id * 3 + 1,
            codec=INT32,
            respond_fn_bulk=lambda idx: worker.local_ids[idx] * 3 + 1,
        )
        mine = self.wants[worker.owner[self.wants[:, 0]] == worker.worker_id]
        self.requesters = worker.local_index(mine[:, 0])
        self.dsts = mine[:, 1]
        as_array = np.ones(len(mine), dtype=bool)
        if self.api == "scalar":
            as_array[:] = False
        elif self.api == "mixed":
            as_array[1::2] = False
        self.as_array = as_array
        self.got = np.full(len(mine), -1, dtype=np.int64)

    def compute_bulk(self, active):
        rr, a = self.rr, self.as_array
        v = self.worker._vertex
        if self.step_num == 1:
            rr.add_requests(self.requesters[a], self.dsts[a])
            for i, dst in zip(self.requesters[~a], self.dsts[~a]):
                rr.add_request(v._bind(int(i)), int(dst))
        else:
            self.got[a] = rr.get_responds(self.dsts[a])
            self.got[~a] = [rr.get_respond(int(dst)) for dst in self.dsts[~a]]
        self.worker.halt_bulk(active)

    def finalize(self):
        return {f"worker{self.worker.worker_id}": self.got.tolist()}


@st.composite
def _request_cases(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    ids = st.integers(min_value=0, max_value=n - 1)
    # drawn from a small id range: duplicates and self-requests are common
    wants = draw(st.lists(st.tuples(ids, ids), max_size=40))
    return n, draw(st.integers(min_value=1, max_value=5)), wants


@settings(max_examples=40, deadline=None)
@given(_request_cases())
def test_request_respond_array_api_matches_scalar(case):
    n, workers, wants = case
    wants = np.array(wants, dtype=np.int64).reshape(-1, 2)

    def run(api):
        program = type("Probe", (_RequestProbe,), {"wants": wants, "api": api})
        engine = ChannelEngine(chain(n), program, num_workers=workers)
        return engine, engine.run()

    (scalar_engine, scalar), (array_engine, array), (_, mixed) = map(
        run, ("scalar", "array", "mixed")
    )
    owners = array_engine.owner[wants[:, 0]]
    assert array.data == {
        f"worker{w}": (wants[owners == w, 1] * 3 + 1).tolist() for w in range(workers)
    }
    for other in (scalar, mixed):
        assert other.data == array.data
        assert other.metrics.channel_breakdown() == array.metrics.channel_breakdown()
        assert other.metrics.total_rounds == array.metrics.total_rounds
    # the {id: value} lookup exists only for scalar reads
    assert all(w.program.rr._resp_map is None for w in array_engine.workers)
    assert any(w.program.rr._resp_map for w in scalar_engine.workers) == bool(len(wants))


def test_bulk_run_never_builds_the_response_dict():
    engine = ChannelEngine(random_tree(300, seed=7), PointerJumpingReqRespBulk, num_workers=2)
    assert engine.run().supersteps > 2
    assert all(w.program.rr._resp_map is None for w in engine.workers)


class TestBulkCorrectness:
    """Bulk results are right in absolute terms, not just equal to scalar."""

    def test_bulk_wcc_matches_oracle(self, directed_graph):
        from helpers import nx_components

        labels, _ = run_wcc(directed_graph, mode="bulk", num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(directed_graph))

    def test_bulk_pagerank_matches_oracle(self):
        from helpers import pagerank_oracle

        g = rmat(7, edge_factor=6, seed=33, directed=True)
        ranks, _ = run_pagerank(g, variant="scatter", mode="bulk", iterations=15, num_workers=4)
        np.testing.assert_allclose(ranks, pagerank_oracle(g, 15), rtol=1e-9)

    def test_bulk_sssp_matches_oracle(self, weighted_graph):
        from helpers import nx_sssp

        dists, _ = run_sssp(weighted_graph, source=3, mode="bulk", num_workers=4)
        np.testing.assert_allclose(dists, nx_sssp(weighted_graph, 3))


class TestModeValidation:
    def test_unknown_mode_rejected(self, directed_graph):
        with pytest.raises(ValueError, match="mode"):
            run_wcc(directed_graph, mode="columnar")

    def test_prop_variant_has_no_bulk_port(self, directed_graph):
        with pytest.raises(ValueError, match="no 'bulk' port"):
            run_wcc(directed_graph, variant="prop", mode="bulk")

    @pytest.mark.parametrize("mode", ["scalar", "bulk"])
    @pytest.mark.parametrize("run", [run_sssp, run_bfs], ids=["sssp", "bfs"])
    @pytest.mark.parametrize("source", [-1, 100, None, 1.0, True], ids=repr)
    def test_source_outside_the_graph_rejected(self, run, mode, source):
        """One ValueError naming ``source`` on both paths, before any
        worker sees it: not a run from the last vertex, nor NumPy's
        IndexError, nor an all-unreached result."""
        with pytest.raises(ValueError, match="source"):
            run(grid_road(10, 10), source=source, mode=mode, num_workers=2)

    @pytest.mark.parametrize("source", [-1, 100, None, 2.5, True], ids=repr)
    def test_baseline_source_outside_the_graph_rejected(self, source):
        """Not an all-``inf`` result: one ValueError naming ``source``."""
        with pytest.raises(ValueError, match="source"):
            run_sssp_pregel(grid_road(10, 10), source=source, num_workers=2)

    @pytest.mark.parametrize(
        "run, name",
        [
            (lambda g: run_scc(g, variant="bogus", num_workers=2), "variant"),
            (lambda g: run_sv_pregel(g, variant="bogus", num_workers=2), "variant"),
            (lambda g: run_pointer_jumping_pregel(g, variant="bogus", num_workers=2), "variant"),
            (lambda g: run_pagerank_pregel(g, variant="bogus", num_workers=2), "variant"),
        ],
        ids=["scc-variant", "sv-pregel-variant", "pj-pregel-variant", "pr-pregel-variant"],
    )
    def test_unknown_choice_names_its_argument(self, directed_graph, run, name):
        """Not a bare ``KeyError``: one ValueError naming the argument."""
        with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
            run(directed_graph)

    @pytest.mark.parametrize(
        "run",
        [run_sv_pregel, run_pointer_jumping_pregel, run_pagerank_pregel, run_wcc_pregel],
        ids=["sv", "pj", "pagerank", "wcc"],
    )
    def test_a_baseline_takes_no_mode(self, directed_graph, run):
        """A Pregel+ runner names its message layer ``variant=``, as a
        channel runner names its composition; ``mode=`` is a channel
        runner's compute path, so on a baseline it is an unknown keyword."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'mode'"):
            run(directed_graph, mode="reqresp", num_workers=2)

    @pytest.mark.parametrize("threshold", [-1, 2.5, None, "x", True], ids=repr)
    def test_ghost_threshold_not_a_count_rejected(self, directed_graph, threshold):
        """Not a silent run at ``-1`` or ``2.5``, nor a ``TypeError`` from
        inside the ghost layer: one ValueError naming ``ghost_threshold``."""
        with pytest.raises(ValueError, match="ghost_threshold"):
            run_pagerank_pregel(
                directed_graph, variant="ghost", ghost_threshold=threshold, num_workers=2
            )

    def test_a_zero_ghost_threshold_mirrors_every_sender(self, directed_graph):
        ghost, _ = run_pagerank_pregel(
            directed_graph, variant="ghost", ghost_threshold=0, iterations=4, num_workers=2
        )
        basic, _ = run_pagerank_pregel(directed_graph, iterations=4, num_workers=2)
        np.testing.assert_allclose(ghost, basic, atol=1e-12)

    def test_stream_source_outside_the_graph_rejected(self):
        with pytest.raises(ValueError, match="source"):
            EpochEngine(grid_road(10, 10), SSSPStream(source=100), num_workers=2).bootstrap()

    @pytest.mark.parametrize("mode", ["scalar", "bulk"])
    @pytest.mark.parametrize("iterations", [-1, 2.5, True, None, "3"], ids=repr)
    def test_iterations_not_a_count_rejected(self, directed_graph, mode, iterations):
        """One ValueError naming ``iterations`` on both paths: not uniform
        ranks for ``-1``, two iterations for ``2.5``, one for ``True``."""
        with pytest.raises(ValueError, match="iterations"):
            run_pagerank(directed_graph, iterations=iterations, mode=mode, num_workers=2)

    @pytest.mark.parametrize("rounds", [-1, 2.5, True], ids=repr)
    def test_rounds_not_a_count_rejected(self, undirected_graph, rounds):
        """Not each vertex's own id for ``-1``: a ValueError naming ``rounds``."""
        with pytest.raises(ValueError, match="rounds"):
            run_lpa(undirected_graph, rounds=rounds, num_workers=2)

    def test_baseline_and_stream_iterations_checked(self, directed_graph):
        with pytest.raises(ValueError, match="iterations"):
            run_pagerank_pregel(directed_graph, iterations=-1, num_workers=2)
        with pytest.raises(ValueError, match="iterations"):
            PageRankStream(iterations=2.5)

    @pytest.mark.parametrize("seed", [2.5, None, "x", True], ids=repr)
    def test_mis_seed_not_an_int_rejected(self, undirected_graph, seed):
        """Not a ``TypeError`` or ``OverflowError`` from inside the
        priority hash: one ValueError naming ``seed``."""
        with pytest.raises(ValueError, match="seed"):
            run_mis(undirected_graph, seed=seed, num_workers=2)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)], ids=repr)
    def test_a_numpy_seed_is_a_seed(self, undirected_graph, seed):
        got, _ = run_mis(undirected_graph, seed=seed, num_workers=2)
        assert got.tobytes() == run_mis(undirected_graph, seed=3, num_workers=2)[0].tobytes()
        run_mis(undirected_graph, seed=-5, num_workers=2)  # negatives stay seeds

    def test_a_numpy_count_is_a_count(self, directed_graph):
        ranks, _ = run_pagerank(directed_graph, iterations=np.int64(3), num_workers=2)
        three, _ = run_pagerank(directed_graph, iterations=3, num_workers=2)
        assert ranks.tobytes() == three.tobytes()
