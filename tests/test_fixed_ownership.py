"""Ownership is fixed for a run (ARCHITECTURE.md §3).

The partition chosen before a run is its one placement: no vertex moves
once the host is made.  A skewed partition is therefore something a run
lives with, and these tests pin what it must keep:

* the results are the program's, not the partition's — a planted
  contiguous-range partition that puts the RMAT hubs on worker 0 computes
  the same data as the hash and the degree-range partitions (PageRank to
  rounding: its dangling-mass aggregator sums per-worker float partials,
  and a partition regroups them);
* on that skewed partition sim, process×shm and process×pipe are
  bit-identical in data and in every traffic counter;
* S-V over ``RequestRespond``, scalar and bulk, runs to the oracle labels
  on a range partition — its response cache lives across supersteps, so
  it holds state no vertex move could hand over;
* a mutation stream and a checkpoint recovery on the skewed partition
  reproduce the sim / failure-free runs;
* what only a migration reached is gone: the owner segment a child maps
  is read-only, a child serves four lifecycle commands, a trace has no
  ``"rebalance"`` span and a run's metrics no rebalance counter.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from helpers import MOVERS, mover, nx_components
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import WCCBasicBulk, run_wcc
from repro.core import ChannelEngine
from repro.graph import random_tree, rmat
from repro.graph.partition import degree_range_partition, hash_partition
from repro.obs import TraceRecorder
from repro.obs.trace import SPAN_KINDS
from repro.runtime.metrics import MetricsCollector
from repro.runtime.parallel import WorkerProcessError
from repro.runtime.parallel.shm import SharedArrayExport, attach_array
from repro.runtime.parallel.worker_proc import LIFECYCLE
from repro.streaming import (
    EpochEngine,
    PageRankStream,
    SSSPStream,
    WCCStream,
    synthesize_stream,
)

WORKERS = [2, 8]

_DIRECTED = rmat(7, edge_factor=8, seed=5, directed=True)
_WEIGHTED = rmat(7, edge_factor=8, seed=6, directed=True, weighted=True)
_UNDIRECTED = rmat(7, edge_factor=4, seed=7, directed=False)
_FOREST = random_tree(200, seed=3)

#: one workload per channel a run composes: ScatterCombine by adjacency
#: (pr-scatter, sv-scatter), MirroredScatter, CombinedMessage (wcc, sssp),
#: Propagation (wcc-prop), RequestRespond (sv-both, pj-reqresp)
WORKLOADS = {
    "pr-scatter": (
        _DIRECTED,
        lambda g, **kw: run_pagerank(g, variant="scatter", iterations=8, mode="bulk", **kw),
    ),
    "pr-mirror": (
        _DIRECTED,
        lambda g, **kw: run_pagerank(g, variant="mirror", iterations=8, mode="bulk", **kw),
    ),
    "wcc": (_DIRECTED, lambda g, **kw: run_wcc(g, variant="basic", mode="bulk", **kw)),
    "wcc-prop": (_DIRECTED, lambda g, **kw: run_wcc(g, variant="prop", mode="scalar", **kw)),
    "sssp": (_WEIGHTED, lambda g, **kw: run_sssp(g, variant="basic", mode="bulk", **kw)),
    "sv-scatter": (_UNDIRECTED, lambda g, **kw: run_sv(g, variant="scatter", **kw)),
    "sv-both": (_UNDIRECTED, lambda g, **kw: run_sv(g, variant="both", **kw)),
    "pj-reqresp": (
        _FOREST,
        lambda g, **kw: run_pointer_jumping(g, variant="reqresp", mode="bulk", **kw),
    ),
}

#: a partition regroups the dangling-mass aggregator's per-worker float
#: partials, so PageRank matches across partitions to rounding only
FLOAT_TOLERANT = {"pr-scatter", "pr-mirror"}


def planted_skew(num_vertices: int, num_workers: int) -> np.ndarray:
    """Contiguous equal-vertex ranges: worker 0 gets the RMAT hubs."""
    return np.minimum(
        np.arange(num_vertices) * num_workers // num_vertices, num_workers - 1
    ).astype(np.int64)


def _run(name, workers, partition, **kw):
    graph, runner = WORKLOADS[name]
    return runner(graph, num_workers=workers, partition=partition.copy(), **kw)


def _assert_same_run(a, b):
    """Bit-identical data and traffic (same partition, another backend)."""
    np.testing.assert_array_equal(a[0], b[0])
    ra, rb = a[-1], b[-1]
    assert ra.data == rb.data
    ma, mb = ra.metrics, rb.metrics
    assert ma.channel_breakdown() == mb.channel_breakdown()
    assert ma.supersteps == mb.supersteps
    assert ma.total_rounds == mb.total_rounds
    assert ma.total_net_bytes == mb.total_net_bytes
    assert ma.total_local_bytes == mb.total_local_bytes
    assert ma.total_messages == mb.total_messages


def test_the_planted_skew_puts_the_hubs_on_worker_0():
    """The fixture is what it claims: worker 0 owns the most arcs, more
    than the degree-range partition gives any worker."""
    graph = _DIRECTED
    arcs = np.diff(graph.indptr)
    for workers in WORKERS:
        skew = np.bincount(planted_skew(graph.num_vertices, workers), arcs, workers)
        balanced = np.bincount(degree_range_partition(graph, workers), arcs, workers)
        assert skew.argmax() == 0
        assert skew.max() > balanced.max()


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_results_do_not_depend_on_the_partition(name, workers):
    """Planted skew, hash and degree-range partitions: the same data."""
    graph, _ = WORKLOADS[name]
    skew = _run(name, workers, planted_skew(graph.num_vertices, workers))
    for partition in (
        hash_partition(graph.num_vertices, workers),
        degree_range_partition(graph, workers),
    ):
        other = _run(name, workers, partition)
        if name in FLOAT_TOLERANT:
            np.testing.assert_allclose(skew[0], other[0], rtol=1e-9, atol=1e-12)
        else:
            np.testing.assert_array_equal(skew[0], other[0])
            assert skew[-1].data == other[-1].data
        assert skew[-1].supersteps == other[-1].supersteps


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_skewed_partition_runs_identically_on_every_backend(name, workers):
    """sim, process×shm and process×pipe on the planted skew: the same
    data and the same traffic, channel by channel."""
    graph, _ = WORKLOADS[name]
    skew = planted_skew(graph.num_vertices, workers)
    sim = _run(name, workers, skew)
    for m in MOVERS:
        with mover(m):
            proc = _run(name, workers, skew, executor="process")
        _assert_same_run(sim, proc)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("mode", ["scalar", "bulk"])
@pytest.mark.parametrize("variant", ["reqresp", "both"])
def test_sv_over_request_respond_runs_on_a_range_partition(variant, mode, workers):
    """``RequestRespond`` keeps its response cache from one superstep to
    the next, so S-V over it is never at a boundary where state could be
    handed to another owner; on a fixed range partition it runs to the
    components, with the hash partition's superstep count."""
    graph = _UNDIRECTED
    labels, result = run_sv(
        graph,
        variant=variant,
        mode=mode,
        num_workers=workers,
        partition=planted_skew(graph.num_vertices, workers),
    )
    np.testing.assert_array_equal(labels, nx_components(graph))
    hashed = run_sv(graph, variant=variant, mode=mode, num_workers=workers)
    assert result.supersteps == hashed[-1].supersteps


# ---------------------------------------------------------------------------
# checkpoint recovery on the skewed partition
# ---------------------------------------------------------------------------
#: workload -> failure superstep, off the checkpoint_every=2 grid
RECOVERY = {"pr-scatter": 3, "wcc": 3, "sssp": 3, "sv-both": 5}


@pytest.mark.parametrize("mode", ["rollback", "confined"])
@pytest.mark.parametrize("name", sorted(RECOVERY))
def test_recovery_on_a_skewed_partition_reproduces_the_clean_run(name, mode):
    """A worker lost at a superstep off the checkpoint grid, recovered by
    rollback or by a confined replay — whose replaying workers the
    process parent builds under the run's one ownership: the failure-free
    run's data and traffic on either backend, and the same recovery
    accounting on both."""
    workers = 2
    graph, _ = WORKLOADS[name]
    skew = planted_skew(graph.num_vertices, workers)
    clean = _run(name, workers, skew)
    fail_at = RECOVERY[name]
    assert clean[-1].supersteps >= fail_at, "the failure must fire"
    kw = dict(checkpoint_every=2, failures=[(0, fail_at)], recovery=mode)
    sim = _run(name, workers, skew, **kw)
    proc = _run(name, workers, skew, executor="process", **kw)
    _assert_same_run(clean, sim)
    _assert_same_run(clean, proc)
    sm, pm = sim[-1].metrics, proc[-1].metrics
    assert pm.num_failures == sm.num_failures == 1
    assert pm.checkpoint_bytes == sm.checkpoint_bytes
    assert pm.recovery_bytes == sm.recovery_bytes > 0


# ---------------------------------------------------------------------------
# a mutation stream on the skewed partition
# ---------------------------------------------------------------------------
_STREAM_GRAPH = rmat(8, edge_factor=8, seed=7, directed=True)
_STREAM_WEIGHTED = rmat(8, edge_factor=8, seed=7, directed=True, weighted=True)

STREAMS = {
    "pagerank": (_STREAM_GRAPH, lambda: PageRankStream(iterations=6)),
    "wcc": (_STREAM_GRAPH, lambda: WCCStream()),
    "sssp": (_STREAM_WEIGHTED, lambda: SSSPStream(source=0)),
}


def _epochs(graph, make, executor, partition=None):
    engine = EpochEngine(
        graph, make(), num_workers=4, partition=partition, executor=executor
    )
    batches = synthesize_stream(graph, 3, 64, 16, seed=7)
    try:
        engine.bootstrap()
        engine.run(batches)
    finally:
        engine.close()
    return engine


@pytest.mark.parametrize("executor", ["sim", "process"])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_a_stream_on_a_skewed_partition_keeps_its_ownership(name, executor):
    """Three epochs on the planted skew: every epoch's data is the hash
    partition's, and the skew stays the owner of every original vertex
    (the appended vertices get theirs from ``extend_partition``)."""
    graph, make = STREAMS[name]
    skew = planted_skew(graph.num_vertices, 4)
    skewed = _epochs(graph, make, executor, partition=skew.copy())
    hashed = _epochs(graph, make, executor)
    assert len(skewed.history) == len(hashed.history) == 4
    for a, b in zip(skewed.history, hashed.history):
        if name == "pagerank":
            assert a.result.data.keys() == b.result.data.keys()
            np.testing.assert_allclose(
                [a.result.data[k] for k in sorted(a.result.data)],
                [b.result.data[k] for k in sorted(b.result.data)],
                rtol=1e-9,
                atol=1e-12,
            )
        else:
            assert a.result.data == b.result.data
    np.testing.assert_array_equal(skewed.owner[: graph.num_vertices], skew)


# ---------------------------------------------------------------------------
# what only a migration reached is gone
# ---------------------------------------------------------------------------
def test_the_owner_segment_a_child_maps_is_read_only():
    """The parent shares the ownership once, and a child cannot write it."""
    owner = planted_skew(64, 4)
    export = SharedArrayExport()
    try:
        view, seg = attach_array(export.share(owner))
        try:
            np.testing.assert_array_equal(view, owner)
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 3
        finally:
            del view
            seg.close()
    finally:
        export.close()


def test_a_child_serves_four_lifecycle_commands_and_no_remap():
    assert LIFECYCLE == ("start_run", "capture", "restore", "finalize")
    engine = ChannelEngine(
        _DIRECTED,
        WCCBasicBulk,
        num_workers=2,
        executor="process",
    )
    engine.backend.begin_run()
    pool = engine.backend.pool
    try:
        pool.send(1, {"cmd": "remap"})
        with pytest.raises(WorkerProcessError, match="unknown command 'remap'"):
            pool.reply(1, "a retired command")
    finally:
        pool.shutdown()


def test_a_trace_has_no_rebalance_span():
    assert "rebalance" not in SPAN_KINDS
    with TraceRecorder(io.StringIO()) as rec:
        with pytest.raises(ValueError, match="unknown span kind 'rebalance'"):
            rec.instant("rebalance")


def test_a_run_counts_no_rebalance():
    """The summary of a run — failures and checkpoints included — holds
    no rebalance key, and the collector records none."""
    assert not hasattr(MetricsCollector, "record_rebalance")
    graph = _DIRECTED
    _, result = run_wcc(
        graph,
        variant="basic",
        mode="bulk",
        num_workers=2,
        partition=planted_skew(graph.num_vertices, 2),
        checkpoint_every=2,
        failures=[(1, 3)],
    )
    summary = result.metrics.summary()
    assert summary["failures"] == 1
    assert not [key for key in summary if "rebalanc" in key]
