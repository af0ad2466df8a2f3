"""Cross-backend acceptance matrix for the ExecutorBackend seam.

Every feature must compose with every backend, bit-identically: for
{PageRank-scatter, WCC, SSSP} × {sim, process} × {2, 8} workers this
file asserts identical result data, per-channel traffic, and byte /
message totals for

(a) checkpoint + rollback recovery,
(b) checkpoint + confined recovery, and
(c) 3-epoch streaming through the :class:`EpochEngine`

— plus the persistent-pool lifecycle guarantees: worker processes spawn
exactly once per pool lifetime, pools are reconfigured (never respawned)
across engines and epochs, and shutdown is explicit, idempotent, and
leak-free.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import ChannelEngine
from repro.graph import rmat
from repro.runtime.parallel import WorkerPool, WorkerProcessError
from repro.streaming import (
    EpochEngine,
    PageRankStream,
    SSSPStream,
    WCCStream,
    synthesize_stream,
)

WORKERS = [2, 8]

_DIRECTED = rmat(7, edge_factor=4, seed=5, directed=True)
_WEIGHTED = rmat(7, edge_factor=4, seed=6, directed=True, weighted=True)
_UNDIRECTED = rmat(7, edge_factor=3, seed=6, directed=False)

#: the acceptance workloads; failure supersteps sit off the
#: checkpoint_every=2 grid so recovery always replays work
WORKLOADS = {
    "pr-scatter": (
        lambda **kw: run_pagerank(
            _DIRECTED, variant="scatter", iterations=6, mode="bulk", **kw
        ),
        3,
    ),
    "wcc": (lambda **kw: run_wcc(_DIRECTED, variant="basic", mode="bulk", **kw), 3),
    "sssp": (lambda **kw: run_sssp(_WEIGHTED, variant="basic", mode="bulk", **kw), 2),
    # bulk S-V: ScatterCombine (edges named by adjacency, like pr-scatter's)
    # composed with RequestRespond, two exchange rounds a superstep
    "sv-both": (lambda **kw: run_sv(_UNDIRECTED, variant="both", **kw), 5),
}


def _assert_identical(a, b):
    data_a, res_a = a[0], a[-1]
    data_b, res_b = b[0], b[-1]
    np.testing.assert_array_equal(data_a, data_b)
    assert res_a.data == res_b.data
    ma, mb = res_a.metrics, res_b.metrics
    assert ma.channel_breakdown() == mb.channel_breakdown()
    assert ma.supersteps == mb.supersteps
    assert ma.total_rounds == mb.total_rounds
    assert ma.total_net_bytes == mb.total_net_bytes
    assert ma.total_local_bytes == mb.total_local_bytes
    assert ma.total_messages == mb.total_messages


_baselines = {}


def _baseline(name, workers):
    key = (name, workers)
    if key not in _baselines:
        runner, _ = WORKLOADS[name]
        _baselines[key] = runner(num_workers=workers)
    return _baselines[key]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("mode", ["rollback", "confined"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_process_recovery_parity(name, mode, workers):
    """An injected worker-process death + recovery on the process backend
    reproduces both the failure-free baseline and the sim backend's
    fault-tolerance accounting, bit for bit."""
    _check_recovery_parity(name, mode, workers)


def test_confined_recovery_parity_on_pipes():
    """The matrix above runs the default transport.  The sender-side frame
    log has one source on either one — the transport's ``round_frames``
    — so one confined cell pins the pipe mover's logged frames too."""
    _check_recovery_parity("wcc", "confined", 2, transport="pipe")


@pytest.mark.parametrize("transport", ["shm", "pipe"])
@pytest.mark.parametrize("mode", ["rollback", "confined"])
@pytest.mark.parametrize("name", ["pr-scatter", "sv-both"])
def test_recovery_from_a_snapshot_that_names_an_adjacency(name, mode, transport):
    """Worker 1's process dies at superstep 2, before the first periodic
    checkpoint: its replacement (every worker, on rollback) is restored
    from the superstep-0 snapshot, whose scatter channel is one direction
    string no worker had built from yet — on either byte mover, with
    checkpoint and recovery bytes equal to the simulator's."""
    _check_recovery_parity(
        name, mode, 2, fail_at=2, checkpoint_every=3, transport=transport
    )


def _check_recovery_parity(
    name, mode, workers, fail_at=None, checkpoint_every=2, **process_kw
):
    runner, default_fail_at = WORKLOADS[name]
    fail_at = fail_at or default_fail_at
    base = _baseline(name, workers)
    assert base[-1].supersteps >= fail_at, "failure must actually fire"
    kw = dict(
        num_workers=workers,
        checkpoint_every=checkpoint_every,
        failures=[(1, fail_at)],
        recovery=mode,
    )
    sim = runner(**kw)
    proc = runner(executor="process", **process_kw, **kw)

    _assert_identical(base, proc)
    _assert_identical(sim, proc)
    sm, pm = sim[-1].metrics, proc[-1].metrics
    assert pm.num_failures == sm.num_failures == 1
    assert pm.num_checkpoints == sm.num_checkpoints
    assert pm.checkpoint_bytes == sm.checkpoint_bytes
    assert pm.log_bytes == sm.log_bytes
    assert pm.recovery_bytes == sm.recovery_bytes
    assert pm.recovery_bytes > 0 and pm.recovery_time > 0


def test_process_simultaneous_failures():
    base = _baseline("wcc", 8)
    for mode in ("rollback", "confined"):
        out = run_wcc(
            _DIRECTED,
            variant="basic",
            mode="bulk",
            num_workers=8,
            checkpoint_every=2,
            failures=[(2, 3), (5, 3)],
            recovery=mode,
            executor="process",
        )
        assert out[-1].metrics.num_failures == 2
        _assert_identical(base, out)


# ---------------------------------------------------------------------------
# streaming epochs over the process backend
# ---------------------------------------------------------------------------
_STREAM_GRAPH = rmat(8, edge_factor=4, seed=9, directed=True)
_STREAM_WEIGHTED = rmat(8, edge_factor=4, seed=9, directed=True, weighted=True)

STREAM_CASES = {
    "pagerank": (_STREAM_GRAPH, lambda: PageRankStream(iterations=6)),
    "wcc": (_STREAM_GRAPH, lambda: WCCStream()),
    "sssp": (_STREAM_WEIGHTED, lambda: SSSPStream(source=0)),
}

_TIME_KEYS = ("wall_time", "simulated_time")


def _stable_summary(summary: dict) -> dict:
    # timings (wall clocks and the measured phase_* seconds) differ
    # between backends; everything else must be bit-identical
    return {
        k: v
        for k, v in summary.items()
        if k not in _TIME_KEYS and not k.startswith("phase_")
    }


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_streaming_process_identity_3_epochs(name, workers):
    """3 mutation epochs through EpochEngine(executor="process"): every
    epoch's data and counters are bit-identical to the sim executor, and
    the pool spawns its worker processes exactly once."""
    graph, make = STREAM_CASES[name]
    batches = synthesize_stream(
        graph, num_epochs=3, insertions_per_epoch=40, deletions_per_epoch=25, seed=11
    )

    sim = EpochEngine(graph, make(), num_workers=workers)
    sim_epochs = [sim.bootstrap()] + sim.run(batches)

    proc = EpochEngine(graph, make(), num_workers=workers, executor="process")
    try:
        proc_epochs = [proc.bootstrap()] + proc.run(batches)

        # spawned exactly once per pool lifetime, across all 4 engine runs
        assert proc.pool.spawn_count == workers
        assert len(proc_epochs) == len(sim_epochs) == 4
        for s, p in zip(sim_epochs, proc_epochs):
            assert p.data == s.data
            assert p.refresh == s.refresh
            assert p.seeds == s.seeds and p.affected == s.affected
            sm, pm = s.result.metrics, p.result.metrics
            assert pm.channel_breakdown() == sm.channel_breakdown()
            assert pm.total_net_bytes == sm.total_net_bytes
            assert pm.total_local_bytes == sm.total_local_bytes
            assert pm.total_messages == sm.total_messages
            assert _stable_summary(p.summary()) == _stable_summary(s.summary())
    finally:
        proc.close()


@pytest.mark.parametrize("executor", ["sim", "process"])
def test_epoch_summary_counters_match_collector(executor):
    """EpochResult.summary() is a faithful projection of the epoch's
    MetricsCollector, on both executors."""
    graph, make = STREAM_CASES["wcc"]
    batches = synthesize_stream(
        graph, num_epochs=2, insertions_per_epoch=30, deletions_per_epoch=10, seed=4
    )
    engine = EpochEngine(graph, make(), num_workers=2, executor=executor)
    try:
        epochs = [engine.bootstrap()] + engine.run(batches)
        for ep in epochs:
            m = ep.result.metrics
            s = ep.summary()
            assert s["supersteps"] == m.supersteps
            assert s["rounds"] == m.total_rounds
            assert s["net_bytes"] == m.total_net_bytes
            assert s["local_bytes"] == m.total_local_bytes
            assert s["messages"] == m.total_messages
            assert s["epoch"] == ep.epoch == m.epoch
            assert s["refresh"] == ep.refresh == m.refresh_mode
            assert s["affected_vertices"] == ep.affected == m.affected_vertices
            assert s["batch_size"] == ep.batch_size
            assert s["seeds"] == ep.seeds
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# pool lifecycle
# ---------------------------------------------------------------------------
class TestPoolLifecycle:
    def test_run_mutate_run_reconfigures_one_pool(self):
        """Two different engines (new graph, new partition) run back to
        back on one explicitly shared pool: the second run reconfigures
        the live workers instead of respawning, and both runs match sim."""
        from repro.algorithms.wcc import WCCBasicBulk

        g1 = rmat(7, edge_factor=4, seed=21, directed=True)
        g2 = rmat(7, edge_factor=5, seed=22, directed=True)
        pool = WorkerPool(2)
        try:
            for g in (g1, g2):
                sim = ChannelEngine(g, WCCBasicBulk, num_workers=2).run()
                proc = ChannelEngine(
                    g, WCCBasicBulk, num_workers=2, executor="process", pool=pool
                ).run()
                assert proc.data == sim.data
                assert (
                    proc.metrics.total_net_bytes == sim.metrics.total_net_bytes
                )
            assert pool.spawn_count == 2
        finally:
            pool.shutdown()

    def test_evicted_engine_cannot_silently_rerun(self):
        """Interleaving engines on one pool: once engine B's configuration
        replaces A's, A's worker state is gone — re-running A must refuse
        loudly instead of silently re-executing from scratch (which would
        break the second-run-is-a-no-op sim parity)."""
        from repro.algorithms.wcc import WCCBasicBulk

        g = rmat(6, edge_factor=4, seed=26, directed=True)
        pool = WorkerPool(2)
        try:
            a = ChannelEngine(g, WCCBasicBulk, num_workers=2, executor="process", pool=pool)
            b = ChannelEngine(g, WCCBasicBulk, num_workers=2, executor="process", pool=pool)
            a.run()
            b.run()
            with pytest.raises(WorkerProcessError, match="replaced on the pool"):
                a.run()
        finally:
            pool.broken = False
            pool.shutdown()

    def test_engine_close_releases_owned_pool_promptly(self):
        """ChannelEngine.close() shuts the engine-owned pool down without
        waiting for cyclic GC (the engine<->backend cycle defers
        refcount-based cleanup) — and leaves external pools alone."""
        from repro.algorithms.wcc import WCCBasicBulk

        g = rmat(6, edge_factor=4, seed=27, directed=True)
        engine = ChannelEngine(g, WCCBasicBulk, num_workers=2, executor="process")
        engine.run()
        procs = list(engine.backend.pool._state.procs)
        engine.close()
        engine.close()  # idempotent
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(WorkerProcessError, match="shut down"):
            engine.run()

        shared = WorkerPool(2)
        try:
            other = ChannelEngine(
                g, WCCBasicBulk, num_workers=2, executor="process", pool=shared
            )
            other.run()
            other.close()  # external pool: caller owns it
            assert not shared.closed
            assert all(p.is_alive() for p in shared._state.procs)
        finally:
            shared.shutdown()

    def test_unpicklable_factory_rejected_on_reconfigure_only(self):
        """First-run factories may be locals (they ride the fork); loading
        a *second* configuration must cross a pipe, so an unpicklable
        factory is rejected with a pointer at ProgramSpec."""
        from repro.algorithms.wcc import WCCBasicBulk

        class LocalWCC(WCCBasicBulk):  # not importable => not picklable
            pass

        g = rmat(6, edge_factor=4, seed=23, directed=True)
        pool = WorkerPool(2)
        try:
            first = ChannelEngine(
                g, LocalWCC, num_workers=2, executor="process", pool=pool
            ).run()
            assert first.data
            with pytest.raises(WorkerProcessError, match="ProgramSpec"):
                ChannelEngine(
                    g, LocalWCC, num_workers=2, executor="process", pool=pool
                ).run()
        finally:
            pool.broken = False  # the failed run poisoned it; still shut down
            pool.shutdown()

    def test_shutdown_is_idempotent_and_leak_free(self):
        from repro.algorithms.wcc import WCCBasicBulk

        g = rmat(6, edge_factor=4, seed=24, directed=True)
        engine = ChannelEngine(g, WCCBasicBulk, num_workers=2, executor="process")
        engine.run()
        pool = engine.backend.pool
        procs = list(pool._state.procs)
        segment_names = [seg.name for seg in pool._state.export._segments]

        pool.shutdown()
        pool.shutdown()  # idempotent
        assert pool.closed
        assert all(not p.is_alive() for p in procs)
        for name in segment_names:
            # unlinked: the OS no longer knows the segment
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(WorkerProcessError, match="shut down"):
            engine.run()

    def test_garbage_collected_pool_cleans_up(self):
        """Dropping every reference (the atexit/GC path) releases the
        processes and shared memory without an explicit shutdown."""
        import gc

        from repro.algorithms.wcc import WCCBasicBulk

        g = rmat(6, edge_factor=4, seed=25, directed=True)
        engine = ChannelEngine(g, WCCBasicBulk, num_workers=2, executor="process")
        engine.run()
        pool = engine.backend.pool
        procs = list(pool._state.procs)
        segment_names = [seg.name for seg in pool._state.export._segments]
        del engine, pool
        gc.collect()
        for p in procs:
            p.join(timeout=10)
        assert all(not p.is_alive() for p in procs)
        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
