"""Process-backend parity matrix and crash behaviour.

``executor="process"`` must be a pure execution-substrate change: for
every workload × worker count × partitioner × transport, a process
run's result data, per-channel traffic (net/local bytes and message
counts), and superstep/round/byte/message totals are asserted
**bit-identical** to the simulated run's.  Both frame transports —
shared-memory ring buffers (``"shm"``) and OS pipes (``"pipe"``) — must
meet the same bar; the pool picks one from the cores, and the
``transport`` fixture patches the cores it sees to run each.  A dying
worker process must surface as a clean :class:`WorkerProcessError`,
never a hang, on either transport, including a death while peers sit
blocked *inside* a ring write.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import MOVERS, mover
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import Channel, ChannelEngine, ScatterCombine, SUM_F64, VertexProgram
from repro.graph import rmat
from repro.graph.partition import hash_partition, range_partition
from repro.runtime.parallel import WorkerProcessError

WORKERS = [2, 8]
PARTITIONERS = ["hash", "range"]


@pytest.fixture(scope="module")
def directed_graph():
    return rmat(9, edge_factor=8, seed=31, directed=True)


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(9, edge_factor=4, seed=32, directed=False, weighted=True)


def _partition(name, n, workers):
    if name == "hash":
        return hash_partition(n, workers)
    return range_partition(n, workers)


def _assert_identical(sim_out, proc_out):
    (data_s, res_s), (data_p, res_p) = sim_out, proc_out
    np.testing.assert_array_equal(data_s, data_p)
    assert res_s.data == res_p.data
    ms, mp_ = res_s.metrics, res_p.metrics
    assert ms.channel_breakdown() == mp_.channel_breakdown()
    assert ms.supersteps == mp_.supersteps
    assert ms.total_rounds == mp_.total_rounds
    assert ms.total_net_bytes == mp_.total_net_bytes
    assert ms.total_local_bytes == mp_.total_local_bytes
    assert ms.total_messages == mp_.total_messages


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workers", WORKERS)
def test_pagerank_scatter_parity(directed_graph, workers, partitioner, transport):
    kw = dict(
        variant="scatter",
        iterations=8,
        mode="bulk",
        num_workers=workers,
        partition=_partition(partitioner, directed_graph.num_vertices, workers),
    )
    _assert_identical(
        run_pagerank(directed_graph, **kw),
        run_pagerank(directed_graph, executor="process", **kw),
    )


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workers", WORKERS)
def test_wcc_parity(directed_graph, workers, partitioner, transport):
    kw = dict(
        mode="bulk",
        num_workers=workers,
        partition=_partition(partitioner, directed_graph.num_vertices, workers),
    )
    _assert_identical(
        run_wcc(directed_graph, **kw),
        run_wcc(directed_graph, executor="process", **kw),
    )


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workers", WORKERS)
def test_sssp_parity(weighted_graph, workers, partitioner, transport):
    kw = dict(
        source=3,
        num_workers=workers,
        partition=_partition(partitioner, weighted_graph.num_vertices, workers),
    )
    _assert_identical(
        run_sssp(weighted_graph, **kw),
        run_sssp(weighted_graph, executor="process", **kw),
    )


def test_sv_both_parity(weighted_graph, transport):
    """The paper's flagship composition — RequestRespond, ScatterCombine,
    CombinedMessage and Aggregator in one program, two rounds a superstep."""
    kw = dict(variant="both", mode="bulk", num_workers=2)
    _assert_identical(
        run_sv(weighted_graph, **kw),
        run_sv(weighted_graph, executor="process", **kw),
    )


def test_single_worker_parity(directed_graph, transport):
    """One worker has no peers — zero rings, zero pipes — and still runs
    the one ``superstep`` protocol, on either transport."""
    pr = dict(variant="scatter", iterations=8, mode="bulk", num_workers=1)
    _assert_identical(
        run_pagerank(directed_graph, **pr),
        run_pagerank(directed_graph, executor="process", **pr),
    )
    wcc = dict(mode="bulk", num_workers=1)
    _assert_identical(
        run_wcc(directed_graph, **wcc),
        run_wcc(directed_graph, executor="process", **wcc),
    )


@pytest.mark.parametrize(
    "workers, cores, expected",
    [(2, 4, "shm"), (2, 2, "shm"), (4, 2, "pipe"), (8, 2, "pipe"), (2, 1, "pipe"), (1, 1, "shm")],
    ids=["fewer-than-cores", "as-many-as-cores", "more-than-cores", "8-on-2", "2-on-1", "one"],
)
def test_the_frame_mover_is_a_rule_on_the_cores(monkeypatch, workers, cores, expected):
    """Rings while every worker has a core, pipes once workers outnumber
    cores; each pool applies the rule once, when it is built."""
    from repro.runtime.parallel import WorkerPool, pool as pool_module

    monkeypatch.setattr(pool_module, "usable_cores", lambda: cores)
    assert pool_module.frame_mover(workers) == expected
    pool = WorkerPool(workers)  # spawns nothing until a configuration is loaded
    assert pool.transport == expected
    monkeypatch.setattr(pool_module, "usable_cores", lambda: 0)
    assert pool.transport == expected
    with pytest.raises(AttributeError):
        pool.transport = "shm"


def test_usable_cores_reads_the_affinity_set(monkeypatch):
    from repro.runtime.parallel.pool import usable_cores

    if hasattr(os, "sched_getaffinity"):
        assert usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3


class TestOtherChannels:
    """Channels outside the main matrix also survive the process hop."""

    def test_reqresp_pointer_jumping_parity(self, directed_graph):
        from repro.graph import random_tree

        g = random_tree(400, seed=7)
        kw = dict(variant="reqresp", num_workers=4)
        _assert_identical(
            run_pointer_jumping(g, **kw),
            run_pointer_jumping(g, executor="process", **kw),
        )

    def test_propagation_wcc_parity(self, directed_graph):
        kw = dict(variant="prop", num_workers=4)
        _assert_identical(
            run_wcc(directed_graph, **kw),
            run_wcc(directed_graph, executor="process", **kw),
        )

    def test_mirrored_pagerank_parity(self, directed_graph):
        kw = dict(variant="mirror", iterations=6, num_workers=4)
        _assert_identical(
            run_pagerank(directed_graph, **kw),
            run_pagerank(directed_graph, executor="process", **kw),
        )


    @pytest.mark.parametrize("program", ["reqresp", "prop"])
    def test_multi_round_programs_agree_round_for_round(
        self, directed_graph, tmp_path, program
    ):
        # RequestRespond (ask, answer) and Propagation (rounds to a
        # fixpoint) keep a superstep's exchange going past round one; the
        # lock-step driver and both autonomous ones must take the same
        # rounds per superstep and move the same bytes in each
        from repro.graph import random_tree
        from repro.obs import TraceRecorder, load_trace

        def run(name, **kw):
            path = tmp_path / f"{name}.jsonl"
            with TraceRecorder(path) as rec:
                kw.update(num_workers=4, trace=rec)
                if program == "reqresp":
                    tree = random_tree(400, seed=7)
                    _, res = run_pointer_jumping(tree, variant="reqresp", **kw)
                else:
                    _, res = run_wcc(directed_graph, variant="prop", **kw)
            per_round = [
                (e["attrs"]["round"], e["attrs"]["net_bytes"], e["attrs"]["local_bytes"])
                for e in load_trace(path)
                if e["span"] == "round"
            ]
            return [rec.rounds for rec in res.metrics.records], per_round

        rounds, per_round = sim = run("sim")
        assert max(rounds) > 1 and len(per_round) == sum(rounds)
        for name in MOVERS:
            with mover(name):
                assert run(name, executor="process") == sim


class TestEngineIntegration:
    def test_initial_active_seeding(self, directed_graph):
        seeds = np.array([3, 17, 90], dtype=np.int64)
        kw = dict(mode="bulk", num_workers=4, initial_active=seeds)
        _assert_identical(
            run_wcc(directed_graph, **kw),
            run_wcc(directed_graph, executor="process", **kw),
        )

    def test_process_epochs_collect_from_captured_states(self, directed_graph):
        # StreamAlgorithm.collect reads warm state beyond result.data off a
        # capture: on the process executor that state lives only in the
        # children, and the parent holds no workers to read it from
        from repro.runtime.checkpoint import decode_state
        from repro.streaming import EpochEngine, PageRankStream

        seen = []

        class Recording(PageRankStream):
            def collect(self, engine, result):
                merged, halted = {}, True
                for w, blob in enumerate(engine.backend.capture_state_blobs()):
                    state = decode_state(blob)
                    final = state["program"]["new_hist"][self.iterations + 1]
                    local_ids = np.flatnonzero(engine.owner == w)
                    merged.update(zip(local_ids.tolist(), final.tolist()))
                    halted = halted and state["flags"]["halted"].all()
                seen.append((merged == result.data, halted, engine.workers))
                return super().collect(engine, result)

        stream = EpochEngine(
            directed_graph, Recording(iterations=5), num_workers=4, executor="process"
        )
        try:
            stream.bootstrap()
        finally:
            stream.close()
        assert seen == [(True, True, [])]

    def test_parent_builds_a_worker_only_when_it_needs_one(self, directed_graph):
        # per-vertex state lives in the children: the parent runs the
        # program factory only for the doomed workers of a confined
        # replay, and for one channel set per migration (plus the armed
        # rebalancer's check at build) — never for a clean run or a rollback
        from repro.algorithms.wcc import WCCBasicBulk
        from repro.runtime.rebalance import RebalancePolicy

        skew = range_partition(directed_graph.num_vertices, 3)
        cases = [
            ({}, 0),
            (dict(checkpoint_every=2, failures=["1:3"]), 0),
            (dict(checkpoint_every=2, failures=["0:3", "2:3"], recovery="confined"), 2),
            (
                dict(
                    partition=skew,
                    rebalance="superstep",
                    rebalance_every=2,
                    rebalance_policy=RebalancePolicy(
                        num_workers=3, min_supersteps=2, skew_threshold=0.0
                    ),
                ),
                None,  # one at build, one per migration
            ),
        ]
        clean = None
        for kw, expected in cases:
            factory = _CountingFactory(WCCBasicBulk)
            engine = ChannelEngine(
                directed_graph, factory, num_workers=3, executor="process", **kw
            )
            try:
                assert engine.workers == []
                result = engine.run()
            finally:
                engine.close()
            if clean is None:
                clean = result.data
            assert result.data == clean
            if expected is None:
                assert result.metrics.num_rebalances > 0
                expected = 1 + result.metrics.num_rebalances
            else:
                assert result.metrics.num_failures == len(kw.get("failures", []))
            assert factory.calls == expected, kw

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_transport_is_the_one_that_ran(
        self, directed_graph, workers, transport, tmp_path
    ):
        # what the engine reports (the trace's run span, and through it
        # `repro run --json` / `repro report --json`) is the pool's mover
        from repro.algorithms.wcc import WCCBasicBulk
        from repro.obs import TraceRecorder, load_trace

        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as rec:
            engine = ChannelEngine(
                directed_graph,
                WCCBasicBulk,
                num_workers=workers,
                executor="process",
                trace=rec,
            )
            try:
                engine.run()
                assert engine.backend.pool.transport == transport
            finally:
                engine.close()
        [run] = [e for e in load_trace(path) if e["span"] == "run" and e["ev"] == "B"]
        assert run["attrs"]["transport"] == transport

    def test_second_run_is_noop_like_sim(self, directed_graph):
        # the persistent pool keeps worker state alive between runs, so a
        # second run() matches the simulator's semantics exactly: every
        # vertex is halted, zero supersteps execute, results repeat —
        # and no new worker processes are spawned
        from repro.algorithms.wcc import WCCBasicBulk

        sim = ChannelEngine(directed_graph, WCCBasicBulk, num_workers=2)
        sim_first = sim.run()
        sim_second = sim.run()

        engine = ChannelEngine(
            directed_graph, WCCBasicBulk, num_workers=2, executor="process"
        )
        first = engine.run()
        spawned = engine.backend.pool.spawn_count
        second = engine.run()
        assert engine.backend.pool.spawn_count == spawned == 2
        assert first.data == sim_first.data
        assert second.data == sim_second.data
        assert (
            second.metrics.supersteps
            == first.metrics.supersteps
            == sim_second.metrics.supersteps
        )

    def test_process_checkpointing_counts_like_sim(self, directed_graph):
        # fault tolerance is no longer sim-only: a checkpoint-only process
        # run captures worker-side snapshots whose sizes match the sim's
        from repro.algorithms.wcc import WCCBasicBulk

        sim = ChannelEngine(
            directed_graph, WCCBasicBulk, num_workers=2, checkpoint_every=2
        ).run()
        proc = ChannelEngine(
            directed_graph,
            WCCBasicBulk,
            num_workers=2,
            checkpoint_every=2,
            executor="process",
        ).run()
        assert proc.data == sim.data
        assert proc.metrics.num_checkpoints == sim.metrics.num_checkpoints
        assert proc.metrics.checkpoint_bytes == sim.metrics.checkpoint_bytes

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, **kw: run_pagerank(g, variant="scatter", mode="bulk", iterations=5, **kw),
            lambda g, **kw: run_sv(g, variant="both", mode="bulk", **kw),
        ],
        ids=["pr-scatter", "sv-both"],
    )
    def test_adjacency_checkpoints_count_like_sim(self, directed_graph, run, transport):
        # the bulk scatter programs snapshot a named adjacency, not edge
        # columns: the same few bytes on every backend and byte mover
        kw = dict(num_workers=2, checkpoint_every=2)
        _, sim = run(directed_graph, **kw)
        _, proc = run(directed_graph, executor="process", **kw)
        assert proc.data == sim.data
        assert proc.metrics.num_checkpoints == sim.metrics.num_checkpoints > 1
        assert proc.metrics.checkpoint_bytes == sim.metrics.checkpoint_bytes
        # two int64 columns alone would be 16 bytes an edge, per checkpoint
        per_checkpoint = sim.metrics.checkpoint_bytes / sim.metrics.num_checkpoints
        assert per_checkpoint < 16 * directed_graph.num_edges

    def test_max_supersteps_guard(self):
        from helpers import line_graph

        class Forever(VertexProgram):
            def compute(self, v):
                pass  # never halts

        engine = ChannelEngine(
            line_graph(6), Forever, num_workers=2, executor="process"
        )
        with pytest.raises(RuntimeError, match="max_supersteps"):
            engine.run(max_supersteps=3)


class _CountingFactory:
    """A program factory that counts the calls made in the process that
    created it.  Worker processes call their own copy of it — inherited
    under fork, unpickled under spawn — so their calls never count."""

    def __init__(self, program_cls):
        self.program_cls = program_cls
        self.pid = os.getpid()
        self.calls = 0

    def __call__(self, worker):
        if os.getpid() == self.pid:
            self.calls += 1
        return self.program_cls(worker)


class _DieAtSuperstep2(VertexProgram):
    """Worker 1's process exits hard at superstep 2 — an OOM-kill/segfault
    stand-in.  Everyone keeps one ScatterCombine busy so the death happens
    mid-protocol, with peers blocked on its frames."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)

    def compute(self, v):
        if self.step_num == 1 and v.out_degree > 0:
            self.msg.add_edges(v, v.edges)
        if self.step_num == 2 and self.worker.worker_id == 1:
            os._exit(3)
        if self.step_num >= 4:
            v.vote_to_halt()
        self.msg.set_message(v, 1.0)


class _RaiseAtSuperstep2(VertexProgram):
    def compute(self, v):
        if self.step_num == 2 and self.worker.worker_id == 1:
            raise ValueError("deliberate child failure")
        if self.step_num >= 4:
            v.vote_to_halt()


class _BombChannel(Channel):
    """Keeps every peer waiting on this worker's frames, then detonates on
    worker 1 during superstep 2's exchange round — while peers are blocked
    mid-exchange, the worst place for a death to go unnoticed."""

    hard = False  # os._exit (crash) vs raise (error with traceback)
    frame_bytes = 64

    def serialize(self):
        if self.worker.step_num == 2 and self.worker.worker_id == 1:
            if self.hard:
                os._exit(7)
            raise ValueError("boom in serialize")
        for peer in range(self.num_workers):
            if peer != self.worker.worker_id:
                self.emit(peer, b"x" * self.frame_bytes)

    def deserialize(self, payloads):
        self.round += 1

    def snapshot(self):
        return {}

    def restore(self, state):
        pass


class _HardBombChannel(_BombChannel):
    hard = True


class _DieInExchange(VertexProgram):
    channel_cls = _BombChannel

    def __init__(self, worker):
        super().__init__(worker)
        self.chan = self.channel_cls(worker)

    def compute(self, v):
        if self.step_num >= 4:
            v.vote_to_halt()


class _CrashInExchange(_DieInExchange):
    channel_cls = _HardBombChannel


class _RingFloodBombChannel(_HardBombChannel):
    """Big enough frames that with a deliberately tiny ring every survivor
    is blocked *inside* ``RingBuffer.write_all`` (full outbound ring, dead
    consumer) at the moment worker 1 exits."""

    frame_bytes = 64 * 1024


class _CrashInRingWrite(_DieInExchange):
    channel_cls = _RingFloodBombChannel


class TestCrashHandling:
    def test_worker_process_death_surfaces_cleanly(self, directed_graph, transport):
        engine = ChannelEngine(
            directed_graph,
            _DieAtSuperstep2,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(WorkerProcessError, match=r"worker process 1 died"):
            engine.run()

    def test_child_exception_carries_traceback(self, directed_graph, transport):
        engine = ChannelEngine(
            directed_graph,
            _RaiseAtSuperstep2,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(WorkerProcessError, match="deliberate child failure"):
            engine.run()

    def test_hard_death_mid_exchange_round_no_hang(self, directed_graph, transport):
        # worker 1 exits inside channel.serialize while its peers block on
        # its frames; supervision must notice the dead process and abort
        # instead of waiting on a reply that can never come
        engine = ChannelEngine(
            directed_graph,
            _CrashInExchange,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(
            WorkerProcessError, match=r"worker process 1 died \(exit code 7\)"
        ):
            engine.run()

    def test_exception_mid_exchange_round_keeps_traceback(
        self, directed_graph, transport
    ):
        # the dying worker ships its traceback and exits before the parent
        # gets around to reading it; the supervisor must scavenge the
        # buffered error so the cause isn't flattened to "died (exit 0)"
        engine = ChannelEngine(
            directed_graph,
            _DieInExchange,
            num_workers=4,
            executor="process",
        )
        with pytest.raises(WorkerProcessError, match="boom in serialize"):
            engine.run()

    def test_hard_death_with_peers_blocked_in_ring_write(self, directed_graph):
        # the shm-specific worst case: each survivor's 64 KiB frames are
        # 64x the 1 KiB rings, so when worker 1 exits its peers are parked
        # inside RingBuffer.write_all with full outbound rings and a
        # consumer that will never drain them.  Workers carry no liveness
        # checks — the parent must notice the death on the control pipes,
        # raise, and terminate the blocked children at shutdown.
        from repro.runtime.parallel import WorkerPool, pool as pool_module

        with mover("shm"), pytest.MonkeyPatch.context() as patch:
            # rings are sized when the pool spawns, at the first run
            patch.setattr(pool_module, "DEFAULT_RING_CAPACITY", 1024)
            pool = WorkerPool(4)
            assert pool.transport == "shm"
            engine = ChannelEngine(
                directed_graph,
                _CrashInRingWrite,
                num_workers=4,
                executor="process",
                pool=pool,
            )
            try:
                with pytest.raises(
                    WorkerProcessError, match=r"worker process 1 died \(exit code 7\)"
                ):
                    engine.run()
                assert pool.broken
            finally:
                pool.shutdown()
        assert all(not p.is_alive() for p in pool._state.procs)

    def test_unknown_command_names_itself(self, directed_graph):
        # a control message the child has no handler for is a protocol
        # bug; it must come back as an error naming the command, not hang
        engine = ChannelEngine(
            directed_graph, _RaiseAtSuperstep2, num_workers=2, executor="process"
        )
        engine.backend.begin_run()
        pool = engine.backend.pool
        try:
            pool.send(1, {"cmd": "exchange"})
            with pytest.raises(WorkerProcessError, match="unknown command 'exchange'"):
                pool.reply(1, "a retired command")
        finally:
            pool.shutdown()

    def test_crash_poisons_the_pool(self, directed_graph):
        engine = ChannelEngine(
            directed_graph, _CrashInExchange, num_workers=4, executor="process"
        )
        with pytest.raises(WorkerProcessError):
            engine.run()
        pool = engine.backend.pool
        assert pool.broken and pool.closed
        assert all(not p.is_alive() for p in pool._state.procs)
        with pytest.raises(WorkerProcessError, match="shut down"):
            engine.run()
