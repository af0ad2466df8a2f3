"""The channel engine: the superstep loop of Fig. 4.

The engine partitions the graph and hands the run to a pluggable
:class:`~repro.runtime.executor.ExecutorBackend` that alternates vertex
compute with channel exchange rounds until every vertex has voted to halt
and no channel requests another round.

Two backends exist (see ARCHITECTURE.md §8): ``"sim"`` runs every worker
sequentially in-process with modeled parallelism — the engine builds one
:class:`~repro.core.worker.Worker` per partition block, each running the
user's :class:`~repro.core.program.VertexProgram` — and ``"process"`` runs
each worker as a real OS process from a persistent
:class:`~repro.runtime.parallel.pool.WorkerPool`, holding no per-vertex
state in the parent at all.  Every feature —
checkpointing, failure injection, both recovery modes, bulk compute,
streaming epochs — composes with every backend, with bit-identical
result data, per-channel traffic, and byte/message totals.

Both compute time (max over workers, i.e. parallel makespan) and modeled
network time are accumulated into the run's
:class:`~repro.runtime.metrics.MetricsCollector`.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import RunConfig
from repro.core.recovery import FrameLog
from repro.core.worker import OwnerTable, Worker
from repro.graph.graph import Graph
from repro.graph.partition import hash_partition
from repro.runtime.metrics import MetricsCollector
from repro.util import check_partition

__all__ = ["ChannelEngine", "EngineResult"]

#: engine configuration generations, for worker-pool reuse: a pool knows
#: which engine's configuration its worker processes currently hold and
#: reconfigures only when a *different* engine runs on it
_GENERATIONS = itertools.count(1)


@dataclass
class EngineResult:
    """Outcome of one engine run.

    The pass-through properties mirror the most-used
    :class:`~repro.runtime.metrics.MetricsCollector` totals so callers
    (benchmarks, examples) don't reach into ``result.metrics`` internals.

    When ``metrics`` is ``None`` (collection disabled) every pass-through
    property returns ``None`` — a run with no collector did not observe
    "0 bytes"/"0.0 seconds", it observed nothing, and the old zero
    fallbacks made byte-identity comparisons between such runs pass
    vacuously.  Callers comparing totals must read them through
    ``result.metrics`` or handle ``None`` explicitly.
    """

    #: the merged ``finalize`` outputs: a ``dict``, or — when every worker
    #: returned ``vertex_results`` — a :class:`VertexResults`, which reads
    #: as that dict and keeps the arrays for callers that want them
    data: Mapping = field(default_factory=dict)
    metrics: MetricsCollector | None = None
    #: alerts the live monitor raised during the run (``None`` when the
    #: engine had no ``live=`` telemetry segment; see ARCHITECTURE.md §11)
    live_alerts: list | None = None

    @property
    def supersteps(self) -> int | None:
        return self.metrics.supersteps if self.metrics is not None else None

    @property
    def total_net_bytes(self) -> int | None:
        """Serialized bytes that crossed worker boundaries (``None`` when
        metrics collection was disabled — not the same as 0, which means
        a measured run with no traffic)."""
        return self.metrics.total_net_bytes if self.metrics is not None else None

    @property
    def total_messages(self) -> int | None:
        """Network messages counted by all channels (``None`` when
        metrics collection was disabled)."""
        return self.metrics.total_messages if self.metrics is not None else None

    @property
    def simulated_time(self) -> float | None:
        """Modeled parallel runtime (max compute + network per superstep);
        ``None`` when metrics collection was disabled."""
        return self.metrics.simulated_time if self.metrics is not None else None


class ChannelEngine(OwnerTable):
    """Runs a channel-based vertex program over a partitioned graph.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.graph.Graph`.
    program_factory:
        Callable ``(worker) -> VertexProgram``; typically the program class
        itself.  On ``executor="process"`` the worker processes call it;
        this process calls it only when it needs a worker of its own
        (confined recovery).
    partition:
        Optional vertex->worker array; defaults to hash partitioning, the
        Pregel default ("vertices are randomly assigned to workers").
        Ownership is fixed for the run: no vertex changes worker.
    initial_active:
        Global vertex ids active in superstep 1 (``None`` = all vertices,
        the Pregel default).  The streaming layer seeds refresh runs from
        the delta-affected region this way; programs may wake more
        vertices via ``before_superstep`` / message arrival as usual.
    pool:
        Process executor only: an existing
        :class:`~repro.runtime.parallel.pool.WorkerPool` (with this run's
        worker count) to run on instead of an engine-owned
        one.  The pool's persistent worker processes are *reconfigured*
        for this engine (``configure`` control messages), never respawned —
        this is how the streaming
        :class:`~repro.streaming.epoch.EpochEngine` amortizes process
        startup across epochs.  The caller keeps ownership: the engine
        never shuts an externally provided pool down.
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder`: the run emits
        structured span events (run, superstep, per-worker phase,
        exchange round, checkpoint, failure, recovery) through the
        metrics collector.  Both executors produce schema-identical
        traces; see ARCHITECTURE.md §10 and ``repro report``.  The
        caller owns the recorder (the engine never closes it).
    live:
        Optional :class:`~repro.obs.live.LiveMetrics` segment (with
        ``num_workers`` slots): the run publishes per-worker counters
        after every superstep so external observers (``repro top``, the
        ``--metrics-port`` exporter) can watch it in flight, and an
        online :class:`~repro.obs.live.LiveMonitor` flags stragglers /
        anomalies as "alert" trace instants and
        ``EngineResult.live_alerts``.  Both executors publish the same
        slot schema; see ARCHITECTURE.md §11.  The caller owns the
        segment (the engine never closes or unlinks it).
    **options:
        The run's value options, validated into :attr:`config`: the
        fields of :class:`~repro.core.config.RunConfig`, see its field
        docs.
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: Callable[[Worker], object],
        *,
        partition: np.ndarray | None = None,
        initial_active: np.ndarray | None = None,
        pool=None,
        trace=None,
        live=None,
        **options,
    ) -> None:
        self.config = config = RunConfig(**options)
        num_workers = config.num_workers
        if pool is not None:
            if config.executor != "process":
                raise ValueError("pool= only applies to executor='process'")
            if pool.num_workers != num_workers:
                raise ValueError(
                    f"pool has {pool.num_workers} workers, engine wants "
                    f"{num_workers}"
                )
        self.pool = pool
        self.generation = next(_GENERATIONS)
        self._backend = None
        self._teardown: weakref.finalize | None = None  # set by close() on sim
        self.check_vertices(graph.num_vertices)
        self.graph = graph
        self.num_workers = num_workers
        self.program_factory = program_factory
        self.checkpoint = None  # latest Snapshot, when fault tolerance is on
        self.frame_log: FrameLog | None = None
        if partition is None:
            partition = hash_partition(graph.num_vertices, num_workers)
        self.owner = check_partition(partition, graph.num_vertices, num_workers)
        self.metrics = MetricsCollector(num_workers=num_workers, network=config.network)
        if trace is not None:
            self.metrics.trace = trace
            self.metrics.trace_attrs = {"executor": config.executor}
        self.live = live
        self.monitor = None
        if live is not None:
            if live.num_workers != num_workers:
                raise ValueError(
                    f"live metrics segment has {live.num_workers} worker "
                    f"slots, engine wants {num_workers}"
                )
            from repro.obs.live import LiveMonitor

            self.monitor = LiveMonitor(live, self.metrics)
        self.step_num = 0

        self.initial_active: np.ndarray | None = None
        if initial_active is not None:
            seeds = np.asarray(initial_active, dtype=np.int64)
            if seeds.size and (
                seeds.min() < 0 or seeds.max() >= graph.num_vertices
            ):
                raise ValueError("initial_active contains out-of-range vertex ids")
            self.initial_active = seeds.copy()  # worker processes re-seed from this

        #: one worker per partition block on sim; none on the process
        #: executor, whose workers (and channel check) live in the children
        self.workers: list[Worker] = []
        if config.executor == "sim":
            self.workers = [
                Worker.build(self, w, program_factory, seeds=self.initial_active)
                for w in range(num_workers)
            ]
            if len({len(w.channels) for w in self.workers}) != 1:
                raise RuntimeError(
                    "programs must construct the same channels on every worker"
                )

    # -- backend resolution --------------------------------------------------
    @property
    def backend(self):
        """This engine's :class:`~repro.runtime.executor.ExecutorBackend`
        (created on first use, then reused across :meth:`run` calls)."""
        if self._backend is None:
            if self.config.executor == "process":
                from repro.runtime.parallel.backend import ProcessBackend

                self._backend = ProcessBackend(self, pool=self.pool)
            else:
                from repro.runtime.executor import SimBackend

                self._backend = SimBackend(self)
        return self._backend

    # -- main loop ---------------------------------------------------------
    def run(self, max_supersteps: int = 100_000) -> EngineResult:
        """Run to termination under :attr:`config`."""
        return self.backend.run(max_supersteps=max_supersteps)

    def close(self) -> None:
        """Release what the engine holds without waiting for the cycle
        collector.  Idempotent.

        ``executor="process"`` with an engine-owned pool: the worker
        processes, pipes and shared-memory segments are shut down now; a
        closed engine can no longer ``run()``.  Externally provided pools
        are the caller's to shut down and are left alone.

        ``executor="sim"``: workers, programs and channels point at one
        another and at the engine, so a dropped engine — every per-worker
        array with it — would stay resident until the next cyclic
        collection, whenever that falls.  Closing drops the drive loop's
        generators and turns every pointer back at the engine weak, so
        the engine is freed by refcount when its last holder lets go, and
        its workers' cycles are broken then (:func:`_tear_down`).  Until
        then a closed engine still captures and restores its workers.
        """
        if self._backend is not None:
            self._backend.shutdown()
        if self.workers and self._teardown is None:
            host = weakref.proxy(self)
            for worker in self.workers:
                worker.engine = host
            self._teardown = weakref.finalize(self, _tear_down, self.workers)
            self._teardown.atexit = False


def _tear_down(workers: list[Worker]) -> None:
    """Break every cycle among a dead engine's workers: a program and its
    channels point back at their worker, and may hold one another's bound
    methods and closures, so emptying each one's attributes is what frees
    them — and the arrays they hold — by refcount."""
    for worker in workers:
        for part in (*worker.channels, worker.program, worker):
            if part is not None:
                vars(part).clear()
