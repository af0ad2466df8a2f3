"""The epoch engine: repeated ``apply(batch) -> refresh`` cycles.

One :class:`EpochEngine` owns the stream's current graph,
a partition (ownership never moves — new vertices are appended via
:func:`~repro.graph.partition.extend_partition`), and the per-algorithm
warm state.  Every epoch it

1. applies the batch, which builds the next CSR graph,
2. plans the refresh from the previous state and the applied batch,
3. runs a fresh :class:`~repro.core.engine.ChannelEngine` over that
   graph, seeding the active set from the plan instead of all vertices,
4. collects the warm state for the next epoch and closes the engine
   (:meth:`~repro.core.engine.ChannelEngine.close`): its workers are
   freed before the next epoch builds its own.

``refresh="full"`` replans every epoch from scratch (the cold baseline
the benchmark compares against); ``refresh="incremental"`` lets the
algorithm's planner replay only the delta-affected region where it can
do so exactly, and plan a cold run where it cannot (WCC: any batch that
deletes an arc).  Both must produce bit-identical
``result.data`` — the per-epoch counters measure how much less the
incremental path *did*, never how close it got.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RunConfig
from repro.core.engine import ChannelEngine, EngineResult
from repro.graph.graph import Graph
from repro.graph.partition import extend_partition, hash_partition
from repro.streaming.batch import MutationBatch
from repro.streaming.delta import apply_batch
from repro.streaming.plan import REFRESH_MODES, StreamAlgorithm
from repro.util import check_partition

__all__ = ["EpochEngine", "EpochResult"]

#: seed of the default hash partition and of its extensions
PARTITION_SEED = 0


@dataclass
class EpochResult:
    """Outcome of one epoch (the bootstrap epoch has ``batch_size == 0``)."""

    epoch: int
    result: EngineResult
    refresh: str  # what actually ran: "incremental" | "full"
    batch_size: int
    affected: int
    seeds: int

    @property
    def data(self) -> dict:
        return self.result.data

    def summary(self) -> dict:
        # the metrics summary already carries epoch/refresh/affected_vertices
        # (record_stream_epoch ran); only the epoch-level extras go here
        return {
            "batch_size": self.batch_size,
            "seeds": self.seeds,
            **self.result.metrics.summary(),
        }


class EpochEngine:
    """Drives one streaming algorithm through mutation epochs.

    Parameters
    ----------
    graph:
        The initial graph (epoch 0 bootstraps warm state with a full run).
    algorithm:
        A :class:`~repro.streaming.plan.StreamAlgorithm` instance (see
        :data:`repro.streaming.STREAM_ALGORITHMS` for the registry).
    refresh:
        ``"incremental"`` lets the algorithm's planner pick each epoch's
        plan; ``"full"`` forces a cold refresh every epoch (the baseline).
    partition:
        Optional initial vertex->worker array (a hash partition seeded
        with :data:`PARTITION_SEED` otherwise); extended deterministically,
        with the same seed, when batches add vertices.
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder`: the stream
        emits one ``stream`` root span with one ``epoch`` span per
        epoch, each wrapping that epoch's engine ``run`` span (see
        ARCHITECTURE.md §10).  The caller owns the recorder.
    live:
        Optional :class:`~repro.obs.live.LiveMetrics` segment shared by
        every epoch: before each epoch's engine runs, the segment's
        header epoch advances and the per-worker slots restart from zero
        (each epoch gets a fresh collector too, so live/collector parity
        holds within every epoch).  The caller owns the segment.
    **options:
        The value options of :class:`~repro.core.config.RunConfig` (see
        its field docs), validated into :attr:`config` and handed to
        every epoch's engine.  ``executor="process"`` acts across epochs
        here: every epoch runs on **one persistent pool**, spawned once
        and then handed each epoch's graph, ownership, seeds and
        program as control messages.  The fault-tolerance options
        (``checkpoint_every``, ``failures``, ``recovery``) are refused.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: StreamAlgorithm,
        *,
        refresh: str = "incremental",
        partition: np.ndarray | None = None,
        trace=None,
        live=None,
        **options,
    ) -> None:
        if refresh not in REFRESH_MODES:
            raise ValueError(f"refresh must be one of {REFRESH_MODES}, got {refresh!r}")
        self.config = config = RunConfig(**options)
        if (config.checkpoint_every, config.failures, config.recovery) != (None, None, "rollback"):
            raise ValueError(
                "EpochEngine takes no fault-tolerance options "
                "(checkpoint_every, failures, recovery)"
            )
        self.num_workers = config.num_workers
        self.graph = graph  # the current graph; each epoch replaces it
        self.algorithm = algorithm
        self.refresh = refresh
        self.pool = None  # created on the first epoch for executor="process"
        self.trace = trace
        self.live = live
        self._stream_span: int | None = None
        if partition is None:
            partition = hash_partition(graph.num_vertices, self.num_workers, seed=PARTITION_SEED)
        self.owner = check_partition(partition, graph.num_vertices, self.num_workers)
        self.state: dict | None = None
        self.epoch_num = -1  # bootstrap is epoch 0
        self.history: list[EpochResult] = []

    # -- the cycle ---------------------------------------------------------
    def bootstrap(self) -> EpochResult:
        """Epoch 0: full run on the initial graph, building warm state."""
        if self.state is not None:
            raise RuntimeError("already bootstrapped")
        return self._run_epoch(None)

    def run_epoch(self, batch: MutationBatch) -> EpochResult:
        """Apply one batch and refresh (bootstrapping first if needed)."""
        if self.state is None:
            self.bootstrap()
        return self._run_epoch(batch)

    def run(self, batches) -> list[EpochResult]:
        """Run a whole update stream; returns every epoch's result
        (including the bootstrap's, when it ran here)."""
        start = len(self.history)
        for batch in batches:
            self.run_epoch(batch)
        return self.history[start:]

    def _run_epoch(self, batch: MutationBatch | None) -> EpochResult:
        old_graph = new_graph = self.graph
        if batch is None:
            stats, batch_size = None, 0
        else:
            new_graph, stats = apply_batch(old_graph, batch)
            self.graph = new_graph
            batch_size = batch.size
            if stats.added_vertices:
                self.owner = extend_partition(
                    self.owner,
                    stats.added_vertices,
                    self.num_workers,
                    seed=PARTITION_SEED,
                )

        plan = self.algorithm.plan(old_graph, new_graph, stats, self.state, self.refresh)
        epoch_span = None
        if self.trace is not None:
            if self._stream_span is None:
                self._stream_span = self.trace.begin(
                    "stream",
                    workers=self.num_workers,
                    executor=self.config.executor,
                    algorithm=type(self.algorithm).__name__,
                )
            epoch_span = self.trace.begin(
                "epoch",
                parent=self._stream_span,
                epoch=self.epoch_num + 1,
                batch_size=batch_size,
                refresh=plan.mode,
                affected=plan.affected,
            )
        if self.live is not None:
            # live rollover: observers see the header epoch advance; the
            # slots restart from zero when each worker's writer is rebuilt
            # for the new engine (sim) / reconfigured child (process)
            self.live.roll_epoch(self.epoch_num + 1)
        if self.config.executor == "process" and self.pool is None:
            from repro.runtime.parallel.pool import WorkerPool

            self.pool = WorkerPool(self.num_workers)
        engine = ChannelEngine(
            new_graph,
            plan.program_factory,
            partition=self.owner,
            initial_active=plan.seeds,
            pool=self.pool,
            trace=self.trace,
            live=self.live,
            **vars(self.config),
        )
        if epoch_span is not None:
            engine.metrics.trace_parent = epoch_span
        self.epoch_num += 1
        engine.metrics.record_stream_epoch(self.epoch_num, plan.affected, plan.mode)
        try:
            result = engine.run()
            self.state = self.algorithm.collect(engine, result)
        finally:
            # the epoch's workers go now, not at the next cyclic collection
            engine.close()
        if epoch_span is not None:
            self.trace.end(epoch_span)

        epoch_result = EpochResult(
            epoch=self.epoch_num,
            result=result,
            refresh=plan.mode,
            batch_size=batch_size,
            affected=plan.affected,
            seeds=(
                new_graph.num_vertices if plan.seeds is None else int(plan.seeds.size)
            ),
        )
        self.history.append(epoch_result)
        return epoch_result

    def close(self) -> None:
        """Shut the worker pool down (no-op for the sim executor; also
        happens automatically when the engine is garbage collected) and
        end the stream's trace span, when one is open."""
        if self.pool is not None:
            self.pool.shutdown()
        if (
            self.trace is not None
            and self._stream_span is not None
            and not getattr(self.trace, "closed", False)
        ):
            self.trace.end(self._stream_span, epochs=len(self.history))
            self._stream_span = None

    # -- convenience -------------------------------------------------------
    @property
    def latest(self) -> EpochResult:
        if not self.history:
            raise RuntimeError("no epoch has run yet")
        return self.history[-1]
