"""The pluggable execution-backend seam (ARCHITECTURE.md §8).

The paper's channel engine is *one* abstraction with many possible
execution strategies; this module makes that literal.
:class:`ExecutorBackend` owns the superstep drive loop of Fig. 4 —
barrier votes, compute dispatch, exchange rounds, checkpoint cadence,
failure injection, recovery dispatch, result collection — as a template
method (:meth:`ExecutorBackend.run`) over a small set of primitives each
backend implements:

``begin_run``
    Bring the execution substrate up: channel initialization, and for
    the process backend pool spawn/reconfigure first.
``barrier_vote``
    Resolve every worker's active set for the next superstep and return
    the global active count (0 terminates the run).
``compute_phase`` / ``exchange_phase``
    One superstep's vertex compute and channel exchange rounds.  The
    superstep's body is written once, as the generator
    :meth:`Worker.superstep`; a backend only drives it: the simulator
    advances every worker's in lock-step here, a worker process its own
    inside one ``superstep`` command.  Either way each worker counts its
    superstep into its own record (:attr:`Worker.books`), and the
    exchange phase ends in :meth:`ExecutorBackend.account`, the one
    route from the records to the collector, the sender-side frame log
    and the live slots.
``capture_state_blobs``
    Per-worker serialized state in the checkpoint capture format
    (:func:`repro.runtime.checkpoint.capture_worker_state`).
``recover``
    React to injected worker deaths with the requested recovery mode.
``collect_results``
    Merge per-worker ``finalize()`` outputs after termination.

Because checkpoint cadence, failure timing, frame-log bookkeeping, and
termination live in the shared template, every fault-tolerance and
streaming feature composes with every backend by construction — the
fault-tolerant superstep choreography cannot drift between them.

Two implementations exist: :class:`SimBackend` here (the in-process
simulated cluster) and
:class:`~repro.runtime.parallel.backend.ProcessBackend` (one OS process
per worker over a persistent :class:`~repro.runtime.parallel.pool.WorkerPool`).
Both produce bit-identical result data, per-channel traffic, and
byte/message totals for the same program.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.core.program import VertexResults
from repro.core.recovery import FrameLog, confined_recovery, rollback_recovery
from repro.core.worker import Worker
from repro.runtime.buffers import BufferExchange
from repro.runtime.checkpoint import (
    SNAPSHOT_VERSION,
    Snapshot,
    capture_worker_state,
    encode_state,
    load_worker_state,
    restore_worker,
)
from repro.runtime.rebalance import (
    MigrationContext,
    phase_matrix,
    remap_worker_states,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ChannelEngine, EngineResult

__all__ = ["ExecutorBackend", "SimBackend"]


class ExecutorBackend:
    """Drives one engine's program to termination (template method).

    A backend instance is owned by its :class:`ChannelEngine` and lives
    as long as the engine does — it may be asked to :meth:`run` more
    than once (a second run over an all-halted program is a no-op that
    returns the same results on every backend).
    """

    #: the engine's ``executor=`` name for this backend
    name = "?"

    def __init__(self, engine: "ChannelEngine") -> None:
        self.engine = engine
        #: the live slots as read at the latest checkpoint (live runs only)
        self.live_marks: list[dict] | None = None
        #: the slot writers :meth:`account` publishes through, when the
        #: workers live in this process (a worker process publishes its own)
        self.live_writers: list | None = None

    # -- the drive loop (shared across backends) ---------------------------
    def run(self, max_supersteps: int = 100_000) -> "EngineResult":
        """Run to termination under the engine's validated
        :class:`~repro.core.config.RunConfig`."""
        from repro.core.engine import EngineResult

        engine = self.engine
        config = engine.config
        metrics = engine.metrics
        # pop() consumes events; each run pops from its own copy, so one
        # engine (and one schedule) can drive several runs
        failures = config.failures.copy() if config.failures is not None else None
        checkpoint_every = config.checkpoint_every
        fault_tolerant = checkpoint_every is not None or bool(failures)

        engine.frame_log = (
            FrameLog(engine.num_workers)
            if bool(failures) and config.recovery == "confined"
            else None
        )

        metrics.start_run()
        self.begin_run()

        if fault_tolerant:
            # superstep-0 checkpoint: recovery is possible before the
            # first periodic checkpoint is due
            self.take_checkpoint()

        while True:
            total_active = self.barrier_vote()
            if total_active == 0:
                break
            engine.step_num += 1
            if engine.step_num > max_supersteps:
                raise RuntimeError(
                    f"exceeded max_supersteps={max_supersteps}; "
                    "the program may not terminate"
                )
            metrics.start_superstep(total_active)
            self.compute_phase()
            self.exchange_phase()
            metrics.end_superstep()

            # the live slots are published (by account, or by the worker
            # processes); the monitor scores the fresh readings online
            if engine.monitor is not None:
                engine.monitor.observe(engine.step_num)

            # superstep boundary: rebalance first (a migration changes
            # what any checkpoint taken below must capture)
            migrated = False
            if (
                engine.rebalancer is not None
                and engine.step_num % config.rebalance_every == 0
            ):
                migrated = self.maybe_rebalance()

            # then checkpoint, then inject failures
            if fault_tolerant:
                if migrated or (
                    checkpoint_every is not None
                    and engine.step_num % checkpoint_every == 0
                ):
                    # after a migration the recapture is mandatory: the
                    # previous snapshot (and any logged frames, truncated
                    # by take_checkpoint) reference the old ownership
                    self.take_checkpoint()
                doomed = failures.pop(engine.step_num) if failures else []
                if doomed:
                    metrics.record_failure(len(doomed))
                    self.recover(doomed, config.recovery)

        if failures and failures.pending():
            # warn, don't raise: the results are still valid (nothing was
            # injected), but anyone measuring recovery must find out that
            # they actually measured a failure-free run
            warnings.warn(
                f"failure schedule events never fired — the run ended after "
                f"{engine.step_num} supersteps: {failures.pending()}",
                RuntimeWarning,
                stacklevel=3,
            )

        metrics.end_run()
        result = EngineResult(data=self.collect_results(), metrics=metrics)
        if engine.monitor is not None:
            result.live_alerts = list(engine.monitor.alerts)
        return result

    # -- the one set of books -------------------------------------------------
    def account(self, records: list[dict]) -> None:
        """Account one superstep from every worker's record
        (:attr:`Worker.books`, in worker order) into the collector
        (:meth:`MetricsCollector.account`), the sender-side frame log when
        confined recovery is armed, and the live slots this process
        publishes.  Each backend calls it from its ``exchange_phase``."""
        engine = self.engine
        engine.metrics.account(dict(enumerate(records)))
        if engine.frame_log is not None:
            # per round: the channel groups that ran (all, then the OR of
            # the previous round's votes) and every raw cross-worker buffer
            step_log: list[tuple[list[bool], list[list[bytes]]]] = []
            group_active = None
            for rounds in zip(*(rec["rounds"] for rec in records)):
                votes = [rnd["next_active"] for rnd in rounds]
                frames = [[bytes(buf) for buf in rnd["frames"]] for rnd in rounds]
                step_log.append((group_active or [True] * len(votes[0]), frames))
                engine.metrics.record_log_bytes(sum(len(buf) for row in frames for buf in row))
                group_active = [any(flags) for flags in zip(*votes)]
            engine.frame_log.append_step(engine.step_num, step_log)
        if self.live_writers is not None:
            for writer, rec in zip(self.live_writers, records):
                writer.add_record(rec)

    # -- shared fault-tolerance choreography --------------------------------
    def take_checkpoint(self) -> None:
        """Checkpoint every worker at the current superstep boundary and
        make it the engine's recovery point."""
        engine = self.engine
        snapshot = Snapshot(
            version=SNAPSHOT_VERSION,
            superstep=engine.step_num,
            blobs=self.capture_state_blobs(),
            metrics_state=engine.metrics.snapshot(),
        )
        engine.checkpoint = snapshot
        engine.metrics.record_checkpoint(snapshot.worker_nbytes)
        if engine.live is not None:
            # rollback recovery rewinds every live slot to this reading
            self.live_marks = engine.live.snapshot()
        if engine.frame_log is not None:
            # frames covered by this checkpoint can never be replayed
            engine.frame_log.truncate_before(snapshot.superstep)

    # -- shared rebalancing choreography -------------------------------------
    def maybe_rebalance(self) -> bool:
        """Ask the engine's policy for a migration plan over the phase
        timings observed so far and execute it at this barrier; returns
        whether a migration happened.  The plan is a pure function of
        (owner, indptr, matrix), so every backend migrates identically."""
        engine = self.engine
        policy = engine.rebalancer
        plan = policy.propose(
            engine.owner,
            engine.graph.indptr,
            phase_matrix(engine.metrics, window=policy.window),
        )
        if plan is None:
            return False
        t0 = time.perf_counter()
        self.migrate(plan)
        seconds = time.perf_counter() - t0
        engine.metrics.record_rebalance(plan, trigger="superstep", seconds=seconds)
        if engine.live is not None:
            touched = sorted({w for move in plan.moves for w in move[2:]})
            for w in touched:
                engine.live.bump_rebalance(w)
        return True

    def migrate(self, plan) -> None:
        """Move vertex ownership (and all per-vertex state) per ``plan``
        at the current quiescent superstep boundary."""
        raise NotImplementedError

    # -- backend primitives --------------------------------------------------
    def begin_run(self) -> None:
        """Bring the substrate up for one run: every worker's channels get
        ``initialize()`` before any superstep, wherever the workers live."""
        raise NotImplementedError

    def barrier_vote(self) -> int:
        raise NotImplementedError

    def compute_phase(self) -> None:
        raise NotImplementedError

    def exchange_phase(self) -> None:
        raise NotImplementedError

    def capture_state_blobs(self) -> list[bytes]:
        raise NotImplementedError

    def recover(self, doomed: list[int], mode: str) -> None:
        raise NotImplementedError

    def collect_results(self) -> Mapping:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (idempotent; a no-op for sim)."""


class SimBackend(ExecutorBackend):
    """The in-process simulated cluster: every worker runs sequentially in
    this process, compute is charged as the max over workers (parallel
    makespan), and network time comes from the cost model.  This is the
    reference backend — the process backend's parity matrix is defined
    against it."""

    name = "sim"

    def __init__(self, engine: "ChannelEngine") -> None:
        super().__init__(engine)
        self._exchange = BufferExchange()
        self._steps: list = []  # each worker's Worker.superstep generator

    # -- primitives ----------------------------------------------------------
    def begin_run(self) -> None:
        if self.engine.live is not None and self.live_writers is None:
            # created once per engine, never reset on a re-run: a second
            # run over a halted program adds zero supersteps, and the live
            # counters must keep matching the (also untouched) collector
            self.live_writers = [
                self.engine.live.writer(w) for w in range(self.engine.num_workers)
            ]
        for worker in self.engine.workers:
            for channel in worker.channels:
                channel.initialize()

    def barrier_vote(self) -> int:
        t0 = time.perf_counter()
        workers = self.engine.workers
        self._steps = [worker.superstep() for worker in workers]
        total = sum(next(step) for step in self._steps)
        # the vote is a global sync point every worker waits through, so
        # the whole collection time is charged to each of them
        seconds = time.perf_counter() - t0
        for worker in workers:
            worker.charge("barrier", seconds)
        return total

    def compute_phase(self) -> None:
        # vertex compute, each worker charging its own (the cost model
        # takes the max over workers: the parallel makespan)
        for step in self._steps:
            next(step)

    def exchange_phase(self) -> None:
        engine = self.engine
        workers = engine.workers
        n = engine.num_workers
        group_active = [True] * len(workers[0].channels)
        while any(group_active):
            for step in self._steps:
                step.send(group_active)  # serialize

            # pairwise exchange; the swap is one shared memcpy pass here,
            # like the barrier a global step every worker sits through
            t0 = time.perf_counter()
            sent = self._exchange.exchange([w.buffers for w in workers])
            swap_seconds = time.perf_counter() - t0
            # the frame log's copy of what each worker sent its peers,
            # read from their inboxes before deserializing clears them
            frames = [None] * n
            if engine.frame_log is not None:
                frames = [
                    [b"" if p == w else workers[p].buffers.inbox[w] for p in range(n)]
                    for w in range(n)
                ]

            # deserialize + decide on another round: a channel group stays
            # active while any worker's instance of it asks for more
            next_active = [False] * len(group_active)
            for w, (worker, step) in enumerate(zip(workers, self._steps)):
                worker.charge("exchange", swap_seconds)
                votes = step.send((sent[w], frames[w]))
                next_active = [a or b for a, b in zip(next_active, votes)]
            group_active = next_active

        self.account([w.books for w in workers])

    def capture_state_blobs(self) -> list[bytes]:
        return [encode_state(capture_worker_state(w)) for w in self.engine.workers]

    def migrate(self, plan) -> None:
        # capture under the old ownership, remap, rebuild every worker
        # under the new one, load.  The active sets refresh at the next
        # barrier vote from the (remapped) halted/woken flags; the live
        # writers are per-slot and carry no worker references
        engine = self.engine
        states = [capture_worker_state(w) for w in engine.workers]
        ctx = MigrationContext(engine.owner, plan.new_owner, engine.num_workers)
        new_states = remap_worker_states(states, ctx, engine.workers[0].channels)
        engine.owner = np.asarray(plan.new_owner, dtype=np.int64)
        for w in range(engine.num_workers):
            engine.workers[w] = Worker.build(engine, w, engine.program_factory, initialize=True)
            load_worker_state(engine.workers[w], new_states[w])

    def recover(self, doomed: list[int], mode: str) -> None:
        engine = self.engine
        if mode == "confined":
            for w, worker in confined_recovery(engine, doomed).items():
                engine.workers[w] = worker
            return
        # the dead workers' replacements are fresh; every worker reloads
        for w in doomed:
            engine.workers[w] = Worker.build(engine, w, engine.program_factory, initialize=True)
        for w in range(engine.num_workers):
            restore_worker(engine, engine.checkpoint, w)
        rollback_recovery(engine)
        if self.live_writers is not None:
            # the collector rolled back to the checkpoint; so does the
            # live plane (re-executed supersteps re-accumulate)
            for writer, row in zip(self.live_writers, self.live_marks):
                writer.rewind(row)

    def collect_results(self) -> Mapping:
        return VertexResults.merged(
            worker.program.finalize() for worker in self.engine.workers
        )
