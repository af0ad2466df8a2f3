"""The pluggable execution-backend seam (ARCHITECTURE.md §8).

The paper's channel engine is *one* abstraction with many possible
execution strategies; this module makes that literal.
:class:`ExecutorBackend` owns the superstep drive loop of Fig. 4 —
barrier votes, compute dispatch, exchange rounds, checkpoint cadence,
failure injection, recovery, migration, result collection — as a
template method (:meth:`ExecutorBackend.run`).  A backend implements two
kinds of primitive:

the superstep driver, ``barrier_vote`` / ``compute_phase`` / ``exchange_phase``
    Resolve the global active count (0 terminates the run), then one
    superstep's compute and exchange rounds.  The body is written once,
    as the generator :meth:`Worker.superstep`; the simulator advances
    every worker's in lock-step here, a worker process its own inside one
    ``superstep`` command.  Each worker counts its superstep into its own
    record (:attr:`Worker.books`) and publishes its live slot from it;
    :meth:`ExecutorBackend.account` is the one route from the records to
    the collector and the sender-side frame log.
``call`` / ``replace`` / ``place``
    Run a :class:`~repro.runtime.lifecycle.WorkerLifecycle` operation on
    chosen workers, put a fresh worker where a dead one was, and rewrite
    the ownership.  Over these three, ``begin_run``, checkpoint capture,
    both recovery modes, migration and ``collect_results`` are written
    once, here: every fault-tolerance and streaming feature composes with
    every backend by construction, and cannot drift between them.

Two implementations exist: :class:`SimBackend` here (the in-process
simulated cluster, one lifecycle per worker) and
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
from repro.runtime.checkpoint import capture_snapshot, decode_state, encode_state
from repro.runtime.lifecycle import WorkerLifecycle
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

            # every worker published its live slot after its superstep;
            # the monitor scores the fresh readings online
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
        (:meth:`MetricsCollector.account`) and, when confined recovery is
        armed, the sender-side frame log.  Each backend calls it from its
        ``exchange_phase``; each worker publishes its own live slot."""
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

    # -- the worker lifecycle, written once over the primitives --------------
    def call_all(self, op: str) -> list:
        """Run lifecycle operation ``op`` on every worker, in worker order."""
        return self.call(op, dict.fromkeys(range(self.engine.num_workers), {}))

    def begin_run(self) -> None:
        """Bring the substrate up for one run: every worker's channels get
        ``initialize()`` before any superstep, wherever the workers live."""
        self.call_all("start_run")

    def capture_state_blobs(self) -> list[bytes]:
        """Every worker's state in the checkpoint capture format, as the
        exact wire bytes either backend writes."""
        return self.call_all("capture")

    def take_checkpoint(self) -> None:
        """Checkpoint every worker at the current superstep boundary and
        make it the engine's recovery point."""
        engine = self.engine
        snapshot = engine.checkpoint = capture_snapshot(engine)
        engine.metrics.record_checkpoint(snapshot.worker_nbytes)
        if engine.live is not None:
            # rollback recovery rewinds every live slot to this reading
            self.live_marks = engine.live.snapshot()
        if engine.frame_log is not None:
            # frames covered by this checkpoint can never be replayed
            engine.frame_log.truncate_before(snapshot.superstep)

    def recover(self, doomed: list[int], mode: str) -> None:
        """Replace the doomed workers and restore them (confined) or every
        worker (rollback) from state blobs; the recovery books are
        :mod:`repro.core.recovery`'s."""
        engine = self.engine
        # a replacement zero-publishes its live slot: read the dead workers'
        # last counters first, for confined recovery to resume from
        live_rows = engine.live.snapshot() if engine.live is not None else None
        # one worker at a time, so a process pool's supervision never trips
        # over a previously injected death while confirming the next respawn
        for w in doomed:
            self.replace(w)
        if mode == "confined":
            # only the failed workers' state changed; survivors keep theirs
            restores = {
                w: (life.capture(), engine.step_num)
                for w, life in confined_recovery(engine, doomed).items()
            }
        else:
            rollback_recovery(engine)
            snapshot, live_rows = engine.checkpoint, self.live_marks
            restores = {w: (blob, snapshot.superstep) for w, blob in enumerate(snapshot.blobs)}
        self.call(
            "restore",
            {
                w: {"blob": blob, "step_num": step_num,
                    "live": None if live_rows is None else live_rows[w]}
                for w, (blob, step_num) in restores.items()
            },
        )

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
        at the current quiescent superstep boundary: capture under the old
        ownership, re-key, rewrite the ownership, and have every worker
        rebuild under it and load its share.  The channels'
        ``migrate_states`` re-key the state, so one worker is built for
        its channel set, and dropped.  The active sets refresh at the next
        barrier vote from the remapped halted/woken flags."""
        engine = self.engine
        states = [decode_state(blob) for blob in self.capture_state_blobs()]
        ctx = MigrationContext(engine.owner, plan.new_owner, engine.num_workers)
        channels = Worker.build(engine, 0, engine.program_factory).channels
        new_states = remap_worker_states(states, ctx, channels)
        self.place(np.asarray(plan.new_owner, dtype=np.int64))
        self.call("remap", {w: {"blob": encode_state(state)} for w, state in enumerate(new_states)})

    def collect_results(self) -> Mapping:
        """Merge every worker's ``finalize()`` output."""
        return VertexResults.merged(
            # a worker process ships VertexResults as its (ids, array) pair
            VertexResults(*part) if isinstance(part, tuple) else part
            for part in self.call_all("finalize")
        )

    # -- backend primitives --------------------------------------------------
    def call(self, op: str, args: Mapping[int, dict]) -> list:
        """Run :class:`~repro.runtime.lifecycle.WorkerLifecycle` operation
        ``op`` on each worker ``args`` names, with its keyword arguments;
        returns the results in that order."""
        raise NotImplementedError

    def replace(self, w: int) -> None:
        """Put a fresh worker ``w`` (channels initialized, live slot from
        zero) where the dead one was; a ``restore`` follows."""
        raise NotImplementedError

    def place(self, owner: np.ndarray) -> None:
        """Make ``owner`` the ownership the engine and the workers read."""
        raise NotImplementedError

    def barrier_vote(self) -> int:
        raise NotImplementedError

    def compute_phase(self) -> None:
        raise NotImplementedError

    def exchange_phase(self) -> None:
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
        # one lifecycle per worker for the engine's life: a second run
        # over a halted program adds zero supersteps, and the live slots
        # must keep matching the (also untouched) collector
        self.lives = [self._life(w, worker) for w, worker in enumerate(engine.workers)]

    def _life(self, w: int, worker: Worker) -> WorkerLifecycle:
        engine = self.engine
        writer = engine.live.writer(w) if engine.live is not None else None
        return WorkerLifecycle(engine, w, engine.program_factory, worker, writer)

    # -- primitives ----------------------------------------------------------
    def call(self, op: str, args: Mapping[int, dict]) -> list:
        results = [getattr(self.lives[w], op)(**kwargs) for w, kwargs in args.items()]
        for w in args:  # a remap rebuilt the worker
            self.engine.workers[w] = self.lives[w].worker
        return results

    def replace(self, w: int) -> None:
        engine = self.engine
        worker = Worker.build(engine, w, engine.program_factory, initialize=True)
        self.lives[w] = self._life(w, worker)
        engine.workers[w] = worker

    def place(self, owner: np.ndarray) -> None:
        self.engine.owner = owner

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
        for life in self.lives:
            life.publish()
