"""Parent-side orchestration of the multiprocess backend.

:class:`ProcessBackend` implements the
:class:`~repro.runtime.executor.ExecutorBackend` primitives over real OS
worker processes drawn from a persistent
:class:`~repro.runtime.parallel.pool.WorkerPool`:

* **shared state** — the graph's CSR arrays and the partition array are
  exported once per engine configuration into
  ``multiprocessing.shared_memory`` and attached read-only by every
  worker (no per-worker graph copies);
* **barrier protocol** — one duplex control pipe per worker carries one
  ``superstep`` broadcast and one consolidated reply per superstep;
  barrier votes go through the pool's shared vote board, and each child
  drives its worker's :meth:`~repro.core.worker.Worker.superstep`
  generator — compute and every exchange round — on its own (see
  ARCHITECTURE.md §9);
* **peer-to-peer frames** — per-superstep channel frames travel directly
  between worker processes as the exact wire bytes the codec layer
  produced: over per-pair shared-memory ring buffers while every worker
  has a core, or over dedicated pipes once workers outnumber cores (the
  pool's :attr:`~repro.runtime.parallel.pool.WorkerPool.transport`, a
  rule, not an option) — the transport is only the byte mover; either
  way the parent receives only each child's superstep record
  (byte counts, not bytes) and accounts it through the same
  :meth:`~repro.runtime.executor.ExecutorBackend.account` the simulator
  uses;
* **fault tolerance for real** — checkpoints are captured worker-side
  and shipped to the parent as checkpoint-codec wire bytes; an injected
  failure kills the worker's OS process outright (the parent observes
  the death through the same supervision that catches genuine crashes),
  a replacement is respawned onto the surviving frame pipes, and both
  recovery modes restore it: rollback pushes the latest checkpoint blob
  to *every* worker, confined replays the lost supersteps from the
  parent's sender-side frame log and ships only the recovered state to
  the replacements.

The parent holds no worker: per-vertex state lives in the children.  It
builds one only for the moment it needs one — the doomed workers of a
confined replay, and the channel set a migration re-keys state with.

Because compute, serialization, and byte accounting all run the same
code on the same inputs, a process run's ``result.data``, per-channel
traffic, and byte/message totals are **bit-identical** to a simulated
run — with or without checkpoints, injected failures, or streaming
epochs — as enforced by ``tests/test_parallel.py`` and
``tests/test_executor_backends.py``.  What stays simulated is the cost
model: ``simulated_time`` is still modeled from byte counts, while
``wall_time`` reflects genuinely parallel execution.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.core.program import VertexResults
from repro.core.recovery import confined_recovery, rollback_recovery
from repro.core.worker import Worker
from repro.runtime.checkpoint import capture_worker_state, decode_state, encode_state
from repro.runtime.executor import ExecutorBackend
from repro.runtime.rebalance import MigrationContext, remap_worker_states
from repro.runtime.parallel.pool import WorkerPool
from repro.runtime.parallel.protocol import WorkerProcessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ChannelEngine

__all__ = ["ProcessBackend"]


class ProcessBackend(ExecutorBackend):
    """Runs an engine's program over persistent worker processes."""

    name = "process"

    def __init__(self, engine: "ChannelEngine", pool: WorkerPool | None = None) -> None:
        super().__init__(engine)
        #: whether this backend owns its pool's lifecycle (it created it)
        self.owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(engine.num_workers)
        # the run span, and through it `repro run --json`, names the mover
        # that ran
        engine.metrics.trace_attrs["transport"] = self.pool.transport

    # -- template entry: poison the pool on any escaping error ---------------
    def run(self, **kwargs):
        try:
            return super().run(**kwargs)
        except BaseException:
            # an error escaping mid-protocol leaves worker processes in
            # unknown states (possibly blocked on frame pipes); the pool
            # cannot be trusted again
            self.pool.broken = True
            self.pool.shutdown()
            raise

    # -- primitives ----------------------------------------------------------
    def begin_run(self) -> None:
        engine = self.engine
        pool = self.pool
        # the wall clock is already running: export/spawn/reconfigure are
        # real costs of this backend and belong in wall_time, just as
        # channel initialization is inside the simulator's window.  The
        # pool's startup/configure barrier checks that every child built
        # the same channel set
        pool.ensure(
            {
                "graph": engine.graph,
                "owner": engine.owner,
                "seeds": engine.initial_active,
                "factory": engine.program_factory,
                "live": engine.live.spec if engine.live is not None else None,
            },
            engine.generation,
        )
        pool.start_run()

    def barrier_vote(self) -> int:
        # one broadcast starts the whole superstep; the children vote on
        # the pool's vote board and proceed autonomously (or go back to
        # the command loop when the global total is 0)
        pool = self.pool
        seq = pool.next_seq()
        pool.broadcast(
            {
                "cmd": "superstep",
                "seq": seq,
                "log_frames": self.engine.frame_log is not None,
            }
        )
        return sum(pool.read_vote(w, seq) for w in range(pool.num_workers))

    def compute_phase(self) -> None:
        """Nothing to drive: compute is already running inside the
        children's ``superstep`` command."""

    def exchange_phase(self) -> None:
        """Collect the children's superstep records (their
        :attr:`Worker.books`, one reply each) and account them, as the
        simulator accounts its workers' records."""
        self.account(self.pool.gather("superstep"))

    def capture_state_blobs(self) -> list[bytes]:
        # snapshots are captured worker-side and cross the control pipes
        # as the exact checkpoint-codec wire bytes the simulator would
        # have written, so checkpoint sizes are bit-identical too
        self.pool.broadcast({"cmd": "capture"})
        return [bytes(reply["blob"]) for reply in self.pool.gather("checkpoint capture")]

    def migrate(self, plan) -> None:
        """Migrate vertex ownership across the live worker processes.

        All children are quiescent (blocked on their control pipes at
        this superstep barrier), so the sequence is race-free: capture
        every child's state over the control protocol (checkpoint wire
        format), remap it parent-side, rewrite the *shared* ownership
        array in place, then have each child rebuild its Worker against
        the migrated partition and load its remapped state (``remap``
        keeps the graph attachments, ``step_num``, and the live writer).
        The channels' ``migrate_states`` re-key the state, so the parent
        builds one worker for its channel set, and drops it.
        """
        engine = self.engine
        pool = self.pool
        states = [decode_state(blob) for blob in self.capture_state_blobs()]
        ctx = MigrationContext(engine.owner, plan.new_owner, engine.num_workers)
        channels = Worker.build(engine, 0, engine.program_factory).channels
        new_states = remap_worker_states(states, ctx, channels)
        pool.update_owner(plan.new_owner)
        engine.owner = np.asarray(plan.new_owner, dtype=np.int64)
        for w in range(engine.num_workers):
            pool.send(w, {"cmd": "remap", "blob": encode_state(new_states[w])})
        pool.gather("rebalance remap")

    def recover(self, doomed: list[int], mode: str) -> None:
        engine = self.engine
        pool = self.pool
        # a replacement zero-publishes its live slot: read the dead workers'
        # last counters first, for confined recovery to resume from
        live_rows = engine.live.snapshot() if engine.live is not None else None

        # the failure is real: each doomed worker's OS process exits hard
        # and its death surfaces through the standard supervision path as
        # a WorkerProcessError, which recovery absorbs; the replacement
        # then joins the surviving peers' frame pipes.  Kill/respawn one
        # worker at a time so the pool's supervision never trips over a
        # *previously* injected death while confirming the next respawn.
        for w in doomed:
            try:
                pool.kill(w)
            except WorkerProcessError:
                pass
            pool.respawn(w)

        # the recovery books are the simulator's; the state ships to the
        # children as checkpoint wire bytes
        if mode == "confined":
            # only the failed workers' state changed; survivors' live
            # processes keep their current state, exactly per the paper
            restores = {
                w: (encode_state(capture_worker_state(worker)), engine.step_num)
                for w, worker in confined_recovery(engine, doomed).items()
            }
        else:
            rollback_recovery(engine)
            snapshot, live_rows = engine.checkpoint, self.live_marks
            restores = {
                w: (blob, snapshot.superstep) for w, blob in enumerate(snapshot.blobs)
            }
        for w, (blob, step_num) in restores.items():
            live = None if live_rows is None else live_rows[w]
            pool.send(w, {"cmd": "restore", "blob": blob, "step_num": step_num, "live": live})
        for w in restores:
            pool.reply(w, f"{mode} restore")

    def collect_results(self) -> Mapping:
        pool = self.pool
        pool.broadcast({"cmd": "finalize"})
        parts = []
        for reply in pool.gather("finalize"):
            part = reply["data"]
            # a child sends VertexResults as its (ids, array) pair
            parts.append(VertexResults(*part) if isinstance(part, tuple) else part)
        return VertexResults.merged(parts)

    def shutdown(self) -> None:
        if self.owns_pool:
            self.pool.shutdown()
