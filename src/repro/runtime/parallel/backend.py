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
* **the worker lifecycle** — the two primitives the shared template
  runs capture, recovery and finalize over: ``call`` sends a
  lifecycle command to the named children, which run the
  :class:`~repro.runtime.lifecycle.WorkerLifecycle` method the simulator
  calls, state crossing as checkpoint-codec bytes; ``replace`` kills the
  worker's OS process outright (its death surfaces through the
  supervision that catches genuine crashes) and respawns it onto the
  surviving frame links.

The parent holds no worker: per-vertex state lives in the children.  It
builds one only for the moment it needs one — the doomed workers of a
confined replay.

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

from repro.runtime.executor import ExecutorBackend
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
        super().begin_run()

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

    def call(self, op: str, args: Mapping[int, dict]) -> list:
        # the child's serve runs the lifecycle operation of the same name;
        # state crosses as the checkpoint-codec bytes sim would write
        pool = self.pool
        for w, kwargs in args.items():
            pool.send(w, {"cmd": op, **kwargs})
        return [pool.reply(w, op)["data"] for w in args]

    def replace(self, w: int) -> None:
        # the failure is real: the worker's OS process exits hard and its
        # death surfaces through the standard supervision path as a
        # WorkerProcessError, which recovery absorbs; the replacement then
        # joins the surviving peers' frame links
        try:
            self.pool.kill(w)
        except WorkerProcessError:
            pass
        self.pool.respawn(w)

    def shutdown(self) -> None:
        if self.owns_pool:
            self.pool.shutdown()
