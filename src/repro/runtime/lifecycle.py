"""What is done to a worker between supersteps, written once.

A :class:`WorkerLifecycle` holds one worker, the host it runs against
(the engine on sim, a worker process's host on the process backend), the
program factory that built it and its live slot writer.  Its methods are
the worker-side operations of ARCHITECTURE.md §8 — ``start_run``,
``capture``, ``restore``, ``remap`` and ``finalize`` — the same on both
backends: the simulator calls them directly, one instance per worker,
and a worker process's ``serve`` dispatches the commands of the same
names to its one instance.  After each superstep the worker publishes
its record to its live slot through :meth:`WorkerLifecycle.publish`.
"""

from __future__ import annotations

from repro.core.worker import Worker
from repro.runtime.checkpoint import (
    capture_worker_state,
    decode_state,
    encode_state,
    load_worker_state,
)

__all__ = ["WorkerLifecycle"]


class WorkerLifecycle:
    """One worker and what it needs to be captured, restored, rebuilt and
    finalized: its ``host``, its ``factory`` and its ``live_writer``
    (``None`` without a live segment).  ``worker`` is ``None`` until the
    first :meth:`remap` when it is not given."""

    def __init__(self, host, worker_id: int, factory, worker: Worker | None = None,
                 live_writer=None) -> None:
        self.host = host
        self.worker_id = worker_id
        self.factory = factory
        self.worker = worker
        self.live_writer = live_writer

    def start_run(self) -> None:
        for channel in self.worker.channels:
            channel.initialize()

    def capture(self) -> bytes:
        return encode_state(capture_worker_state(self.worker))

    def restore(self, blob: bytes, step_num: int, live: dict | None = None) -> None:
        """Load ``blob`` and rewind the host to ``step_num``; ``live`` is
        the slot reading taken at the checkpoint (rollback) or just before
        this worker's death (confined)."""
        load_worker_state(self.worker, decode_state(blob))
        self.host.step_num = step_num
        if self.live_writer is not None and live is not None:
            self.live_writer.rewind(live)

    def remap(self, blob: bytes) -> None:
        """Rebuild the worker against ``host.owner`` and load ``blob``.
        The host, its superstep counter and the live writer stay."""
        self.worker = Worker.build(self.host, self.worker_id, self.factory, initialize=True)
        load_worker_state(self.worker, decode_state(blob))

    def finalize(self):
        return self.worker.program.finalize()

    def publish(self) -> None:
        """Fold this superstep's record into the live slot."""
        if self.live_writer is not None:
            self.live_writer.add_record(self.worker.books)
