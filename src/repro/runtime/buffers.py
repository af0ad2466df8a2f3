"""Per-worker raw buffers and the pairwise buffer exchange.

This mirrors Fig. 2 of the paper: each worker owns ``M`` outgoing buffers
(one per peer; the self buffer is delivered locally and its bytes are
accounted separately as *local*, not network, traffic).  Channels write
binary data into the outgoing buffers during ``serialize()`` and read from
the received buffers during ``deserialize()``.  The exchange itself is the
only place where data crosses worker boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.serialization import BufferWriter

__all__ = ["WorkerBuffers", "BufferExchange"]


class WorkerBuffers:
    """One worker's outgoing writers and incoming byte buffers."""

    __slots__ = ("worker_id", "num_workers", "out", "inbox")

    def __init__(self, worker_id: int, num_workers: int) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.out: list[BufferWriter] = [BufferWriter() for _ in range(num_workers)]
        self.inbox: list[bytes] = [b""] * num_workers

    def clear_inbox(self) -> None:
        self.inbox = [b""] * self.num_workers


class BufferExchange:
    """Performs the pairwise buffer exchange between all workers.

    The simulator delivers every outgoing buffer to the matching peer's
    inbox and resets the writers for the next round.  It only moves
    bytes: what moved is the caller's to account.
    """

    def exchange(self, buffers: list[WorkerBuffers]) -> np.ndarray:
        """Swap one round's buffers; returns ``sent[src, dst]``, the bytes
        each worker sent each peer (self-delivery on the diagonal)."""
        m = len(buffers)
        sent = np.zeros((m, m), dtype=np.int64)

        for wb in buffers:
            wb.clear_inbox()

        for src, wb in enumerate(buffers):
            for dst in range(m):
                data = wb.out[dst].getvalue()
                wb.out[dst].clear()
                if data:
                    buffers[dst].inbox[src] = data
                    sent[src, dst] = len(data)
        return sent
