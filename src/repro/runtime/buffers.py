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

from repro.runtime.metrics import MetricsCollector
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

    def out_nbytes(self) -> tuple[int, int]:
        """(network bytes, local bytes) currently queued for sending."""
        net = 0
        for peer, writer in enumerate(self.out):
            if peer != self.worker_id:
                net += writer.nbytes
        return net, self.out[self.worker_id].nbytes

    def clear_inbox(self) -> None:
        self.inbox = [b""] * self.num_workers


class BufferExchange:
    """Performs the pairwise buffer exchange between all workers.

    The simulator delivers every outgoing buffer to the matching peer's
    inbox, records byte totals with the metrics collector (which also
    charges modeled network time), and resets the writers for the next
    round.
    """

    def __init__(self, metrics: MetricsCollector) -> None:
        self.metrics = metrics

    def exchange(self, buffers: list[WorkerBuffers]) -> None:
        m = len(buffers)
        send_bytes = np.zeros(m, dtype=np.int64)
        recv_bytes = np.zeros(m, dtype=np.int64)
        local_bytes = 0

        for wb in buffers:
            wb.clear_inbox()

        for src, wb in enumerate(buffers):
            for dst in range(m):
                data = wb.out[dst].getvalue()
                wb.out[dst].clear()
                if not data:
                    continue
                buffers[dst].inbox[src] = data
                if src == dst:
                    local_bytes += len(data)
                else:
                    send_bytes[src] += len(data)
                    recv_bytes[dst] += len(data)

        self.metrics.record_exchange(send_bytes, recv_bytes, local_bytes=local_bytes)
