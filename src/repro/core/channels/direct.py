"""``DirectMessage``: plain point-to-point message passing (Table I).

Wire format per peer and round: an ``int32`` destination array followed by
a value array (the payload length plus the fixed codec sizes recover the
count, so no explicit header is needed).  The receiver groups messages by
destination vertex with one stable sort — this is the "message iterator"
the paper credits for DirectMessage being faster than Pregel+'s nested
vectors.
"""

from __future__ import annotations

import numpy as np

from repro.core.channels._records import RecordChannel, receive_records
from repro.core.worker import Worker
from repro.core.vertex import Vertex
from repro.runtime.serialization import Codec, INT64
from repro.util import csr_group

__all__ = ["DirectMessage"]


class DirectMessage(RecordChannel):
    """Send arbitrary values to arbitrary vertices; read them all next
    superstep via :meth:`get_iterator`.

    The send path (scalar and vectorized) lives in :class:`RecordChannel`.

    Parameters
    ----------
    worker:
        The owning worker (the paper's ``Worker<VertexT> *w``).
    value_codec:
        Wire codec of message values (default ``int64``).
    """

    def __init__(self, worker: Worker, value_codec: Codec = INT64) -> None:
        super().__init__(worker, value_codec)
        # receive side: messages grouped by local vertex
        self._recv_indptr = np.zeros(worker.num_local + 1, dtype=np.int64)
        self._recv_vals = np.empty(0, dtype=value_codec.dtype)

    # -- receiving (next superstep's compute) --------------------------------
    def get_messages(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, values)`` views of the whole inbox in CSR form:
        messages for local vertex ``i`` are ``values[indptr[i]:indptr[i+1]]``.
        The bulk analogue of :meth:`get_iterator`; treat as read-only."""
        return self._recv_indptr, self._recv_vals

    def get_iterator(self, v: Vertex) -> np.ndarray:
        """All message values delivered to ``v`` this superstep."""
        vals = self._recv_vals
        if vals.size == 0:  # fast path: nothing arrived on this channel
            return vals
        lo, hi = self._recv_indptr[v.local], self._recv_indptr[v.local + 1]
        return vals[lo:hi]

    def has_messages(self, v: Vertex) -> bool:
        return bool(self._recv_indptr[v.local + 1] > self._recv_indptr[v.local])

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "recv_indptr": self._recv_indptr.copy(),
            "recv_vals": self._recv_vals.copy(),
        }

    def restore(self, state: dict) -> None:
        self._recv_indptr = state["recv_indptr"].copy()
        self._recv_vals = state["recv_vals"].copy()

    # -- round protocol (serialize inherited from RecordChannel) ------------
    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        self.round += 1
        worker = self.worker
        if not payloads:
            self._recv_indptr[:] = 0
            self._recv_vals = self._recv_vals[:0]
            return
        local, vals = zip(*(receive_records(self, src, p) for src, p in payloads))
        self._recv_indptr, order = csr_group(np.concatenate(local), worker.num_local)
        self._recv_vals = np.concatenate(vals)[order]
        worker.activate_local_bulk(np.flatnonzero(np.diff(self._recv_indptr)))
