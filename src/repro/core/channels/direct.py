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

from repro.core.channels._records import RecordChannel
from repro.core.worker import Worker
from repro.core.vertex import Vertex
from repro.runtime.serialization import Codec, INT32, INT64
from repro.util import stable_order

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

    def migrate_states(self, states: list[dict], ctx) -> list[dict]:
        # expand each CSR inbox to (global vertex, value) rows, route by
        # the new owner, regroup per receiver; every vertex's inbox lived
        # on exactly one old worker, so its per-vertex value order (the
        # only order get_iterator exposes) is preserved bit-identically
        gids = np.concatenate(
            [
                np.repeat(ctx.old_locals[w], np.diff(s["recv_indptr"]))
                for w, s in enumerate(states)
            ]
        )
        vals = np.concatenate([s["recv_vals"] for s in states])
        out = []
        for w, gids_w, (vals_w,) in ctx.route(gids, vals):
            local = ctx.localize(w, gids_w)
            num_local = ctx.new_locals[w].size
            order, local_sorted = stable_order(local, num_local)
            indptr = np.zeros(num_local + 1, dtype=np.int64)
            counts = np.bincount(local_sorted, minlength=num_local)
            np.cumsum(counts, out=indptr[1:])
            out.append({"recv_indptr": indptr, "recv_vals": vals_w[order]})
        return out

    # -- round protocol (serialize inherited from RecordChannel) ------------
    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        self.round += 1
        worker = self.worker
        itemsize = INT32.itemsize + self.value_codec.itemsize
        all_dst: list[np.ndarray] = []
        all_val: list[np.ndarray] = []
        for _src, payload in payloads:
            count = len(payload) // itemsize
            all_dst.append(INT32.decode_array(payload[: count * INT32.itemsize]))
            all_val.append(
                self.value_codec.decode_array(payload[count * INT32.itemsize :], count)
            )
        if not all_dst:
            self._recv_indptr[:] = 0
            self._recv_vals = self._recv_vals[:0]
            return
        dst = np.concatenate(all_dst).astype(np.int64)
        vals = np.concatenate(all_val)
        local = worker._local_index[dst]
        order, local_sorted = stable_order(local, worker.num_local)
        self._recv_vals = vals[order]
        counts = np.bincount(local_sorted, minlength=worker.num_local)
        self._recv_indptr[0] = 0
        np.cumsum(counts, out=self._recv_indptr[1:])
        worker.activate_local_bulk(np.unique(local_sorted))
