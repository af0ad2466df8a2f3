"""``RequestRespond``: two-round request/response conversations (Fig. 6).

A vertex asks for an attribute of any other vertex with ``add_request``;
the answer is available via ``get_respond`` in the next superstep
(``add_requests`` / ``get_responds`` are the array forms bulk programs
use).  Two optimizations over naive messaging, both from the paper:

* **per-worker request dedup** — duplicate requests for the same
  destination collapse into one wire record, so a high-degree responder
  receives at most one request per worker (the load-balance fix);
* **positional responses** — the responder returns a bare value array in
  exactly the order of the (sorted, unique) request ids it received, so
  responses carry no vertex identifiers.  Pregel+'s reqresp mode echoes
  ``(id, value)`` pairs; dropping the echo is the paper's constant ~33%
  respond-size saving.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.channel import Channel
from repro.core.channels._records import (
    RecordBuffer,
    as_int32,
    check_ids,
    emit_payloads,
    local_ids,
)
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.runtime.serialization import Codec, INT32, INT64

__all__ = ["RequestRespond"]


class RequestRespond(Channel):
    """Request an attribute of another vertex; receive it next superstep.

    Parameters
    ----------
    worker:
        Owning worker.
    respond_fn:
        ``Vertex -> value``; evaluated on the responder's side for every
        vertex that received a request (the paper's
        ``function<RespT(VertexT)> f``).
    codec:
        Wire codec of response values.
    respond_fn_bulk:
        Optional vectorized override: ``(local_indices: int64 array) ->
        value array``.  When the requested attribute lives in a NumPy state
        array, answering a whole batch is one fancy-indexing expression.
    """

    def __init__(
        self,
        worker: Worker,
        respond_fn: Callable[[Vertex], object],
        codec: Codec = INT64,
        respond_fn_bulk: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        super().__init__(worker)
        self.respond_fn = respond_fn
        self.respond_fn_bulk = respond_fn_bulk
        self.value_codec = codec
        self._vertex = Vertex(worker)  # responder-side handle
        #: this superstep's (requester local index, requested id) rows
        self._pending = RecordBuffer(np.int64, np.int64)
        # who to wake when the answers arrive
        self._requesters = np.empty(0, dtype=np.int64)
        # round-0 bookkeeping: what we asked each peer for (sorted unique)
        self._asked: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(worker.num_workers)
        ]
        # round-1 queued responses, per peer
        self._responses_out: list[np.ndarray | None] = [None] * worker.num_workers
        self._have_responses = False
        # results readable next superstep
        self._resp_keys = np.empty(0, dtype=np.int64)
        self._resp_vals = np.empty(0, dtype=codec.dtype)
        self._resp_map: dict | None = None  # scalar lookup, built on first use
        self._resp_pos: np.ndarray | None = None  # id -> position, likewise

    # -- requesting (during compute) ------------------------------------
    def add_request(self, v: Vertex, dst: int) -> None:
        """Request the attribute of global vertex ``dst`` on behalf of ``v``."""
        requesters, dsts = self._pending.rows
        requesters.append(v.local)
        dsts.append(dst)

    def add_requests(self, local_idx: np.ndarray, dsts: np.ndarray) -> None:
        """Array form of :meth:`add_request`: local vertex ``local_idx[i]``
        requests the attribute of global vertex ``dsts[i]``."""
        local_idx = np.asarray(local_idx, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if local_idx.shape != dsts.shape:
            raise ValueError("local_idx and dsts must have equal length")
        self._pending.add_chunk(local_idx, dsts)

    # -- reading (next superstep) -------------------------------------------
    def get_respond(self, dst: int):
        """The responder's value for ``dst`` (requested last superstep)."""
        try:
            return self._lookup()[dst]
        except KeyError:
            raise self._not_requested(dst) from None

    def get_responds(self, dsts: np.ndarray) -> np.ndarray:
        """Array form of :meth:`get_respond`: the responders' values for
        ``dsts``, each of which must have been requested last superstep."""
        dsts = np.asarray(dsts, dtype=np.int64)
        if dsts.size == 0:
            return self._resp_vals[:0]
        at = self._positions()
        if dsts.min() >= 0 and dsts.max() < at.size:
            pos = at[dsts]
            if (pos >= 0).all():
                return self._resp_vals[pos]
        # name the first id outside [0, V) or not asked for
        missing = (dsts < 0) | (dsts >= at.size)
        missing[~missing] = at[dsts[~missing]] < 0
        raise self._not_requested(int(dsts[missing.argmax()]))

    def _lookup(self) -> dict:
        if self._resp_map is None:
            # one bulk pass builds the lookup; per-vertex reads are O(1) (and
            # struct-codec values come back as tuples, received or restored)
            self._resp_map = dict(
                zip(self._resp_keys.tolist(), self._resp_vals.tolist())
            )
        return self._resp_map

    def _positions(self) -> np.ndarray:
        if self._resp_pos is None:
            # mark each answered id with its position; -1: not requested
            self._resp_pos = np.full(self.worker.graph.num_vertices, -1, dtype=np.intp)
            self._resp_pos[self._resp_keys] = np.arange(self._resp_keys.size)
        return self._resp_pos

    @staticmethod
    def _not_requested(dst: int) -> KeyError:
        return KeyError(f"vertex {dst} was not requested last superstep")

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "resp_keys": self._resp_keys.copy(),
            "resp_vals": self._resp_vals.copy(),
            "asked": [a.copy() for a in self._asked],
        }

    def _set_responses(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """``keys`` sorted and unique, ``vals`` aligned with them."""
        self._resp_keys, self._resp_vals = keys, vals
        self._resp_map = self._resp_pos = None

    def restore(self, state: dict) -> None:
        self._set_responses(state["resp_keys"].copy(), state["resp_vals"].copy())
        self._asked = [a.copy() for a in state["asked"]]
        self._pending.clear()
        self._requesters = self._requesters[:0]
        self._responses_out = [None] * self.num_workers
        self._have_responses = False

    # -- round protocol ----------------------------------------------------
    def serialize(self) -> None:
        if self.round == 0:
            self._serialize_requests()
        elif self.round == 1:
            self._serialize_responses()

    def _serialize_requests(self) -> None:
        self._requesters, dsts = self._pending.flat()
        self._pending.clear()
        check_ids(self, "request id", dsts, self.worker.graph.num_vertices)
        # dedup: mark what was asked for over the span of the ids, read the
        # marks back in id order
        lo, hi = (int(dsts.min()), int(dsts.max())) if dsts.size else (0, -1)
        mark = np.zeros(hi - lo + 1, dtype=bool)
        mark[dsts - lo] = True
        uniq = lo + np.flatnonzero(mark)
        owners = self.worker.owner[uniq]
        self._asked = [uniq[owners == peer] for peer in range(self.num_workers)]
        emit_payloads(
            self,
            (
                (peer, as_int32(self, "request id", mine).tobytes(), mine.size)
                for peer, mine in enumerate(self._asked)
            ),
        )

    def _serialize_responses(self) -> None:
        out, self._responses_out = self._responses_out, [None] * self.num_workers
        emit_payloads(
            self,
            (
                (peer, self.value_codec.encode_array(vals), vals.size)
                for peer, vals in enumerate(out)
                if vals is not None
            ),
        )
        self._have_responses = False

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        if self.round == 0:
            self._deserialize_requests(payloads)
        elif self.round == 1:
            self._deserialize_responses(payloads)
        self.round += 1

    def _deserialize_requests(self, payloads: list[tuple[int, memoryview]]) -> None:
        for src, payload in payloads:
            if len(payload) % INT32.itemsize:
                raise RuntimeError(
                    f"{self!r}: worker {src} sent {len(payload)} bytes of int32 request ids"
                )
            ids = INT32.decode_array(payload).astype(np.int64)
            local = local_ids(self, src, ids)
            if self.respond_fn_bulk is not None:
                vals = np.asarray(
                    self.respond_fn_bulk(local), dtype=self.value_codec.dtype
                )
            else:
                v = self._vertex
                vals = np.fromiter(
                    (self.respond_fn(v._bind(int(i))) for i in local),
                    dtype=self.value_codec.dtype,
                    count=local.size,
                )
            self._responses_out[src] = vals
            self._have_responses = True

    def _deserialize_responses(self, payloads: list[tuple[int, memoryview]]) -> None:
        worker = self.worker
        got: dict[int, np.ndarray] = {src: payload for src, payload in payloads}
        keys: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for peer in range(self.num_workers):
            asked = self._asked[peer]
            if asked.size == 0:
                continue
            payload = got.get(peer)
            if payload is None:
                raise RuntimeError(
                    f"worker {worker.worker_id} asked {peer} for {asked.size} "
                    "values but received no response"
                )
            keys.append(asked)
            vals.append(self.value_codec.decode_array(payload, asked.size))
        if keys:
            keys, vals = np.concatenate(keys), np.concatenate(vals)
            # each peer's ids are sorted; one stable sort merges the runs
            order = np.argsort(keys, kind="stable")
            self._set_responses(keys[order], vals[order])
            # wake the vertices that asked — their answer is here
            worker.activate_local_bulk(self._requesters)
        else:
            self._set_responses(self._resp_keys[:0], self._resp_vals[:0])
        self._requesters = self._requesters[:0]

    def again(self) -> bool:
        if self.round == 1:
            # a respond round is needed if we asked anyone or owe answers
            return self._have_responses or any(a.size for a in self._asked)
        return False
