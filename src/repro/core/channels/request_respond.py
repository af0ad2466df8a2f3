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
from repro.core.channels._records import RecordBuffer, check_ids, emit_payloads
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
        echo_ids: bool = False,
    ) -> None:
        super().__init__(worker)
        self.respond_fn = respond_fn
        self.respond_fn_bulk = respond_fn_bulk
        self.value_codec = codec
        #: ablation switch (D1 in DESIGN.md): ship Pregel+-style (id, value)
        #: responses instead of positional bare values
        self.echo_ids = echo_ids
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
        self._echo_ids_out: list[np.ndarray | None] = [None] * worker.num_workers
        self._have_responses = False
        # results readable next superstep
        self._resp_keys = np.empty(0, dtype=np.int64)
        self._resp_vals = np.empty(0, dtype=codec.dtype)
        self._resp_map: dict | None = None  # scalar lookup, built on first use

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
        keys = self._resp_keys
        if keys.size == 0:
            if dsts.size:
                raise self._not_requested(int(dsts[0]))
            return self._resp_vals[:0]
        pos = np.searchsorted(keys, dsts)
        np.minimum(pos, keys.size - 1, out=pos)
        missing = keys[pos] != dsts
        if missing.any():
            raise self._not_requested(int(dsts[missing][0]))
        return self._resp_vals[pos]

    def has_respond(self, dst: int) -> bool:
        return dst in self._lookup()

    def _lookup(self) -> dict:
        if self._resp_map is None:
            # one bulk pass builds the lookup; per-vertex reads are O(1) (and
            # struct-codec values come back as tuples, received or restored)
            self._resp_map = dict(
                zip(self._resp_keys.tolist(), self._resp_vals.tolist())
            )
        return self._resp_map

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
        self._resp_map = None

    def restore(self, state: dict) -> None:
        self._set_responses(state["resp_keys"].copy(), state["resp_vals"].copy())
        self._asked = [a.copy() for a in state["asked"]]
        self._pending.clear()
        self._requesters = self._requesters[:0]
        self._responses_out = [None] * self.num_workers
        self._echo_ids_out = [None] * self.num_workers
        self._have_responses = False

    def migrate_states(self, states: list[dict], ctx) -> list[dict]:
        # the response cache is requester-side, keyed only by the global
        # id that was asked about — there is no per-requester attribution
        # to re-key, so migration is defined only when every worker is
        # fully quiescent (no cached responses, no outstanding asks);
        # that is the state between supersteps whenever the program
        # consumed its responses, which it must to make progress
        for w, s in enumerate(states):
            if s["resp_keys"].size or any(a.size for a in s["asked"]):
                raise RuntimeError(
                    f"RequestRespond on worker {w} holds cached responses "
                    "or outstanding requests; migration is only defined "
                    "when the channel is quiescent"
                )
        return [dict(s) for s in states]

    # -- round protocol ----------------------------------------------------
    def serialize(self) -> None:
        if self.round == 0:
            self._serialize_requests()
        elif self.round == 1:
            self._serialize_responses()

    def _serialize_requests(self) -> None:
        self._requesters, dsts = self._pending.flat()
        self._pending.clear()
        n = self.worker.graph.num_vertices
        check_ids(self, "request id", dsts, n)
        # dedup: mark what was asked for, read the marks back in id order
        mark = np.zeros(n, dtype=bool)
        mark[dsts] = True
        uniq = np.flatnonzero(mark)
        owners = self.worker.owner[uniq]
        self._asked = [uniq[owners == peer] for peer in range(self.num_workers)]
        emit_payloads(
            self,
            (
                (peer, INT32.encode_array(mine), mine.size)
                for peer, mine in enumerate(self._asked)
            ),
        )

    def _serialize_responses(self) -> None:
        net_msgs = 0
        for peer, vals in enumerate(self._responses_out):
            if vals is None or vals.size == 0:
                continue
            payload = self.value_codec.encode_array(vals)
            if self.echo_ids:
                # D1 ablation: prepend the echoed request ids (receiver
                # still matches positionally, so results are unchanged —
                # only the wire size grows, as in Pregel+'s reqresp)
                payload = self._echo_ids_out[peer].astype(np.int32).tobytes() + payload
            self.emit(peer, payload)
            if peer != self.worker.worker_id:
                net_msgs += int(vals.size)
            self._responses_out[peer] = None
        self._have_responses = False
        self.count_net_messages(net_msgs)

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        if self.round == 0:
            self._deserialize_requests(payloads)
        elif self.round == 1:
            self._deserialize_responses(payloads)
        self.round += 1

    def _deserialize_requests(self, payloads: list[tuple[int, memoryview]]) -> None:
        worker = self.worker
        for src, payload in payloads:
            ids = INT32.decode_array(payload).astype(np.int64)
            local = worker._local_index[ids]
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
            if self.echo_ids:
                self._echo_ids_out[src] = ids
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
            if self.echo_ids:
                # skip the redundant id echo (D1 ablation wire format)
                payload = payload[asked.size * INT32.itemsize :]
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
