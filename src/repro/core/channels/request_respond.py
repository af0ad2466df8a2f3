"""``RequestRespond``: two-round request/response conversations (Fig. 6).

A vertex asks for an attribute of any other vertex with ``add_request``;
the answer is available via ``get_respond`` in the next superstep.  Two
optimizations over naive messaging, both from the paper:

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
from repro.core.channels._records import emit_payloads
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
        self._requests: list[int] = []
        self._requesters: list[int] = []
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
        self._resp_map: dict = {}

    # -- requesting (during compute) ------------------------------------
    def add_request(self, v: Vertex, dst: int) -> None:
        """Request the attribute of global vertex ``dst`` on behalf of ``v``."""
        self._requests.append(dst)
        self._requesters.append(v.local)

    # -- reading (next superstep) -------------------------------------------
    def get_respond(self, dst: int):
        """The responder's value for ``dst`` (requested last superstep)."""
        try:
            return self._resp_map[dst]
        except KeyError:
            raise KeyError(f"vertex {dst} was not requested last superstep") from None

    def has_respond(self, dst: int) -> bool:
        return dst in self._resp_map

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "resp_keys": self._resp_keys.copy(),
            "resp_vals": self._resp_vals.copy(),
            "asked": [a.copy() for a in self._asked],
        }

    def _set_responses(self, keys: np.ndarray, vals: np.ndarray) -> None:
        self._resp_keys, self._resp_vals = keys, vals
        # one bulk pass builds the lookup; per-vertex reads are O(1) (and
        # struct-codec values come back as tuples, received or restored)
        self._resp_map = dict(zip(keys.tolist(), vals.tolist()))

    def restore(self, state: dict) -> None:
        self._set_responses(state["resp_keys"].copy(), state["resp_vals"].copy())
        self._asked = [a.copy() for a in state["asked"]]
        self._requests = []
        self._requesters = []
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
        uniq = np.unique(np.asarray(self._requests, dtype=np.int64))
        self._requests = []
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
            self._set_responses(np.concatenate(keys), np.concatenate(vals))
            # wake the vertices that asked — their answer is here
            if self._requesters:
                worker.activate_local_bulk(
                    np.unique(np.asarray(self._requesters, dtype=np.int64))
                )
        else:
            self._set_responses(self._resp_keys[:0], self._resp_vals[:0])
        self._requesters = []

    def again(self) -> bool:
        if self.round == 1:
            # a respond round is needed if we asked anyone or owe answers
            return self._have_responses or any(a.size for a in self._asked)
        return False
