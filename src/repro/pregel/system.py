"""The Pregel+ baseline as a message layer on the channel runtime.

Pregel+ gives a program one message type (``message_codec``), at most one
global combiner, and three modes (a run's ``variant``) that exclude one
another: ``"basic"``
point-to-point messages; ``"reqresp"``, whose requests are deduplicated
per worker in a hash set and whose responses echo ``(id, value)`` pairs
(the costs the paper's request-respond channel removes); and ``"ghost"``,
where ``broadcast`` from a vertex of at least ``ghost_threshold``
out-edges ships one value per (vertex, worker), expanded to its neighbors
receiver-side through mirror tables.

Each section of Pregel+'s per-peer buffer is one channel here, driven by
:meth:`~repro.core.worker.Worker.superstep` like every other:
``_Messages`` (``_MSG``), ``_Ghosts`` (``_GHOST``), ``_Requests``
(``_REQ``, then ``_RESP``) and the library's
:class:`~repro.core.channels.Aggregator` (``_AGG_UP``, then
``_AGG_DOWN``).  A frame's ``[channel_id:int32][nbytes:int32]`` is the 8
bytes of a section's ``[section][nbytes]``, so every payload, byte,
message, round and superstep is Pregel+'s.  The receive path keeps
Pregel+'s per-vertex Python lists (or per-message scalar combining), the
"nested vectors" the paper's DirectMessage iterator improves on.

:class:`PregelLayer` is the program every worker runs: it registers the
channels and hosts the user's :class:`~repro.pregel.program.PregelProgram`.
:func:`pregel_plus` binds it to a program and a variant as a program
factory, so a Pregel+ run is a :class:`~repro.core.engine.ChannelEngine`
run like any other.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.core.channel import Channel
from repro.core.channels import Aggregator
from repro.core.channels._records import decode_records
from repro.core.combiner import Combiner
from repro.core.program import BulkVertexProgram
from repro.core.worker import Worker
from repro.pregel.program import PregelProgram, PregelVertex
from repro.runtime.serialization import INT32, Codec
from repro.util import check_count

__all__ = ["PregelLayer", "pregel_plus"]


def _listed(codec: Codec, values: np.ndarray) -> list:
    """Decoded values as Pregel+ hands them to a program: Python scalars,
    or a tuple per record of a structured codec."""
    return [tuple(v) for v in values] if codec.dtype.names else values.tolist()


class _Messages(Channel):
    """``_MSG``: ``[int32 ids][values]`` to each peer, in send order.  The
    receiver keeps a list of values per vertex, or their fold when the
    program declares a combiner; :class:`_Ghosts` delivers into the same
    inbox, after this channel."""

    def __init__(self, worker: Worker, codec: Codec, combiner: Combiner | None) -> None:
        super().__init__(worker)
        self.value_codec = codec
        self.combiner = combiner
        self._dsts: list[list[int]] = [[] for _ in range(worker.num_workers)]
        self._vals: list[list] = [[] for _ in range(worker.num_workers)]
        #: local index -> list of values, or the combined value
        self.inbox: dict[int, object] = {}

    def send(self, dst: int, value) -> None:
        peer = int(self.worker.owner[dst])
        self._dsts[peer].append(dst)
        self._vals[peer].append(value)

    def deliver(self, local: np.ndarray, values: np.ndarray) -> None:
        """Pregel+'s receive path: one append, or one combine, per message."""
        inbox = self.inbox
        if self.combiner is None:
            for i, val in zip(local.tolist(), _listed(self.value_codec, values)):
                inbox.setdefault(i, []).append(val)
        else:
            fn = self.combiner.fn
            for i, val in zip(local.tolist(), values.tolist()):
                inbox[i] = fn(inbox[i], val) if i in inbox else val
        self.worker.activate_local_bulk(local)

    def serialize(self) -> None:
        me = self.worker.worker_id
        for peer, (dsts, vals) in enumerate(zip(self._dsts, self._vals)):
            if dsts:
                self.emit(peer, INT32.encode_array(dsts) + self.value_codec.encode_array(vals))
                if peer != me:
                    self.count_net_messages(len(dsts))
                self._dsts[peer], self._vals[peer] = [], []

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        self.round += 1
        self.inbox = {}
        for _src, payload in payloads:
            ids, values = decode_records(payload, self.value_codec)
            self.deliver(self.worker.local_index(ids), values)

    def snapshot(self) -> dict:
        return {"inbox": self.inbox}

    def restore(self, state: dict) -> None:
        self.inbox = dict(state["inbox"])


class _Ghosts(_Messages):
    """``_GHOST``: ``_MSG``'s wire, one ``(id, value)`` record per
    (broadcasting vertex, peer) for vertices of at least ``threshold``
    out-edges; each worker expands a record into ``messages``' inbox for
    the vertices of its own the sender reaches.  Both tables come from
    the worker's own rows: its out-rows give the peers each of its hubs
    reaches, its in-rows the mirror table."""

    def __init__(self, worker: Worker, messages: _Messages, threshold: int) -> None:
        super().__init__(worker, messages.value_codec, None)
        self.messages = messages
        graph, owner = worker.graph, worker.owner
        degrees = graph.out_degrees
        hubs = worker.local_ids[degrees[worker.local_ids] >= threshold]
        self.peers = {vid: np.unique(owner[graph.neighbors(vid)]) for vid in hubs.tolist()}
        adj = worker.local_adjacency("in")
        srcs = adj.indices
        rows = np.repeat(np.arange(worker.num_local), adj.degrees)
        hub_edge = degrees[srcs] >= threshold
        srcs, rows = srcs[hub_edge], rows[hub_edge]
        order = np.argsort(srcs, kind="stable")
        vids, starts = np.unique(srcs[order], return_index=True)
        #: hub id -> the local vertices it reaches, once per edge
        self.mirrors = dict(zip(vids.tolist(), np.split(rows[order], starts[1:])))

    def broadcast(self, vid: int, value) -> bool:
        """Ship ``value`` from hub ``vid`` to its peers; ``False`` when
        ``vid`` is no hub, for the caller to message every neighbor."""
        peers = self.peers.get(vid)
        if peers is None:
            return False
        for peer in peers.tolist():
            self._dsts[peer].append(vid)
            self._vals[peer].append(value)
        return True

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        self.round += 1
        for _src, payload in payloads:
            ids, values = decode_records(payload, self.value_codec)
            for k, vid in enumerate(ids.tolist()):
                local = self.mirrors[vid]
                self.messages.deliver(local, np.repeat(values[k : k + 1], local.size))


class _Requests(Channel):
    """``_REQ`` then ``_RESP``: round one ships each worker's requested ids,
    deduplicated in a hash set, to their owners; round two answers with
    ``(id, value)`` pairs and wakes the vertices that asked."""

    def __init__(self, worker: Worker, program: PregelProgram) -> None:
        super().__init__(worker)
        self.program = program
        self.value_codec = program.message_codec
        self._asked: set[int] = set()
        self._requesters: list[int] = []
        self._answers: list[list] = [[] for _ in range(worker.num_workers)]
        #: requested id -> its value, read by the superstep after the request
        self.responses: dict[int, object] = {}

    def request(self, dst: int, local: int) -> None:
        self._asked.add(dst)
        self._requesters.append(local)

    def serialize(self) -> None:
        me = self.worker.worker_id
        if self.round == 0:
            by_peer: dict[int, list[int]] = {}
            for dst in self._asked:
                by_peer.setdefault(int(self.worker.owner[dst]), []).append(dst)
            self._asked = set()
            for peer, ids in by_peer.items():
                ids.sort()
                self.emit(peer, INT32.encode_array(ids))
                if peer != me:
                    self.count_net_messages(len(ids))
            return
        for peer, pairs in enumerate(self._answers):
            if pairs:
                ids = INT32.encode_array([p[0] for p in pairs])
                self.emit(peer, ids + self.value_codec.encode_array([p[1] for p in pairs]))
                if peer != me:
                    self.count_net_messages(len(pairs))
                self._answers[peer] = []

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        if self.round == 0:
            respond = self.program.respond_value
            for src, payload in payloads:
                ids = INT32.decode_array(payload).astype(np.int64)
                local = self.worker.local_index(ids)
                self._answers[src] += zip(ids.tolist(), map(respond, local.tolist()))
        else:
            self.responses = {}
            for _src, payload in payloads:
                ids, values = decode_records(payload, self.value_codec)
                self.responses.update(zip(ids.tolist(), _listed(self.value_codec, values)))
            if self.responses and self._requesters:
                self.worker.activate_local_bulk(np.asarray(self._requesters, dtype=np.int64))
            self._requesters = []
        self.round += 1

    def again(self) -> bool:
        return self.round == 1 and any(self._answers)

    def snapshot(self) -> dict:
        return {"responses": self.responses}

    def restore(self, state: dict) -> None:
        self.responses = dict(state["responses"])


class _Aggregator(Aggregator):
    """The library's aggregator, whose result is ``None`` until the first
    broadcast lands: Pregel+'s ``agg_result`` in superstep 1."""

    def __init__(self, worker: Worker, combiner: Combiner) -> None:
        super().__init__(worker, combiner)
        self._result = None


class PregelLayer(BulkVertexProgram):
    """What each worker runs: the message layer of one engine's ``variant``
    as channels, and the user's program (``pregel``), whose ``compute``
    it calls per active vertex with that vertex's messages."""

    def __init__(
        self,
        worker: Worker,
        program_factory: Callable[[Worker], PregelProgram],
        variant: str,
        ghost_threshold: int,
    ) -> None:
        super().__init__(worker)
        self.pregel = program = program_factory(worker)
        self.messages = _Messages(worker, program.message_codec, program.combiner)
        ghost = variant == "ghost"
        self.ghosts = _Ghosts(worker, self.messages, ghost_threshold) if ghost else None
        self.requests = _Requests(worker, program) if variant == "reqresp" else None
        comb = program.aggregator_combiner
        self.aggregator = _Aggregator(worker, comb) if comb is not None else None
        # the program's phase hook, state and results are this worker's
        self.before_superstep, self.finalize = program.before_superstep, program.finalize
        self.state_dict, self.load_state_dict = program.state_dict, program.load_state_dict
        self._vertex = PregelVertex(self)

    def compute_bulk(self, active: np.ndarray) -> None:
        program, v, inbox = self.pregel, self._vertex, self.messages.inbox
        if program.combiner is None:
            for i in active.tolist():
                program.compute(v._bind(i), inbox.get(i, []))
        else:
            for i in active.tolist():
                program.compute(v._bind(i), inbox.get(i))

    # -- what PregelVertex and PregelProgram call ------------------------------
    def broadcast(self, vid: int, value) -> None:
        if self.ghosts is None or not self.ghosts.broadcast(vid, value):
            for dst in self.worker.graph.neighbors(vid).tolist():
                self.messages.send(dst, value)

    def request(self, dst: int, local: int) -> None:
        if self.requests is None:
            raise RuntimeError("request() needs variant='reqresp'")
        self.requests.request(dst, local)

    def aggregate(self, value) -> None:
        if self.aggregator is None:
            raise RuntimeError("program declares no aggregator_combiner")
        self.aggregator.add(value)

    @property
    def agg_result(self):
        return None if self.aggregator is None else self.aggregator.result()


def pregel_plus(
    program: Callable[[Worker], PregelProgram], variant: str = "basic", ghost_threshold: int = 16
) -> Callable[[Worker], PregelLayer]:
    """The program factory that runs ``program`` (a
    :class:`PregelProgram` class or a :class:`~repro.core.ProgramSpec`)
    on the Pregel+ message layer of ``variant`` (basic / reqresp / ghost):
    hand it to :class:`~repro.core.engine.ChannelEngine` or
    :func:`~repro.algorithms._common.run_engine` like any other factory.
    It pickles whenever ``program`` does.  ``ghost_threshold`` is a
    count, checked here, before any worker is built."""
    if variant not in ("basic", "reqresp", "ghost"):
        raise ValueError(f"unknown variant {variant!r}")
    ghost_threshold = check_count("ghost_threshold", ghost_threshold)
    return partial(
        PregelLayer, program_factory=program, variant=variant, ghost_threshold=ghost_threshold
    )
