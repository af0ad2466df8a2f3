"""The per-worker execution context.

A worker owns a disjoint set of vertices (given by the partition array),
their active/halted flags, the channel instances registered by the
program, and this worker's outgoing/incoming raw buffers.  It implements
the frame layer that lets many channels share one buffer per peer: each
channel payload is framed as ``[channel_id:int32][nbytes:int32][payload]``.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

import numpy as np

from repro.core.adjacency import LocalCSR, build_local_csr
from repro.core.vertex import Vertex
from repro.runtime.buffers import WorkerBuffers

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.channel import Channel
    from repro.core.engine import ChannelEngine

__all__ = ["Worker"]

_FRAME = struct.Struct("<ii")  # channel_id, payload nbytes


class Worker:
    """One worker: vertices + channels + buffers.

    ``engine`` is the execution context, not necessarily the
    :class:`~repro.core.engine.ChannelEngine` itself: the multiprocess
    backend substitutes a per-process host
    (:class:`repro.runtime.parallel.worker_proc._WorkerHost`).  The
    contract this class and the channels rely on is the attribute set
    ``graph``, ``owner``, ``num_workers``, ``step_num``, and ``metrics``
    (with the counting surface ``count_channel_bytes`` /
    ``count_messages`` / ``count_channel_messages``).
    """

    def __init__(
        self,
        engine: "ChannelEngine",
        worker_id: int,
        local_ids: np.ndarray,
    ) -> None:
        self.engine = engine
        self.worker_id = worker_id
        self.graph = engine.graph
        self.owner = engine.owner  # global vertex id -> worker id
        self.num_workers = engine.num_workers
        self.local_ids = np.asarray(local_ids, dtype=np.int64)
        self.num_local = int(self.local_ids.size)

        # global id -> local index (only valid for owned vertices)
        self._local_index = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        self._local_index[self.local_ids] = np.arange(self.num_local)

        # vote-to-halt state
        self.halted = np.zeros(self.num_local, dtype=bool)
        self.woken = np.zeros(self.num_local, dtype=bool)

        self.buffers = WorkerBuffers(worker_id, self.num_workers)
        self.channels: list["Channel"] = []
        self._vertex = Vertex(self)
        self.program = None  # bound by build()
        self._local_adj: dict[str, LocalCSR] = {}

    @classmethod
    def build(cls, host, worker_id: int, factory, *, seeds=None, initialize=False) -> "Worker":
        """The one place a worker is made: the vertices ``host.owner``
        assigns it, the program ``factory`` constructs (which registers
        the channels), ``seeds`` (global ids) as the first active set when
        given, and ``initialize()`` on every channel when asked — a
        replacement does that at once, before its state is loaded."""
        worker = cls(host, worker_id, np.flatnonzero(host.owner == worker_id))
        worker.program = factory(worker)
        if seeds is not None:
            worker.seed_active(np.asarray(seeds, dtype=np.int64))
        if initialize:
            for channel in worker.channels:
                channel.initialize()
        return worker

    # -- registration -------------------------------------------------------
    def register_channel(self, channel: "Channel") -> int:
        cid = len(self.channels)
        self.channels.append(channel)
        return cid

    # -- vertex bookkeeping ---------------------------------------------------
    def local_index(self, vid: int) -> int:
        """Local index of an owned vertex (``-1`` if not owned here)."""
        return int(self._local_index[vid])

    def owner_of(self, vid: int) -> int:
        if not 0 <= vid < self.graph.num_vertices:
            raise IndexError(
                f"vertex id {vid} out of range [0, {self.graph.num_vertices})"
            )
        return int(self.owner[vid])

    def halt(self, local_idx: int) -> None:
        self.halted[local_idx] = True

    def halt_bulk(self, local_idx: np.ndarray) -> None:
        """Vote-to-halt a whole array of local indices at once."""
        self.halted[local_idx] = True

    def activate(self, vid: int) -> None:
        """Wake an owned vertex for the next superstep (message arrival)."""
        idx = self._local_index[vid]
        if idx < 0:
            raise ValueError(
                f"vertex {vid} is not owned by worker {self.worker_id}; "
                "activate() only accepts local vertices"
            )
        self.woken[idx] = True

    def activate_local(self, local_idx: int) -> None:
        self.woken[local_idx] = True

    def activate_local_bulk(self, local_idx: np.ndarray) -> None:
        self.woken[local_idx] = True

    def seed_active(self, seeds: np.ndarray) -> None:
        """Restrict the first superstep's active set to the owned subset
        of ``seeds`` (global ids); everything else begins halted."""
        self.halted[:] = True
        local = self._local_index[seeds]
        self.halted[local[local >= 0]] = False

    # -- checkpointing ---------------------------------------------------------
    def snapshot_flags(self) -> dict:
        """Halt/wake state at a superstep boundary (wake flags are set by
        the exchange phase for the *next* superstep, so both matter)."""
        return {"halted": self.halted.copy(), "woken": self.woken.copy()}

    def restore_flags(self, state: dict) -> None:
        self.halted[...] = state["halted"]
        self.woken[...] = state["woken"]

    def begin_superstep(self) -> np.ndarray:
        """Resolve the active set for this superstep and reset wake flags."""
        self.halted &= ~self.woken
        active = np.flatnonzero(~self.halted)
        self.woken[:] = False
        return active

    @property
    def step_num(self) -> int:
        return self.engine.step_num

    # -- adjacency views ------------------------------------------------------
    def local_adjacency(self, direction: str = "out") -> LocalCSR:
        """CSR adjacency of this worker's vertices (built lazily, cached).

        ``direction`` is ``"out"``, ``"in"`` or ``"both"`` (out-edges then
        in-edges per row); bulk programs use it for whole-frontier edge
        gathers instead of per-vertex ``v.edges`` loops.
        """
        if direction not in self._local_adj:
            self._local_adj[direction] = build_local_csr(
                self.graph, self.local_ids, direction
            )
        return self._local_adj[direction]

    # -- compute dispatch ------------------------------------------------------
    def run_compute(self, active: np.ndarray) -> None:
        program = self.program
        if program.is_bulk:
            # bulk path: one call per worker per superstep, no Vertex
            # binding; an idle worker gets no call, matching the scalar loop
            if active.size:
                program.compute_bulk(active)
            return
        v = self._vertex
        for idx in active:
            program.compute(v._bind(idx))

    # -- frame layer -------------------------------------------------------------
    def emit(self, channel_id: int, peer: int, payload: bytes) -> None:
        if not payload:
            return
        writer = self.buffers.out[peer]
        writer.write_bytes(_FRAME.pack(channel_id, len(payload)))
        writer.write_bytes(payload)
        self.engine.metrics.count_channel_bytes(
            self._channel_label(channel_id), len(payload), local=peer == self.worker_id
        )

    def _channel_label(self, channel_id: int) -> str:
        if 0 <= channel_id < len(self.channels):
            return f"{channel_id}:{type(self.channels[channel_id]).__name__}"
        return f"{channel_id}:?"  # raw emit outside the registry

    def route_inbox(self) -> dict[int, list[tuple[int, memoryview]]]:
        """Split received buffers into per-channel payload lists."""
        routed: dict[int, list[tuple[int, memoryview]]] = {}
        for src, data in enumerate(self.buffers.inbox):
            if not data:
                continue
            view = memoryview(data)
            offset = 0
            end = len(view)
            while offset < end:
                cid, nbytes = _FRAME.unpack_from(view, offset)
                offset += _FRAME.size
                routed.setdefault(cid, []).append((src, view[offset : offset + nbytes]))
                offset += nbytes
        self.buffers.clear_inbox()
        return routed

    # -- the exchange round (Fig. 4), written once ------------------------------
    # Every driver — the simulator's lock-step loop, a worker process's
    # autonomous superstep, confined-recovery replay — runs a round as
    # serialize_round, move the buffers, deserialize_round.  Nothing else
    # calls a channel's serialize/deserialize/again.
    def serialize_round(self, group_active: list[bool], flush=None) -> None:
        """First half of a round: every active channel writes its frames
        into the per-peer buffers.  ``flush()``, when given, runs after
        each channel so a transport can start moving that channel's bytes
        while the next one is still serializing."""
        for cid, channel in enumerate(self.channels):
            if group_active[cid]:
                channel.serialize()
                if flush is not None:
                    flush()

    def deserialize_round(self, group_active: list[bool]) -> list[bool]:
        """Second half of a round: route the inbox, hand every active
        channel its payloads, and return each channel's ``again()`` vote.
        A frame no active channel consumes — an inactive channel's id, or
        one no channel is registered under — is a protocol error."""
        routed = self.route_inbox()
        next_active = [False] * len(self.channels)
        for cid, channel in enumerate(self.channels):
            if group_active[cid]:
                channel.deserialize(routed.pop(cid, []))
                next_active[cid] = bool(channel.again())
        if routed:
            cid, payloads = next(iter(routed.items()))
            raise RuntimeError(
                f"worker {self.worker_id} received a frame for channel {cid} "
                f"from worker {payloads[0][0]}, but no active channel consumes it"
            )
        return next_active

    # -- metrics ---------------------------------------------------------------
    def count_net_messages(self, n: int, channel_id: int | None = None) -> None:
        if n:
            self.engine.metrics.count_messages(n)
            if channel_id is not None:
                self.engine.metrics.count_channel_messages(
                    self._channel_label(channel_id), n
                )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Worker({self.worker_id}, |V_local|={self.num_local})"
