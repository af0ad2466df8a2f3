"""The per-worker execution context.

A worker owns a disjoint set of vertices (given by the partition array),
their active/halted flags, the channel instances registered by the
program, and this worker's outgoing/incoming raw buffers.  It implements
the frame layer that lets many channels share one buffer per peer: each
channel payload is framed as ``[channel_id:int32][nbytes:int32][payload]``.
"""

from __future__ import annotations

import struct
import time
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.adjacency import LocalCSR, build_local_csr
from repro.core.lanes import lane_count
from repro.core.vertex import Vertex
from repro.graph.graph import MAX_VERTICES
from repro.runtime.buffers import WorkerBuffers

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.channel import Channel
    from repro.core.engine import ChannelEngine

__all__ = ["MAX_VERTICES", "OwnerTable", "Worker"]

_FRAME = struct.Struct("<ii")  # channel_id, payload nbytes
#: the largest payload a frame's int32 length can carry
_MAX_PAYLOAD = 2**31 - 1


class OwnerTable:
    """The placement a worker's host keeps (the engine on sim, the
    child's host on the process backend): ``owner``, global vertex id ->
    worker id, and ``positions``, each vertex's position among its
    owner's vertices in ascending id order — one ``int32[V]`` table per
    host, however many workers it holds, built on first use.  Ownership
    is fixed for a run, so the table never goes stale.
    :meth:`Worker.local_index` reads it.

    A host also shares its cores among the workers it runs at once
    (``workers_at_once``: one on sim, which advances a worker at a time):
    :attr:`scan_lanes`."""

    num_workers: int
    owner: np.ndarray
    workers_at_once = 1

    @property
    def scan_lanes(self) -> int:
        """The lanes each of this host's workers scans on
        (:func:`~repro.core.lanes.lane_count`)."""
        return lane_count(self.workers_at_once)

    @staticmethod
    def check_vertices(num_vertices: int) -> None:
        """Refuse a graph whose positions an int32 table cannot hold."""
        if num_vertices > MAX_VERTICES:
            raise ValueError(
                f"a graph of {num_vertices} vertices: a host places at most "
                f"{MAX_VERTICES} (2**31, int32 positions)"
            )

    @cached_property
    def positions(self) -> np.ndarray:
        positions = np.empty(self.owner.size, dtype=np.int32)
        for w in range(self.num_workers):
            ids = np.flatnonzero(self.owner == w)
            positions[ids] = np.arange(ids.size, dtype=np.int32)
        return positions


class Worker:
    """One worker: vertices + channels + buffers.

    ``engine`` is the execution context, not necessarily the
    :class:`~repro.core.engine.ChannelEngine` itself: the multiprocess
    backend substitutes a per-process host
    (:class:`repro.runtime.parallel.worker_proc._WorkerHost`).  The
    contract this class and the channels rely on is the attribute set
    ``graph``, ``owner``, ``positions`` and ``scan_lanes`` (the host is
    an :class:`OwnerTable`), ``num_workers`` and ``step_num``.  A worker
    counts its own superstep into :attr:`books`; the host keeps no
    counters.
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
        self._positions = engine.positions  # global id -> position within its owner
        self.num_workers = engine.num_workers
        self.local_ids = np.asarray(local_ids, dtype=np.int64)
        self.num_local = int(self.local_ids.size)

        # vote-to-halt state
        self.halted = np.zeros(self.num_local, dtype=bool)
        self.woken = np.zeros(self.num_local, dtype=bool)

        self.buffers = WorkerBuffers(worker_id, self.num_workers)
        self.channels: list["Channel"] = []
        self._vertex = Vertex(self)
        self.program = None  # bound by build()
        self._local_adj: dict[str, LocalCSR] = {}
        self._open_books(0)

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
    def local_index(self, vid):
        """Local index of an owned vertex, ``-1`` where another worker owns
        it; ``vid`` is one global id (an ``int`` back) or an array of them
        (an ``int64`` array back).  An id past the last vertex is an
        ``IndexError``; a negative one counts from the end, as an index."""
        local = np.where(self.owner[vid] == self.worker_id, self._positions[vid], np.int64(-1))
        return int(local) if local.ndim == 0 else local

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
        """Wake an owned vertex for the next superstep (message arrival).
        An id outside ``[0, V)`` is an ``IndexError``, as in :meth:`owner_of`."""
        if self.owner_of(vid) != self.worker_id:
            raise ValueError(
                f"vertex {vid} is not owned by worker {self.worker_id}; "
                "activate() only accepts local vertices"
            )
        self.woken[self._positions[vid]] = True

    def activate_local_bulk(self, local_idx: np.ndarray) -> None:
        self.woken[local_idx] = True

    def seed_active(self, seeds: np.ndarray) -> None:
        """Restrict the first superstep's active set to the owned subset
        of ``seeds`` (global ids); everything else begins halted."""
        self.halted[:] = True
        local = self.local_index(seeds)
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
        """Resolve the active set for this superstep, reset wake flags and
        open the superstep's :attr:`books`."""
        self.halted &= ~self.woken
        active = np.flatnonzero(~self.halted)
        self.woken[:] = False
        self._open_books(int(active.size))
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
        if len(payload) > _MAX_PAYLOAD:
            raise ValueError(
                f"worker {self.worker_id}: a payload of {len(payload)} bytes for channel "
                f"{channel_id} to worker {peer} does not fit a frame "
                f"(at most {_MAX_PAYLOAD} bytes)"
            )
        writer = self.buffers.out[peer]
        writer.write_bytes(_FRAME.pack(channel_id, len(payload)))
        writer.write_bytes(payload)
        self._traffic(channel_id)[1 if peer == self.worker_id else 0] += len(payload)

    def _traffic(self, channel_id: int) -> list[int]:
        """The channel's ``[net bytes, local bytes, messages]`` in the books."""
        if 0 <= channel_id < len(self.channels):
            label = f"{channel_id}:{type(self.channels[channel_id]).__name__}"
        else:
            label = f"{channel_id}:?"  # raw emit outside the registry
        return self.books["channels"].setdefault(label, [0, 0, 0])

    def route_inbox(self) -> dict[int, list[tuple[int, memoryview]]]:
        """Split received buffers into per-channel payload lists.  A
        buffer that is not whole frames — a tail shorter than a frame
        header, a length that is negative or runs past the buffer — is a
        ``RuntimeError`` naming the source worker (and the channel, once
        its header is read)."""
        routed: dict[int, list[tuple[int, memoryview]]] = {}
        for src, data in enumerate(self.buffers.inbox):
            if not data:
                continue
            view = memoryview(data)
            offset = 0
            end = len(view)
            while offset < end:
                if end - offset < _FRAME.size:
                    raise RuntimeError(
                        f"worker {self.worker_id}: worker {src} sent {end - offset} bytes "
                        f"after its last frame, short of a {_FRAME.size}-byte frame header"
                    )
                cid, nbytes = _FRAME.unpack_from(view, offset)
                offset += _FRAME.size
                if not 0 <= nbytes <= end - offset:
                    raise RuntimeError(
                        f"worker {self.worker_id}: worker {src} sent a frame for channel "
                        f"{cid} of {nbytes} bytes, with {end - offset} left in its buffer"
                    )
                routed.setdefault(cid, []).append((src, view[offset : offset + nbytes]))
                offset += nbytes
        self.buffers.clear_inbox()
        return routed

    # -- the superstep (Fig. 4), written once -----------------------------------
    # Every driver — the simulator's lock-step loop over all workers, a
    # worker process over its transport, confined-recovery replay over the
    # frame log — advances this one generator.  Nothing else calls a
    # channel's serialize/deserialize/again.
    def superstep(self, flush=None):
        """One superstep as a generator that yields at its sync points:

        1. the local active count; resume only if the global count is not 0;
        2. compute done; resume with the first round's ``group_active``;
        3. buffers written; move them, then resume with the round's
           ``(sent, frames)`` (as :meth:`record_round` takes them);
        4. the round's ``again()`` votes; resume with the next round's
           ``group_active`` while any group is active, else stop resuming.

        It charges compute and serialize; the time inside ``flush`` (see
        :meth:`serialize_round`) is charged to exchange.  The driver owns
        the global vote, moving the bytes, the round structure and the
        clock for barrier and wire."""
        clock = time.perf_counter
        self.program.before_superstep()  # a phase controller may wake vertices
        active = self.begin_superstep()  # opens this superstep's books
        yield int(active.size)
        t0 = clock()
        self.run_compute(active)
        self.charge("compute", clock() - t0)
        group_active = yield
        for channel in self.channels:
            channel.reset_round()
        while True:
            t0 = clock()
            flushed = self.serialize_round(group_active, flush)
            self.charge("serialize", clock() - t0 - flushed)
            self.charge("exchange", flushed)
            sent, frames = yield
            t0 = clock()
            votes = self.deserialize_round(group_active)
            self.charge("serialize", clock() - t0)
            self.record_round(sent, votes, frames)
            group_active = yield votes

    def serialize_round(self, group_active: list[bool], flush=None) -> float:
        """First half of a round: every active channel writes its frames
        into the per-peer buffers.  ``flush()``, when given, runs after
        each channel so a transport can start moving that channel's bytes
        while the next one is still serializing; returns the seconds
        spent inside it."""
        flushed = 0.0
        for cid, channel in enumerate(self.channels):
            if group_active[cid]:
                channel.serialize()
                if flush is not None:
                    t0 = time.perf_counter()
                    flush()
                    flushed += time.perf_counter() - t0
        return flushed

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

    # -- the books: one record of this worker's superstep ----------------------
    # Written where the work happens, read by one route,
    # ExecutorBackend.account: on sim straight from the worker, on the
    # process backend as the child's superstep reply.
    #   active    vertices active this superstep
    #   messages  network messages (count_net_messages)
    #   channels  label -> [net bytes, local bytes, messages]
    #   rounds    per exchange round: "sent" (int64 bytes to each peer,
    #             self-delivery at this worker's own index), "next_active"
    #             (the channels' another-round votes) and, when the frame
    #             log is on, "frames" (the raw buffers to each peer, b"" to self)
    #   phases    seconds per phase: barrier, compute, serialize, exchange
    def _open_books(self, active: int) -> None:
        self.books = {"active": active, "messages": 0, "channels": {}, "rounds": [], "phases": {}}

    def charge(self, phase: str, seconds: float) -> None:
        phases = self.books["phases"]
        phases[phase] = phases.get(phase, 0.0) + seconds

    def record_round(self, sent: np.ndarray, next_active: list[bool], frames=None) -> None:
        rnd = {"sent": sent, "next_active": next_active}
        if frames is not None:
            rnd["frames"] = frames
        self.books["rounds"].append(rnd)

    def count_net_messages(self, n: int, channel_id: int | None = None) -> None:
        if n:
            self.books["messages"] += n
            if channel_id is not None:
                self._traffic(channel_id)[2] += n

    def __repr__(self) -> str:  # pragma: no cover
        return f"Worker({self.worker_id}, |V_local|={self.num_local})"
