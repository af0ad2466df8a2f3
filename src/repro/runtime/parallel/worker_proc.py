"""The worker-process main loop (child side of the process backend).

Each child owns one :class:`~repro.core.worker.Worker` — built against
the shared-memory graph and partition — plus the program instance its
factory constructs, exactly as the simulated engine builds them.  The
child is *persistent*: it serves control commands from the parent for as
long as its :class:`~repro.runtime.parallel.pool.WorkerPool` lives,
across many ``engine.run()`` calls and streaming epochs.  ``serve``
dispatches the commands:

``superstep``
    The only run-loop command, on both transports.  The child drives the
    *whole* superstep autonomously, advancing its worker's one
    :meth:`Worker.superstep` generator: publish its active-vertex count
    on the pool's vote board and read every peer's (all processes
    compute the same global total; 0 ends the run without a reply),
    compute, then every exchange round — serialize, the transport moves
    the per-peer buffers, deserialize, the transport merges every
    worker's another-round votes — and replies with the worker's record
    of the superstep, :attr:`Worker.books`:
    per-round byte counts and votes, message and per-channel counts,
    phase timings and, when ``log_frames`` is set, the raw outgoing
    buffers for the parent's sender-side
    :class:`~repro.core.recovery.FrameLog`; the worker's lifecycle
    publishes its live slot from the same record.  A superstep costs one
    control-pipe message each way per worker; the *same bytes* the
    simulator's :class:`~repro.runtime.buffers.BufferExchange` would move
    cross real process boundaries.  See ARCHITECTURE.md §9.
``start_run`` / ``capture`` / ``restore`` / ``remap`` / ``finalize``
    The worker lifecycle: each runs the
    :class:`~repro.runtime.lifecycle.WorkerLifecycle` method of the same
    name — the code the simulator calls directly — with the message's
    fields as keyword arguments, and replies with its result as ``data``
    (a ``VertexResults`` as its two codec arrays).  The superstep
    counter keeps running across same-engine runs, as the simulator's
    does; only ``configure`` and ``restore`` reset it.
``configure``
    Tear the current worker down and rebuild it for a *new* engine
    configuration: attach the new shared-memory graph segments, apply
    the remapped ownership array and seed set, and construct the new
    program from the factory that rode along as pickle bytes (see
    :class:`~repro.core.program.ProgramSpec`).  This is the delta/remap
    message that replaces respawning — streaming epochs reuse the same
    OS processes for the whole run.  A ``remap`` keeps the attachments:
    the parent has rewritten the shared ownership array in place.
``die`` / ``stop``
    ``die`` is ``os._exit`` at once — deterministic failure injection
    through the *real* worker-death path (the parent observes a dead
    process, not a polite error reply); ``stop`` leaves the serve loop.

A *transport* is only the byte mover under that one protocol:
:class:`_RingTransport` (``"shm"``) and :class:`_PipeTransport`
(``"pipe"``) implement the same six methods.  Channel/worker code runs
**unmodified**: the child's :class:`_WorkerHost` quacks like the engine
(graph, owner, ``step_num``), and the worker counts its superstep into
its own books on either side of the process boundary.
"""

from __future__ import annotations

import gc
import os
import pickle
import struct
import threading
import time
import traceback
from collections import deque

import numpy as np


from repro.core.program import VertexResults
from repro.core.worker import OwnerTable, Worker
from repro.graph.graph import Graph
from repro.graph.store import attach_store
from repro.runtime.lifecycle import WorkerLifecycle
from repro.runtime.parallel.protocol import recv_msg, send_msg
from repro.runtime.parallel.shm import RingBuffer, VoteBoard, attach_array, idle_wait

__all__ = ["worker_main"]

_U64 = struct.Struct("<Q")

#: the commands ``serve`` hands to the worker's lifecycle, one method each
LIFECYCLE = ("start_run", "capture", "restore", "remap", "finalize")


class _WorkerHost(OwnerTable):
    """Just enough of :class:`~repro.core.engine.ChannelEngine` for a
    :class:`Worker` and its channels to run unchanged in a child."""

    def __init__(self, graph: Graph, owner: np.ndarray, num_workers: int) -> None:
        self.check_vertices(graph.num_vertices)
        self.graph = graph
        self.owner = owner
        self.num_workers = num_workers
        self.step_num = 0


class _Transport:
    """What the two byte movers share: the round's context and the merge
    of another-round votes.  A transport carries one exchange round at a
    time for the child's ``superstep`` command:

    ``begin_round(out_writers, nchan, log_frames)``
        Start a round over the worker's per-peer outgoing writers.
    ``publish()``
        Called after *each* channel's ``serialize``: the overlap hook.
    ``finish_round() -> inbox``
        Ship whatever is still unsent and return what every peer sent.
    ``exchange_votes(next_active) -> group_active``
        Swap per-channel another-round votes with every peer; all workers
        merge them identically (OR across all workers, their own
        included), so they agree on the next round without the parent.
    ``round_sent()`` / ``round_frames()``
        The round's per-peer byte counts, and its raw cross-worker
        buffers (``b""`` on the diagonal) for the sender-side frame log.
    """

    def __init__(self, worker_id: int, num_workers: int) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.writers: list = []
        self.nchan = 0
        self.log_frames = False

    def begin_round(self, out_writers: list, nchan: int, log_frames: bool) -> None:
        self.writers = out_writers
        self.nchan = nchan
        self.log_frames = log_frames

    @staticmethod
    def _merge(next_active: list[bool], records: list[bytes]) -> list[bool]:
        merged = list(next_active)
        for record in records:
            for cid, flag in enumerate(record):
                if flag:
                    merged[cid] = True
        return merged

    def close(self) -> None:
        pass


class _PipeTransport(_Transport):
    """The child side of ``transport="pipe"``: one simplex OS pipe per
    ordered worker pair, carrying per round one whole-buffer message and
    then one votes message (``num_channels`` raw bytes).  Nothing crosses
    before ``finish_round`` — a pipe moves a round's buffer in one piece,
    so ``publish`` has nothing to do."""

    def __init__(self, worker_id: int, num_workers: int, send_conns: dict,
                 recv_conns: dict) -> None:
        super().__init__(worker_id, num_workers)
        self.send_conns = send_conns
        self.recv_conns = recv_conns
        self._out: list[bytes] = []

    def publish(self) -> None:
        pass

    def finish_round(self) -> list[bytes]:
        """Swap this round's raw buffers with every peer, pairwise.

        A dedicated sender thread pushes all outgoing buffers while the
        main thread drains the incoming pipes, so no send can wait on a
        receive — every pipe is drained independently of this worker's
        own send progress, which rules out the circular-wait deadlock of
        a naive send-then-receive loop once a buffer outgrows the OS pipe
        capacity.
        """
        out = self._out = []
        for writer in self.writers:
            out.append(writer.getvalue())
            writer.clear()
        inbox = [b""] * self.num_workers
        inbox[self.worker_id] = out[self.worker_id]  # self-delivery never hits a pipe
        if not self.send_conns:
            return inbox

        failure: list[BaseException] = []

        def _send_all() -> None:
            try:
                for peer, conn in self.send_conns.items():
                    conn.send_bytes(out[peer])
            except BaseException as exc:  # pragma: no cover - peer death race
                failure.append(exc)

        sender = threading.Thread(target=_send_all, daemon=True)
        sender.start()
        for peer, conn in self.recv_conns.items():
            inbox[peer] = conn.recv_bytes()
        sender.join()
        if failure:  # pragma: no cover - peer death race
            raise failure[0]
        return inbox

    def exchange_votes(self, next_active: list[bool]) -> list[bool]:
        # a votes message is a few bytes.  A send can only wait on a pipe
        # still full of this round's buffer, which the peer's
        # finish_round drains without needing anything from us — so
        # sending all before receiving any cannot wedge
        record = bytes(next_active)
        for conn in self.send_conns.values():
            conn.send_bytes(record)
        return self._merge(
            next_active, [conn.recv_bytes() for conn in self.recv_conns.values()]
        )

    def round_sent(self) -> np.ndarray:
        return np.array([len(buf) for buf in self._out], dtype=np.int64)

    def round_frames(self) -> list[bytes]:
        return [
            b"" if peer == self.worker_id else buf
            for peer, buf in enumerate(self._out)
        ]


class _RingPeer:
    """Per-peer transport state: the outbound send queue and the inbound
    incremental record parser (see :class:`_RingTransport`)."""

    __slots__ = ("out_ring", "in_ring", "pending", "buf", "state", "need",
                 "parts", "votes", "sent", "logged")

    def __init__(self, out_ring: RingBuffer, in_ring: RingBuffer) -> None:
        self.out_ring = out_ring
        self.in_ring = in_ring
        self.pending: deque = deque()  # memoryviews not yet in the ring
        self.buf = bytearray()  # drained but not yet parsed inbound bytes
        self.state = "len"  # "len" | "chunk" | "votes" | "done"
        self.need = 0
        self.parts: list[bytes] = []  # this round's received chunk payloads
        self.votes: bytes | None = None  # this round's received votes record
        self.sent = 0  # bytes queued to this peer this round
        self.logged: list[bytes] = []  # this round's outbound chunks (frame log)


class _RingTransport(_Transport):
    """The child side of ``transport="shm"``: one outbound SPSC ring per
    peer (this worker produces) and one inbound ring per peer (this
    worker consumes), pumped from the main thread — no sender threads.
    A single-worker pool simply has no rings.

    Wire format, per exchange round and directed pair: a sequence of
    ``[u64 length > 0][payload]`` chunks (one per channel flush, so a
    channel's frames publish while later channels are still
    serializing), a ``u64 0`` end-of-round marker, then — after the
    consumer finished deserializing — one *votes record* of
    ``num_channels`` raw bytes (this worker's per-channel
    another-round votes).

    Everything here is single-threaded and non-blocking at the
    primitive level: :meth:`pump` moves whatever bytes fit right now,
    in both directions, across all peers.  Blocking composites
    (:meth:`finish_round`, :meth:`exchange_votes`) loop the pump, so a
    full outbound ring can never deadlock against an unread inbound
    ring.  Waits carry no liveness checks — a peer dying mid-frame
    leaves this worker spinning, and the *parent's* supervision (which
    polls every PID while gathering replies) surfaces the death and
    tears the pool down, exactly as with pipes.
    """

    def __init__(self, worker_id: int, num_workers: int,
                 out_rings: dict[int, RingBuffer], in_rings: dict[int, RingBuffer]):
        super().__init__(worker_id, num_workers)
        self.peers = {
            peer: _RingPeer(out_rings[peer], in_rings[peer]) for peer in out_rings
        }
        self._self_parts: list[bytes] = []
        self._self_sent = 0

    # -- the pump -----------------------------------------------------------
    def _parse(self, p: _RingPeer) -> None:
        buf = p.buf
        while True:
            if p.state == "len":
                if len(buf) < 8:
                    return
                (n,) = _U64.unpack_from(buf, 0)
                del buf[:8]
                if n == 0:
                    p.state, p.need = "votes", self.nchan
                else:
                    p.state, p.need = "chunk", n
            elif p.state == "chunk":
                if len(buf) < p.need:
                    return
                p.parts.append(bytes(buf[: p.need]))
                del buf[: p.need]
                p.state = "len"
            elif p.state == "votes":
                if len(buf) < p.need:
                    return
                p.votes = bytes(buf[: p.need])
                del buf[: p.need]
                p.state = "done"
            else:  # "done": anything further is next round's lookahead
                return

    def pump(self) -> bool:
        """One non-blocking pass over every peer: drain inbound rings into
        the parsers, push queued outbound bytes into rings with space.
        Returns whether any byte moved (the backoff signal)."""
        progress = False
        for p in self.peers.values():
            data = p.in_ring.read_some()
            if data:
                p.buf += data
                self._parse(p)
                progress = True
            while p.pending:
                mv = p.pending[0]
                n = p.out_ring.write_some(mv)
                if n == 0:
                    break
                progress = True
                if n == len(mv):
                    p.pending.popleft()
                else:
                    p.pending[0] = mv[n:]
        return progress

    def _pump_until(self, done) -> None:
        spins = 0
        while not done():
            if self.pump():
                spins = 0
                continue
            spins += 1
            idle_wait(spins)

    # -- round lifecycle ------------------------------------------------------
    def begin_round(self, out_writers: list, nchan: int, log_frames: bool) -> None:
        super().begin_round(out_writers, nchan, log_frames)
        self._self_parts = []
        self._self_sent = 0
        for p in self.peers.values():
            p.parts = []
            p.votes = None
            p.sent = 0
            p.logged = []
            p.state = "len"
            # a fast peer may already have published this round's chunks
            # (they queue behind the previous round's votes record)
            self._parse(p)

    def publish(self) -> None:
        """Queue whatever the channels appended to the per-peer writers
        since the last call, then pump once — so a channel's frames hit
        the rings while later channels are still computing theirs."""
        for peer, writer in enumerate(self.writers):
            if not writer.nbytes:
                continue
            data = writer.getvalue()
            writer.clear()
            if peer == self.worker_id:
                self._self_parts.append(data)
                self._self_sent += len(data)
                continue
            p = self.peers[peer]
            p.sent += len(data)
            if self.log_frames:
                p.logged.append(data)
            p.pending.append(memoryview(_U64.pack(len(data))))
            p.pending.append(memoryview(data))
        self.pump()

    def finish_round(self) -> list[bytes]:
        """Terminate this round's outbound streams and pump until every
        peer's inbound stream is complete; returns the round's inbox."""
        for p in self.peers.values():
            p.pending.append(memoryview(_U64.pack(0)))
        self._pump_until(
            lambda: all(
                not p.pending and p.state in ("votes", "done")
                for p in self.peers.values()
            )
        )
        inbox = [b""] * self.num_workers
        inbox[self.worker_id] = b"".join(self._self_parts)
        for peer, p in self.peers.items():
            inbox[peer] = p.parts[0] if len(p.parts) == 1 else b"".join(p.parts)
        return inbox

    def exchange_votes(self, next_active: list[bool]) -> list[bool]:
        record = bytes(next_active)
        for p in self.peers.values():
            p.pending.append(memoryview(record))
        self._pump_until(
            lambda: all(
                not p.pending and p.votes is not None
                for p in self.peers.values()
            )
        )
        return self._merge(next_active, [p.votes for p in self.peers.values()])

    # -- per-round accounting for the consolidated reply ----------------------
    def round_sent(self) -> np.ndarray:
        sent = np.zeros(self.num_workers, dtype=np.int64)
        sent[self.worker_id] = self._self_sent
        for peer, p in self.peers.items():
            sent[peer] = p.sent
        return sent

    def round_frames(self) -> list[bytes]:
        frames = [b""] * self.num_workers
        for peer, p in self.peers.items():
            frames[peer] = b"".join(p.logged)
        return frames

    def close(self) -> None:
        for p in self.peers.values():
            p.out_ring.close()
            p.in_ring.close()


class _WorkerProcess:
    """One child's whole runtime: shared-memory attachments, the Worker,
    and the command dispatch loop."""

    def __init__(self, worker_id: int, conn, links: dict) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.segments: list = []
        self.life: WorkerLifecycle | None = None
        self.live = None  # the live telemetry segment, when attached
        unreg = links["unregister"]
        self.board = VoteBoard.attach(links["board"], unreg)
        if links["transport"] == "shm":
            self.transport: _Transport = _RingTransport(
                worker_id,
                links["num_workers"],
                {int(p): RingBuffer.attach(s, unreg) for p, s in links["out"].items()},
                {int(p): RingBuffer.attach(s, unreg) for p, s in links["in"].items()},
            )
        else:
            self.transport = _PipeTransport(
                worker_id, links["num_workers"], links["out"], links["in"]
            )

    # -- (re)configuration ---------------------------------------------------
    def build(self, cfg: dict, factory) -> int:
        """(Re)build the worker for an engine configuration: attach the
        shared graph/partition, then :meth:`Worker.build`.  Returns the
        channel count for the pool's startup/configure barrier."""
        old_segments = self.segments
        # drop every reference into the old shared segments (worker ->
        # graph -> shm views) before trying to unmap them
        self.life = None

        segments: list = []
        unreg = cfg["unregister_shm"]
        # the graph arrives as a store descriptor: shm segment specs to
        # map, or an mmap path to re-open (attach-by-path; the page cache
        # shares the physical pages, nothing crosses the pipe).  The store
        # joins `segments` — teardown duck-types close()
        store = attach_store(cfg["graph"], unregister=unreg)
        if store.num_vertices != cfg["num_vertices"]:
            raise ValueError(
                f"graph store has {store.num_vertices} vertices, "
                f"configuration says {cfg['num_vertices']}"
            )
        segments.append(store)
        arrs = store.arrays()
        owner, seg = attach_array(cfg["owner"], unreg)
        segments.append(seg)

        # validate=False: these views are the parent Graph's own arrays,
        # already validated at construction — don't rescan O(E) per worker
        graph = Graph.from_csr(
            cfg["num_vertices"],
            arrs["indptr"],
            arrs["indices"],
            arrs.get("weights"),
            directed=cfg["directed"],
            validate=False,
            store=store,
        )
        host = _WorkerHost(graph, owner, cfg["num_workers"])
        # a respawned replacement initializes now; the parent's restore
        # blob overwrites next
        worker = Worker.build(
            host, self.worker_id, factory, seeds=cfg["seeds"], initialize=cfg["init_channels"]
        )
        self.segments = segments

        # live telemetry plane: (re)attach the engine's segment and start
        # this worker's slot from zero — a reconfigure means a new engine
        # (or streaming epoch), and its collector also starts from zero
        if self.live is not None:
            try:
                self.live.close()
            except Exception:  # pragma: no cover
                pass
            self.live = None
        writer = None
        if cfg.get("live") is not None:
            # deferred import: obs.live itself imports from this package
            from repro.obs.live import LiveMetrics

            self.live = LiveMetrics.attach(cfg["live"], unregister=unreg)
            writer = self.live.writer(self.worker_id)
        self.life = WorkerLifecycle(host, self.worker_id, factory, worker, writer)

        if old_segments:
            # the previous generation's mappings: every view should be
            # unreachable now; collect cycles, then unmap best-effort (a
            # surviving stray reference keeps the map until process exit
            # rather than crashing the reconfigure)
            gc.collect()
            for seg in old_segments:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - stray view
                    pass
                except Exception:  # pragma: no cover
                    pass
        return len(worker.channels)

    def close(self) -> None:
        for resource in (self.live, self.transport, self.board, *self.segments):
            if resource is not None:
                try:
                    resource.close()
                except Exception:  # pragma: no cover
                    pass

    # -- the serve loop ------------------------------------------------------
    def serve(self) -> None:
        """Dispatch control commands until ``stop``: a lifecycle command
        to the worker's :class:`WorkerLifecycle`, whose result is the
        reply's ``data``, any other to its ``_cmd_<name>`` handler, whose
        return value, when there is one, is the reply."""
        while True:
            msg = recv_msg(self.conn)
            cmd = msg.pop("cmd")
            if cmd == "stop":
                return
            if cmd in LIFECYCLE:
                if cmd == "remap":
                    # the parent rewrote the shared ownership array in
                    # place: drop the host's stale position table
                    self.life.host.owner = self.life.host.owner
                value = getattr(self.life, cmd)(**msg)
                if isinstance(value, VertexResults):
                    # two codec arrays, never one tagged value per element
                    value = (value.ids, value.array)
                send_msg(self.conn, {"data": value})
                continue
            handler = getattr(self, f"_cmd_{cmd}", None)
            if handler is None:
                raise RuntimeError(f"unknown command {cmd!r}")
            reply = handler(msg)
            if reply is not None:
                send_msg(self.conn, reply)

    def _cmd_superstep(self, msg: dict) -> dict | None:
        life = self.life
        worker = life.worker
        host = life.host
        transport = self.transport
        clock = time.perf_counter

        t0 = clock()
        # overlap: each channel's frames start crossing while the next
        # channel is still serializing
        step = worker.superstep(flush=transport.publish)
        self.board.write(self.worker_id, msg["seq"], next(step))
        total = sum(
            self.board.read(w, msg["seq"]) for w in range(host.num_workers)
        )
        if total == 0:
            return None  # the parent reads the same votes; run over
        worker.charge("barrier", clock() - t0)

        host.step_num += 1
        next(step)  # compute
        log_frames = msg["log_frames"]
        nchan = len(worker.channels)
        group_active = [True] * nchan
        while any(group_active):
            transport.begin_round(worker.buffers.out, nchan, log_frames)
            step.send(group_active)  # serialize
            t0 = clock()
            worker.buffers.inbox = transport.finish_round()
            wire_s = clock() - t0
            votes = step.send(
                (transport.round_sent(), transport.round_frames() if log_frames else None)
            )
            t0 = clock()
            group_active = transport.exchange_votes(votes)
            worker.charge("exchange", wire_s + clock() - t0)

        life.publish()
        return worker.books

    def _cmd_configure(self, msg: dict) -> dict:
        num_channels = self.build(msg["cfg"], pickle.loads(msg["factory"]))
        return {"ready": True, "num_channels": num_channels}

    def _cmd_die(self, msg: dict) -> None:
        # failure injection: die the way a crashed worker dies — no reply,
        # no cleanup, just a dead process for the parent's supervision
        os._exit(msg["code"])


def worker_main(worker_id: int, cfg: dict, conn, links: dict) -> None:
    """Child-process entry point; never raises (errors go to the parent).

    ``cfg`` is the spawn-time configuration (shared-array specs plus the
    first run's ``program_factory``, which rides through the process
    start machinery — under ``fork`` it never crosses a pipe, so
    closures and locally defined classes work).  Later configurations
    arrive as ``configure`` commands instead.  ``links`` is what outlives
    any configuration — the vote-board spec and this worker's per-peer
    frame links (ring specs or pipe ends, per ``links["transport"]``) —
    all pool-lifetime, so a respawned replacement attaches the same ones.
    """
    proc = _WorkerProcess(worker_id, conn, links)
    try:
        num_channels = proc.build(cfg, cfg["program_factory"])
        send_msg(conn, {"ready": True, "num_channels": num_channels})
        proc.serve()
    except BaseException:
        try:
            send_msg(conn, {"error": traceback.format_exc()})
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        proc.close()
