"""The Pregel+ baseline engine.

One monolithic message layer (everything shares ``message_codec``), an
optional global combiner, and two special modes from Pregel+:

* ``mode="reqresp"`` — the request-respond paradigm.  Requests are
  deduplicated per worker, but responses echo ``(id, value)`` pairs, and
  request bookkeeping goes through per-request hash operations; both are
  the costs the paper's request-respond channel removes.
* ``mode="ghost"`` — mirroring.  ``broadcast`` for a vertex whose degree
  is at least ``ghost_threshold`` ships one value per (vertex, worker)
  and is expanded to neighbors receiver-side via mirror tables.

The per-message receive path materializes per-vertex Python lists (or
per-message scalar combining) — the "nested vectors" receive structure of
Pregel+ that the paper's DirectMessage iterator improves on.
"""

from __future__ import annotations

import struct
import time
from typing import Callable

import numpy as np

from repro.core.engine import EngineResult
from repro.graph.graph import Graph
from repro.graph.partition import hash_partition
from repro.pregel.program import PregelProgram, PregelVertex
from repro.runtime.buffers import BufferExchange, WorkerBuffers
from repro.runtime.costmodel import NetworkModel, DEFAULT_NETWORK
from repro.runtime.metrics import MetricsCollector
from repro.runtime.serialization import INT32

__all__ = ["PregelPlusEngine"]

_FRAME = struct.Struct("<ii")

# frame section ids inside the single per-peer buffer
_MSG, _GHOST, _REQ, _RESP, _AGG_UP, _AGG_DOWN = range(6)
_MASTER = 0


class _PregelWorker:
    """Per-worker state of the Pregel+ engine (internal)."""

    def __init__(self, engine: "PregelPlusEngine", worker_id: int, local_ids: np.ndarray):
        self.engine = engine
        self.worker_id = worker_id
        self.graph = engine.graph
        self.owner = engine.owner
        self.num_workers = engine.num_workers
        self.local_ids = np.asarray(local_ids, dtype=np.int64)
        self.num_local = int(self.local_ids.size)
        self._local_index = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        self._local_index[self.local_ids] = np.arange(self.num_local)
        self.halted = np.zeros(self.num_local, dtype=bool)
        self.woken = np.zeros(self.num_local, dtype=bool)
        self.buffers = WorkerBuffers(worker_id, self.num_workers)
        self._vertex = PregelVertex(self)
        self.program: PregelProgram | None = None

        m = self.num_workers
        # outgoing state, reset every superstep
        self._pending_dst: list[list[int]] = [[] for _ in range(m)]
        self._pending_val: list[list] = [[] for _ in range(m)]
        self._ghost_out: list[list] = [[] for _ in range(m)]  # (src_id, value)
        self._requests: set[int] = set()
        self._requesters: list[int] = []
        self._current_local = -1
        self._agg_partial = None
        # delivery state read by next superstep's compute
        self._inbox_lists: dict[int, list] = {}
        self._inbox_combined: dict[int, object] = {}
        self._resp: dict[int, object] = {}
        self.agg_result = None
        # reqresp responder scratch
        self._resp_out: list[list] = [[] for _ in range(m)]

    # -- program-facing API ---------------------------------------------
    @property
    def step_num(self) -> int:
        return self.engine.step_num

    def halt(self, local_idx: int) -> None:
        self.halted[local_idx] = True

    def send_message(self, dst: int, value) -> None:
        peer = int(self.owner[dst])
        self._pending_dst[peer].append(dst)
        self._pending_val[peer].append(value)

    def broadcast(self, vid: int, value) -> None:
        engine = self.engine
        if engine.mode == "ghost" and vid in engine.ghost_peers:
            for peer in engine.ghost_peers[vid]:
                self._ghost_out[peer].append((vid, value))
        else:
            for dst in self.graph.neighbors(vid):
                self.send_message(int(dst), value)

    def add_request(self, dst: int) -> None:
        if self.engine.mode != "reqresp":
            raise RuntimeError("request() needs mode='reqresp'")
        self._requests.add(dst)
        self._requesters.append(self._current_local)

    def get_resp(self, dst: int):
        return self._resp[dst]

    def aggregate(self, value) -> None:
        comb = self.program.aggregator_combiner
        if comb is None:
            raise RuntimeError("program declares no aggregator_combiner")
        if self._agg_partial is None:
            self._agg_partial = comb.identity
        self._agg_partial = comb.combine(self._agg_partial, value)

    # -- superstep bookkeeping ---------------------------------------------
    def activate_local_bulk(self, local_idx: np.ndarray) -> None:
        """Wake owned vertices for the upcoming superstep."""
        self.woken[local_idx] = True

    def begin_superstep(self) -> np.ndarray:
        self.halted &= ~self.woken
        active = np.flatnonzero(~self.halted)
        self.woken[:] = False
        return active

    def run_compute(self, active: np.ndarray) -> None:
        program = self.program
        v = self._vertex
        combined = program.combiner is not None
        lists = self._inbox_lists
        slots = self._inbox_combined
        self._requesters = []
        for idx in active:
            i = int(idx)
            self._current_local = i
            msgs = slots.get(i) if combined else lists.get(i, [])
            program.compute(v._bind(i), msgs)

    def emit(self, section: int, peer: int, payload: bytes) -> None:
        if not payload:
            return
        w = self.buffers.out[peer]
        w.write_bytes(_FRAME.pack(section, len(payload)))
        w.write_bytes(payload)

    def route_inbox(self) -> dict[int, list[tuple[int, memoryview]]]:
        routed: dict[int, list[tuple[int, memoryview]]] = {}
        for src, data in enumerate(self.buffers.inbox):
            if not data:
                continue
            view = memoryview(data)
            offset, end = 0, len(view)
            while offset < end:
                sec, nbytes = _FRAME.unpack_from(view, offset)
                offset += _FRAME.size
                routed.setdefault(sec, []).append((src, view[offset : offset + nbytes]))
                offset += nbytes
        self.buffers.clear_inbox()
        return routed


class PregelPlusEngine:
    """Drives a :class:`PregelProgram` in basic / reqresp / ghost mode."""

    def __init__(
        self,
        graph: Graph,
        program_factory: Callable[[_PregelWorker], PregelProgram],
        num_workers: int = 8,
        partition: np.ndarray | None = None,
        network: NetworkModel = DEFAULT_NETWORK,
        mode: str = "basic",
        ghost_threshold: int = 16,
    ) -> None:
        if mode not in ("basic", "reqresp", "ghost"):
            raise ValueError(f"unknown mode {mode!r}")
        self.graph = graph
        self.num_workers = num_workers
        self.mode = mode
        self.ghost_threshold = ghost_threshold
        if partition is None:
            partition = hash_partition(graph.num_vertices, num_workers)
        self.owner = np.asarray(partition, dtype=np.int64)
        if self.owner.shape != (graph.num_vertices,):
            raise ValueError("partition must assign every vertex")
        self.metrics = MetricsCollector(num_workers=num_workers, network=network)
        self.step_num = 0

        self.workers: list[_PregelWorker] = []
        for w in range(num_workers):
            self.workers.append(_PregelWorker(self, w, np.flatnonzero(self.owner == w)))
        for worker in self.workers:
            worker.program = program_factory(worker)
        self._exchange = BufferExchange()
        self._buffers = [w.buffers for w in self.workers]

        # mirror tables for ghost mode
        self.ghost_peers: dict[int, np.ndarray] = {}
        self.mirror_adj: list[dict[int, np.ndarray]] = [dict() for _ in range(num_workers)]
        if mode == "ghost":
            self._build_mirrors()

    def _build_mirrors(self) -> None:
        degs = self.graph.out_degrees
        for vid in np.flatnonzero(degs >= self.ghost_threshold):
            vid = int(vid)
            nbrs = self.graph.neighbors(vid)
            owners = self.owner[nbrs]
            peers = np.unique(owners)
            self.ghost_peers[vid] = peers
            for peer in peers:
                local = self.workers[peer]._local_index[nbrs[owners == peer]]
                self.mirror_adj[peer][vid] = local

    # -- main loop ---------------------------------------------------------
    def run(self, max_supersteps: int = 100_000) -> EngineResult:
        metrics = self.metrics
        metrics.start_run()
        has_agg = any(w.program.aggregator_combiner is not None for w in self.workers)

        while True:
            for worker in self.workers:
                worker.program.before_superstep()
            active_sets = [w.begin_superstep() for w in self.workers]
            total_active = sum(a.size for a in active_sets)
            if total_active == 0:
                break
            self.step_num += 1
            if self.step_num > max_supersteps:
                raise RuntimeError(f"exceeded max_supersteps={max_supersteps}")
            metrics.start_superstep(total_active)

            for worker, active in zip(self.workers, active_sets):
                t0 = time.perf_counter()
                worker.run_compute(active)
                metrics.record_compute(worker.worker_id, time.perf_counter() - t0)

            need_second = has_agg
            # ---- round 1: messages, ghost broadcasts, requests, agg partials
            for worker in self.workers:
                t0 = time.perf_counter()
                self._serialize_round1(worker, has_agg)
                metrics.record_compute(worker.worker_id, time.perf_counter() - t0)
            metrics.record_exchange(self._exchange.exchange(self._buffers))
            for worker in self.workers:
                t0 = time.perf_counter()
                if self._deserialize_round1(worker):
                    need_second = True
                metrics.record_compute(worker.worker_id, time.perf_counter() - t0)

            # ---- round 2: responses and the aggregator broadcast
            if need_second:
                for worker in self.workers:
                    t0 = time.perf_counter()
                    self._serialize_round2(worker, has_agg)
                    metrics.record_compute(worker.worker_id, time.perf_counter() - t0)
                metrics.record_exchange(self._exchange.exchange(self._buffers))
                for worker in self.workers:
                    t0 = time.perf_counter()
                    self._deserialize_round2(worker)
                    metrics.record_compute(worker.worker_id, time.perf_counter() - t0)
            metrics.end_superstep()

        metrics.end_run()
        result = EngineResult(metrics=metrics)
        for worker in self.workers:
            result.data.update(worker.program.finalize())
        return result

    # -- round 1 --------------------------------------------------------------
    def _serialize_round1(self, worker: _PregelWorker, has_agg: bool) -> None:
        program = worker.program
        codec = program.message_codec
        me = worker.worker_id
        net_msgs = 0
        for peer in range(self.num_workers):
            dsts = worker._pending_dst[peer]
            if dsts:
                payload = INT32.encode_array(dsts) + codec.encode_array(
                    worker._pending_val[peer]
                )
                worker.emit(_MSG, peer, payload)
                if peer != me:
                    net_msgs += len(dsts)
                worker._pending_dst[peer] = []
                worker._pending_val[peer] = []
            gout = worker._ghost_out[peer]
            if gout:
                ids = INT32.encode_array([g[0] for g in gout])
                vals = codec.encode_array([g[1] for g in gout])
                worker.emit(_GHOST, peer, ids + vals)
                if peer != me:
                    net_msgs += len(gout)
                worker._ghost_out[peer] = []
        if worker._requests:
            # Pregel+-style: per-request hash dedup, then ship id lists
            by_peer: dict[int, list[int]] = {}
            for dst in worker._requests:
                by_peer.setdefault(int(self.owner[dst]), []).append(dst)
            worker._requests = set()
            for peer, ids in by_peer.items():
                ids.sort()
                worker.emit(_REQ, peer, INT32.encode_array(ids))
                if peer != me:
                    net_msgs += len(ids)
        if has_agg:
            comb = program.aggregator_combiner
            partial = worker._agg_partial if worker._agg_partial is not None else comb.identity
            worker.emit(_AGG_UP, _MASTER, comb.codec.encode_one(partial))
            if me != _MASTER:
                net_msgs += 1
            worker._agg_partial = None
        if net_msgs:
            self.metrics.count_messages(net_msgs)

    def _deserialize_round1(self, worker: _PregelWorker) -> bool:
        """Deliver messages; prepare responses.  Returns True if this
        worker needs the second exchange round."""
        program = worker.program
        codec = program.message_codec
        routed = worker.route_inbox()
        worker._inbox_lists = {}
        worker._inbox_combined = {}
        combiner = program.combiner

        structured = codec.dtype.names is not None

        def deliver(local: np.ndarray, vals: np.ndarray) -> None:
            # the monolithic receive path: per-message appends/combines
            if combiner is None:
                lists = worker._inbox_lists
                if structured:
                    for i, val in zip(local.tolist(), vals):
                        lists.setdefault(i, []).append(tuple(val))
                else:
                    for i, val in zip(local.tolist(), vals.tolist()):
                        lists.setdefault(i, []).append(val)
            else:
                slots = worker._inbox_combined
                fn = combiner.fn
                for i, val in zip(local.tolist(), vals.tolist()):
                    if i in slots:
                        slots[i] = fn(slots[i], val)
                    else:
                        slots[i] = val
            worker.woken[local] = True

        for _src, payload in routed.get(_MSG, []):
            count = len(payload) // (INT32.itemsize + codec.itemsize)
            dst = INT32.decode_array(payload[: count * INT32.itemsize]).astype(np.int64)
            vals = codec.decode_array(payload[count * INT32.itemsize :], count)
            deliver(worker._local_index[dst], vals)

        for _src, payload in routed.get(_GHOST, []):
            count = len(payload) // (INT32.itemsize + codec.itemsize)
            ids = INT32.decode_array(payload[: count * INT32.itemsize]).astype(np.int64)
            vals = codec.decode_array(payload[count * INT32.itemsize :], count)
            mirrors = self.mirror_adj[worker.worker_id]
            for vid, val in zip(ids.tolist(), vals if structured else vals.tolist()):
                local = mirrors[vid]
                deliver(local, np.repeat(np.asarray([val], dtype=codec.dtype), local.size))

        need_second = False
        for src, payload in routed.get(_REQ, []):
            ids = INT32.decode_array(payload).astype(np.int64)
            local = worker._local_index[ids]
            pairs = worker._resp_out[src]
            for vid, li in zip(ids.tolist(), local.tolist()):
                pairs.append((vid, program.respond_value(li)))
            need_second = True

        if worker.worker_id == _MASTER and _AGG_UP in routed:
            comb = program.aggregator_combiner
            acc = comb.identity
            for _src, payload in routed[_AGG_UP]:
                acc = comb.combine(acc, comb.codec.decode_one(payload))
            worker._agg_global = acc
        return need_second

    # -- round 2 ---------------------------------------------------------------
    def _serialize_round2(self, worker: _PregelWorker, has_agg: bool) -> None:
        program = worker.program
        me = worker.worker_id
        net_msgs = 0
        resp_codec = program.message_codec
        for peer in range(self.num_workers):
            pairs = worker._resp_out[peer]
            if pairs:
                # Pregel+ echoes (id, value) pairs
                ids = INT32.encode_array([p[0] for p in pairs])
                vals = resp_codec.encode_array([p[1] for p in pairs])
                worker.emit(_RESP, peer, ids + vals)
                if peer != me:
                    net_msgs += len(pairs)
                worker._resp_out[peer] = []
        if has_agg and me == _MASTER:
            comb = program.aggregator_combiner
            payload = comb.codec.encode_one(getattr(worker, "_agg_global", comb.identity))
            for peer in range(self.num_workers):
                worker.emit(_AGG_DOWN, peer, payload)
            net_msgs += self.num_workers - 1
        if net_msgs:
            self.metrics.count_messages(net_msgs)

    def _deserialize_round2(self, worker: _PregelWorker) -> None:
        program = worker.program
        codec = program.message_codec
        routed = worker.route_inbox()
        worker._resp = {}
        structured = codec.dtype.names is not None
        for _src, payload in routed.get(_RESP, []):
            count = len(payload) // (INT32.itemsize + codec.itemsize)
            ids = INT32.decode_array(payload[: count * INT32.itemsize])
            vals = codec.decode_array(payload[count * INT32.itemsize :], count)
            if structured:
                for vid, val in zip(ids.tolist(), vals):
                    worker._resp[vid] = tuple(val)
            else:
                for vid, val in zip(ids.tolist(), vals.tolist()):
                    worker._resp[vid] = val
        if worker._resp and worker._requesters:
            worker.woken[np.asarray(worker._requesters, dtype=np.int64)] = True
        for _src, payload in routed.get(_AGG_DOWN, []):
            comb = program.aggregator_combiner
            for w in (worker,):
                w.agg_result = comb.codec.decode_one(payload)
