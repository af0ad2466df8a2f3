"""The block-centric engine.

One block per worker (Blogel supports many blocks per worker; for the
comparison the distinction is immaterial — what matters is block-local
computation between exchanges).  Each superstep the engine calls the
block program's ``block_compute`` with the messages the block received,
and ships whatever messages it returns.  Termination: every block votes
to halt and no messages are in flight.

Blogel's "special treatment of partition information": because the block
program knows the partition, messages carry ``int32`` values keyed by
``int32`` vertex ids — no wider generic payloads — which is the constant
message-size edge Table V (bottom) shows over the Propagation channel.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.engine import EngineResult
from repro.graph.graph import Graph
from repro.graph.partition import hash_partition
from repro.runtime.buffers import BufferExchange, WorkerBuffers
from repro.runtime.costmodel import NetworkModel, DEFAULT_NETWORK
from repro.runtime.metrics import MetricsCollector
from repro.runtime.serialization import Codec, INT32

__all__ = ["BlockProgram", "BlogelEngine"]


class BlockProgram:
    """Base class for block programs (the user-written B-compute)."""

    #: wire codec for message values
    value_codec: Codec = INT32

    def __init__(self, engine: "BlogelEngine", block_id: int, local_ids: np.ndarray):
        self.engine = engine
        self.block_id = block_id
        self.local_ids = local_ids
        self.num_local = int(local_ids.size)
        self.halted = False

    def block_compute(
        self, incoming: tuple[np.ndarray, np.ndarray]
    ) -> list[tuple[int, object]]:
        """One B-compute step.

        ``incoming`` is ``(dst_global_ids, values)`` received this
        superstep.  Return the messages to send as ``(dst_global_id,
        value)`` pairs and set ``self.halted`` when the block is done
        (message arrival re-activates it).
        """
        raise NotImplementedError

    def finalize(self) -> dict:
        return {}


class BlogelEngine:
    """Runs one block program instance per worker."""

    def __init__(
        self,
        graph: Graph,
        program_factory: Callable[["BlogelEngine", int, np.ndarray], BlockProgram],
        num_workers: int = 8,
        partition: np.ndarray | None = None,
        network: NetworkModel = DEFAULT_NETWORK,
    ) -> None:
        self.graph = graph
        self.num_workers = num_workers
        if partition is None:
            partition = hash_partition(graph.num_vertices, num_workers)
        self.owner = np.asarray(partition, dtype=np.int64)
        self.metrics = MetricsCollector(num_workers=num_workers, network=network)
        self.step_num = 0
        self.blocks = [
            program_factory(self, w, np.flatnonzero(self.owner == w))
            for w in range(num_workers)
        ]
        self.buffers = [WorkerBuffers(w, num_workers) for w in range(num_workers)]
        self._exchange = BufferExchange()
        self._pending: list[bool] = [True] * num_workers  # has incoming work

    def run(self, max_supersteps: int = 100_000) -> EngineResult:
        metrics = self.metrics
        metrics.start_run()
        incoming: list[tuple[np.ndarray, np.ndarray]] = [
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        ] * self.num_workers

        while True:
            runnable = [
                w
                for w in range(self.num_workers)
                if not self.blocks[w].halted or incoming[w][0].size
            ]
            if not runnable:
                break
            self.step_num += 1
            if self.step_num > max_supersteps:
                raise RuntimeError(f"exceeded max_supersteps={max_supersteps}")
            metrics.start_superstep(len(runnable))

            outgoing: list[list[tuple[int, object]]] = [[] for _ in range(self.num_workers)]
            for w in runnable:
                block = self.blocks[w]
                t0 = time.perf_counter()
                block.halted = True  # re-set by block_compute if needed
                outgoing[w] = block.block_compute(incoming[w]) or []
                metrics.record_compute(w, time.perf_counter() - t0)
            incoming = [
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            ] * self.num_workers

            # serialize (dst, value) per destination block
            for w in runnable:
                t0 = time.perf_counter()
                self._serialize(w, outgoing[w])
                metrics.record_compute(w, time.perf_counter() - t0)
            metrics.record_exchange(self._exchange.exchange(self.buffers))
            for w in range(self.num_workers):
                t0 = time.perf_counter()
                incoming[w] = self._deserialize(w)
                metrics.record_compute(w, time.perf_counter() - t0)
            metrics.end_superstep()

        metrics.end_run()
        result = EngineResult(metrics=metrics)
        for block in self.blocks:
            result.data.update(block.finalize())
        return result

    def _serialize(self, w: int, messages: list[tuple[int, object]]) -> None:
        if not messages:
            return
        codec = self.blocks[w].value_codec
        by_peer_dst: dict[int, list[int]] = {}
        by_peer_val: dict[int, list] = {}
        for dst, val in messages:
            peer = int(self.owner[dst])
            by_peer_dst.setdefault(peer, []).append(dst)
            by_peer_val.setdefault(peer, []).append(val)
        net = 0
        for peer, dsts in by_peer_dst.items():
            payload = INT32.encode_array(dsts) + codec.encode_array(by_peer_val[peer])
            writer = self.buffers[w].out[peer]
            writer.write_bytes(payload)
            if peer != w:
                net += len(dsts)
        if net:
            self.metrics.count_messages(net)

    def _deserialize(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        codec = self.blocks[w].value_codec
        itemsize = INT32.itemsize + codec.itemsize
        all_dst, all_val = [], []
        for data in self.buffers[w].inbox:
            if not data:
                continue
            count = len(data) // itemsize
            view = memoryview(data)
            all_dst.append(INT32.decode_array(view[: count * INT32.itemsize]).astype(np.int64))
            all_val.append(codec.decode_array(view[count * INT32.itemsize :], count))
        self.buffers[w].clear_inbox()
        if not all_dst:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(all_dst), np.concatenate(all_val)
