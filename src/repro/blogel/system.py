"""The block program: Blogel's B-compute on the channel runtime.

One block per worker (Blogel supports many blocks per worker; for the
comparison the distinction is immaterial — what matters is block-local
computation between exchanges).  A :class:`BlockProgram` is a bulk
program whose superstep is one ``block_compute`` over everything the
block received, driven by :meth:`~repro.core.worker.Worker.superstep`
like every other program, so it runs on either executor, with
checkpoints and recovery.  Termination is the engine's own rule: a block
that stays ``halted`` votes every one of its vertices to halt, and a
message wakes the vertex it is addressed to.

Blogel's "special treatment of partition information": because the block
program knows the partition, a message names its destination by the
position it holds in the receiving block, not by its id — in the bytes
that block's size needs, where a vertex-centric channel pays the bytes
the whole graph's ``V`` needs — and a block's ascending destinations
cross as a bitmap over the receiving block where that is smaller: no
vertex-centric sender can address a peer's vertices as one dense range.
That is the message-size edge Table V (bottom) shows over the
Propagation channel, at equal message counts.  The payload
(``_BlockMessages``, ``_records.encode_block_records``) is a form byte,
then the positions or the bitmap, then the values, behind the 8-byte
frame header every channel pays.
"""

from __future__ import annotations

import numpy as np

from repro.core.channels import DirectMessage
from repro.core.channels._records import (
    ID,
    IdCodec,
    emit_payloads,
    encode_block_records,
    receive_records,
)
from repro.core.program import BulkVertexProgram
from repro.core.worker import Worker
from repro.runtime.serialization import Codec

__all__ = ["BlockProgram"]


class _BlockMessages(DirectMessage):
    """A block's messages: :class:`DirectMessage` records, each keyed by
    its destination's position in the receiving block, and the keys a
    bitmap over that block where they ascend and that is smaller
    (``_records.encode_block_records``)."""

    def __init__(self, worker: Worker, codec: Codec) -> None:
        super().__init__(worker, codec)
        sizes = np.bincount(worker.owner, minlength=worker.num_workers).tolist()
        #: each block's positions, as the codec writes them
        self._blocks = [IdCodec(size, self, positions=True) for size in sizes]

    def serialize(self) -> None:
        if self.round == 0:
            emit_payloads(self, map(self._payload, range(self.num_workers)))

    def _payload(self, peer: int) -> tuple[int, bytes, int]:
        _, dsts, values = self._drain(peer)
        keys = self.worker.engine.positions.take(dsts)
        return peer, encode_block_records(self, keys, values, self._blocks[peer]), dsts.size

    def _records_from(self, src: int, payload: memoryview) -> tuple[np.ndarray, np.ndarray]:
        return receive_records(self, src, payload, self._blocks[self.worker.worker_id])


class BlockProgram(BulkVertexProgram):
    """Base class for block programs (the user-written B-compute)."""

    #: wire codec for message values
    value_codec: Codec = ID

    def __init__(self, worker: Worker) -> None:
        super().__init__(worker)
        self.messages = _BlockMessages(worker, self.value_codec)
        self.halted = False

    @property
    def block_id(self) -> int:
        return self.worker.worker_id

    @property
    def local_ids(self) -> np.ndarray:
        """The block's vertices (global ids, ascending)."""
        return self.worker.local_ids

    def block_compute(self, incoming: tuple[np.ndarray, np.ndarray]):
        """One B-compute step.

        ``incoming`` is ``(indptr, values)``: the values received this
        superstep for local vertex ``i`` are ``values[indptr[i]:indptr[i+1]]``.
        Return the messages to send as ``(dst_global_ids, values)`` arrays
        (anything false for none) and set ``self.halted = False`` to run
        again next superstep without a message.
        """
        raise NotImplementedError

    def compute_bulk(self, active: np.ndarray) -> None:
        self.halted = True  # re-set by block_compute if needed
        out = self.block_compute(self.messages.get_messages())
        if out:
            self.messages.send_messages(*out)
        if self.halted:
            self.worker.halt_bulk(np.arange(self.num_local))
