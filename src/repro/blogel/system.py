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
program knows the partition, messages carry ``int32`` values keyed by
``int32`` vertex ids — no wider generic payloads — which is the constant
message-size edge Table V (bottom) shows over the Propagation channel.
That is a :class:`~repro.core.channels.DirectMessage` record payload,
``[int32 ids][values]``, behind the 8-byte frame header every channel pays.
"""

from __future__ import annotations

import numpy as np

from repro.core.channels import DirectMessage
from repro.core.program import BulkVertexProgram
from repro.core.worker import Worker
from repro.runtime.serialization import INT32, Codec

__all__ = ["BlockProgram"]


class BlockProgram(BulkVertexProgram):
    """Base class for block programs (the user-written B-compute)."""

    #: wire codec for message values
    value_codec: Codec = INT32

    def __init__(self, worker: Worker) -> None:
        super().__init__(worker)
        self.messages = DirectMessage(worker, self.value_codec)
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
