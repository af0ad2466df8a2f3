"""The combined inbox: the receive half of every combining channel.

``CombinedMessage``, ``ScatterCombine`` and ``MirroredScatter`` differ on
the wire (records for the first, pattern payloads for the static two —
:mod:`~repro.core.channels._pattern`), but their receivers keep the same
thing: one slot per local
vertex holding the combiner's fold of what arrived, and a mask of who
received anything.  :class:`CombinedInbox` is that half — slots, read API,
the receive (reset to identity, fold each payload in arrival order, wake
the receivers) and its share of snapshot / restore.  A mixin,
not a member object, so ``get_message`` stays one array index on the
channel: scalar programs call it per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.core.channels._records import receive_records, wire_codec
from repro.core.combiner import Combiner
from repro.core.vertex import Vertex

__all__ = ["CombinedInbox"]


class CombinedInbox:
    """Mixin for a :class:`~repro.core.channel.Channel`: one combined
    value per local vertex."""

    def _init_inbox(self, combiner: Combiner) -> None:
        self.combiner = combiner
        self.value_codec = wire_codec(self, combiner.codec)
        n = self.worker.num_local
        self._slots = np.full(n, combiner.identity, dtype=combiner.codec.dtype)
        self._has_msg = np.zeros(n, dtype=bool)

    # -- reading (next superstep's compute) ---------------------------------
    def get_message(self, v: Vertex):
        """Combined value of everything delivered to ``v`` (the
        combiner's identity if nothing arrived)."""
        return self._slots[v.local]

    def get_messages(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, has_msg)`` views over all local vertices: the
        combined inbox per local index and the mask of receivers.  Treat
        as read-only; rewritten by the next exchange."""
        return self._slots, self._has_msg

    def has_message(self, v: Vertex) -> bool:
        return bool(self._has_msg[v.local])

    # -- receiving -----------------------------------------------------------
    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        self.round += 1
        self._slots[:] = self.combiner.identity
        self._has_msg[:] = False
        if not payloads:
            return
        for src, payload in payloads:
            self._receive(src, payload)
        self.worker.activate_local_bulk(np.flatnonzero(self._has_msg))

    def _receive(self, src: int, payload: memoryview) -> None:
        """Fold worker ``src``'s payload into the slots; the default
        payload is one block of ``(destination id, value)`` records."""
        self._fold(*receive_records(self, src, payload))

    def _fold(self, local: np.ndarray, values: np.ndarray) -> None:
        self.combiner.accumulate_at(self._slots, local, values)
        self._has_msg[local] = True

    # -- checkpointing (the inbox's keys of the channel's snapshot) -----------
    def _inbox_snapshot(self) -> dict:
        return {"slots": self._slots.copy(), "has_msg": self._has_msg.copy()}

    def _inbox_restore(self, state: dict) -> None:
        self._slots[...] = state["slots"]
        self._has_msg[...] = state["has_msg"]
