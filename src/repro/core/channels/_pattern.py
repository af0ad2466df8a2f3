"""The static pattern: a wire that remembers who receives what.

``ScatterCombine`` and ``MirroredScatter`` exist because their messaging
pattern never changes, so the destination ids need to cross the wire only
once.  :class:`StaticPattern` is that wire, both ends of it, on top of the
combined inbox: the first scatter after a registration *announces* — each
peer's payload carries the int32 words that describe its pattern, then the
values; every later scatter sends values only, and the receiver folds them
through the local indices it kept from the announcement (no id decode, no
``_local_index`` gather per round).  The payload itself is
``_records.encode_pattern`` / ``decode_pattern``.

Both ends' memory is checkpoint state, so that a recovered run leaves the
byte counters where a failure-free run leaves them (ARCHITECTURE.md §2):

* **registration** (``add_edge[s][_bulk]``, ``add_adjacency``) clears
  ``_announced``: the next scatter announces the new edge set;
* **restore** loads the flag and the patterns the snapshot held; the
  ``_build`` that follows a restore re-derives the dispatch structure and
  announces nothing a peer already knows (confined replay reads logged
  frames that are values only);
* **migration** hands every new owner ``announced=False`` and no
  patterns: ownership moved, every sender announces once more.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.channels._inbox import CombinedInbox
from repro.core.channels._records import (
    check_ids,
    decode_pattern,
    emit_payloads,
    encode_pattern,
)
from repro.core.combiner import Combiner

__all__ = ["StaticPattern"]

#: what a receiver keeps per source worker: the local index every folded
#: value lands on, in wire order, and — when one wire value expands to
#: several of them — how many consecutive indices each value takes
Pattern = tuple[np.ndarray, "np.ndarray | None"]


def _as(pattern: Pattern, dtype) -> Pattern:
    return tuple(None if part is None else part.astype(dtype) for part in pattern)


class StaticPattern(CombinedInbox):
    """Mixin for a :class:`~repro.core.channel.Channel` over a static edge
    set: :class:`CombinedInbox` fed by pattern payloads.

    The channel's ``_build`` leaves the words each peer must learn in
    ``_words`` when ``_announced`` is false, and its ``serialize`` sends
    through :meth:`_scatter`; a channel whose words are not bare
    destination ids overrides :meth:`_learn`."""

    def _init_pattern(self, combiner: Combiner) -> None:
        self._init_inbox(combiner)
        # send half: whether the peers hold the pattern of the edge set as
        # registered, and the int32 words per peer that tell them (they
        # live from _build to the announcement)
        self._announced = False
        self._words: list[np.ndarray] | None = None
        # receive half: source worker -> pattern
        self._patterns: dict[int, Pattern] = {}

    # -- sending ---------------------------------------------------------------
    def _scatter(self, payloads: Iterable[tuple[int, np.ndarray, int]]) -> None:
        """Emit ``values`` to every ``(peer, values, messages)``, behind
        the peer's words when the pattern is not announced yet."""
        codec = self.value_codec
        words = self._words if self._words is not None else [None] * self.num_workers
        emit_payloads(
            self,
            (
                (peer, encode_pattern(words[peer], values, codec), messages)
                for peer, values, messages in payloads
            ),
        )
        self._announced = True
        self._words = None

    # -- receiving (deserialize is CombinedInbox's) -------------------------------
    def _receive(self, src: int, payload: memoryview) -> None:
        words, values = decode_pattern(payload, self.value_codec)
        if words is not None:
            self._patterns[src] = self._learn(src, words)
        elif src not in self._patterns:
            raise RuntimeError(
                f"{self!r}: {values.size} values from worker {src}, "
                "which has announced no pattern"
            )
        local, repeats = self._patterns[src]
        expected = local.size if repeats is None else repeats.size
        if values.size != expected:
            raise RuntimeError(
                f"{self!r}: {values.size} values from worker {src}, "
                f"whose pattern takes {expected}"
            )
        self._fold(local, values if repeats is None else np.repeat(values, repeats))

    def _learn(self, src: int, words: np.ndarray) -> Pattern:
        """The pattern ``words`` announce; by default they are the
        destination id of each value."""
        return self._owned(src, words), None

    def _owned(self, src: int, ids: np.ndarray) -> np.ndarray:
        """Local indices of the announced ``ids``, all of which this
        worker must own (``_local_index`` is -1 elsewhere, which would
        fold into the last slot)."""
        index = self.worker._local_index
        check_ids(self, f"worker {src}'s announced id", ids, index.size)
        local = index[ids]
        if local.size and local.min() < 0:
            raise RuntimeError(
                f"{self!r}: worker {src} announced id {ids[local < 0][0]}, which "
                f"worker {self.worker.worker_id} does not own"
            )
        return local

    # -- checkpointing (inbox keys, then the wire's) -------------------------------
    def _pattern_snapshot(self) -> dict:
        return {
            **self._inbox_snapshot(),
            "announced": self._announced,
            # local indices fit 4 bytes, as the ids they were announced by did
            "patterns": {src: _as(p, np.int32) for src, p in self._patterns.items()},
        }

    def _pattern_restore(self, state: dict) -> None:
        self._inbox_restore(state)
        self._announced = state["announced"]
        self._patterns = {src: _as(p, np.intp) for src, p in state["patterns"].items()}

    def _pattern_migrate(self, states: list[dict], ctx) -> list[dict]:
        return [
            {**inbox, "announced": False, "patterns": {}}
            for inbox in self._inbox_migrate(states, ctx)
        ]
