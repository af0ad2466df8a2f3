"""The static pattern: a wire that remembers who receives what, and what
they last received.

``ScatterCombine`` and ``MirroredScatter`` exist because their messaging
pattern never changes, so the destination ids need to cross the wire only
once.  :class:`StaticPattern` is that wire, both ends of it, on top of the
combined inbox: the first scatter after a registration *announces* — each
peer's payload carries the int32 words that describe its pattern, then the
values; every later scatter sends values only, and the receiver folds them
through the local indices it kept from the announcement (no id decode, no
``_local_index`` gather per round).  The payload itself is
``_records.encode_pattern`` / ``decode_pattern``.

After the announcement both ends also keep the last values that crossed
between them, per peer.  A later scatter compares each value with the kept
one bit for bit and sends a peer whichever payload is smallest: the
*dense* ``n`` values, or a *delta* — the ``k`` changed values behind their
positions, as an int32 list or a bitmap over ``[0, n)``.  The ids of an
announcement cross the same way, as a list or a bitmap over their range
(``_records.encode_pattern`` holds the rule and the five forms).  The form
is a function of the values alone, so every backend sends the same bytes.
The receiver patches its kept values and folds all ``n`` of them, as it
folds a dense payload: the inbox does not depend on the form, and a peer
whose values did not change still gets its 4-byte tag.

Both ends' memory is checkpoint state, so that a recovered run leaves the
byte counters where a failure-free run leaves them (ARCHITECTURE.md §2):

* **registration** (``add_edge[s][_bulk]``, ``add_adjacency``) clears
  ``_announced``: the next scatter announces the new edge set, and the
  values it sends replace what either end kept;
* **restore** loads the flag, the patterns and the kept values the
  snapshot held; the ``_build`` that follows a restore re-derives the
  dispatch structure and announces nothing a peer already knows
  (confined replay reads logged frames that are dense or delta);
* **migration** hands every new owner ``announced=False``, no patterns
  and no kept values: ownership moved, every sender announces once more.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.channels._inbox import CombinedInbox
from repro.core.channels._records import (
    decode_pattern,
    emit_payloads,
    encode_pattern,
    local_ids,
)
from repro.core.combiner import Combiner

__all__ = ["StaticPattern"]

#: what a receiver keeps per source worker: the local index every folded
#: value lands on, in wire order, and — when one wire value expands to
#: several of them — how many consecutive indices each value takes
Pattern = tuple[np.ndarray, "np.ndarray | None"]


def _as(pattern: Pattern, dtype) -> Pattern:
    return tuple(None if part is None else part.astype(dtype) for part in pattern)


def _size(pattern: Pattern) -> int:
    """How many values a source's payloads carry under ``pattern``."""
    local, repeats = pattern
    return local.size if repeats is None else repeats.size


def _changed(kept: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The mask of ``values`` that differ from ``kept``, by bit pattern:
    ``-0.0`` differs from ``0.0`` and a NaN equals itself."""
    width = f"u{values.itemsize}"
    return values.view(width) != kept.view(width)


class StaticPattern(CombinedInbox):
    """Mixin for a :class:`~repro.core.channel.Channel` over a static edge
    set: :class:`CombinedInbox` fed by pattern payloads.

    The channel's ``_build`` leaves the words each peer must learn in
    ``_words`` when ``_announced`` is false, and its ``serialize`` sends
    through :meth:`_scatter`; a channel whose words are not bare
    destination ids overrides :meth:`_learn` and clears
    :attr:`_words_are_ids`."""

    #: whether ``_words`` are the destination id of each value, strictly
    #: ascending: one id set, which an announcement may send as a bitmap
    _words_are_ids = True

    def _init_pattern(self, combiner: Combiner) -> None:
        self._init_inbox(combiner)
        # send half: whether the peers hold the pattern of the edge set as
        # registered, and the words per peer that tell them (they live
        # from _build to the announcement)
        self._announced = False
        self._words: list[np.ndarray] | None = None
        # the values that last crossed, once announced: per peer on the
        # send half (replaced by an announcement, which reaches every
        # peer, and overwritten in place by every later scatter)
        self._sent: dict[int, np.ndarray] = {}
        # receive half: source worker -> pattern, and the values it last
        # sent (patched in place by a delta)
        self._patterns: dict[int, Pattern] = {}
        self._received: dict[int, np.ndarray] = {}

    # -- sending ---------------------------------------------------------------
    def _scatter(self, payloads: Iterable[tuple[int, np.ndarray, int]]) -> None:
        """Emit ``values`` to every ``(peer, values, messages)``: behind
        the peer's words when the pattern is not announced yet, else in
        the smallest of the dense and the delta forms."""
        emit_payloads(
            self,
            ((peer, self._encode(peer, values), messages) for peer, values, messages in payloads),
        )
        self._announced = True
        self._words = None

    def _encode(self, peer: int, values: np.ndarray) -> bytes:
        """``peer``'s payload of ``values``, which it keeps to compare the
        next scatter's with."""
        if self._words is not None:
            self._sent[peer] = values.copy()
            if self._words_are_ids:
                return encode_pattern(self, values, ids=self._words[peer])
            return encode_pattern(self, values, words=self._words[peer])
        kept = self._sent[peer]
        changed = _changed(kept, values)
        kept[...] = values
        return encode_pattern(self, values, changed=changed)

    # -- receiving (deserialize is CombinedInbox's) -------------------------------
    def _receive(self, src: int, payload: memoryview) -> None:
        pattern = self._patterns.get(src)
        try:
            words, positions, values = decode_pattern(
                payload, self.value_codec, self.worker._local_index.size,
                None if pattern is None else _size(pattern),
            )  # fmt: skip
        except ValueError as exc:
            raise RuntimeError(f"{self!r}: worker {src} sent {exc}") from None
        if words is not None:
            pattern = self._patterns[src] = self._learn(src, words)
        elif pattern is None:
            raise RuntimeError(
                f"{self!r}: {values.size} values from worker {src}, "
                "which has announced no pattern"
            )
        local, repeats = pattern
        expected = _size(pattern)
        if positions is None:
            if values.size != expected:
                raise RuntimeError(
                    f"{self!r}: {values.size} values from worker {src}, "
                    f"whose pattern takes {expected}"
                )
            if words is not None:  # a new pattern: new kept values
                self._received[src] = np.empty_like(values)
            kept = self._received[src]
            kept[...] = values
        else:
            self._check_positions(src, positions, expected)
            kept = self._received[src]
            kept[positions] = values
        self._fold(local, kept if repeats is None else np.repeat(kept, repeats))

    def _check_positions(self, src: int, positions: np.ndarray, size: int) -> None:
        """A delta's positions must ascend strictly inside the pattern:
        anything else would patch the wrong value, silently."""
        if (np.diff(positions) <= 0).any():
            raise RuntimeError(
                f"{self!r}: worker {src} sent delta positions that do not "
                "strictly ascend"
            )
        if positions.size and (positions[0] < 0 or positions[-1] >= size):
            bad = positions[0] if positions[0] < 0 else positions[-1]
            raise RuntimeError(
                f"{self!r}: worker {src} sent delta position {bad} outside "
                f"its pattern of {size}"
            )

    def _learn(self, src: int, words: np.ndarray) -> Pattern:
        """The pattern ``words`` announce; by default they are the
        destination id of each value."""
        return local_ids(self, src, words), None

    # -- checkpointing (inbox keys, then the wire's) -------------------------------
    def _pattern_snapshot(self) -> dict:
        return {
            **self._inbox_snapshot(),
            "announced": self._announced,
            # local indices fit 4 bytes, as the ids they were announced by did
            "patterns": {src: _as(p, np.int32) for src, p in self._patterns.items()},
            # the kept values: one per pattern value on each end (those a
            # registration left behind are not state: they never cross again)
            "sent": {peer: v.copy() for peer, v in self._sent.items()} if self._announced else {},
            "received": {src: v.copy() for src, v in self._received.items()},
        }

    def _pattern_restore(self, state: dict) -> None:
        self._inbox_restore(state)
        self._announced = state["announced"]
        self._patterns = {src: _as(p, np.intp) for src, p in state["patterns"].items()}
        self._sent = {peer: v.copy() for peer, v in state["sent"].items()}
        self._received = {src: v.copy() for src, v in state["received"].items()}

    def _pattern_migrate(self, states: list[dict], ctx) -> list[dict]:
        return [
            {**inbox, "announced": False, "patterns": {}, "sent": {}, "received": {}}
            for inbox in self._inbox_migrate(states, ctx)
        ]
