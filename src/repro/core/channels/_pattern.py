"""The static pattern: a wire that remembers who receives what, and what
they last received.

``ScatterCombine`` (and ``MirroredScatter``, one of its rules) exists
because its messaging pattern never changes, so the destination ids need
to cross the wire only once.  :class:`StaticPattern` is that wire, both
ends of it, on top of the combined inbox: the first scatter after a
registration *announces* — each peer's payload carries the ids that
describe its pattern, then the values; every later scatter sends values
only, and the receiver folds them through the local indices it kept from
the announcement (no id decode, no position lookup per round).  The payload itself is
``_records.encode_pattern`` / ``decode_pattern``.

After the announcement both ends also keep the last values that crossed
between them, per peer.  A later scatter compares each value with the kept
one bit for bit and sends a peer whichever payload is smallest: the
*dense* ``n`` values, or a *delta* — the ``k`` changed values behind their
positions, as a list of the bytes a position into ``n`` values needs or
as a bitmap over ``[0, n)``.  The ids of an
announcement cross the same way, as a list or a bitmap over their range
(``_records.encode_pattern`` holds the rule and the seven forms).  The form
is a function of the values alone, so every backend sends the same bytes.
The receiver patches its kept values and folds all ``n`` of them, as it
folds a dense payload: the inbox does not depend on the form, and a peer
whose values did not change still gets its 4-byte tag.

A peer may instead announce *senders*: the ids of some of its vertices
with an edge here (``ScatterCombine._crossing`` picks them), the ids of
the destinations it still combines itself, and how many other
destinations the senders' rows reach.  Its values are then the combined
ones, followed by the senders' own, and the receiver folds ``[combined
values | scan(sender values)]``: the senders' values along their rows,
which it reads from its own graph, into every vertex of its own those
rows reach that is not a combined one
(:meth:`~repro.core.channels.scatter_combine.ScatterCombine._learn_senders`).
The wire after that announcement is the same dense or delta values.

Both ends' memory is checkpoint state, so that a recovered run leaves the
byte counters where a failure-free run leaves them (ARCHITECTURE.md §2):

* **registration** (``add_edge[s]``, ``add_adjacency``) clears
  ``_announced``: the next scatter announces the new edge set, and the
  values it sends replace what either end kept;
* **restore** loads the flag, the patterns and the kept values the
  snapshot held, and derives again the pattern of every source that
  announced senders, from the sender ids, count and combined ids it
  held; the ``_build`` that follows a restore re-derives the dispatch
  structure and announces nothing a peer already knows (confined replay
  reads logged frames that are dense or delta).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.channels._inbox import CombinedInbox
from repro.core.channels._records import (
    check_ascending,
    decode_pattern,
    emit_payloads,
    encode_pattern,
    local_ids,
)
from repro.core.combiner import Combiner

__all__ = ["StaticPattern"]

#: what a receiver keeps per source worker: the local index every folded
#: value lands on, and how the values on the wire become the folded ones —
#: ``None``: one each, in wire order; else a scan, a function of the values
#: (with a ``size``, the values it takes): their combination along the rows
#: of announced senders
Pattern = tuple[np.ndarray, object]


def _size(pattern: Pattern) -> int:
    """How many values a source's payloads carry under ``pattern``."""
    local, scan = pattern
    return local.size if scan is None else scan.size


def _expand(pattern: Pattern, values: np.ndarray) -> np.ndarray:
    """The values to fold at ``pattern``'s local indices."""
    scan = pattern[1]
    return values if scan is None else scan(values)


def _changed(kept: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The mask of ``values`` that differ from ``kept``, by bit pattern:
    ``-0.0`` differs from ``0.0`` and a NaN equals itself."""
    width = f"u{values.itemsize}"
    return values.view(width) != kept.view(width)


class StaticPattern(CombinedInbox):
    """Mixin for a :class:`~repro.core.channel.Channel` over a static edge
    set: :class:`CombinedInbox` fed by pattern payloads.

    The channel's ``_build`` leaves what each peer must learn in
    ``_words`` when ``_announced`` is false — ``encode_pattern``'s
    announcement arguments, per peer — and its ``serialize`` sends through
    :meth:`_scatter`."""

    def _init_pattern(self, combiner: Combiner) -> None:
        self._init_inbox(combiner)
        # send half: whether the peers hold the pattern of the edge set as
        # registered, and the announcement per peer that tells them (it
        # lives from _build to the first scatter)
        self._announced = False
        self._words: list[dict] | None = None
        # the values that last crossed, once announced: per peer on the
        # send half (replaced by an announcement, which reaches every
        # peer, and overwritten in place by every later scatter)
        self._sent: dict[int, np.ndarray] = {}
        # receive half: source worker -> pattern, and the values it last
        # sent (patched in place by a delta); for a source that announced
        # senders, the pattern is derived from what it announced: the
        # sender ids, the destination count and the combined ids (copied
        # out of the payload), kept in _senders
        self._patterns: dict[int, Pattern] = {}
        self._received: dict[int, np.ndarray] = {}
        self._senders: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}

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
            return encode_pattern(self, values, **self._words[peer])
        kept = self._sent[peer]
        changed = _changed(kept, values)
        kept[...] = values
        return encode_pattern(self, values, changed=changed)

    # -- receiving (deserialize is CombinedInbox's) -------------------------------
    def _receive(self, src: int, payload: memoryview) -> None:
        pattern = self._patterns.get(src)
        try:
            ids, senders, positions, values = decode_pattern(
                payload, self.value_codec, self.worker.graph.num_vertices,
                None if pattern is None else _size(pattern),
            )  # fmt: skip
        except ValueError as exc:
            raise RuntimeError(f"{self!r}: worker {src} sent {exc}") from None
        if ids is not None:
            if senders is None:  # the destination of each value, ascending
                pattern = local_ids(self, src, ids), None
                check_ascending(self, src, "ids", ids)
            else:  # (ScatterCombine's)
                pattern = self._learn_senders(src, ids, *senders)
        elif pattern is None:
            raise RuntimeError(
                f"{self!r}: {values.size} values from worker {src}, "
                "which has announced no pattern"
            )
        expected = _size(pattern)
        if positions is None:
            if values.size != expected:
                raise RuntimeError(
                    f"{self!r}: {values.size} values from worker {src}, "
                    f"whose pattern takes {expected}"
                )
            if ids is not None:  # a new pattern, kept once its values fit it
                self._patterns[src] = pattern
                self._received[src] = np.empty_like(values)
                if senders is None:
                    self._senders.pop(src, None)
                else:
                    destinations, combined = senders
                    self._senders[src] = ids.copy(), int(destinations), combined.copy()
            kept = self._received[src]
            kept[...] = values
        else:
            kept = self._received[src]
            kept[positions] = values
        self._fold(pattern[0], _expand(pattern, kept))

    # -- checkpointing (inbox keys, then the wire's) -------------------------------
    def _pattern_snapshot(self) -> dict:
        return {
            **self._inbox_snapshot(),
            "announced": self._announced,
            # local indices fit 4 bytes, as the ids they were announced by
            # did; a source that announced senders keeps what it announced,
            # (sender ids, destination count, combined ids), from which
            # restore derives its pattern again
            "patterns": {
                src: self._senders.get(src) or (p[0].astype(np.int32), None)
                for src, p in self._patterns.items()
            },
            # the kept values: one per pattern value on each end (those a
            # registration left behind are not state: they never cross again)
            "sent": {peer: v.copy() for peer, v in self._sent.items()} if self._announced else {},
            "received": {src: v.copy() for src, v in self._received.items()},
        }

    def _pattern_restore(self, state: dict) -> None:
        self._inbox_restore(state)
        self._announced = state["announced"]
        self._patterns, self._senders = {}, {}
        for src, entry in state["patterns"].items():
            if len(entry) == 3:  # (sender ids, destinations, combined ids)
                self._patterns[src] = self._learn_senders(src, *entry)
                self._senders[src] = tuple(entry)
            else:
                self._patterns[src] = entry[0].astype(np.intp), None
        self._sent = {peer: v.copy() for peer, v in state["sent"].items()}
        self._received = {src: v.copy() for src, v in state["received"].items()}
