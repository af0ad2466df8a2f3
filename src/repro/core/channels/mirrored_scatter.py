"""``MirroredScatter``: sender-side combining via mirroring, as a channel.

Pregel+ offers mirroring (its *ghost mode*) only as a global engine mode
that cannot be combined with its other optimizations — exactly the
rigidity the paper criticizes.  This channel packages the same technique
behind the channel interface, which makes it composable with everything
else: a vertex whose registered edge set reaches a worker through at
least ``threshold`` edges sends that worker *one* value, and the
receiving side expands it through a pre-built mirror adjacency.

This is an extension beyond the paper's three optimized channels (the
paper's Section VI explicitly lists mirroring as a known technique its
framework could host).  Interface-wise it is a drop-in replacement for
:class:`ScatterCombine`: ``add_edges`` once, ``set_message`` per
superstep, ``get_message`` next superstep.

Compared to ScatterCombine on the same traffic:

* fewer bytes whenever one sender has many neighbors on one worker
  (one record per (vertex, worker) instead of one per unique
  destination);
* more receive-side work (the expansion), which is why the paper found
  ghost mode saves bytes but not time (Table V top).
"""

from __future__ import annotations

import numpy as np

from repro.core.channel import Channel
from repro.core.channels._edges import ScatterEdges
from repro.core.channels._pattern import Pattern, StaticPattern
from repro.core.channels._records import as_int32
from repro.core.combiner import Combiner
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.util import group_starts

__all__ = ["MirroredScatter"]


class MirroredScatter(ScatterEdges, StaticPattern, Channel):
    """Scatter with sender-side mirroring above a degree threshold.

    Same static edge set (:class:`ScatterEdges`), combined inbox and wire
    (:class:`StaticPattern`) as :class:`ScatterCombine`; its own are the
    words it announces — the plain destinations, then every mirrored
    sender's neighbor list — and so the pattern a receiver keeps, in which
    a mirrored sender's one value takes as many slots as it has neighbors
    there.  With no mirrored sender both are ``ScatterCombine``'s, plus
    the two counts that open the announcement.

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        Receiver-side reduction (must carry a ufunc).
    threshold:
        Mirroring kicks in for a (vertex, peer) pair once the vertex has
        at least this many edges to that peer (the paper used 16 for
        Pregel+'s ghost mode).
    """

    #: counts, ids and neighbour lists: not one ascending set, so an
    #: announcement sends them as an int32 list
    _words_are_ids = False

    def __init__(self, worker: Worker, combiner: Combiner, threshold: int = 16) -> None:
        Channel.__init__(self, worker)
        self._init_pattern(combiner)
        self._init_edges()
        self.threshold = threshold
        # per-superstep state: the value each vertex scatters, identity until set
        self._values = self._slots.copy()
        self._dirty = False
        # static dispatch structure (built lazily), one row per peer: plain
        # (non-mirrored) edges — sender local indices sorted by destination
        # and the segment start of each unique one; mirrored senders, whose
        # value is shipped once and expanded remotely — local indices; the
        # number of mirrored edges, which an announcement counts as messages
        self._dispatch: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []

    # -- setup ------------------------------------------------------------
    def _build(self) -> None:
        # the per-peer sorts below want whole columns: copy the blocks out
        # (senders as int64 — they index _values every superstep, and a
        # narrower index is widened per call)
        num_edges, blocks = self._edge_blocks()
        src, dst = np.empty((2, num_edges), dtype=np.int64)
        end = 0
        for block_src, block_dst in blocks:
            start, end = end, end + block_src.size
            src[start:end], dst[start:end] = block_src, block_dst
        owner = self.worker.owner[dst]
        self._dispatch = []
        self._words = None if self._announced else []
        for peer in range(self.num_workers):
            sel = owner == peer
            order = np.argsort(src[sel], kind="stable")
            psrc = src[sel][order]
            pdst = dst[sel][order]
            # a sender with >= threshold edges into `peer` is mirrored there
            uniq_src, starts = group_starts(psrc)
            degrees = np.diff(starts, append=psrc.size)
            mirrored = degrees >= self.threshold
            heavy_senders = uniq_src[mirrored]
            heavy = np.isin(psrc, heavy_senders)
            order = np.argsort(pdst[~heavy], kind="stable")
            uniq_dst, starts = group_starts(pdst[~heavy][order])
            self._dispatch.append(
                (psrc[~heavy][order], starts, heavy_senders, int(heavy.sum()))
            )
            if self._words is not None:
                # [plain count][mirrored count][plain destination ids]
                # [neighbor count per mirrored sender][their neighbors, sender by sender]
                words = np.concatenate(
                    ([uniq_dst.size, heavy_senders.size], uniq_dst, degrees[mirrored], pdst[heavy])
                )
                self._words.append(as_int32(self, "word", words))
        self._built = True

    def _learn(self, src: int, words: np.ndarray) -> Pattern:
        plain, mirrored = words[:2].tolist()
        ids_end = 2 + plain
        tables = ids_end + mirrored
        local = self._owned(src, np.concatenate((words[2:ids_end], words[tables:])))
        if not mirrored:
            return local, None
        return local, np.concatenate((np.ones(plain, dtype=np.intp), words[ids_end:tables]))

    # -- per-superstep API ---------------------------------------------------
    def set_message(self, v: Vertex, value) -> None:
        self._values[v.local] = value
        self._dirty = True

    send_message = set_message

    def set_messages(self, local_idx: np.ndarray, values: np.ndarray) -> None:
        """Array form of :meth:`set_message` for bulk programs."""
        self._values[local_idx] = values
        self._dirty = True

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            **self._edges_snapshot(),
            "values": self._values.copy(),
            "dirty": self._dirty,
            # the patterns hold the expansion tables, which cannot be
            # re-derived: they are only ever shipped in an announcement
            **self._pattern_snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._edges_restore(state)
        self._values[...] = state["values"]
        self._dirty = state["dirty"]
        self._pattern_restore(state)

    def migrate_states(self, states: list[dict], ctx) -> list[dict]:
        # the mirror tables are re-derived by _build() like the rest
        return self._scatter_migrate(states, ctx, ("values",))

    # -- round protocol (deserialize is CombinedInbox's, over pattern payloads) --
    # Values per peer: one per unique plain destination, then one per
    # mirrored sender.
    def serialize(self) -> None:
        if self.round != 0 or not self._dirty:
            return
        if not self._built:
            self._build()
        self._dirty = False
        self._scatter(map(self._payload, range(self.num_workers)))

    def _payload(self, peer: int) -> tuple[int, np.ndarray, int]:
        lsrc, starts, msrc, mirrored_edges = self._dispatch[peer]
        values = np.concatenate(
            (self.combiner.reduceat(self._values[lsrc], starts), self._values[msrc])
        )
        return peer, values, values.size + (0 if self._announced else mirrored_edges)
