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
framework could host).  It is :class:`ScatterCombine` plus mirrors: the
edges no mirror covers are that channel's segments, built and scanned as
there, and each peer's values gain one per sender mirrored there.

Compared to ScatterCombine on the same traffic:

* fewer bytes whenever one sender has many neighbors on one worker
  (one record per (vertex, worker) instead of one per unique
  destination);
* more receive-side work (the expansion), which is why the paper found
  ghost mode saves bytes but not time (Table V top).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.channels._pattern import Pattern
from repro.core.channels._records import as_int32, local_ids
from repro.core.channels.scatter_combine import ScatterCombine
from repro.core.combiner import Combiner
from repro.core.worker import Worker
from repro.util import stable_order

__all__ = ["MirroredScatter"]


class MirroredScatter(ScatterCombine):
    """Scatter with sender-side mirroring above a degree threshold.

    A sender with at least ``threshold`` edges into a peer is *mirrored*
    there: its value crosses once, after the combined values of the
    *plain* edges (every other one, which are :class:`ScatterCombine`'s
    segments), and the announcement carries its neighbours there.  The
    announced words are ``[plain count][mirrored count][plain ids][degree
    per mirrored sender][their neighbours, sender by sender]``, and so the
    pattern a receiver keeps (:meth:`_learn`) repeats a mirrored value over
    its neighbours.  With no mirrored sender both are ``ScatterCombine``'s,
    plus the two counts that open the announcement.

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
        super().__init__(worker, combiner)
        self.threshold = threshold
        # per peer, built with the rest: the senders mirrored there,
        # ascending, and their edges there, which an announcement counts
        # as messages
        self._mirrored: list[tuple[np.ndarray, int]] = []

    # -- setup ------------------------------------------------------------
    def _build(self) -> None:
        # pass 1 counts each (sender, peer) pair's edges, which decides the
        # mirrors before pass 2 groups the plain edges: a sender's edges
        # never straddle two blocks (whole rows, or the one per-edge block)
        self._num_edges, blocks = self._edge_blocks()
        peers = self.num_workers
        counts = np.zeros(self.worker.num_local * peers, dtype=np.int64)
        for src, dst in blocks:
            pairs = self._pairs(src, dst)[1]
            if pairs.size:
                lo = int(pairs.min())
                pairs -= lo
                per_pair = np.bincount(pairs)
                counts[lo : lo + per_pair.size] += per_pair
        # (a pair with no edge is no mirror, whatever the threshold)
        heavy = counts >= max(self.threshold, 1)
        counts, by_peer = counts.reshape(-1, peers), heavy.reshape(-1, peers)
        degrees = [counts[by_peer[:, p], p] for p in range(peers)]
        self._mirrored = [
            (np.flatnonzero(by_peer[:, p]), int(degree.sum())) for p, degree in enumerate(degrees)
        ]
        num_plain = self._num_edges - sum(edges for _, edges in self._mirrored)
        neighbours = None if self._announced else [[] for _ in range(peers)]
        _, blocks = self._edge_blocks()
        self._group(num_plain, self._plain(blocks, heavy, neighbours))
        if neighbours is not None:
            for peer, degree in enumerate(degrees):
                ids = self._words[peer]
                head = as_int32(self, "word", np.concatenate(([ids.size, degree.size], degree)))
                self._words[peer] = np.concatenate((head[:2], ids, head[2:], *neighbours[peer]))
                neighbours[peer] = None  # (copied into the words)

    def _pairs(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each edge's peer, and its ``(sender, peer)`` pair as one index."""
        owner = self.worker.owner[dst]
        pairs = src.astype(np.int64)
        pairs *= self.num_workers
        pairs += owner
        return owner, pairs

    def _plain(
        self, blocks, heavy: np.ndarray, neighbours: list[list[np.ndarray]] | None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``blocks`` (:meth:`~ScatterEdges._edge_blocks`) with only their
        plain edges, for :meth:`~ScatterCombine._group`.  Unless
        ``neighbours`` is ``None``, each block's mirrored edges go to
        ``neighbours[peer]`` too, as int32 words: by sender, in
        registration order.  Later blocks hold later senders, so the
        chunks follow the ascending senders of ``_mirrored``."""
        for src, dst in blocks:
            owner, pairs = self._pairs(src, dst)
            mirrored = heavy[pairs]
            del pairs
            if neighbours is not None and mirrored.any():
                for peer, chunk in enumerate(neighbours):
                    edges = mirrored & (owner == peer)
                    ids, senders = dst[edges], src[edges]
                    if (senders[1:] < senders[:-1]).any():  # per-edge registration
                        ids = ids[stable_order(senders, self.worker.num_local)[0]]
                    chunk.append(as_int32(self, "word", ids))
            plain = ~mirrored
            yield src[plain], dst[plain]

    def _learn(self, src: int, words: np.ndarray) -> Pattern:
        plain, mirrored = words[:2].tolist()
        ids_end = 2 + plain
        tables = ids_end + mirrored
        local = local_ids(self, src, np.concatenate((words[2:ids_end], words[tables:])))
        if not mirrored:
            return local, None
        return local, np.concatenate((np.ones(plain, dtype=np.intp), words[ids_end:tables]))

    # -- the scan's per-peer hook ---------------------------------------------
    def _payload(self, peer: int, combined: np.ndarray) -> tuple[int, np.ndarray, int]:
        # one value per mirrored sender after the plain ones; announced, its
        # edges count as messages too
        senders, edges = self._mirrored[peer]
        values = np.concatenate((combined, self._values[senders]))
        return peer, values, values.size + (0 if self._announced else edges)
