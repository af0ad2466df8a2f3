"""``MirroredScatter``: sender-side combining via mirroring, as a channel.

Pregel+ offers mirroring (its *ghost mode*) only as a global engine mode
that cannot be combined with its other optimizations — exactly the
rigidity the paper criticizes.  This channel packages the same technique
behind the channel interface, which makes it composable with everything
else: a vertex whose registered edge set reaches a worker through at
least ``threshold`` edges sends that worker *one* value, and the
receiving side folds it along the vertex's row, which it reads from its
own graph.

This is an extension beyond the paper's three optimized channels (the
paper's Section VI explicitly lists mirroring as a known technique its
framework could host).  It is :class:`ScatterCombine` with another rule
for the senders whose own values cross to a peer — PowerLyra's high-degree
split — and the same cover, derivation and wire: the peer folds every
destination all of whose senders are mirrored there, and each other
destination is combined at the sender, over all its senders.  Mirroring
then changes the bytes, never the bits.  Where ``ScatterCombine`` lets no
peer fold (a selection combiner, or an edge set that is not whole rows),
neither does this channel: every destination is combined at the sender.

Compared to ScatterCombine's paper form on the same traffic:

* fewer bytes whenever one sender has many neighbors on one worker
  (one value per (vertex, worker) instead of one per unique destination);
* more receive-side work (the fold along the rows), which is why the
  paper found ghost mode saves bytes but not time (Table V top).
"""

from __future__ import annotations

import numpy as np

from repro.core.channels.scatter_combine import ScatterCombine
from repro.core.combiner import Combiner
from repro.core.worker import Worker

__all__ = ["MirroredScatter"]


class MirroredScatter(ScatterCombine):
    """Scatter with sender-side mirroring above a degree threshold.

    A sender with at least ``threshold`` edges into a peer is *mirrored*
    there: its own value crosses, and the peer folds it along its row.

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        Reduction applied to all values arriving at one vertex (must carry
        a ufunc).
    threshold:
        Mirroring kicks in for a (vertex, peer) pair once the vertex has
        at least this many edges to that peer (the paper used 16 for
        Pregel+'s ghost mode).
    """

    def __init__(self, worker: Worker, combiner: Combiner, threshold: int = 16) -> None:
        super().__init__(worker, combiner)
        self.threshold = threshold

    def _crossing(
        self, sel, bounds: np.ndarray, seg_lengths: np.ndarray, edge_src: np.ndarray
    ) -> np.ndarray | None:
        # the senders with at least `threshold` edges into the peer (a
        # sender with no edge there is no mirror, whatever the threshold)
        edges = np.zeros(self.worker.num_local, dtype=np.int64)
        for _, _, senders, _, _ in self._runs(sel, bounds, seg_lengths, edge_src):
            edges += np.bincount(senders, minlength=edges.size)
        crosses = edges >= max(self.threshold, 1)
        return crosses if crosses.any() else None
