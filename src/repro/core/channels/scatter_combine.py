"""``ScatterCombine``: the static-messaging-pattern channel (Fig. 5).

For algorithms where every vertex sends one value to *all* of its
neighbors every superstep (PageRank, the S-V tree-merging broadcast), the
message dispatch structure never changes.  This channel pre-sorts the
worker's local edge list by destination once; every subsequent superstep
produces the per-destination combined values with a single segmented
reduction over that sorted order — no hashing, no per-message routing.

Two savings, against two baselines.  Sender-side combining across local
edges removes the redundant (destination, value) records this repo's
``channel-basic`` (``CombinedMessage``, which combines only at the
receiver) emits once per edge: each unique destination is sent at most
once per worker per superstep — 86 % fewer bytes on a scale-13 RMAT at 4
workers.  The paper's Table V baseline already combines at the sender, so
its ~1/3 message-size reduction on PageRank is the other saving: the
pattern is static, so the 4-byte destination id beside every 8-byte value
crosses the wire once, in the first scatter, and never again
(:class:`~repro.core.channels._pattern.StaticPattern`).
"""

from __future__ import annotations

import numpy as np

from repro.core.channel import Channel
from repro.core.channels._edges import ScatterEdges
from repro.core.channels._pattern import StaticPattern
from repro.core.channels._records import as_int32
from repro.core.combiner import Combiner
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.util import cut_blocks, group_by_key

__all__ = ["ScatterCombine"]

#: edges one step of the per-superstep scan gathers: the scratch they land
#: in is reused, so the scan allocates no per-edge temporary (0.5 MB of
#: float64; a scan in 1 Mi-edge steps measured no faster)
_BLOCK_EDGES = 1 << 16


class ScatterCombine(ScatterEdges, StaticPattern, Channel):
    """Scatter one value per vertex along static edges, combine per receiver.

    Static structure: :class:`ScatterEdges` (``add_edge[s][_bulk]`` or
    ``add_adjacency``);
    receive half and wire: :class:`StaticPattern` (``get_message[s]``,
    ``has_message``; ids in the first scatter, values after); the
    segmented reduction that produces the values is this class.

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        Reduction applied to all values arriving at one vertex (must carry
        a NumPy ufunc; all built-ins do).
    """

    def __init__(self, worker: Worker, combiner: Combiner) -> None:
        Channel.__init__(self, worker)
        self._init_pattern(combiner)
        self._init_edges()
        # per-superstep state: the value each vertex scatters, identity until set
        self._values = self._slots.copy()
        self._dirty = False
        # static dispatch structure (built lazily)
        self._num_edges = 0  # registered edges: none, nothing to scatter
        self._seg_edge_src: np.ndarray | None = None  # edge -> sender local idx
        self._seg_starts: np.ndarray | None = None  # segment starts (per unique dst)
        self._blocks: list[tuple[int, int, int, int]] = []  # the scan's steps
        self._scratch: np.ndarray | None = None  # one block of per-edge values
        # per peer: its destinations' positions in uniq order — one slice
        # when they are one run of it, an index array otherwise
        self._peer_select: list[slice | np.ndarray] = []

    # -- setup (usually superstep 1) ----------------------------------------
    def _build(self) -> None:
        """Pre-sort edges by destination (the one-time cost of Fig. 5)."""
        self._num_edges, blocks = self._edge_blocks()
        self._group(self._num_edges, blocks)

    def _group(self, num_edges: int, blocks) -> None:
        """The scan's segments over the ``num_edges`` edges ``blocks``
        yields (see :meth:`~ScatterEdges._edge_blocks`), and the
        destination ids each peer is to learn."""
        uniq_dst, starts, self._seg_edge_src = group_by_key(
            ((dst, src) for src, dst in blocks),
            num_edges,
            self.worker.graph.num_vertices,
            self.worker.num_local,
        )
        self._seg_starts = starts
        self._blocks = cut_blocks(np.append(starts, num_edges), _BLOCK_EDGES)
        self._scratch = np.empty(
            max((hi - lo for _, _, lo, hi in self._blocks), default=0),
            dtype=self._values.dtype,
        )
        owners = self.worker.owner[uniq_dst]
        peers = range(self.num_workers)
        if (owners[1:] >= owners[:-1]).all():
            # uniq_dst ascends, so under a contiguous partition each peer's
            # destinations are one run of it: a view, no gather per scatter
            bounds = np.searchsorted(owners, range(self.num_workers + 1)).tolist()
            self._peer_select = [slice(bounds[p], bounds[p + 1]) for p in peers]
        else:
            self._peer_select = [np.flatnonzero(owners == p) for p in peers]
        if not self._announced:
            self._words = [
                as_int32(self, "destination id", uniq_dst[sel]) for sel in self._peer_select
            ]
        self._built = True

    # -- per-superstep API ---------------------------------------------------
    def set_message(self, v: Vertex, value) -> None:
        """Set the value ``v`` scatters to all its registered edges this
        superstep."""
        self._values[v.local] = value
        self._dirty = True

    # alias matching the paper's prose ("emits an initial message using the
    # send_message() interface")
    send_message = set_message

    def set_messages(self, local_idx: np.ndarray, values: np.ndarray) -> None:
        """Array form of :meth:`set_message`: ``local_idx[i]`` scatters
        ``values[i]`` along its registered edges this superstep."""
        self._values[local_idx] = values
        self._dirty = True

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            **self._edges_snapshot(),
            "values": self._values.copy(),
            "dirty": self._dirty,
            **self._pattern_snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._edges_restore(state)
        self._values[...] = state["values"]
        self._dirty = state["dirty"]
        self._pattern_restore(state)

    def migrate_states(self, states: list[dict], ctx) -> list[dict]:
        return self._scatter_migrate(states, ctx, ("values",))

    # -- round protocol (deserialize is CombinedInbox's, over pattern payloads) --
    def serialize(self) -> None:
        if self.round != 0 or not self._dirty:
            return
        if not self._built:
            self._build()
        assert self._seg_edge_src is not None and self._seg_starts is not None
        self._dirty = False
        if not self._num_edges:
            return
        # Fig. 5: one linear pass over the pre-sorted edges produces
        # the combined message value for every unique destination.  A
        # segment never spans two blocks, so the blocks change no bit.
        # mode="clip" only skips the bounds check _edge_blocks did at
        # build (with an ``out``, "raise" gathers into a copy first).
        starts = self._seg_starts
        combined = np.empty(starts.size, dtype=self._values.dtype)
        for seg_lo, seg_hi, lo, hi in self._blocks:
            per_edge = np.take(
                self._values,
                self._seg_edge_src[lo:hi],
                out=self._scratch[: hi - lo],
                mode="clip",
            )
            self.combiner.reduceat(
                per_edge, starts[seg_lo:seg_hi] - lo, out=combined[seg_lo:seg_hi]
            )
        per_peer = (combined[sel] for sel in self._peer_select)
        self._scatter(map(self._payload, range(self.num_workers), per_peer))

    def _payload(self, peer: int, combined: np.ndarray) -> tuple[int, np.ndarray, int]:
        """``(peer, values, messages)`` of one scatter: the combined value
        of each of ``peer``'s destinations, one message per unique
        destination, whether or not its id is sent."""
        return peer, combined, combined.size
