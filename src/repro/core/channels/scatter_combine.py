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

Where a peer's edges are combined is decided per peer, once, at build.
One combined value per destination is what the paper sends; when fewer
of this worker's vertices reach a peer than the destinations they reach
there, their own values are fewer, and the peer can combine them itself:
it reads the senders' rows from its own graph and runs the same scan
over them (Pregel+'s mirroring, Gemini's sparse/dense modes, chosen per
peer by the data).  That needs rows the receiver can read — the edge set
is whole rows of a named adjacency, in ascending sender order — and a
combiner that is not a selection: a minimum over many senders changes
less often than their own values, so the delta form sends it for fewer
bytes (S-V's labels crossed in 16.9 % more bytes as senders' values).
The fold is bit for bit the one of the values the sender would have
combined; only the bytes move.
"""

from __future__ import annotations

import numpy as np

from repro.core.adjacency import build_local_csr
from repro.core.channel import Channel
from repro.core.channels._edges import ScatterEdges
from repro.core.channels._pattern import Pattern, StaticPattern
from repro.core.channels._records import as_int32
from repro.core.combiner import Combiner
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.util import cut_blocks, expand_ranges, group_by_key

__all__ = ["ScatterCombine"]

#: edges one step of the per-superstep scan gathers: the scratch they land
#: in is reused, so the scan allocates no per-edge temporary (0.5 MB of
#: float64; a scan in 1 Mi-edge steps measured no faster)
_BLOCK_EDGES = 1 << 16


class _Scan:
    """Fig. 5's linear pass over edges grouped by destination: per block
    of whole segments, ``take`` each edge's sender value into a reused
    scratch and ``reduceat`` the segments, one combined value each.  A
    segment never spans two blocks, so the blocks change no bit.  The
    sender scans the edges it combines with one; a receiver that combines
    a peer's edges scans them with another, and folds the same values.

    ``edge_src`` indexes the ``size`` values a call takes; ``starts`` are
    the segments' first edges."""

    def __init__(self, combiner: Combiner, edge_src: np.ndarray, starts: np.ndarray, size: int):
        self.combiner = combiner
        self.edge_src, self.starts, self.size = edge_src, starts, size
        self.blocks = cut_blocks(np.append(starts, edge_src.size), _BLOCK_EDGES)
        self.scratch = np.empty(
            max((hi - lo for _, _, lo, hi in self.blocks), default=0),
            dtype=combiner.codec.dtype,
        )

    def __call__(self, values: np.ndarray) -> np.ndarray:
        # mode="clip" only skips the bounds check the build did (with an
        # ``out``, "raise" gathers into a copy first)
        combined = np.empty(self.starts.size, dtype=values.dtype)
        for seg_lo, seg_hi, lo, hi in self.blocks:
            per_edge = np.take(
                values, self.edge_src[lo:hi], out=self.scratch[: hi - lo], mode="clip"
            )
            self.combiner.reduceat(
                per_edge, self.starts[seg_lo:seg_hi] - lo, out=combined[seg_lo:seg_hi]
            )
        return combined


class ScatterCombine(ScatterEdges, StaticPattern, Channel):
    """Scatter one value per vertex along static edges, combine per receiver.

    Static structure: :class:`ScatterEdges` (``add_edge[s][_bulk]`` or
    ``add_adjacency``);
    receive half and wire: :class:`StaticPattern` (``get_message[s]``,
    ``has_message``; ids in the first scatter, values after); the
    segmented reduction that produces the values, at whichever end of
    each peer's edges sends fewer of them, is this class.

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
        self._scan: _Scan | None = None  # over the edges combined here
        # per peer: its destinations' positions in the scan's output — one
        # slice when they are one run of it, an index array otherwise
        self._peer_select: list[slice | np.ndarray] = []
        # per peer that combines this worker's edges itself: the local
        # senders whose values it gets, and the destinations they reach
        # there; None where they are combined here
        self._expanded: list[tuple[np.ndarray, int] | None] = []

    # -- setup (usually superstep 1) ----------------------------------------
    def _build(self) -> None:
        """Pre-sort edges by destination (the one-time cost of Fig. 5)."""
        self._num_edges, blocks = self._edge_blocks()
        self._group(self._num_edges, blocks, self._expandable())

    def _expandable(self) -> bool:
        """Whether a peer may combine this worker's edges to it: the
        combiner is no selection, and the edge set is rows the peer can
        read (:meth:`~ScatterEdges._whole_rows`)."""
        return (
            self.num_workers > 1
            and not self.combiner.is_selection
            and self._whole_rows()
        )

    def _group(self, num_edges: int, blocks, expandable: bool = False) -> None:
        """The scan's segments over the ``num_edges`` edges ``blocks``
        yields (see :meth:`~ScatterEdges._edge_blocks`), and the ids each
        peer is to learn.  When ``expandable``, a peer other than this
        worker that fewer senders than destinations reach gets the
        senders' values instead (``_expanded``), and its edges leave the
        scan."""
        uniq_dst, starts, edge_src = group_by_key(
            ((dst, src) for src, dst in blocks),
            num_edges,
            self.worker.graph.num_vertices,
            self.worker.num_local,
        )
        owners = self.worker.owner[uniq_dst]
        select = self._select(owners)
        self._expanded = [None] * self.num_workers
        if expandable:
            bounds = np.append(starts, num_edges)
            self._place(owners, select, bounds, edge_src)
            keep = np.array([e is None for e in self._expanded])[owners]
            if not keep.all():  # the segments of the peers that combine them
                lengths = np.diff(bounds)
                edge_src = edge_src[np.repeat(keep, lengths)]
                starts = np.zeros(np.count_nonzero(keep), dtype=starts.dtype)
                np.cumsum(lengths[keep][:-1], out=starts[1:])
                uniq_dst, owners = uniq_dst[keep], owners[keep]
                select = self._select(owners)
        self._scan = _Scan(self.combiner, edge_src, starts, self.worker.num_local)
        self._peer_select = select
        if not self._announced:
            self._words = [
                as_int32(self, "destination id", uniq_dst[sel])
                if expanded is None
                else as_int32(self, "sender id", self.worker.local_ids[expanded[0]])
                for sel, expanded in zip(select, self._expanded)
            ]
        self._built = True

    def _place(
        self, owners: np.ndarray, select: list, bounds: np.ndarray, edge_src: np.ndarray
    ) -> None:
        """Hand every peer other than this worker that fewer senders than
        destinations reach its senders' values (``_expanded``)."""
        for peer, sel in enumerate(select):
            destinations = owners[sel].size
            if peer != self.worker.worker_id and destinations:
                senders = self._reaching(sel, bounds, edge_src)
                if senders.size < destinations:
                    self._expanded[peer] = (senders, destinations)

    def _select(self, owners: np.ndarray) -> list[slice | np.ndarray]:
        """Per peer, the positions of its destinations among the sorted
        unique ones, whose owners are ``owners``."""
        if (owners[1:] >= owners[:-1]).all():
            # uniq_dst ascends, so under a contiguous partition each peer's
            # destinations are one run of it: a view, no gather per scatter
            bounds = np.searchsorted(owners, range(self.num_workers + 1)).tolist()
            return [slice(bounds[p], bounds[p + 1]) for p in range(self.num_workers)]
        return [np.flatnonzero(owners == p) for p in range(self.num_workers)]

    def _reaching(
        self, sel: slice | np.ndarray, bounds: np.ndarray, edge_src: np.ndarray
    ) -> np.ndarray:
        """The local senders, ascending, of the edges of the segments
        ``sel`` selects (``bounds``: the segments' edges)."""
        reached = np.zeros(self.worker.num_local, dtype=bool)
        if isinstance(sel, slice):
            reached[edge_src[bounds[sel.start] : bounds[sel.stop]]] = True
            return np.flatnonzero(reached)
        lengths = bounds[sel + 1] - bounds[sel]
        # a block of segments at a time: no index array of all their edges
        for seg_lo, seg_hi, _, _ in cut_blocks(np.append(0, np.cumsum(lengths)), _BLOCK_EDGES):
            segs = sel[seg_lo:seg_hi]
            reached[edge_src[expand_ranges(bounds[segs], lengths[seg_lo:seg_hi])]] = True
        return np.flatnonzero(reached)

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
        assert self._scan is not None
        self._dirty = False
        if not self._num_edges:
            return
        # Fig. 5: one linear pass over the pre-sorted edges produces
        # the combined message value for every unique destination
        combined = self._scan(self._values)
        per_peer = (combined[sel] for sel in self._peer_select)
        self._scatter(map(self._payload, range(self.num_workers), per_peer))

    def _payload(self, peer: int, combined: np.ndarray) -> tuple[int, np.ndarray, int]:
        """``(peer, values, messages)`` of one scatter: the combined value
        of each of ``peer``'s destinations — or, where ``peer`` combines
        them, its senders' own values — and one message per unique
        destination, whether or not its id is sent."""
        expanded = self._expanded[peer]
        if expanded is None:
            return peer, combined, combined.size
        senders, destinations = expanded
        return peer, self._values[senders], destinations

    def _announcement(self, peer: int) -> dict:
        expanded = self._expanded[peer]
        if expanded is None:
            return super()._announcement(peer)
        return {"ids": self._words[peer], "destinations": expanded[1]}

    # -- the receive half of a peer's senders ---------------------------------
    def _learn_senders(self, src: int, ids: np.ndarray, destinations: int) -> Pattern:
        """The pattern of worker ``src``'s senders ``ids``: their rows,
        read from this worker's graph (nothing of them crossed the wire),
        cut to the destinations here, grouped by destination as ``src``
        would have grouped them — ascending sender, then row order — and
        combined by the scan ``src`` would have run.  Ids that are not
        ``src``'s strictly ascending vertices, or rows that reach other
        than ``destinations`` vertices here, are a ``RuntimeError`` naming
        the channel and ``src``."""
        worker = self.worker
        ids = np.asarray(ids, dtype=np.int64)
        self._check_senders(src, ids)
        adj = build_local_csr(worker.graph, ids, self._adjacency or "out")
        mine = worker.owner == worker.worker_id
        here, edges = [], 0
        for senders, dsts in self._adjacency_blocks(adj):
            at = np.flatnonzero(mine[dsts])
            here.append((as_int32(self, "destination id", dsts.take(at)), senders.take(at)))
            edges += at.size
        here.reverse()  # popped as packed: a block is freed once grouped
        uniq, starts, edge_src = group_by_key(
            (here.pop() for _ in range(len(here))), edges, worker.graph.num_vertices, ids.size
        )
        if uniq.size != destinations:
            raise RuntimeError(
                f"{self!r}: worker {src} announced {destinations} destinations; "
                f"the rows of its {ids.size} senders reach {uniq.size} here"
            )
        return worker._local_index[uniq], _Scan(self.combiner, edge_src, starts, ids.size)

    def _check_senders(self, src: int, ids: np.ndarray) -> None:
        bound = self.worker.graph.num_vertices
        if (ids[1:] <= ids[:-1]).any():
            raise RuntimeError(
                f"{self!r}: worker {src} announced senders that do not strictly ascend"
            )
        if ids.size and (ids[0] < 0 or ids[-1] >= bound):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise RuntimeError(
                f"{self!r}: worker {src} announced sender {bad} outside [0, {bound})"
            )
        foreign = self.worker.owner[ids] != src
        if foreign.any():
            raise RuntimeError(
                f"{self!r}: worker {src} announced sender {ids[foreign][0]}, "
                "which it does not own"
            )
