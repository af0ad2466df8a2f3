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

Which end folds a destination is decided per destination, once, at
build.  Take the senders and destinations of one (worker, peer) pair as
a bipartite graph, one edge per (sender, destination) pair.  A
destination is folded at the sender, which sends its one combined value,
or — once the own values of *all* its senders cross — at the peer, which
reads the senders' rows from its own graph and runs the same scan over
them.  Every edge must be covered by one end, so any vertex cover of that
graph is a correct split: the paper's covers with every destination,
Pregel+'s mirroring with every sender, and a mix of the two sends fewer
values than either (PowerLyra's differentiated low/high in-degree
processing, chosen per peer by the data as Gemini chooses sparse or
dense).  :meth:`ScatterCombine._cover` runs the split; a rule,
:meth:`ScatterCombine._crossing`, names the senders that cross
(``MirroredScatter``'s is Pregel+'s mirroring: the senders with many
edges into the peer).  This channel's rule: order the peer's
destinations by ascending in-degree from this worker, ties by position;
price every prefix of that order at the destinations after it, combined
here, plus the senders that reach it; and let the shortest prefix of the
lowest price name the senders whose values cross.  The peer folds every
destination whose senders all cross — the prefix's, and any other — and
the rest stay in this worker's scan.  Per peer that is never more values
than the fewer of destinations and senders; where no prefix is cheaper
than none, it is the paper's form.

That needs rows the receiver can read — the edge set is whole rows of a
named adjacency, in ascending sender order — and a combiner that is not a
selection: a minimum over many senders changes less often than their own
values, so the delta form sends it for fewer bytes (S-V's labels crossed
in 16.9 % more bytes as senders' values).  Each destination is still
folded once, over the same senders, in ascending sender order, so the
fold is bit for bit the one the sender would have run; only the bytes
move.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.adjacency import build_local_csr
from repro.core.channel import Channel
from repro.core.channels._edges import ScatterEdges
from repro.core.channels._pattern import Pattern, StaticPattern
from repro.core.channels._records import check_ascending, local_ids
from repro.core.combiner import Combiner
from repro.core.lanes import lane_scratch, run_lanes
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.graph.graph import VERTEX_ID
from repro.util import cut_blocks, expand_ranges, group_by_key, index_dtype

__all__ = ["ScatterCombine"]

#: edges one step of the per-superstep scan gathers: the lane scratch they
#: land in is reused, so the scan allocates no per-edge temporary (0.5 MB
#: of float64 and as much of widened indices; a scan in 1 Mi-edge steps
#: measured no faster)
_BLOCK_EDGES = 1 << 16

#: the longest segment the scan folds by its length class, not by
#: ``reduceat``.  NumPy reduces a segment as its first value combined with
#: the rest, and sums a rest of fewer than 8 values one by one, left to
#: right; so up to here ``a ⊕ ((b ⊕ c) ⊕ …)`` is ``reduceat``'s bits for
#: every ufunc, and past it a float sum is pairwise.  Not a knob: the
#: number is NumPy's.
_SHORT_SEGMENT = 8


class _Scan:
    """Fig. 5's linear pass over edges grouped by destination, one
    combined value per segment.  The sender scans the edges it combines
    with one; a receiver that folds destinations along a peer's senders'
    rows scans them with another, and folds the same values.

    A call takes ``size`` values: the first ``head`` pass through as they
    are (a receiver's values the sender combined), and ``edge_src`` — the
    senders' indices, as wide as their bound ``size - head`` needs
    (:func:`~repro.util.index_dtype`: ``uint16`` up to 2¹⁶ senders,
    ``uint32`` past it) — indexes the rest; ``starts`` are the segments'
    first edges.  An ``edge_src`` of that width is the scan's from then on:
    it is rearranged where it lies.  Where ``keep`` is given, the scan is
    over the segments it keeps only, and the one pass that lays them out
    also drops the others' edges; ``edge_src`` then shrinks to the kept
    edges where it lies, so it must own its data.

    A segment of at most :data:`_SHORT_SEGMENT` edges folds with the
    others of its length ``L`` (CSR-Adaptive's binning of rows by length):
    its edges are a column of an ``(L, n)`` block, and the class folds as
    ``L`` gathers of a row each and ``L - 1`` calls of the ufunc, with no
    per-segment call — ``reduceat`` pays some 30 ns a segment, and most
    segments are short.  The longer segments fold as blocks of whole
    segments, each a ``take`` of the block's sender values into a reused
    scratch and a ``reduceat``.  ``edge_src`` holds the long segments'
    edges first, in segment order, then the classes' blocks, cut into
    chunks of at most about :data:`_BLOCK_EDGES` edges; ``positions`` is
    where each folded value goes (``None`` where the long segments are all
    there is, in order).  A combiner that folds in Python (no ufunc, or a
    ``reduceat`` of its own) folds every segment by ``reduceat``.

    The blocks and chunks are dealt once into up to ``lanes`` runs about
    equal in edges that fold at once (:func:`run_lanes`), each from its
    lane's scratch: the segments and each one's fold are those of one
    lane, so every bit is too.  A scan takes no more lanes than half its
    blocks and chunks, and a Python fold keeps one lane, where more would
    only trade the GIL."""

    def __init__(
        self,
        combiner: Combiner,
        edge_src: np.ndarray,
        starts: np.ndarray,
        size: int,
        head: int = 0,
        lanes: int = 1,
        keep: np.ndarray | None = None,
    ):
        self.combiner = combiner
        edge_src = edge_src.astype(index_dtype(size - head), copy=False)
        bounds = np.append(starts, edge_src.size)
        lengths = np.diff(bounds)
        native = combiner.ufunc is not None and type(combiner).reduceat is Combiner.reduceat
        short = lengths <= _SHORT_SEGMENT if native else np.zeros(lengths.size, dtype=bool)
        kept = lengths.size if keep is None else int(np.count_nonzero(keep))
        self.size, self.head, self.segments = size, head, kept
        self.starts, self.positions, items, end = _layout(edge_src, bounds, lengths, short, keep)
        if end < edge_src.size:  # nothing else references it: shrink it where it lies
            edge_src.resize(end, refcheck=False)
        self.edge_src = edge_src
        self.runs = [  # (items, the most edges and the most segments of one)
            (
                run,
                max((hi - lo for *_, lo, hi in run), default=0),
                max((seg_hi - seg_lo for _, seg_lo, seg_hi, _, _ in run), default=0),
            )
            for run in _cut_runs(items, lanes if native else 1)
        ]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        head = self.head
        combined = np.empty(head + self.segments, dtype=values.dtype)
        combined[:head] = values[:head]
        senders, folded = values[head:], combined[head:]
        run_lanes([partial(self._fold, senders, folded, *run) for run in self.runs])
        return combined

    def _fold(
        self, senders: np.ndarray, folded: np.ndarray, items: list, edges: int, segments: int
    ) -> None:
        """Fold ``items`` into ``folded`` in the calling lane's scratch: an
        item's indices widened to ``intp`` (NumPy would widen a narrower
        index into a fresh temporary on every call), its gathered values,
        a block's starts within it and, where ``positions`` spreads them,
        its folded values — no per-item temporary."""
        dtype = self.combiner.codec.dtype
        width = -(-edges * dtype.itemsize // 8) * 8  # (keeps the starts aligned)
        scratch = lane_scratch(8 * edges + width + (8 + dtype.itemsize) * segments)
        index = scratch[: 8 * edges].view(np.intp)
        gathered = scratch[8 * edges :][: edges * dtype.itemsize].view(dtype)
        relative = scratch[8 * edges + width :][: 8 * segments].view(np.int64)
        result = scratch[8 * edges + width + 8 * segments :][: segments * dtype.itemsize].view(dtype)

        def take(indices: np.ndarray, out: np.ndarray) -> np.ndarray:
            wide = index[: indices.size]
            np.copyto(wide, indices)
            # mode="clip" only skips the bounds check the build did (with an
            # ``out``, "raise" gathers into a copy first)
            return np.take(senders, wide, out=out, mode="clip")

        positions = self.positions
        for rows, seg_lo, seg_hi, lo, hi in items:
            n = seg_hi - seg_lo
            if rows:
                out = self._fold_class(take, self.edge_src[lo:hi], rows, gathered[:n], result[:n])
            else:
                per_edge = take(self.edge_src[lo:hi], gathered[: hi - lo])
                starts = np.subtract(self.starts[seg_lo:seg_hi], lo, out=relative[:n])
                if positions is None:
                    self.combiner.reduceat(per_edge, starts, out=folded[seg_lo:seg_hi])
                    continue
                out = self.combiner.reduceat(per_edge, starts, out=result[:n])
            wide = index[:n]
            np.copyto(wide, positions[seg_lo:seg_hi])
            folded[wide] = out

    def _fold_class(
        self, take, block: np.ndarray, rows: int, acc: np.ndarray, tmp: np.ndarray
    ) -> np.ndarray:
        """A chunk of ``rows``-edge segments, ``block`` its edges row by row
        and ``take`` its gather: ``a ⊕ ((b ⊕ c) ⊕ …)`` over its columns,
        into ``acc``."""
        ufunc, n = self.combiner.ufunc, acc.size
        row = [block[j * n : (j + 1) * n] for j in range(rows)]
        if rows == 1:
            return take(row[0], acc)
        take(row[1], acc)
        for j in range(2, rows):
            ufunc(acc, take(row[j], tmp), out=acc)
        return ufunc(take(row[0], tmp), acc, out=acc)


def _layout(
    edge_src: np.ndarray,
    bounds: np.ndarray,
    lengths: np.ndarray,
    short: np.ndarray,
    keep: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None, list[tuple[int, int, int, int, int]], int]:
    """:class:`_Scan`'s layout of the segments ``bounds`` cuts that
    ``keep`` keeps (``None``: all), whose ``short`` ones fold by class, in
    one pass over ``edge_src``: rearranged where it lies into the kept long
    segments' edges, then the classes' chunks (the kept short segments'
    edges are held twice only while they move), and ``(the long segments'
    starts, positions, fold items, the edges kept)``.  An item is ``(rows, first,
    end, lo, hi)``: ``rows`` is a chunk's ``L``, 0 for a block of long
    segments, ``first:end`` a range of ``positions`` (of the kept
    segments; ``None`` where the long segments are all there is, in
    order) and ``lo:hi`` of ``edge_src``."""
    long = ~short
    if keep is not None:  # the kept segments of each kind
        long &= keep
        short = short & keep
    if not short.any():
        if long.all():  # nothing to move
            starts, end = bounds[:-1], edge_src.size
        else:
            end = _keep_segments(edge_src, bounds, lengths, long)
            starts = _starts(lengths[long])
        blocks = cut_blocks(np.append(starts, end), _BLOCK_EDGES)
        return starts, None, [(0, *block) for block in blocks], end
    # the kept segments by class, each class in segment order: the long
    # ones (class 0) first (a stable sort of byte keys is a radix sort),
    # and where each one's edges start
    classes = np.where(short, lengths, 0).astype(np.uint8)
    firsts = bounds
    if keep is not None:
        classes, firsts = classes[keep], bounds[:-1][keep]
    positions = np.argsort(classes, kind="stable").astype(index_dtype(classes.size))
    ends = np.cumsum(np.bincount(classes, minlength=_SHORT_SEGMENT + 1)).tolist()
    chunks = []
    binned = np.empty(int(lengths[short].sum()), dtype=edge_src.dtype)
    at = 0
    for rows in range(1, _SHORT_SEGMENT + 1):
        step = max(1, _BLOCK_EDGES // rows)
        for first in range(ends[rows - 1], ends[rows], step):
            last = min(first + step, ends[rows])
            block = binned[at : at + rows * (last - first)].reshape(rows, last - first)
            block[...] = edge_src[firsts[positions[first:last]] + np.arange(rows)[:, None]]
            chunks.append((rows, first, last, at, at + block.size))
            at += block.size
    end = _keep_segments(edge_src, bounds, lengths, long)
    edge_src[end : end + binned.size] = binned
    starts = _starts(lengths[long])
    blocks = cut_blocks(np.append(starts, end), _BLOCK_EDGES)
    return starts, positions, [(0, *block) for block in blocks] + [
        (rows, first, last, end + lo, end + hi) for rows, first, last, lo, hi in chunks
    ], end + binned.size


def _starts(lengths: np.ndarray) -> np.ndarray:
    """The first edge of each of consecutive segments ``lengths`` long."""
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _cut_runs(items: list, lanes: int) -> list[list]:
    """``items`` dealt into runs about equal in edges, at most ``lanes``
    of them and at most half as many as items: each item in turn goes to
    the run with the fewest edges so far.  Consecutive items land in
    different runs, so each run gets a share of the long segments' blocks
    and of the classes' chunks, which cost unlike amounts an edge."""
    lanes = min(lanes, len(items) // 2)
    if lanes <= 1:
        return [items]
    runs, loads = [[] for _ in range(lanes)], [0] * lanes
    for item in items:
        lane = loads.index(min(loads))
        runs[lane].append(item)
        loads[lane] += item[4] - item[3]
    return runs


def _keep_segments(
    edge_src: np.ndarray, bounds: np.ndarray, lengths: np.ndarray, keep: np.ndarray
) -> int:
    """Move the edges of the segments ``keep`` keeps down inside
    ``edge_src``, a block of segments at a time, and return how many there
    are: no mask over all the edges and no second edge array."""
    end = 0
    for seg_lo, seg_hi, lo, hi in cut_blocks(bounds, _BLOCK_EDGES):
        kept = keep[seg_lo:seg_hi]
        if kept.all():
            if end != lo:  # a forward copy within one array: NumPy moves it as memmove
                edge_src[end : end + hi - lo] = edge_src[lo:hi]
            end += hi - lo
        elif kept.any():
            moved = edge_src[lo:hi][np.repeat(kept, lengths[seg_lo:seg_hi])]
            edge_src[end : end + moved.size] = moved
            end += moved.size
    return end


class ScatterCombine(ScatterEdges, StaticPattern, Channel):
    """Scatter one value per vertex along static edges, combine per receiver.

    Static structure: :class:`ScatterEdges` (``add_edge[s]`` or
    ``add_adjacency``);
    receive half and wire: :class:`StaticPattern` (``get_message[s]``,
    ``has_message``; ids in the first scatter, values after); the
    segmented reduction that produces the values, and the choice of the
    end that folds each destination, is this class.

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
        # per peer: the positions in the scan's output of the destinations
        # combined here — one slice when they are one run of it, an index
        # array otherwise
        self._peer_select: list[slice | np.ndarray] = []
        # per peer that folds destinations along this worker's senders'
        # rows: those senders, whose values it gets after the combined
        # ones, and its destinations in all; None where all are combined here
        self._expanded: list[tuple[np.ndarray, int] | None] = []

    # -- setup (usually superstep 1) ----------------------------------------
    def _build(self) -> None:
        """Pre-sort edges by destination (the one-time cost of Fig. 5):
        the scan's segments over the registered edges (see
        :meth:`~ScatterEdges._edge_blocks`), less those :meth:`_cover`
        hands a peer where :meth:`_expandable`, and what each peer is to
        learn."""
        self._num_edges, blocks = self._edge_blocks()
        expandable = self._expandable()
        uniq_dst, starts, edge_src = group_by_key(
            ((dst, src) for src, dst in blocks),
            self._num_edges,
            self.worker.graph.num_vertices,
            self.worker.num_local,
        )
        owners = self.worker.owner.take(uniq_dst)
        select = self._select(owners)
        self._expanded = [None] * self.num_workers
        keep = None
        if expandable:
            bounds = np.append(starts, self._num_edges)
            keep = self._cover(select, bounds, np.diff(bounds), edge_src)
            if keep.all():
                keep = None
            else:  # the segments the peers fold
                uniq_dst, owners = uniq_dst[keep], owners[keep]
                select = self._select(owners)
        lanes = self.worker.engine.scan_lanes
        # (one pass lays out the kept segments and drops the others' edges)
        self._scan = _Scan(
            self.combiner, edge_src, starts, self.worker.num_local, lanes=lanes, keep=keep
        )
        self._peer_select = select
        if not self._announced:
            self._words = [
                self._peer_announcement(uniq_dst[sel], expanded)
                for sel, expanded in zip(select, self._expanded)
            ]
        self._built = True

    def _expandable(self) -> bool:
        """Whether a peer may fold destinations along this worker's
        senders' rows: the combiner is no selection, and the edge set is
        rows the peer can read (:meth:`~ScatterEdges._whole_rows`)."""
        return (
            self.num_workers > 1
            and not self.combiner.is_selection
            and self._whole_rows()
        )

    def _peer_announcement(self, ids: np.ndarray, expanded: tuple[np.ndarray, int] | None) -> dict:
        """``encode_pattern``'s announcement arguments for a peer: the ids
        of its destinations combined here, or — where it folds others along
        senders' rows — those senders' ids, how many destinations it folds
        and the combined ids."""
        if expanded is None:
            return {"ids": ids}
        senders, destinations = expanded
        ids, combined = self.worker.local_ids.take(senders), ids
        return {"ids": ids, "destinations": destinations - combined.size, "combined": combined}

    def _cover(
        self, select: list, bounds: np.ndarray, lengths: np.ndarray, edge_src: np.ndarray
    ) -> np.ndarray:
        """Per segment, whether it stays in this worker's scan.  For each
        peer other than this worker, :meth:`_crossing` names the senders
        whose values cross; the peer folds every destination all of whose
        senders cross, and gets those senders in ``_expanded``."""
        keep = np.ones(lengths.size, dtype=bool)
        for peer, sel in enumerate(select):
            seg_lengths = lengths[sel]
            n = seg_lengths.size
            if peer == self.worker.worker_id or not n:
                continue
            crosses = self._crossing(sel, bounds, seg_lengths, edge_src)
            if crosses is None:
                continue
            folded = np.empty(n, dtype=bool)
            runs = self._runs(sel, bounds, seg_lengths, edge_src)
            for seg_lo, seg_hi, senders, _, starts in runs:
                np.logical_and.reduceat(crosses[senders], starts, out=folded[seg_lo:seg_hi])
            if isinstance(sel, slice):
                keep[sel][folded] = False
            else:
                keep[sel[folded]] = False
            self._expanded[peer] = (np.flatnonzero(crosses), n)
        return keep

    def _crossing(
        self, sel, bounds: np.ndarray, seg_lengths: np.ndarray, edge_src: np.ndarray
    ) -> np.ndarray | None:
        """The senders whose own values cross to the peer whose
        destinations ``sel`` selects, as a mask over this worker's
        vertices, or ``None`` where the peer gets combined values alone:
        the shortest prefix of its destinations — by ascending in-degree
        (``seg_lengths``), then position — that sends the fewest values
        names them."""
        n = seg_lengths.size
        # (in the narrowest unsigned type: NumPy sorts 16-bit keys by radix)
        key = seg_lengths.astype(np.min_scalar_type(seg_lengths.max()))
        rank = np.empty(n, dtype=np.int32)
        rank[np.argsort(key, kind="stable")] = np.arange(n, dtype=np.int32)
        # per sender, the rank of the first of the peer's destinations it reaches
        first = np.full(self.worker.num_local, n, dtype=np.int32)
        for seg_lo, seg_hi, senders, blocked, _ in self._runs(sel, bounds, seg_lengths, edge_src):
            np.minimum.at(first, senders, np.repeat(rank[seg_lo:seg_hi], blocked))
        # a prefix of k destinations sends the n - k after it and the
        # senders reaching it: n + gain[k - 1], where gain[j] counts the
        # senders whose first destination ranks at most j, less j + 1
        gain = np.bincount(first, minlength=n + 1)[:n]
        np.cumsum(gain, out=gain)
        gain -= np.arange(1, n + 1, dtype=np.int32)
        j = int(np.argmin(gain))
        if gain[j] >= 0:  # no prefix sends fewer than the n destinations
            return None
        return first <= j

    @staticmethod
    def _runs(sel, bounds: np.ndarray, seg_lengths: np.ndarray, edge_src: np.ndarray):
        """The edges of the segments ``sel`` selects (``seg_lengths``
        long), a block of whole segments at a time: ``(first, end,
        senders, lengths, starts)``, with ``first:end`` a range of the
        selected segments, and their lengths and starts within
        ``senders`` — a view of ``edge_src`` where ``sel`` is one run of
        segments, and never an index array of all their edges where it is
        not."""
        if isinstance(sel, slice):
            run = bounds[sel.start : sel.stop + 1]
            for seg_lo, seg_hi, lo, hi in cut_blocks(run, _BLOCK_EDGES):
                blocked = seg_lengths[seg_lo:seg_hi]
                yield seg_lo, seg_hi, edge_src[lo:hi], blocked, run[seg_lo:seg_hi] - lo
            return
        offsets = np.append(0, np.cumsum(seg_lengths))
        # a gathered block costs some 28 B an edge (expand_ranges' two
        # int64 columns and the gather): a quarter of a scan block
        for seg_lo, seg_hi, lo, hi in cut_blocks(offsets, _BLOCK_EDGES >> 2):
            blocked = seg_lengths[seg_lo:seg_hi]
            edges = expand_ranges(bounds[sel[seg_lo:seg_hi]], blocked)
            yield seg_lo, seg_hi, edge_src[edges], blocked, offsets[seg_lo:seg_hi] - lo

    def _select(self, owners: np.ndarray) -> list[slice | np.ndarray]:
        """Per peer, the positions of its destinations among the sorted
        unique ones, whose owners are ``owners``."""
        if (owners[1:] >= owners[:-1]).all():
            # uniq_dst ascends, so under a contiguous partition each peer's
            # destinations are one run of it: a view, no gather per scatter
            bounds = np.searchsorted(owners, range(self.num_workers + 1)).tolist()
            return [slice(bounds[p], bounds[p + 1]) for p in range(self.num_workers)]
        return [np.flatnonzero(owners == p) for p in range(self.num_workers)]

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
        of each of ``peer``'s destinations combined here — followed, where
        ``peer`` folds others, by its senders' own values — and one message
        per unique destination, whether or not its id is sent."""
        expanded = self._expanded[peer]
        if expanded is None:
            return peer, combined, combined.size
        senders, destinations = expanded
        return peer, np.concatenate((combined, self._values[senders])), destinations

    # -- the receive half of a peer's senders ---------------------------------
    def _learn_senders(
        self, src: int, ids: np.ndarray, destinations: int, combined: np.ndarray | None = None
    ) -> Pattern:
        """The pattern of worker ``src``'s ``combined`` ids and senders
        ``ids``: the combined values fold into their ids, and the senders'
        values along their rows, read from this worker's graph (nothing of
        them crossed the wire), cut to the vertices here that are not
        combined ids, grouped by destination as ``src`` would have grouped
        them — ascending sender, then row order — and combined by the scan
        ``src`` would have run.  Ids that are not strictly ascending, senders
        ``src`` does not own, combined ids this worker does not own, or rows
        that reach other than ``destinations`` vertices here, are a
        ``RuntimeError`` naming the channel and ``src``."""
        worker = self.worker
        ids = np.asarray(ids, dtype=VERTEX_ID)
        combined = np.asarray(() if combined is None else combined, dtype=VERTEX_ID)
        self._check_senders(src, ids)
        check_ascending(self, src, "combined ids", combined)
        head = local_ids(self, src, combined)
        adj = build_local_csr(worker.graph, ids, self._adjacency or "out")
        mine = worker.owner == worker.worker_id
        mine[combined] = False  # (src folded those)

        def here():  # a block's arcs into this worker, packed as they come
            for senders, dsts in self._adjacency_blocks(adj):
                at = np.flatnonzero(mine.take(dsts))
                yield dsts.take(at), senders.take(at)

        uniq, starts, edge_src = group_by_key(
            here(), adj.num_edges, worker.graph.num_vertices, ids.size, exact=False
        )
        if uniq.size != destinations:
            raise RuntimeError(
                f"{self!r}: worker {src} announced {destinations} destinations; "
                f"the rows of its {ids.size} senders reach {uniq.size} here"
            )
        local = np.concatenate((head, worker.local_index(uniq)))
        scan = _Scan(
            self.combiner,
            edge_src,
            starts,
            head.size + ids.size,
            head.size,
            lanes=worker.engine.scan_lanes,
        )
        return local, scan

    def _check_senders(self, src: int, ids: np.ndarray) -> None:
        bound = self.worker.graph.num_vertices
        check_ascending(self, src, "senders", ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= bound):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise RuntimeError(
                f"{self!r}: worker {src} announced sender {bad} outside [0, {bound})"
            )
        foreign = self.worker.owner.take(ids) != src
        if foreign.any():
            raise RuntimeError(
                f"{self!r}: worker {src} announced sender {ids[foreign][0]}, "
                "which it does not own"
            )
