"""The static edge set: structure a program registers once.

``ScatterCombine``, ``MirroredScatter`` and ``Propagation`` dispatch along
edges the program registers up front.  :class:`StaticEdges` is that edge
set, and its rules (ARCHITECTURE.md §2) hold for every channel that has
one: edges stay in **call order** whatever mix of scalar, per-vertex and
bulk calls delivered them; ids are **checked at build, by name** (a
negative id would otherwise wrap through ``owner[...]`` to a wrong
answer); registered chunks are **never written, so never copied** — one
bulk chunk of the columns' dtypes, possibly a read-only view, *is* the
edge set (narrower ids, such as a store's ``int32``, are widened once).
The columns' keys are the snapshot keys, so the checkpoint format of an
edge set is decided here too.

:class:`ScatterEdges` has a second registration *form* beside the
per-edge one: :meth:`~ScatterEdges.add_adjacency` names the worker's own
``local_adjacency(direction)`` as the edge set.  Nothing of the graph is
kept then — ``_build`` streams the rows through in blocks
(:meth:`~ScatterEdges._edge_blocks`: senders numbered per block, rows
sliced or gathered a block at a time, a mapped store's pages handed back
block by block), a snapshot holds the
direction, and a restored channel reads its edges from the adjacency of
the worker it finds itself on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.channels._records import RecordBuffer, check_ids
from repro.core.vertex import Vertex

__all__ = ["ScatterEdges", "StaticEdges"]

#: edges in one block of an adjacency's rows: all a build holds of the graph
#: at a time (1 MiB of int32 destinations, 1 MiB of sender numbers).
#: Scattered rows (a hash partition, a peer's senders) are cut at the store
#: span a block reads, ``adjacency._SPAN`` = 2**17 entries, so their blocks
#: keep fewer: 512 KiB of destinations at most, with a 128 KiB row mask
#: over the span (LocalCSR.blocks)
_BLOCK_EDGES = 1 << 18


class StaticEdges:
    """Mixin for a :class:`~repro.core.channel.Channel` with a static edge
    set.  Registration clears ``_built``; the channel sets it once it has
    derived its dispatch structure from :meth:`_checked_edges`."""

    #: snapshot key -> dtype: local sender index, global destination id, ...
    _EDGE_COLUMNS = {"edge_src": np.int64, "edge_dst": np.int64}

    def _init_edges(self) -> None:
        self._edges = RecordBuffer(*self._EDGE_COLUMNS.values())
        self._built = False

    # Registration is the channel's own add_edge / add_edges API writing
    # straight into ``_edges`` (no call layer on a per-vertex path) and
    # clearing ``_built``.
    def _checked_edges(self) -> tuple[np.ndarray, ...]:
        """Every registered edge, one flat array per column, ids verified."""
        columns = self._edges.flat()
        check_ids(self, "edge destination", columns[1], self.worker.graph.num_vertices)
        check_ids(self, "edge local sender index", columns[0], self.worker.num_local)
        return columns

    # -- checkpointing (the edge set's keys of the channel's snapshot) ---------
    def _edges_snapshot(self) -> dict:
        return dict(zip(self._EDGE_COLUMNS, self._edges.flat()))

    def _edges_restore(self, state: dict) -> None:
        # the channel's _build() re-derives its structure from the same columns
        self._init_edges()
        self._edges.add_chunk(*(state[key].copy() for key in self._EDGE_COLUMNS))


class ScatterEdges(StaticEdges):
    """The registration API of the channels that scatter one value per
    vertex along unweighted static edges: per edge (``add_edge[s][_bulk]``,
    kept as columns) or by naming the local adjacency
    (:meth:`add_adjacency`, kept as a direction).  One channel takes one
    form.  Either clears ``_announced`` with ``_built``: the peers have not
    seen the pattern of the edge set as it now is
    (:class:`~repro.core.channels._pattern.StaticPattern`)."""

    #: snapshot key of the adjacency form: the direction, in place of columns
    _ADJACENCY_KEY = "edge_adjacency"

    #: the direction :meth:`add_adjacency` named; ``None``: per-edge form
    _adjacency: str | None = None

    def add_adjacency(self, direction: str = "out") -> None:
        """Register **all rows** of ``worker.local_adjacency(direction)``,
        whoever is active: local vertex ``i`` scatters to every entry of
        row ``i``, in CSR order.

        The tables built from it equal those of ``add_edges_bulk(repeat(
        arange(num_local), adj.degrees), adj.gather(arange(num_local)))``,
        but the channel keeps the direction, not the edges:
        the adjacency's rows are streamed through when the dispatch
        structure is built (:meth:`~repro.core.adjacency.LocalCSR.blocks`),
        a snapshot holds one short string, and
        after a restore the edge set is the adjacency of the worker the
        channel then belongs to.  Declare it where the channel is
        constructed, so that a worker with nothing to do in superstep 1
        snapshots like its peers.

        A per-vertex listing that calls ``add_edges(v, v.edges)`` in its
        first superstep registers only the vertices active then; the two
        agree exactly when every vertex is."""
        if self._adjacency not in (None, direction):
            raise ValueError(
                f"{self!r}: add_adjacency({direction!r}) after "
                f"add_adjacency({self._adjacency!r})"
            )
        self._adjacency = direction
        self._built = self._announced = False
        self._by_adjacency()  # raises when edges were registered one by one before

    def _by_adjacency(self) -> bool:
        """Whether the edge set is a named adjacency (else per-edge
        columns); registrations of both forms are an error."""
        if self._adjacency is None:
            return False
        if self._edges.chunks or self._edges.rows[0]:
            raise ValueError(
                f"{self!r}: add_adjacency() and per-edge registration "
                "(add_edge / add_edges / add_edges_bulk) on one channel"
            )
        return True

    def _edge_blocks(self) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
        """The edge set as ``(number of edges, blocks)``: consecutive
        ``(local sender index, destination)`` column pairs in registration
        order, ids verified by name as each block is produced.  A block is
        the consumer's until it asks for the next one: it copies what it
        keeps (:func:`~repro.util.group_by_key` packs it), and the
        adjacency form then hands the block's pages back to the store.
        The per-edge form is its one flat chunk."""
        if not self._by_adjacency():
            columns = super()._checked_edges()
            return columns[0].size, iter((columns,))
        adj = self.worker.local_adjacency(self._adjacency)
        return adj.num_edges, self._adjacency_blocks(adj)

    def _adjacency_blocks(self, adj) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # whole rows, numbered per block: neither the sender column nor a
        # gathered destination column ever exists at full length, and what
        # is resident of a mapped store is one block (LocalCSR.blocks)
        num_vertices = self.worker.graph.num_vertices
        for row, row_end, dsts in adj.blocks(_BLOCK_EDGES):
            check_ids(self, "edge destination", dsts, num_vertices)
            degrees = np.diff(adj.indptr[row : row_end + 1])
            yield np.repeat(np.arange(row, row_end, dtype=np.uint32), degrees), dsts

    def _whole_rows(self) -> bool:
        """Whether the edge set is whole rows of a named adjacency in
        ascending sender order — rows a peer can read from its own graph
        (``ScatterCombine``'s receiver-side placement).  The adjacency
        form is; per-edge columns are when each sender's edges are its row
        of ``local_adjacency("out")``, senders ascending: what a listing
        registers with ``add_edges(v, v.edges)``, for any set of ``v``."""
        if self._by_adjacency():
            return True
        src, dst = self._edges.flat()  # (checked by _edge_blocks)
        if (src[1:] < src[:-1]).any():
            return False
        adj = self.worker.local_adjacency("out")
        counts = np.bincount(src, minlength=self.worker.num_local)
        registered = counts > 0
        if (counts[registered] != np.diff(adj.indptr)[registered]).any():
            return False
        done = 0
        for senders, dsts in self._adjacency_blocks(adj):
            rows = registered[senders]
            if not rows.all():
                dsts = dsts[rows]
            if not np.array_equal(dst[done : done + dsts.size], dsts):
                return False
            done += dsts.size
        return True

    def _edges_snapshot(self) -> dict:
        if self._by_adjacency():
            return {self._ADJACENCY_KEY: self._adjacency}
        return super()._edges_snapshot()

    def _edges_restore(self, state: dict) -> None:
        self._adjacency = state.get(self._ADJACENCY_KEY)
        if self._adjacency is None:
            super()._edges_restore(state)
        else:  # _build() reads the adjacency of the worker restored into
            self._init_edges()

    def add_edge(self, v: Vertex, dst: int) -> None:
        """Register a static edge from ``v`` to global vertex ``dst``."""
        srcs, dsts = self._edges.rows
        srcs.append(v.local)
        dsts.append(dst)
        self._built = self._announced = False

    def add_edges(self, v: Vertex, dsts: np.ndarray) -> None:
        """Register all of ``v``'s static out-edges at once."""
        src, dst = self._edges.rows
        src.extend([v.local] * len(dsts))
        dst.extend(np.asarray(dsts).tolist())
        self._built = self._announced = False

    def add_edges_bulk(self, local_src: np.ndarray, dsts: np.ndarray) -> None:
        """Register many edges in one call: ``local_src[i]`` (a *local*
        sender index) scatters to global vertex ``dsts[i]``.  The bulk
        analogue of calling :meth:`add_edges` over a whole frontier."""
        local_src = np.asarray(local_src, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if local_src.shape != dsts.shape:
            raise ValueError("local_src and dsts must have equal length")
        self._edges.add_chunk(local_src, dsts)
        self._built = self._announced = False
