"""Local CSR adjacency views for the bulk compute path.

A :class:`LocalCSR` is the adjacency of one worker's owned vertices,
re-indexed so that row ``i`` is local vertex ``i`` (column entries remain
*global* vertex ids, since messages address global ids).  Bulk programs
(see ARCHITECTURE.md) use it to turn per-vertex edge iteration into whole
-frontier gathers: ``adj.gather(active)`` yields the destinations of every
out-edge of the active set in one NumPy pass, in exactly the order the
scalar path would visit them (ascending local index, CSR edge order) — the
property the scalar/bulk parity tests rely on.

Directions:

* ``"out"`` — rows are out-edges (the common case).
* ``"in"``  — rows are in-edges (built from the graph's reverse CSR).
* ``"both"``— per row: out-edges then in-edges, matching the
  ``np.concatenate([neighbors, in_neighbors])`` idiom of scalar WCC.

On undirected graphs all three directions coincide with ``"out"``.

Only the row structure (``indptr``, ``degrees``) is built eagerly.  The
edge columns are read from the global CSR when first asked for: a channel
that streams the rows (:meth:`LocalCSR.blocks`) never makes a full-length
copy of them, and neither does a program that reads only degrees.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from repro.graph.graph import Graph
from repro.graph.store import GraphStore
from repro.util import cut_blocks, expand_ranges

__all__ = ["LocalCSR", "build_local_csr"]


class _Rows:
    """Some rows of one global CSR, in local order: ``rows[i]`` is the
    global row of local row ``i``.  One contiguous run of rows (``range`` /
    ``degree`` partitions, every rebalancer output) is read by slicing the
    edge arrays — over an mmap store, read-only views of the page cache;
    any other row set (``hash`` partitions, a peer's senders) is copied:
    ascending rows that hold a quarter of the entries between their first
    and last or more by masking that span, others by gathering an index
    per entry."""

    __slots__ = ("indptr", "indices", "weights", "rows", "run", "ascending")

    def __init__(self, indptr, indices, weights, rows: np.ndarray) -> None:
        self.indptr, self.indices, self.weights = indptr, indices, weights
        self.rows = rows
        steps = rows[1:] - rows[:-1]
        self.run = bool(rows.size) and bool(np.all(steps == 1))
        self.ascending = bool(np.all(steps > 0))

    def degrees(self, first: int, end: int) -> np.ndarray:
        """Lengths of local rows ``first:end``."""
        if self.run:
            a = int(self.rows[0])
            return np.diff(self.indptr[a + first : a + end + 1])
        ids = self.rows[first:end]
        return self.indptr[ids + 1] - self.indptr[ids]

    def take(self, column: np.ndarray, first: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """``column``'s entries of local rows ``first:end`` in row order (a
        slice on a run, a gathered copy otherwise), and the span of
        ``column`` they were read from."""
        if self.run:
            a = int(self.rows[0])
            span = column[int(self.indptr[a + first]) : int(self.indptr[a + end])]
            return span, span
        ids = self.rows[first:end]
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        lo, hi = (int(starts.min()), int((starts + counts).max())) if ids.size else (0, 0)
        span = column[lo:hi]
        if ids.size and self.ascending and 4 * int(counts.sum()) >= hi - lo:
            # rows that hold a quarter of the span or more: one pass of a
            # row mask over the span is cheaper than an index per entry
            a, b = int(ids[0]), int(ids[-1]) + 1
            picked = np.zeros(b - a, dtype=bool)
            picked[ids - a] = True
            return span[np.repeat(picked, np.diff(self.indptr[a : b + 1]))], span
        return column[expand_ranges(starts, counts)], span


class LocalCSR:
    """Read-only CSR over one worker's local vertices.

    Attributes
    ----------
    indptr:
        ``(num_local + 1,)`` row pointers.
    indices:
        Global destination ids, concatenated per local row — read from the
        graph on first access (a view of it on a contiguous run of rows).
    weights:
        Optional per-edge weights aligned with ``indices``, read likewise.
    degrees:
        ``(num_local,)`` row lengths (``np.diff(indptr)``).
    """

    def __init__(
        self, store: GraphStore, indptr: np.ndarray, degrees: np.ndarray, parts: list[_Rows]
    ) -> None:
        self.indptr = indptr
        self.degrees = degrees
        self._store = store
        # one part, or ("both") the out-rows then the in-rows of every row
        self._parts = parts
        #: whether a column read is a view of the graph (else a copy)
        self._views = len(parts) == 1 and parts[0].run

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def indices(self) -> np.ndarray:
        return self._column("indices")

    @cached_property
    def weights(self) -> np.ndarray | None:
        return None if self._parts[0].weights is None else self._column("weights")

    def _column(self, name: str) -> np.ndarray:
        values, spans = self._read(name, 0, self.indptr.size - 1)
        if not self._views:  # copied: hand back what was read of the store
            for span in spans:
                self._store.release(span)
        return values

    def _read(self, name: str, first: int, end: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Column ``name`` of local rows ``first:end`` in row order, and the
        spans of the graph's arrays it was read from."""
        taken = [part.take(getattr(part, name), first, end) for part in self._parts]
        if len(taken) == 1:
            return taken[0][0], [taken[0][1]]
        # both: per row, the out-entries then the in-entries
        (out, out_span), (rev, rev_span) = taken
        deg_out = self._parts[0].degrees(first, end)
        starts = self.indptr[first:end] - self.indptr[first]
        values = np.empty(out.size + rev.size, dtype=out.dtype)
        values[expand_ranges(starts, deg_out)] = out
        values[expand_ranges(starts + deg_out, self.degrees[first:end] - deg_out)] = rev
        return values, [out_span, rev_span]

    def blocks(self, max_edges: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """The destinations in consecutive whole-row blocks ``(first row,
        end row, destinations)`` of at most ``max_edges`` edges (a longer
        row is a block of its own; :func:`~repro.util.cut_blocks`).

        A block is a slice of the graph on a contiguous run of rows and
        gathered from it otherwise; it is the consumer's until it asks for
        the next one, and the span of the store the block was read from is
        then handed back (:meth:`~repro.graph.store.GraphStore.release`).
        So a consumer that copies what it keeps holds one block of the
        graph at a time, and nothing of it afterwards."""
        for first, end, _, _ in cut_blocks(self.indptr, max_edges):
            dsts, spans = self._read("indices", first, end)
            yield first, end, dsts
            for span in spans:
                self._store.release(span)

    @cached_property
    def degree_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows with edges, their degrees, rows without)``, ascending —
        what a program whose every vertex is active would otherwise
        recompute from ``degrees`` each superstep.  Static like the
        adjacency itself, so it lives (and dies, on migration) with it."""
        has_edges = self.degrees > 0
        rows = np.flatnonzero(has_edges)
        return rows, self.degrees[rows], np.flatnonzero(~has_edges)

    def row(self, local_idx: int) -> np.ndarray:
        """Destinations of one local vertex (a view)."""
        return self.indices[self.indptr[local_idx] : self.indptr[local_idx + 1]]

    def _edge_positions(self, rows: np.ndarray) -> np.ndarray:
        starts = self.indptr[rows]
        return expand_ranges(starts, self.degrees[rows])

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Destinations of every edge of ``rows``, concatenated in row
        order — the bulk analogue of looping ``v.edges`` over a frontier."""
        return self.indices[self._edge_positions(rows)]

    def gather_weights(self, rows: np.ndarray) -> np.ndarray:
        """Edge weights aligned with :meth:`gather` (ones if unweighted)."""
        if self.weights is None:
            return np.ones(int(self.degrees[rows].sum()))
        return self.weights[self._edge_positions(rows)]


def build_local_csr(graph: Graph, local_ids: np.ndarray, direction: str = "out") -> LocalCSR:
    """The local adjacency of ``local_ids`` in the given direction: its row
    structure now, its edge columns when first read."""
    if direction not in ("out", "in", "both"):
        raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")
    if not graph.directed:
        direction = "out"  # all directions coincide on undirected graphs

    parts = []
    if direction != "in":
        parts.append(_Rows(graph.indptr, graph.indices, graph.weights, local_ids))
    if direction != "out":
        graph._ensure_reverse()
        parts.append(
            _Rows(graph._rev_indptr, graph._rev_indices, graph._rev_weights, local_ids)
        )
    degrees = parts[0].degrees(0, local_ids.size)
    if len(parts) == 2:
        degrees = degrees + parts[1].degrees(0, local_ids.size)
    indptr = np.zeros(local_ids.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return LocalCSR(graph.store, indptr, degrees, parts)
