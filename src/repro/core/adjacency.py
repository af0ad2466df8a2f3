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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graph.graph import Graph
from repro.graph.store import GraphStore
from repro.util import expand_ranges

__all__ = ["LocalCSR", "build_local_csr"]


@dataclass(frozen=True)
class LocalCSR:
    """Read-only CSR over one worker's local vertices.

    Attributes
    ----------
    indptr:
        ``(num_local + 1,)`` row pointers.
    indices:
        Global destination ids, concatenated per local row.
    weights:
        Optional per-edge weights aligned with ``indices``.
    degrees:
        ``(num_local,)`` row lengths (``np.diff(indptr)``).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None
    degrees: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

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


def _slice_rows(
    store: GraphStore,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(local indptr, degrees, indices, weights) of ``rows`` in a global CSR.

    One contiguous run of rows (``range``/``degree`` partitions, every
    rebalancer output) owns one stretch of the edge arrays and gets
    *slices* of them: over an mmap store, read-only views of the page
    cache.  Any other row set (``hash`` partitions) is gathered, and what
    was read of ``store`` to gather it is released.
    """
    if rows.size and np.all(rows[1:] - rows[:-1] == 1):
        a, b = int(rows[0]), int(rows[-1]) + 1
        lo, hi = int(indptr[a]), int(indptr[b])
        local = indptr[a : b + 1] - lo
        return local, np.diff(local), indices[lo:hi], None if weights is None else weights[lo:hi]
    deg = indptr[rows + 1] - indptr[rows]
    local = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(deg, out=local[1:])
    pos = expand_ranges(indptr[rows], deg)
    idx, w = indices[pos], None if weights is None else weights[pos]
    store.release(indices)
    if weights is not None:
        store.release(weights)
    return local, deg, idx, w


def build_local_csr(graph: Graph, local_ids: np.ndarray, direction: str = "out") -> LocalCSR:
    """Build the local adjacency of ``local_ids`` in the given direction."""
    if direction not in ("out", "in", "both"):
        raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")
    if not graph.directed:
        direction = "out"  # all directions coincide on undirected graphs

    if direction != "in":
        out = _slice_rows(graph.store, graph.indptr, graph.indices, graph.weights, local_ids)
    if direction != "out":
        graph._ensure_reverse()
        rev = _slice_rows(
            graph.store, graph._rev_indptr, graph._rev_indices, graph._rev_weights, local_ids
        )
    if direction != "both":
        indptr, deg, idx, w = out if direction == "out" else rev
        return LocalCSR(indptr=indptr, indices=idx, weights=w, degrees=deg)

    # both: out-edges then in-edges per row
    (indptr_o, deg_o, idx_o, w_o), (indptr_i, deg_i, idx_i, w_i) = out, rev
    indptr = indptr_o + indptr_i
    idx = np.empty(int(indptr[-1]), dtype=np.int64)
    out_pos = expand_ranges(indptr[:-1], deg_o)
    in_pos = expand_ranges(indptr[:-1] + deg_o, deg_i)
    idx[out_pos] = idx_o
    idx[in_pos] = idx_i
    graph.store.release(idx_o)  # a contiguous run's rows were store views till here
    if w_o is not None:
        w = np.empty(idx.size)
        w[out_pos] = w_o
        w[in_pos] = w_i
        graph.store.release(w_o)
    else:
        w = None
    return LocalCSR(indptr=indptr, indices=idx, weights=w, degrees=deg_o + deg_i)
