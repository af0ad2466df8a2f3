"""``apply_batch``: the next graph of a stream, built batch by batch.

A stream's graph is one immutable CSR :class:`Graph`.
:func:`apply_batch` validates a :class:`MutationBatch` against it, finds
each deleted arc in its own row (``indptr[u]:indptr[u+1]``; a vertex
tombstone takes its own row plus one pass over ``indices``), and builds
the next ``Graph`` from the surviving arcs in CSR order followed by the
batch's arcs.  Every row therefore lists the arcs it kept in
insertion order and then the batch's, exactly as a from-scratch build
over all surviving arcs in insertion order would; the previous graph (an
mmap-backed one included) is never written.

All mutations are arc-level internally: undirected batches are
symmetrized on entry exactly like the ``Graph`` constructor, so every
query and the built graph agree with a from-scratch build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import VERTEX_ID, Graph
from repro.streaming.batch import MutationBatch
from repro.util import expand_ranges

__all__ = ["apply_batch", "ApplyStats"]


@dataclass(frozen=True)
class ApplyStats:
    """Arc-level record of one applied batch (after symmetrization),
    consumed by the incremental-refresh planners.

    ``del_weights`` carries the weights the deleted arcs HAD — the SSSP
    invalidation pass needs them after the arcs are gone.
    """

    n_old: int
    n_new: int
    ins_src: np.ndarray
    ins_dst: np.ndarray
    ins_weights: np.ndarray | None
    del_src: np.ndarray
    del_dst: np.ndarray
    del_weights: np.ndarray | None
    added_vertices: int
    deleted_vertices: np.ndarray

    @property
    def vertex_set_changed(self) -> bool:
        return self.n_new != self.n_old


def apply_batch(g: Graph, batch: MutationBatch) -> tuple[Graph, ApplyStats]:
    """Apply one batch to ``g``; returns the next graph and the arc-level
    :class:`ApplyStats`.  ``g`` itself is never written.  Raises
    ``ValueError`` when the batch is inconsistent with ``g``:
    out-of-range endpoints, deleting a missing edge, weight mismatch."""
    n_old = g.num_vertices
    n_new = n_old + batch.add_vertices

    # -- validate against the current graph ---------------------------
    if batch.delete_vertices.size and batch.delete_vertices.max() >= n_old:
        raise ValueError("delete_vertices references an unknown vertex")
    for arr in (batch.insert_src, batch.insert_dst):
        if arr.size and arr.max() >= n_new:
            raise ValueError(
                "insertion endpoint out of range (even counting add_vertices)"
            )
    for arr in (batch.delete_src, batch.delete_dst):
        if arr.size and arr.max() >= n_old:
            raise ValueError("deletion endpoint out of range")
    if g.weighted and batch.num_insertions and batch.insert_weights is None:
        raise ValueError("graph is weighted; insertions need insert_weights")
    if not g.weighted and batch.insert_weights is not None:
        raise ValueError("graph is unweighted; insertions must not carry weights")

    # -- symmetrize to arc level (mirrors the Graph constructor) -------
    ins_s, ins_d, ins_w = batch.insert_src, batch.insert_dst, batch.insert_weights
    del_s, del_d = batch.delete_src, batch.delete_dst
    if not g.directed:
        loop = ins_s == ins_d
        ins_s, ins_d, ins_w = (
            np.concatenate([ins_s, ins_d[~loop]]),
            np.concatenate([ins_d, ins_s[~loop]]),
            None if ins_w is None else np.concatenate([ins_w, ins_w[~loop]]),
        )
        dloop = del_s == del_d
        del_s, del_d = (
            np.concatenate([del_s, del_d[~dloop]]),
            np.concatenate([del_d, del_s[~dloop]]),
        )

    if ins_s.size and del_s.size:
        # batch.validate() checks ordered pairs; after symmetrization
        # an undirected edge named in opposite orders collides too
        key = np.int64(n_new)
        both = np.isin(ins_s * key + ins_d, del_s * key + del_d)
        if both.any():
            clash = sorted(zip(ins_s[both].tolist(), ins_d[both].tolist()))
            raise ValueError(
                f"edges appear in both insertions and deletions: {clash[:5]}"
            )

    # -- find each deleted arc (every parallel copy) in its own row ----
    indptr, indices = g.indptr, g.indices
    gone = np.zeros(indices.size, dtype=bool)
    if del_s.size:
        deg = indptr[del_s + 1] - indptr[del_s]
        pos = expand_ranges(indptr[del_s], deg)
        arc = np.repeat(np.arange(del_s.size), deg)
        match = indices[pos] == del_d[arc]
        present = np.zeros(del_s.size, dtype=bool)
        present[arc[match]] = True
        if not present.all():
            missing = sorted(
                zip(del_s[~present].tolist(), del_d[~present].tolist())
            )
            raise ValueError(f"deleting non-existent edges: {missing[:5]}")
        gone[pos[match]] = True
    dead_v = batch.delete_vertices
    if dead_v.size:
        gone[expand_ranges(indptr[dead_v], indptr[dead_v + 1] - indptr[dead_v])] = True
        dead = np.zeros(n_old, dtype=bool)
        dead[dead_v] = True
        gone |= dead[indices]
    gone_pos = np.flatnonzero(gone)
    gone_src = np.searchsorted(indptr, gone_pos, side="right") - 1

    # -- the next graph: kept arcs in CSR order, then the batch's ------
    keep = ~gone
    counts = np.zeros(n_new, dtype=np.int64)
    counts[:n_old] = np.diff(indptr) - np.bincount(gone_src, minlength=n_old)
    order = np.argsort(ins_s, kind="stable")
    at = np.cumsum(counts)[ins_s[order]]  # the end of each kept row
    counts += np.bincount(ins_s, minlength=n_new)
    new_indptr = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    new_weights = None
    if g.weights is not None:
        new_weights = g.weights[keep]
        if ins_w is not None:  # a batch without insertions may carry none
            new_weights = np.insert(new_weights, at, ins_w[order])
    graph = Graph.from_csr(
        n_new,
        new_indptr,
        np.insert(indices[keep].astype(VERTEX_ID, copy=False), at, ins_d[order]),
        weights=new_weights,
        directed=g.directed,
        validate=False,
    )

    return graph, ApplyStats(
        n_old=n_old,
        n_new=n_new,
        ins_src=ins_s,
        ins_dst=ins_d,
        ins_weights=ins_w,
        del_src=gone_src,
        del_dst=indices[gone_pos],
        del_weights=None if g.weights is None else g.weights[gone_pos],
        added_vertices=batch.add_vertices,
        deleted_vertices=dead_v,
    )
