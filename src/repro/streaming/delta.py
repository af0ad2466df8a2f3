"""``DeltaGraph``: a mutable overlay above the immutable CSR ``Graph``.

The base graph stays frozen; each applied :class:`MutationBatch` lands in
the overlay as (a) a deletion mask over the base's arcs and (b) appended
extra arcs.  Point queries (``neighbors``, ``out_degree``, ``has_edge``)
are answered straight from the overlay; the engine-facing
:meth:`DeltaGraph.view` materializes a fresh CSR :class:`Graph` of the
current logical state (cached until the next ``apply``).

Compaction folds the overlay into a new base CSR.  The overlay keeps
``apply`` cheap — O(batch + overlay) instead of O(E) — but point-query
and re-materialization cost grows with the overlay, so
:meth:`maybe_compact` rebuilds once the overlay exceeds
``compact_threshold`` × base arcs (the classic LSM-style trade).

All mutations are arc-level internally: undirected batches are
symmetrized on entry exactly like the ``Graph`` constructor, so every
query and the materialized view agree with a from-scratch build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.streaming.batch import MutationBatch

__all__ = ["DeltaGraph", "ApplyStats"]


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


class DeltaGraph:
    """Mutable logical graph = immutable base CSR + overlay."""

    def __init__(self, base: Graph, compact_threshold: float = 0.25) -> None:
        if compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        self.compact_threshold = float(compact_threshold)
        self.num_compactions = 0
        self.num_batches = 0
        self._set_base(base)

    def _set_base(self, base: Graph) -> None:
        self.base = base
        src, dst = base.edge_array()
        self._base_src = src
        self._base_dst = dst
        self._base_w = None if base.weights is None else base.weights.copy()
        self._deleted = np.zeros(src.size, dtype=bool)
        self._extra_src = np.empty(0, dtype=np.int64)
        self._extra_dst = np.empty(0, dtype=np.int64)
        self._extra_w = (
            None if base.weights is None else np.empty(0, dtype=np.float64)
        )
        self._added_vertices = 0
        self._view: Graph | None = base

    # -- basic properties --------------------------------------------------
    @property
    def directed(self) -> bool:
        return self.base.directed

    @property
    def weighted(self) -> bool:
        return self.base.weights is not None

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices + self._added_vertices

    @property
    def num_arcs(self) -> int:
        """Live stored arcs (undirected edges count twice)."""
        return int(
            self._base_src.size - np.count_nonzero(self._deleted) + self._extra_src.size
        )

    @property
    def overlay_arcs(self) -> int:
        """Overlay weight: tombstoned base arcs plus appended extras."""
        return int(np.count_nonzero(self._deleted) + self._extra_src.size)

    # -- point queries (overlay, no materialization) -----------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` in the current logical graph: surviving
        base row first, then extras in insertion order."""
        parts = []
        if v < self.base.num_vertices:
            lo, hi = self.base.indptr[v], self.base.indptr[v + 1]
            keep = ~self._deleted[lo:hi]
            parts.append(self.base.indices[lo:hi][keep])
        if self._extra_src.size:
            parts.append(self._extra_dst[self._extra_src == v])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def out_degree(self, v: int) -> int:
        return int(self.neighbors(v).size)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    # -- mutation ----------------------------------------------------------
    def apply(self, batch: MutationBatch) -> ApplyStats:
        """Apply one batch to the overlay; returns the arc-level
        :class:`ApplyStats`.  Raises ``ValueError`` (leaving the overlay
        untouched) when the batch is inconsistent with the current graph:
        out-of-range endpoints, deleting a missing edge, weight mismatch."""
        n_old = self.num_vertices
        n_new = n_old + batch.add_vertices

        # -- validate against the current logical graph -------------------
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
        if self.weighted and batch.num_insertions and batch.insert_weights is None:
            raise ValueError("graph is weighted; insertions need insert_weights")
        if not self.weighted and batch.insert_weights is not None:
            raise ValueError("graph is unweighted; insertions must not carry weights")

        # -- symmetrize to arc level (mirrors the Graph constructor) -------
        ins_s, ins_d, ins_w = batch.insert_src, batch.insert_dst, batch.insert_weights
        del_s, del_d = batch.delete_src, batch.delete_dst
        if not self.directed:
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

        # -- resolve deletions to concrete arcs ----------------------------
        key = np.int64(n_new)
        if ins_s.size and del_s.size:
            # batch.validate() checks ordered pairs; after symmetrization
            # an undirected edge named in opposite orders collides too
            both = np.isin(ins_s * key + ins_d, del_s * key + del_d)
            if both.any():
                clash = sorted(zip(ins_s[both].tolist(), ins_d[both].tolist()))
                raise ValueError(
                    f"edges appear in both insertions and deletions: {clash[:5]}"
                )
        live_base = ~self._deleted
        base_keys = self._base_src * key + self._base_dst
        extra_keys = self._extra_src * key + self._extra_dst
        del_keys = del_s * key + del_d
        if del_keys.size:
            present = np.isin(del_keys, base_keys[live_base]) | np.isin(
                del_keys, extra_keys
            )
            if not present.all():
                missing = sorted(
                    zip(del_s[~present].tolist(), del_d[~present].tolist())
                )
                raise ValueError(f"deleting non-existent edges: {missing[:5]}")

        dead_v = batch.delete_vertices
        base_hit = np.zeros(self._base_src.size, dtype=bool)
        extra_hit = np.zeros(self._extra_src.size, dtype=bool)
        if del_keys.size:
            base_hit |= live_base & np.isin(base_keys, del_keys)
            extra_hit |= np.isin(extra_keys, del_keys)
        if dead_v.size:
            base_hit |= live_base & (
                np.isin(self._base_src, dead_v) | np.isin(self._base_dst, dead_v)
            )
            extra_hit |= np.isin(self._extra_src, dead_v) | np.isin(
                self._extra_dst, dead_v
            )

        # record what actually went away (with weights, for the planners)
        gone_src = np.concatenate([self._base_src[base_hit], self._extra_src[extra_hit]])
        gone_dst = np.concatenate([self._base_dst[base_hit], self._extra_dst[extra_hit]])
        gone_w = (
            None
            if self._base_w is None
            else np.concatenate([self._base_w[base_hit], self._extra_w[extra_hit]])
        )

        # -- commit --------------------------------------------------------
        self._deleted |= base_hit
        if extra_hit.any():
            keep = ~extra_hit
            self._extra_src = self._extra_src[keep]
            self._extra_dst = self._extra_dst[keep]
            if self._extra_w is not None:
                self._extra_w = self._extra_w[keep]
        if ins_s.size:
            self._extra_src = np.concatenate([self._extra_src, ins_s])
            self._extra_dst = np.concatenate([self._extra_dst, ins_d])
            if self._extra_w is not None:
                self._extra_w = np.concatenate([self._extra_w, ins_w])
        self._added_vertices += batch.add_vertices
        self.num_batches += 1
        self._view = None

        return ApplyStats(
            n_old=n_old,
            n_new=n_new,
            ins_src=ins_s,
            ins_dst=ins_d,
            ins_weights=ins_w,
            del_src=gone_src,
            del_dst=gone_dst,
            del_weights=gone_w,
            added_vertices=batch.add_vertices,
            deleted_vertices=dead_v,
        )

    # -- materialization / compaction --------------------------------------
    def view(self) -> Graph:
        """CSR :class:`Graph` of the current logical state (cached until
        the next :meth:`apply`)."""
        if self._view is None:
            keep = ~self._deleted
            src = np.concatenate([self._base_src[keep], self._extra_src])
            dst = np.concatenate([self._base_dst[keep], self._extra_dst])
            w = (
                None
                if self._base_w is None
                else np.concatenate([self._base_w[keep], self._extra_w])
            )
            # arcs are already symmetrized; build directed, restore the flag
            g = Graph(self.num_vertices, src, dst, weights=w, directed=True)
            g.directed = self.base.directed
            self._view = g
        return self._view

    def compact(self) -> Graph:
        """Fold the overlay into a fresh base CSR; the overlay empties."""
        fresh = self.view()
        self._set_base(fresh)
        self.num_compactions += 1
        return fresh

    def maybe_compact(self) -> bool:
        """Compact when the overlay outgrew ``compact_threshold`` × base."""
        if self.overlay_arcs > self.compact_threshold * max(self.base.num_edges, 1):
            self.compact()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DeltaGraph(|V|={self.num_vertices}, arcs={self.num_arcs}, "
            f"overlay={self.overlay_arcs}, compactions={self.num_compactions})"
        )
