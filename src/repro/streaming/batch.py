"""``MutationBatch``: one atomic unit of graph change.

A batch collects edge insertions/deletions and vertex insertions/deletions
that are applied together at an epoch boundary.  Batches validate their own
shape eagerly (array lengths, weight presence, id sanity); validation
*against a concrete graph* (does the deleted edge exist? is the endpoint in
range?) happens in :func:`repro.streaming.delta.apply_batch`, which is
handed the current graph.

Conventions
-----------
* Vertex ids are dense.  Inserting ``add_vertices=k`` appends ids
  ``n .. n+k-1``; inserted edges may reference them.
* Deleting a vertex removes **all incident edges** and leaves the id behind
  as an isolated tombstone — ids are never renumbered, so per-vertex state
  arrays and partitions stay aligned across epochs (the usual
  streaming-graph contract).
* On undirected graphs an edge is named once (either endpoint order); the
  delta layer symmetrizes, mirroring the ``Graph`` constructor.
* Deleting an edge removes **every** parallel copy of that arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MutationBatch"]


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of (src, dst) pairs")
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)


@dataclass
class MutationBatch:
    """Edge/vertex insertions and deletions applied as one unit.

    Parameters
    ----------
    insert_src, insert_dst:
        Endpoint arrays of inserted edges.
    insert_weights:
        Per-edge weights for insertions; required iff the target graph is
        weighted (checked at apply time).
    delete_src, delete_dst:
        Endpoint arrays of deleted edges.
    add_vertices:
        Number of fresh vertex ids appended (``n .. n+k-1``).
    delete_vertices:
        Ids whose incident edges are all removed (tombstoned, see module
        docstring).
    timestamp:
        Optional stream position; :func:`repro.graph.io.load_update_stream`
        groups lines by it.
    """

    insert_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_weights: np.ndarray | None = None
    delete_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    delete_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    add_vertices: int = 0
    delete_vertices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    timestamp: int | None = None

    def __post_init__(self) -> None:
        self.insert_src = np.asarray(self.insert_src, dtype=np.int64)
        self.insert_dst = np.asarray(self.insert_dst, dtype=np.int64)
        self.delete_src = np.asarray(self.delete_src, dtype=np.int64)
        self.delete_dst = np.asarray(self.delete_dst, dtype=np.int64)
        self.delete_vertices = np.asarray(self.delete_vertices, dtype=np.int64)
        if self.insert_weights is not None:
            self.insert_weights = np.asarray(self.insert_weights, dtype=np.float64)
        self.validate()

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        insertions=(),
        deletions=(),
        weights=None,
        add_vertices: int = 0,
        delete_vertices=(),
        timestamp: int | None = None,
    ) -> "MutationBatch":
        """Build a batch from ``(src, dst)`` pair iterables."""
        ins_s, ins_d = _edge_arrays(insertions)
        del_s, del_d = _edge_arrays(deletions)
        w = None if weights is None else np.asarray(list(weights), dtype=np.float64)
        return cls(
            insert_src=ins_s,
            insert_dst=ins_d,
            insert_weights=w,
            delete_src=del_s,
            delete_dst=del_d,
            add_vertices=add_vertices,
            delete_vertices=np.asarray(list(delete_vertices), dtype=np.int64),
            timestamp=timestamp,
        )

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Shape/self-consistency checks (graph-independent)."""
        if self.insert_src.shape != self.insert_dst.shape:
            raise ValueError("insert_src and insert_dst must have equal length")
        if self.delete_src.shape != self.delete_dst.shape:
            raise ValueError("delete_src and delete_dst must have equal length")
        if self.insert_weights is not None and (
            self.insert_weights.shape != self.insert_src.shape
        ):
            raise ValueError("insert_weights must match the insertion count")
        if self.add_vertices < 0:
            raise ValueError("add_vertices must be >= 0")
        for name, arr in (
            ("insert", self.insert_src),
            ("insert", self.insert_dst),
            ("delete", self.delete_src),
            ("delete", self.delete_dst),
            ("delete_vertices", self.delete_vertices),
        ):
            if arr.size and arr.min() < 0:
                raise ValueError(f"negative vertex id in {name} arrays")
        # one batch is atomic: mutating an edge it also deletes is ambiguous
        if self.insert_src.size and self.delete_src.size:
            ins = set(zip(self.insert_src.tolist(), self.insert_dst.tolist()))
            dele = set(zip(self.delete_src.tolist(), self.delete_dst.tolist()))
            both = ins & dele
            if both:
                raise ValueError(
                    f"edges appear in both insertions and deletions: {sorted(both)[:5]}"
                )
        if self.delete_vertices.size:
            dead = set(self.delete_vertices.tolist())
            touched = (
                set(self.insert_src.tolist())
                | set(self.insert_dst.tolist())
            )
            bad = dead & touched
            if bad:
                raise ValueError(
                    f"vertices deleted by this batch also gain edges: {sorted(bad)[:5]}"
                )

    # -- introspection ----------------------------------------------------
    @property
    def num_insertions(self) -> int:
        return int(self.insert_src.size)

    @property
    def num_deletions(self) -> int:
        return int(self.delete_src.size)

    @property
    def size(self) -> int:
        """Total mutation count (edges + vertex ops)."""
        return (
            self.num_insertions
            + self.num_deletions
            + self.add_vertices
            + int(self.delete_vertices.size)
        )

    @property
    def empty(self) -> bool:
        return self.size == 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MutationBatch(+{self.num_insertions}e -{self.num_deletions}e "
            f"+{self.add_vertices}v -{self.delete_vertices.size}v"
            + (f", t={self.timestamp}" if self.timestamp is not None else "")
            + ")"
        )
