"""Compressed-sparse-row graph container.

The simulator's graphs are static inputs, so one read-only CSR structure is
shared by all simulated workers (each worker *owns* a disjoint vertex set;
adjacency lookup is free locally, exactly as in a real Pregel worker after
``load_graph()``).  Vertex identifiers are dense integers ``0..n-1``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.graph.store import GraphStore, MemoryStore

__all__ = ["Graph", "MAX_VERTICES", "VERTEX_ID"]

#: the dtype of every vertex id the tree makes or writes: CSR ``indices``
#: in memory and on disk, edge lists, the reverse CSR.  Signed 32 bits: a
#: graph holds at most :data:`MAX_VERTICES` = 2**31 vertices, so every id
#: fits; the wire narrows ids to ``int32`` as they enter a channel
#: (``core.channels._records.as_int32``) and sends them no wider than V
#: needs (its id codec); and the difference of two ids
#: cannot wrap, as it would in ``uint32``.  ``indptr`` counts arcs, not
#: vertices, and stays ``int64``.  Arrays written by an older tree
#: (``int64``, ``uint32``) are read as they are: every consumer indexes
#: with them, and NumPy indexes with any integer dtype.
VERTEX_ID = np.dtype(np.int32)
#: the most vertices a graph holds (and a host places, whose positions
#: are ``int32`` too): ids are ``0..n-1`` in :data:`VERTEX_ID`
MAX_VERTICES = int(np.iinfo(VERTEX_ID).max) + 1


class Graph:
    """An immutable directed or undirected graph in CSR form.

    For an undirected graph every edge is stored in both directions, which
    matches how vertex-centric systems receive undirected inputs (each
    endpoint sees the edge in its adjacency list).

    Parameters
    ----------
    num_vertices:
        Number of vertices; identifiers are ``0..num_vertices-1``.
    src, dst:
        Arrays of equal length giving the (directed) edge list.  For
        undirected graphs pass each edge once and set ``directed=False``;
        the constructor symmetrizes.
    weights:
        Optional per-edge weights, same length as ``src``.
    directed:
        Whether the edge list is to be interpreted as directed arcs.
    """

    __slots__ = (
        "num_vertices",
        "directed",
        "indptr",
        "indices",
        "weights",
        "store",
        "_rev_indptr",
        "_rev_indices",
        "_rev_weights",
    )

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        directed: bool = True,
    ) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise ValueError("weights must match the edge list length")
        _check_num_vertices(num_vertices)
        if src.size and (src.min() < 0 or max(src.max(), dst.max()) >= num_vertices):
            raise ValueError("edge endpoints out of range")

        if not directed:
            # store both directions; drop self-loop duplicates introduced by
            # symmetrization
            loop = src == dst
            src2 = np.concatenate([src, dst[~loop]])
            dst2 = np.concatenate([dst, src[~loop]])
            if weights is not None:
                weights = np.concatenate([weights, weights[~loop]])
            src, dst = src2, dst2

        self.num_vertices = int(num_vertices)
        self.directed = bool(directed)
        self.indptr, self.indices, self.weights = _build_csr(
            num_vertices, src, dst, weights
        )
        self.store: GraphStore = MemoryStore(
            self.num_vertices, self.directed, self.indptr, self.indices, self.weights
        )
        self._rev_indptr: np.ndarray | None = None
        self._rev_indices: np.ndarray | None = None
        self._rev_weights: np.ndarray | None = None

    # -- constructors --------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Iterable[float] | None = None,
        directed: bool = True,
    ) -> "Graph":
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        w = None if weights is None else np.asarray(list(weights), dtype=np.float64)
        return cls(num_vertices, arr[:, 0], arr[:, 1], weights=w, directed=directed)

    @classmethod
    def from_csr(
        cls,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        directed: bool = True,
        validate: bool = True,
        store: GraphStore | None = None,
    ) -> "Graph":
        """Wrap already-built CSR arrays **without copying them**.

        This is the attach half of the zero-copy pair used by the
        multiprocess backend (the export half is :meth:`csr_arrays`): a
        worker process maps the parent's ``indptr``/``indices``/``weights``
        buffers out of shared memory and hands the views straight to this
        constructor.  The arrays are validated (shape, dtype, monotone
        ``indptr``, in-range ``indices``) but never copied, so every
        worker reads the same physical graph.

        ``validate=False`` skips the O(V+E) content scans (shape/dtype
        checks remain) for arrays that provably came out of a validated
        ``Graph`` already — e.g. every worker process attaching the
        parent's exported CSR; re-scanning it N times per run would be
        pure startup cost.
        """
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        _check_csr_dtypes(indptr, indices)
        _check_num_vertices(num_vertices)
        if indptr.shape != (num_vertices + 1,):
            raise ValueError(
                f"indptr must have num_vertices+1 entries, got {indptr.shape}"
            )
        if weights is not None:
            weights = np.asarray(weights)
            if weights.dtype != np.float64:
                raise TypeError(f"weights must be float64, got {weights.dtype}")
            if weights.shape != indices.shape:
                raise ValueError("weights must match indices length")
        if validate:
            if indptr.size and (indptr[0] != 0 or indptr[-1] != indices.size):
                raise ValueError("indptr must start at 0 and end at len(indices)")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
                raise ValueError("indices contain out-of-range vertex ids")
        g = cls.__new__(cls)
        g.num_vertices = int(num_vertices)
        g.directed = bool(directed)
        g.indptr = indptr
        g.indices = indices
        g.weights = weights
        g.store = store or MemoryStore(
            g.num_vertices, g.directed, indptr, indices, weights
        )
        g._rev_indptr = None
        g._rev_indices = None
        g._rev_weights = None
        return g

    @classmethod
    def from_store(cls, store: GraphStore, validate: bool = False) -> "Graph":
        """A Graph served by ``store``'s arrays, wherever they live.

        The store remembers where the bytes came from (``graph.store.kind``
        is ``"memory"``, ``"mmap"`` or ``"shm"``), which is how the
        process executor decides between attach-by-path and copy-into-shm.
        Stores are built by validated code paths, so content scans are
        skipped by default.
        """
        arrs = store.arrays()
        return cls.from_csr(
            store.num_vertices,
            arrs["indptr"],
            arrs["indices"],
            weights=arrs.get("weights"),
            directed=store.directed,
            validate=validate,
            store=store,
        )

    def csr_arrays(self) -> dict[str, np.ndarray]:
        """The graph's backing CSR arrays, by name (``weights`` only when
        present) — the export half of the zero-copy pair; see
        :meth:`from_csr`.  The returned views are the live arrays: treat
        them as read-only."""
        out = {"indptr": self.indptr, "indices": self.indices}
        if self.weights is not None:
            out["weights"] = self.weights
        return out

    # -- basic accessors -------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of stored arcs (undirected edges count twice)."""
        return int(self.indices.size)

    @property
    def num_input_edges(self) -> int:
        """Number of edges as the input counted them."""
        return self.num_edges if self.directed else self.num_edges // 2

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def out_degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of v's out-neighbors."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of all stored arcs."""
        src = np.repeat(np.arange(self.num_vertices, dtype=VERTEX_ID), self.out_degrees)
        return src, self.indices.astype(VERTEX_ID)

    # -- reverse adjacency (for in-neighbors) -----------------------------
    def _ensure_reverse(self) -> None:
        if self._rev_indptr is None:
            src, dst = self.edge_array()
            w = self.weights
            self._rev_indptr, self._rev_indices, self._rev_weights = _build_csr(
                self.num_vertices, dst, src, w
            )

    def in_degree(self, v: int) -> int:
        if not self.directed:
            return self.out_degree(v)
        self._ensure_reverse()
        assert self._rev_indptr is not None
        return int(self._rev_indptr[v + 1] - self._rev_indptr[v])

    def in_neighbors(self, v: int) -> np.ndarray:
        if not self.directed:
            return self.neighbors(v)
        self._ensure_reverse()
        assert self._rev_indices is not None and self._rev_indptr is not None
        return self._rev_indices[self._rev_indptr[v] : self._rev_indptr[v + 1]]

    @property
    def in_degrees(self) -> np.ndarray:
        if not self.directed:
            return self.out_degrees
        self._ensure_reverse()
        assert self._rev_indptr is not None
        return np.diff(self._rev_indptr)

    # -- transforms --------------------------------------------------------
    def reverse(self) -> "Graph":
        """Graph with every arc flipped (directed graphs)."""
        src, dst = self.edge_array()
        return Graph(self.num_vertices, dst, src, weights=self.weights, directed=True)

    def to_undirected(self) -> "Graph":
        src, dst = self.edge_array()
        keep = src <= dst
        # keep one copy of each arc pair where present; symmetrize the rest
        return Graph(
            self.num_vertices,
            src,
            dst,
            weights=self.weights,
            directed=False,
        )

    def relabel(self, perm: np.ndarray) -> "Graph":
        """Apply the permutation ``perm`` (old id -> new id) to all vertices."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_vertices,):
            raise ValueError("perm must have one entry per vertex")
        if np.unique(perm).size != self.num_vertices:
            raise ValueError("perm must be a permutation")
        src, dst = self.edge_array()
        return Graph(
            self.num_vertices, perm[src], perm[dst], weights=self.weights, directed=True
        )

    # -- stats ---------------------------------------------------------------
    @property
    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_input_edges / self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover
        kind = "directed" if self.directed else "undirected"
        w = ", weighted" if self.weighted else ""
        return (
            f"Graph({kind}{w}, |V|={self.num_vertices}, |E|={self.num_input_edges})"
        )


def _check_csr_dtypes(indptr: np.ndarray, indices: np.ndarray) -> None:
    """``indptr`` must be ``int64`` (a graph may hold 2**31 arcs or more);
    ``indices`` holds vertex ids, so any integer dtype that holds them
    serves: :data:`VERTEX_ID` as this tree writes them, ``int64`` or
    ``uint32`` as an older store holds them."""
    if indptr.dtype != np.int64:
        raise TypeError(
            f"graph indptr must be int64, got {indptr.dtype}; it counts "
            "arcs, and a graph may hold 2**31 of them or more"
        )
    if not np.issubdtype(indices.dtype, np.integer):
        raise TypeError(
            f"graph indices must be an integer dtype ({VERTEX_ID} as this "
            f"tree writes them), got {indices.dtype}; they are vertex ids"
        )


def _check_num_vertices(num_vertices: int) -> None:
    if not 0 <= num_vertices <= MAX_VERTICES:
        raise ValueError(
            f"num_vertices must lie in [0, 2**31] (ids are {VERTEX_ID}), "
            f"got {num_vertices}"
        )


def _build_csr(
    n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    order = np.argsort(src, kind="stable")
    src_sorted = src[order]
    indices = dst.astype(VERTEX_ID)[order]
    w = None if weights is None else weights[order]
    counts = np.bincount(src_sorted, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices, w
