"""Vertex partitioners: assign each vertex to one of M workers.

``hash_partition`` is the Pregel default (random assignment — what the
paper uses except where it says "(P)").  ``metis_like_partition`` is the
stand-in for METIS: a multi-source BFS growth that produces balanced,
locality-preserving blocks.  The paper only needs the partitioner to cut
few edges; any reasonable locality partitioner exhibits the same
"partitioned graph → propagation channel wins big" effect.

Every partitioner returns its ``owner`` array as narrow as the worker
count allows (:func:`owner_dtype`: one byte a vertex up to 256 workers),
and the engines keep an integer partition as given.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.graph import Graph
from repro.util import index_dtype

__all__ = [
    "hash_partition",
    "range_partition",
    "degree_range_partition",
    "metis_like_partition",
    "extend_partition",
    "partition_quality",
    "owner_dtype",
]


def owner_dtype(num_workers: int) -> np.dtype:
    """The narrowest type that numbers ``num_workers`` workers: ``uint8``
    up to 256, ``uint16`` up to 2¹⁶ (:func:`~repro.util.index_dtype`
    past that)."""
    return np.dtype(np.uint8) if num_workers <= 1 << 8 else index_dtype(num_workers)


def hash_partition(num_vertices: int, num_workers: int, seed: int = 0) -> np.ndarray:
    """Pseudo-random assignment, the Pregel default.

    Deterministic given the seed; statistically balanced.
    """
    rng = np.random.default_rng(seed)
    # drawn as int64 (the draws depend on the dtype), then narrowed
    owner = rng.integers(0, num_workers, size=num_vertices, dtype=np.int64)
    return owner.astype(owner_dtype(num_workers))


def extend_partition(
    owner: np.ndarray, num_new: int, num_workers: int, seed: int = 0
) -> np.ndarray:
    """Assign ``num_new`` appended vertex ids without moving any existing
    vertex (streaming-graph contract: ownership — and with it every
    per-worker state array — stays aligned across epochs).

    New ids get hash-partition assignments whose seed folds in the old
    size, so growing in two steps or one yields the same final array.
    """
    owner = np.asarray(owner)
    if num_new < 0:
        raise ValueError("num_new must be >= 0")
    if num_new == 0:
        return owner
    parts = [owner]
    # one id at a time keeps the result invariant to batch grouping
    for i in range(num_new):
        parts.append(hash_partition(1, num_workers, seed=seed + owner.size + i))
    return np.concatenate(parts).astype(owner_dtype(num_workers), copy=False)


def range_partition(num_vertices: int, num_workers: int) -> np.ndarray:
    """Contiguous ID ranges of (nearly) equal size."""
    owner = np.arange(num_vertices, dtype=np.int64) * num_workers // max(num_vertices, 1)
    return owner.astype(owner_dtype(num_workers))


def degree_range_partition(graph: Graph, num_workers: int) -> np.ndarray:
    """Contiguous ID ranges balanced by *arc count* instead of vertex count.

    Reads only the O(V) ``indptr`` array — ``indptr[v]`` is already the
    cumulative out-degree — so partitioning a 10M-edge mmap graph never
    touches the edge files: worker ``w`` owns the id range whose arcs span
    ``[w/M, (w+1)/M)`` of the total.  On skewed (RMAT-style) graphs this
    equalizes per-worker compute and scatter volume where plain
    :func:`range_partition` would hand one worker every hub.  Trailing
    zero-degree vertices all land on the last worker; graphs with no arcs
    fall back to vertex-balanced ranges.
    """
    indptr = np.asarray(graph.indptr)
    total = int(indptr[-1])
    n = graph.num_vertices
    if total == 0:
        return range_partition(n, num_workers)
    # midpoint of each vertex's arc span decides its bucket, so a vertex
    # straddling a boundary goes to the side holding most of its arcs
    mid = (indptr[:-1] + indptr[1:]) // 2
    owner = np.minimum(mid * num_workers // total, num_workers - 1)
    return owner.astype(owner_dtype(num_workers))


def metis_like_partition(graph: Graph, num_workers: int, seed: int = 0) -> np.ndarray:
    """Balanced BFS-grown blocks (METIS substitute).

    Grows ``num_workers`` blocks breadth-first from spread-out seeds,
    always extending the currently smallest block, so blocks are balanced
    within one vertex of the frontier granularity and internal edges
    dominate on graphs with locality.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=owner_dtype(num_workers))
    rng = np.random.default_rng(seed)
    owner = np.full(n, -1, dtype=np.int64)
    capacity = (n + num_workers - 1) // num_workers

    order = rng.permutation(n)
    frontiers: list[deque[int]] = [deque() for _ in range(num_workers)]
    sizes = np.zeros(num_workers, dtype=np.int64)
    next_seed = 0

    def take_seed() -> int:
        nonlocal next_seed
        while next_seed < n and owner[order[next_seed]] != -1:
            next_seed += 1
        return int(order[next_seed]) if next_seed < n else -1

    # initial seeds
    for b in range(num_workers):
        s = take_seed()
        if s == -1:
            break
        owner[s] = b
        sizes[b] += 1
        frontiers[b].append(s)

    assigned = int(sizes.sum())
    while assigned < n:
        # pick the smallest block that can still grow
        b = int(np.argmin(np.where(sizes < capacity, sizes, np.iinfo(np.int64).max)))
        grew = False
        while frontiers[b]:
            v = frontiers[b].popleft()
            for u in graph.neighbors(v):
                u = int(u)
                if owner[u] == -1:
                    owner[u] = b
                    sizes[b] += 1
                    assigned += 1
                    frontiers[b].append(u)
                    grew = True
                    break
            if grew:
                # v may have more unassigned neighbors; keep it in the frontier
                frontiers[b].append(v)
                break
        if not grew:
            # exhausted frontier (disconnected component); reseed this block
            s = take_seed()
            if s == -1:
                break
            owner[s] = b
            sizes[b] += 1
            assigned += 1
            frontiers[b].append(s)

    # safety: anything left (shouldn't happen) goes to the smallest block
    rest = np.flatnonzero(owner == -1)
    for v in rest:
        b = int(np.argmin(sizes))
        owner[v] = b
        sizes[b] += 1
    return owner.astype(owner_dtype(num_workers))


def partition_quality(graph: Graph, owner: np.ndarray) -> dict:
    """Report edge cut and balance of a partition.

    Returns a dict with ``internal_fraction`` (fraction of arcs whose both
    endpoints share a worker), ``edge_cut`` and ``imbalance`` (max block
    size over ideal size).
    """
    src, dst = graph.edge_array()
    internal = int(np.count_nonzero(owner[src] == owner[dst]))
    total = src.size
    sizes = np.bincount(owner, minlength=int(owner.max()) + 1 if owner.size else 1)
    ideal = graph.num_vertices / max(len(sizes), 1)
    return {
        "internal_fraction": internal / total if total else 1.0,
        "edge_cut": total - internal,
        "imbalance": float(sizes.max() / ideal) if graph.num_vertices else 1.0,
        "block_sizes": sizes,
    }
