"""Synthetic update streams for benchmarks and tests.

Generates deterministic mutation batches against a concrete graph:
deletions sample *existing* edges, insertions sample absent endpoint
pairs, and weights follow the graph's weightedness.  ``protect_degrees``
keeps the dead-end (out-degree-0) vertex set fixed: deletions that would
drop an endpoint to degree 0 are skipped, and insertions never attach to
a currently-dead vertex.  Dead ends appearing or vanishing poisons the
global dead-end aggregate and forces incremental PageRank into a full
recompute — correct, but then a benchmark measures degradation instead
of the incremental path.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.streaming.batch import MutationBatch

__all__ = ["synthesize_batch", "synthesize_stream"]


def _edge_pairs(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's input-level edges (one copy per undirected edge)."""
    src, dst = graph.edge_array()
    if not graph.directed:
        keep = src <= dst
        src, dst = src[keep], dst[keep]
    return src, dst


def synthesize_batch(
    graph: Graph,
    num_insertions: int,
    num_deletions: int,
    seed: int = 0,
    protect_degrees: bool = True,
    timestamp: int | None = None,
) -> MutationBatch:
    """One random batch of edge mutations against ``graph``."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices

    src, dst = _edge_pairs(graph)
    existing = set(zip(src.tolist(), dst.tolist()))
    if not graph.directed:
        existing |= set(zip(dst.tolist(), src.tolist()))

    # -- deletions: sample distinct existing edges -------------------------
    del_pairs: list[tuple[int, int]] = []
    if num_deletions:
        if num_deletions > src.size:
            raise ValueError(
                f"cannot delete {num_deletions} of {src.size} edges"
            )
        degrees = (
            np.bincount(np.concatenate([src, dst]), minlength=n)
            if not graph.directed
            else graph.out_degrees.copy()
        )
        order = rng.permutation(src.size)
        for e in order:
            if len(del_pairs) == num_deletions:
                break
            u, v = int(src[e]), int(dst[e])
            if protect_degrees:
                if not graph.directed and (degrees[u] <= 1 or degrees[v] <= 1):
                    continue
                if graph.directed and degrees[u] <= 1:
                    continue
            del_pairs.append((u, v))
            degrees[u] -= 1
            if not graph.directed:
                degrees[v] -= 1

    # -- insertions: sample absent pairs -----------------------------------
    out_deg = graph.out_degrees
    ins_pairs: list[tuple[int, int]] = []
    taken = set(existing)
    attempts = 0
    while len(ins_pairs) < num_insertions:
        attempts += 1
        if attempts > 100 * num_insertions + 1000:
            raise ValueError(
                "could not sample enough absent edges "
                "(graph too dense or too many protected endpoints)"
            )
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or (u, v) in taken:
            continue
        if protect_degrees and (
            out_deg[u] == 0 or (not graph.directed and out_deg[v] == 0)
        ):
            continue
        ins_pairs.append((u, v))
        taken.add((u, v))
        if not graph.directed:
            taken.add((v, u))
    weights = (
        rng.uniform(1.0, 10.0, size=len(ins_pairs)) if graph.weighted else None
    )

    return MutationBatch.from_edges(
        insertions=ins_pairs,
        deletions=del_pairs,
        weights=weights,
        timestamp=timestamp,
    )


def synthesize_stream(
    graph: Graph,
    num_epochs: int,
    insertions_per_epoch: int,
    deletions_per_epoch: int,
    seed: int = 0,
    protect_degrees: bool = True,
) -> list[MutationBatch]:
    """A stream of batches, each sampled against the graph as the
    *previous* batches left it (each batch is applied with
    :func:`~repro.streaming.delta.apply_batch`, so later batches never
    delete already-deleted edges)."""
    from repro.streaming.delta import apply_batch

    batches = []
    for t in range(num_epochs):
        batch = synthesize_batch(
            graph,
            insertions_per_epoch,
            deletions_per_epoch,
            seed=seed + t,
            protect_degrees=protect_degrees,
            timestamp=t,
        )
        graph, _ = apply_batch(graph, batch)
        batches.append(batch)
    return batches
