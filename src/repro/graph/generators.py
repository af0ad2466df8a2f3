"""Synthetic graph generators.

These produce the scaled counterparts of the paper's Table III datasets
(Wikipedia/WebUK/Facebook/Twitter/chain/tree/USA-road/RMAT24).  All
generators are deterministic given a seed and fully vectorized.
"""

from __future__ import annotations

import os

import numpy as np

from repro.graph.graph import Graph
from repro.graph.store import build_mmap_store

__all__ = [
    "chain",
    "random_tree",
    "rmat",
    "rmat_to_disk",
    "erdos_renyi",
    "erdos_renyi_to_disk",
    "grid_road",
    "star",
    "complete",
]


def chain(n: int) -> Graph:
    """A rooted chain 0 <- 1 <- 2 ... (arc i -> i-1 points to the parent).

    This is the paper's pathological pointer-jumping input: a tree of depth
    ``n`` where every jump round halves the depth.
    """
    if n < 1:
        raise ValueError("chain needs at least one vertex")
    src = np.arange(1, n, dtype=np.int64)
    dst = src - 1
    return Graph(n, src, dst, directed=True)


def random_tree(n: int, seed: int = 0) -> Graph:
    """A uniformly random recursive tree: parent(i) ~ Uniform{0..i-1}.

    Arc ``i -> parent(i)``; vertex 0 is the root.  Expected depth is
    O(log n), making pointer jumping converge in few rounds — the paper's
    "Tree" dataset behaves this way.
    """
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    rng = np.random.default_rng(seed)
    src = np.arange(1, n, dtype=np.int64)
    # parent of vertex i is uniform over [0, i)
    parents = (rng.random(n - 1) * src).astype(np.int64)
    return Graph(n, src, parents, directed=True)


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = True,
    weighted: bool = False,
    dedupe: bool = True,
) -> Graph:
    """Recursive-MATrix power-law graph (Chakrabarti et al.).

    ``n = 2**scale`` vertices and ``edge_factor * n`` generated arcs.  The
    default (a, b, c) produce the heavy skew of social/web graphs: a few
    very high-degree hubs, many low-degree vertices — the degree profile
    the paper's load-balancing optimizations target.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("a + b + c must lie in (0, 1)")
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)

    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # quadrant probabilities: [a, b, c, d]
        go_right = r >= a + c  # dst high bit (quadrants b and d)
        go_down = ((r >= a) & (r < a + c)) | (r >= a + b + c)  # src high bit
        src |= go_down.astype(np.int64) << bit
        dst |= go_right.astype(np.int64) << bit

    if not directed:
        # canonicalize so each undirected edge appears once (otherwise the
        # (u,v)/(v,u) duplicates would become parallel edges with
        # independent weights after symmetrization)
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    if dedupe:
        keys = src * n + dst
        _, unique_idx = np.unique(keys, return_index=True)
        src, dst = src[unique_idx], dst[unique_idx]
    loops = src == dst
    src, dst = src[~loops], dst[~loops]

    weights = None
    if weighted:
        weights = rng.uniform(1.0, 100.0, size=src.size)
    return Graph(n, src, dst, weights=weights, directed=directed)


def _rmat_bits(rng, m: int, scale: int, a: float, b: float, c: float):
    """One batch of ``m`` RMAT arcs from an already-positioned ``rng``."""
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        go_right = r >= a + c  # dst high bit (quadrants b and d)
        go_down = ((r >= a) & (r < a + c)) | (r >= a + b + c)  # src high bit
        src |= go_down.astype(np.int64) << bit
        dst |= go_right.astype(np.int64) << bit
    return src, dst


def rmat_to_disk(
    out: str | os.PathLike,
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = True,
    weighted: bool = False,
    chunk_edges: int = 1 << 20,
) -> Graph:
    """:func:`rmat` that writes straight to an mmap store at ``out``.

    Arcs are generated ``chunk_edges`` at a time and streamed through the
    two-pass counting CSR build — peak memory is O(V + chunk), never
    O(E), so 10M–1B-edge graphs come out of a laptop.  Each chunk draws
    from its own ``default_rng([seed, chunk_index])`` stream, which is
    what lets the build's passes regenerate identical chunks without an
    intermediate edge file (and makes the output independent of
    ``chunk_edges`` only per-chunk-stream — the *pair* (seed,
    chunk_edges) identifies the graph).  Global deduplication needs a
    full-edge-set view, so unlike the in-memory generator there is no
    ``dedupe`` option; RMAT duplicate rates are low at these sizes and
    parallel arcs are legal inputs.  Self-loops are dropped, matching
    :func:`rmat`.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("a + b + c must lie in (0, 1)")
    n = 1 << scale
    m = edge_factor * n

    def chunks():
        for ci, lo in enumerate(range(0, m, chunk_edges)):
            rng = np.random.default_rng([seed, ci])
            src, dst = _rmat_bits(rng, min(chunk_edges, m - lo), scale, a, b, c)
            if not directed:
                src, dst = np.minimum(src, dst), np.maximum(src, dst)
            loops = src == dst
            src, dst = src[~loops], dst[~loops]
            w = rng.uniform(1.0, 100.0, size=src.size) if weighted else None
            yield src, dst, w

    store = build_mmap_store(
        out, chunks, num_vertices=n, directed=directed, weighted=weighted
    )
    return Graph.from_store(store)


def erdos_renyi(n: int, avg_degree: float, seed: int = 0, directed: bool = True) -> Graph:
    """G(n, m) random graph with ``m = n * avg_degree`` arcs."""
    m = int(n * avg_degree)
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    loops = src == dst
    return Graph(n, src[~loops], dst[~loops], directed=directed)


def erdos_renyi_to_disk(
    out: str | os.PathLike,
    n: int,
    avg_degree: float,
    seed: int = 0,
    directed: bool = True,
    chunk_edges: int = 1 << 20,
) -> Graph:
    """:func:`erdos_renyi` that writes straight to an mmap store at ``out``
    (chunked like :func:`rmat_to_disk`: per-chunk rng streams, O(V + chunk)
    peak memory)."""
    m = int(n * avg_degree)

    def chunks():
        for ci, lo in enumerate(range(0, m, chunk_edges)):
            rng = np.random.default_rng([seed, ci])
            size = min(chunk_edges, m - lo)
            src = rng.integers(0, n, size=size, dtype=np.int64)
            dst = rng.integers(0, n, size=size, dtype=np.int64)
            loops = src == dst
            yield src[~loops], dst[~loops], None

    store = build_mmap_store(out, chunks, num_vertices=n, directed=directed)
    return Graph.from_store(store)


def grid_road(rows: int, cols: int, seed: int = 0, weighted: bool = True) -> Graph:
    """A rows×cols grid with random edge deletions: a road-network stand-in.

    Road networks are near-planar, low-degree (USA road avg deg 2.41), and
    high-diameter; a thinned grid reproduces all three properties.
    """
    n = rows * cols
    idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right_src = idx[:, :-1].ravel()
    right_dst = idx[:, 1:].ravel()
    down_src = idx[:-1, :].ravel()
    down_dst = idx[1:, :].ravel()
    src = np.concatenate([right_src, down_src])
    dst = np.concatenate([right_dst, down_dst])
    rng = np.random.default_rng(seed)
    # delete ~35% of edges to break the regular structure while (mostly)
    # keeping connectivity; resulting avg degree ~ 2.6, like USA-road
    keep = rng.random(src.size) >= 0.35
    src, dst = src[keep], dst[keep]
    weights = rng.uniform(1.0, 10.0, size=src.size) if weighted else None
    return Graph(n, src, dst, weights=weights, directed=False)


def star(n: int, center: int = 0) -> Graph:
    """One hub connected to all other vertices (undirected).

    The minimal skewed-degree graph; used by tests targeting load-balance
    behaviour.
    """
    others = np.array([v for v in range(n) if v != center], dtype=np.int64)
    src = np.full(others.size, center, dtype=np.int64)
    return Graph(n, src, others, directed=False)


def complete(n: int) -> Graph:
    """Complete undirected graph on n vertices."""
    src, dst = np.triu_indices(n, k=1)
    return Graph(n, src.astype(np.int64), dst.astype(np.int64), directed=False)
