"""Shared test utilities: serial oracles, tiny graph fixtures, the
resident-set probe of process-backend workers, the seam that picks the
process backend's frame mover, and a scatter scan's segments in order."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.runtime.parallel import pool as _pool

__all__ = [
    "nx_components",
    "nx_scc",
    "nx_mst_weight",
    "nx_sssp",
    "pagerank_oracle",
    "line_graph",
    "two_triangles",
    "rss_growth",
    "MOVERS",
    "mover",
    "scan_segments",
]

#: the process backend's two frame movers
MOVERS = ("shm", "pipe")

#: cores the pool's rule must see to pick each mover at any worker count
_CORES = {"shm": 1 << 16, "pipe": 0}


@contextmanager
def mover(name: str):
    """Worker pools built inside pick ``name`` as their frame mover, at
    any worker count: the cores function the rule reads is patched.  The
    parent ships its choice to the children, which need no patch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pool, "usable_cores", lambda: _CORES[name])
        yield name


def _nx_graph(graph: Graph, directed: bool):
    import networkx as nx

    G = nx.DiGraph() if directed else nx.Graph()
    G.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_array()
    if graph.weighted:
        G.add_weighted_edges_from(zip(src.tolist(), dst.tolist(), graph.weights.tolist()))
    else:
        G.add_edges_from(zip(src.tolist(), dst.tolist()))
    return G


def nx_components(graph: Graph) -> np.ndarray:
    """labels[v] = min vertex id of v's weak component."""
    import networkx as nx

    G = _nx_graph(graph, directed=False)
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    for comp in nx.connected_components(G):
        mn = min(comp)
        for u in comp:
            labels[u] = mn
    return labels


def nx_scc(graph: Graph) -> np.ndarray:
    """labels[v] = min vertex id of v's strong component."""
    import networkx as nx

    G = _nx_graph(graph, directed=True)
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    for comp in nx.strongly_connected_components(G):
        mn = min(comp)
        for u in comp:
            labels[u] = mn
    return labels


def nx_mst_weight(graph: Graph) -> float:
    import networkx as nx

    G = _nx_graph(graph, directed=False)
    return sum(d["weight"] for _, _, d in nx.minimum_spanning_edges(G, data=True))


def nx_sssp(graph: Graph, source: int) -> np.ndarray:
    import networkx as nx

    G = _nx_graph(graph, directed=graph.directed)
    weight = "weight" if graph.weighted else None
    dists = nx.single_source_dijkstra_path_length(G, source, weight=weight)
    out = np.full(graph.num_vertices, np.inf)
    for v, d in dists.items():
        out[v] = d
    return out


def pagerank_oracle(graph: Graph, iterations: int, damping: float = 0.85) -> np.ndarray:
    """Dense power iteration with a dead-end sink, matching the paper's
    Fig. 1 formulation exactly."""
    n = graph.num_vertices
    deg = graph.out_degrees
    M = np.zeros((n, n))
    for v in range(n):
        d = deg[v]
        if d:
            # np.add.at accumulates parallel edges (fancy indexing would not)
            np.add.at(M[:, v], graph.neighbors(v), 1.0 / d)
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        s = r[deg == 0].sum() / n
        r = (1 - damping) / n + damping * (M @ r + s)
    return r


def line_graph(n: int, weighted: bool = False) -> Graph:
    """Undirected path 0-1-2-...-(n-1)."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    w = np.ones(n - 1) if weighted else None
    return Graph(n, src, dst, weights=w, directed=False)


def two_triangles() -> Graph:
    """Two disjoint triangles: {0,1,2} and {3,4,5}."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return Graph.from_edges(6, edges, directed=False)


def rss_growth(workers: int, run) -> dict[int, float]:
    """Per worker of ``run(live=...)`` on the process backend: peak minus
    first published ``rss_bytes``.  Each worker publishes it first right
    after it attaches the store and before any compute, then at every
    superstep, so this is what the run added (the absolute figure carries
    fork-inherited parent pages)."""
    from repro.obs import LiveMetrics

    first: dict[int, float] = {}
    peak: dict[int, float] = {}
    done = threading.Event()
    live = LiveMetrics.create(workers)

    def sample():
        for row in live.snapshot():
            if row["rss_bytes"] > 0:
                first.setdefault(row["worker"], row["rss_bytes"])
                peak[row["worker"]] = max(peak.get(row["worker"], 0), row["rss_bytes"])

    def poll():
        while not done.wait(0.02):
            sample()

    sampler = threading.Thread(target=poll, daemon=True)
    sampler.start()
    try:
        run(live=live)
    finally:
        done.set()
        sampler.join(timeout=5.0)
        sample()  # the values each worker published last
        live.close(unlink=True)
    assert not sampler.is_alive()
    assert sorted(peak) == list(range(workers))
    return {w: peak[w] - first[w] for w in peak}


def scan_segments(scan) -> tuple[np.ndarray, np.ndarray]:
    """``(senders, starts)`` of a scatter ``_Scan`` in segment order — the
    grouped edges it was built from — read back from its layout: its long
    segments' blocks and its length classes' ``(L, n)`` chunks."""
    segments: list = [None] * scan.segments
    positions = np.arange(scan.segments) if scan.positions is None else scan.positions
    for run, *_ in scan.runs:
        for rows, seg_lo, seg_hi, lo, hi in run:
            edges = scan.edge_src[lo:hi].astype(np.int64)
            if rows:
                columns = edges.reshape(rows, seg_hi - seg_lo).T
            else:
                bounds = [*scan.starts[seg_lo:seg_hi].tolist(), hi]
                columns = [edges[a - lo : b - lo] for a, b in zip(bounds, bounds[1:])]
            for position, column in zip(positions[seg_lo:seg_hi].tolist(), columns):
                segments[position] = column
    lengths = np.array([column.size for column in segments], dtype=np.int64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.concatenate([*segments, np.empty(0, np.int64)]), starts
