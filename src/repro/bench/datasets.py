"""Scaled counterparts of the paper's Table III datasets.

The paper's graphs are 18M–42M vertices on an 8-node cluster; the
simulator runs laptop-scale versions that preserve the properties each
experiment leans on:

================  ===============================  =========================
paper dataset     property that matters            scaled counterpart
================  ===============================  =========================
Wikipedia         directed, power-law, avg deg ~9  RMAT(13), ef 9
WebUK             directed, heavy (avg deg ~24)    RMAT(13), ef 24
Facebook          undirected, sparse (avg ~3)      undirected RMAT(13), ef 2
Twitter           undirected, dense (avg ~70)      undirected RMAT(12), ef 18
Tree              random rooted tree               random_tree(2^16)
Chain             depth-n pathological tree        chain(2^15)
USA Road          near-planar, avg deg 2.4,        thinned grid 180x140,
                  weighted, huge diameter          weighted
RMAT24            weighted power-law               undirected weighted
                                                   RMAT(12), ef 8
================  ===============================  =========================

All are deterministic (fixed seeds) and cached after first construction.
"""

from __future__ import annotations

from typing import Callable

from repro.graph import chain, erdos_renyi, grid_road, random_tree, rmat
from repro.graph.graph import Graph

__all__ = ["DATASETS", "EXTRA_DATASETS", "load_dataset", "table3_rows"]

#: name -> (constructor, kind) where kind explains the Table III "Type"
DATASETS: dict[str, tuple[Callable[[], Graph], str]] = {
    "wikipedia": (lambda: rmat(13, edge_factor=9, seed=101, directed=True), "directed"),
    "webuk": (lambda: rmat(13, edge_factor=24, seed=102, directed=True), "directed"),
    "facebook": (
        lambda: rmat(13, edge_factor=2, seed=103, directed=False),
        "undirected",
    ),
    "twitter": (
        lambda: rmat(12, edge_factor=18, seed=104, directed=False),
        "undirected",
    ),
    "tree": (lambda: random_tree(1 << 16, seed=105), "rooted tree"),
    "chain": (lambda: chain(1 << 15), "rooted tree"),
    "usa-road": (lambda: grid_road(180, 140, seed=106), "undirected & weighted"),
    "rmat24": (
        lambda: rmat(12, edge_factor=8, seed=107, directed=False, weighted=True),
        "undirected & weighted",
    ),
}

#: workloads that are not Table III rows (kept out of ``DATASETS`` so the
#: table inventory stays the paper's): a 100k-vertex graph large enough
#: for the scalar-vs-bulk gap to show (``repro run --mode``), and two
#: streaming graphs (``repro stream``) — a 10k-vertex weighted road grid
#: whose slow frontier growth favors locality, plus a power-law contrast
#: where the dirty region explodes
EXTRA_DATASETS: dict[str, tuple[Callable[[], Graph], str]] = {
    "bulk-100k": (
        lambda: erdos_renyi(100_000, 8.0, seed=108, directed=True),
        "directed",
    ),
    "stream-road": (
        lambda: grid_road(100, 100, seed=109),
        "undirected & weighted",
    ),
    "stream-er": (
        lambda: erdos_renyi(20_000, 8.0, seed=110, directed=True),
        "directed",
    ),
}

_cache: dict[str, Graph] = {}


def load_dataset(name: str) -> Graph:
    """Build (or fetch the cached) benchmark graph by name (Table III
    names plus the extras)."""
    registry = DATASETS if name in DATASETS else EXTRA_DATASETS
    if name not in registry:
        raise KeyError(
            f"unknown dataset {name!r}; have {sorted(DATASETS) + sorted(EXTRA_DATASETS)}"
        )
    if name not in _cache:
        _cache[name] = registry[name][0]()
    return _cache[name]


def table3_rows() -> list[dict]:
    """Regenerate Table III (the dataset inventory) for our scaled graphs."""
    rows = []
    for name, (_, kind) in DATASETS.items():
        g = load_dataset(name)
        rows.append(
            {
                "dataset": name,
                "type": kind,
                "|V|": g.num_vertices,
                "|E|": g.num_input_edges,
                "avg_deg": round(g.avg_degree, 2),
            }
        )
    return rows
