"""The benchmark's workloads: which graph, which call, and why.

Standard library only: the harness imports this and must stay small
(see harness.py).  prepare.py turns an entry into stores and references.
"""

from __future__ import annotations

WORKERS = 2

#: generator parameters per preset; ``smoke`` keeps every name and code
#: path of ``full`` on graphs small enough for the harness's self-test
PRESETS = {
    "full": {
        "rmat": dict(scale=19, edge_factor=16),
        "road": dict(rows=4000, cols=60),
        # edge_factor 8, not the 4 first planned: at 4 S-V needs 19 supersteps
        # instead of 16 on about one seed in three, a fifth more wall and
        # bytes; at 8 it needed 16 on 29 of 30 seeds, at the same run time
        "rmat-u": dict(scale=17, edge_factor=8),
    },
    "smoke": {
        "rmat": dict(scale=10, edge_factor=16),
        "road": dict(rows=200, cols=20),
        "rmat-u": dict(scale=9, edge_factor=4),
    },
}

_PAGERANK = dict(variant="scatter", mode="bulk", iterations=10)

WORKLOADS = [
    dict(
        name="pr-rmat19-sim2",
        graph="rmat",
        algo="pagerank",
        kwargs=_PAGERANK,
        partition="degree",
        executor="sim",
        obs_probe=True,
        why="Dense, byte-bound scatter PageRank in one process: ScatterCombine "
        "serialize dominates and runtime/parallel is bypassed.",
    ),
    dict(
        name="pr-rmat19-proc2",
        graph="rmat",
        algo="pagerank",
        kwargs=_PAGERANK,
        partition="degree",
        executor="process",
        why="The same problem on 2 worker processes: pool spawn, shm rings and "
        "result collection, which is most of its wall today.",
    ),
    dict(
        name="sssp-road-proc2",
        graph="road",
        algo="sssp",
        kwargs=dict(variant="basic", mode="bulk"),
        partition="hash",
        executor="process",
        why="Thousands of tiny supersteps on a high-diameter road grid: barrier, "
        "vote and per-superstep fixed cost dominate, per-byte kernels do not.",
    ),
    dict(
        name="sv-rmat17-sim2",
        graph="rmat-u",
        algo="sv",
        kwargs=dict(variant="both"),
        partition="hash",
        executor="sim",
        why="The paper's flagship channel composition on the scalar API: per-vertex "
        "compute dominates and every superstep has two exchange rounds.",
    ),
]


def workload(name: str) -> dict:
    for w in WORKLOADS:
        if w["name"] == name:
            return w
    raise KeyError(name)
