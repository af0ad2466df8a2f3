"""Incremental SSSP: delta-faithful re-relaxation with deletion-triggered
invalidation.

Distances only ever *shrink* under Bellman-Ford relaxation, so the two
halves of a delta need different treatment:

* **insertions** can only shorten paths — seeding the inserted arcs'
  sources and re-relaxing converges from the warm distances directly.
* **deletions** can lengthen paths, so warm distances that *depended* on a
  deleted arc are poison.  The planner walks the old shortest-path DAG
  downstream from each deleted arc (``dist[v] == dist[u] + w``, exact FP
  equality — the stored distances were produced by that very addition)
  and invalidates the closure back to ``inf``.  Surviving in-neighbors of
  the invalidated region are seeded to re-relax it.

The refresh program is the library's
:class:`~repro.algorithms.sssp.SSSPBasicBulk`, warm-started from the
planned distances (KickStarter's warm start).  Its superstep-1
announcements go only to destinations that can use them: the
invalidated region plus inserted arcs' heads.  Dropping the rest is
sound — for a surviving arc ``(u, v)`` between surviving vertices, the
old fixed point already guarantees ``dist(v) <= dist(u) + w`` — and
spares the flood of no-op messages a large boundary would otherwise
send.

Because relaxation's fixed point on the mutated graph is unique — path
lengths are folded left-to-right along each path in both runs and MIN is
exact — the refreshed distances are bit-identical to a cold full run.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.sssp import SSSPBasicBulk, run_sssp
from repro.core import ProgramSpec
from repro.graph.graph import Graph
from repro.streaming.delta import ApplyStats
from repro.streaming.plan import RefreshPlan, StreamAlgorithm, in_neighbor_mask
from repro.util import check_vertex, expand_ranges

__all__ = ["SSSPStream", "invalidated_by_deletions"]


def invalidated_by_deletions(
    old_graph: Graph, dist: np.ndarray, stats: ApplyStats, source: int
) -> np.ndarray:
    """Boolean mask of vertices whose warm distance may have flowed
    through a deleted arc (downstream closure over the old SP-DAG)."""
    n = old_graph.num_vertices
    inval = np.zeros(n, dtype=bool)
    if stats.del_src.size == 0:
        return inval
    w = (
        stats.del_weights
        if stats.del_weights is not None
        else np.ones(stats.del_src.size)
    )
    u, v = stats.del_src, stats.del_dst
    hit = np.isfinite(dist[u]) & (dist[v] == dist[u] + w) & (v != source)
    frontier = np.unique(v[hit])
    indptr, indices, weights = old_graph.indptr, old_graph.indices, old_graph.weights
    while frontier.size:
        inval[frontier] = True
        deg = indptr[frontier + 1] - indptr[frontier]
        pos = expand_ranges(indptr[frontier], deg)
        x = indices[pos]
        wx = np.ones(x.size) if weights is None else weights[pos]
        p = np.repeat(frontier, deg)
        ok = (
            (x != source)
            & ~inval[x]
            & np.isfinite(dist[p])
            & (dist[x] == dist[p] + wx)
        )
        frontier = np.unique(x[ok])
    return inval


class SSSPStream(StreamAlgorithm):
    """``source`` must be an int vertex id of the stream's graph; each
    plan checks it."""

    def __init__(self, source: int = 0):
        self.source = source

    def plan(
        self,
        old_graph: Graph,
        new_graph: Graph,
        stats: ApplyStats | None,
        state: dict | None,
        refresh: str,
    ) -> RefreshPlan:
        n_new = new_graph.num_vertices
        source = check_vertex("source", self.source, n_new)
        if refresh == "full" or state is None or stats is None:
            warm = targets = None
            plan_seeds, affected, mode = None, n_new, "full"
        else:
            dist = state["dist"]
            n_old = dist.size
            inval = invalidated_by_deletions(old_graph, dist, stats, source)
            warm = np.concatenate([dist, np.full(n_new - n_old, np.inf)])
            warm[:n_old][inval] = np.inf
            seed = np.zeros(n_new, dtype=bool)
            # surviving boundary: whoever can still reach the invalidated
            # region in the new graph re-announces its distance
            if inval.any():
                inval_new = np.zeros(n_new, dtype=bool)
                inval_new[:n_old] = inval
                seed |= in_neighbor_mask(new_graph, inval_new)
            seed[stats.ins_src] = True
            seed &= np.isfinite(warm)  # silent vertices need not wake
            plan_seeds = np.flatnonzero(seed)
            affected = int(inval.sum() + stats.ins_src.size)
            mode = "incremental"
            # step-1 announcements only help where warm state was torn up
            targets = np.zeros(n_new, dtype=bool)
            targets[:n_old] = inval
            targets[stats.ins_dst] = True

        program = ProgramSpec(
            SSSPBasicBulk,
            {"source": source, "warm_dist": warm, "announce_targets": targets},
        )
        return RefreshPlan(
            program_factory=program, seeds=plan_seeds, affected=affected, mode=mode
        )

    def collect(self, engine, result) -> dict:
        dist = np.full(engine.graph.num_vertices, np.inf)
        for v, d in result.data.items():
            dist[v] = d
        return {"dist": dist}

    def cold_run(self, graph: Graph, num_workers: int, partition: np.ndarray):
        return run_sssp(
            graph,
            source=self.source,
            variant="basic",
            mode="bulk",
            num_workers=num_workers,
            partition=partition,
        )
