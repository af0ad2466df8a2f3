"""Incremental PageRank: iteration-faithful selective recomputation.

Fixed-iteration PageRank is *not* a fixed-point algorithm — ``rank_k(v)``
is a function of v's k-step in-dependency cone — so a warm-started
power iteration would converge to merely-close values.  Instead, the
previous epoch retains its **per-iteration rank history** (``hist[k]`` =
everyone's rank after superstep k, plus the dead-end aggregate read at
each step), and the refresh recomputes only the vertices whose
dependency cone the delta actually pierced:

* The *dirty closure* ``D_k`` (vertices whose rank at step k may differ
  from history) is purely structural — seeded by the endpoints of
  changed arcs, grown one out-neighbor hop per iteration — so the
  planner derives the whole refresh schedule centrally from the new
  graph's CSR when the batch is applied, the same broadcast that ships
  the batch itself.  (Its cost is not network-modeled, exactly like
  graph loading.)
* At step k, all in-neighbors of ``D_{k+1}`` re-send their shares
  (history for clean vertices, recomputed for dirty ones), filtered to
  dirty targets.  A dirty vertex therefore receives *every* in-share in
  the same per-worker arrival order as a cold run, so its recombined sum
  is bit-identical — not just close.
* The dead-end aggregate ``s`` is global: the first iteration where a
  dead end turns dirty (or the dead-end set changes, or the vertex count
  changes) poisons ``s`` and the schedule degrades to a full recompute
  from that step on.  Degrading is a *performance* event, never a
  correctness one.

With an all-dirty schedule the program replays the cold
:class:`~repro.algorithms.pagerank.PageRankBasicBulk` exactly (same
messages, same aggregates) while recording history — that is both the
bootstrap epoch and the ``refresh="full"`` baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.pagerank import DAMPING, run_pagerank
from repro.core import Aggregator, BulkVertexProgram, CombinedMessage, ProgramSpec, SUM_F64
from repro.graph.graph import Graph
from repro.runtime.checkpoint import decode_state
from repro.streaming.delta import ApplyStats
from repro.streaming.plan import RefreshPlan, StreamAlgorithm, out_neighbor_mask, in_neighbor_mask
from repro.util import check_count

__all__ = [
    "PageRankSchedule",
    "build_pagerank_schedule",
    "PageRankIncrementalBulk",
    "PageRankStream",
]


@dataclass
class PageRankSchedule:
    """Per-superstep refresh plan (all masks are global, rows 1..T+1).

    ``dirty[k]`` — ranks recomputed at step k; ``senders[k]`` — vertices
    re-sending shares at step k (rows 1..T); ``agg[k]`` — whether dead
    ends contribute to the aggregator at step k; ``active[k]`` — the
    union the engine actually wakes.  ``full`` marks an all-dirty
    schedule (history unusable, e.g. after a vertex-count change).
    """

    iterations: int
    dirty: np.ndarray
    senders: np.ndarray
    agg: np.ndarray
    active: np.ndarray
    full: bool

    @property
    def affected(self) -> int:
        """Vertices whose rank is recomputed at any step."""
        return int(self.dirty.any(axis=0).sum())


def build_pagerank_schedule(
    graph: Graph,
    stats: ApplyStats | None,
    old_dead: np.ndarray | None,
    iterations: int,
    full: bool,
) -> PageRankSchedule:
    """Derive the structural refresh schedule from the mutated graph."""
    T = iterations
    n = graph.num_vertices
    deg = graph.out_degrees
    dead = deg == 0
    dirty = np.zeros((T + 2, n), dtype=bool)
    senders = np.zeros((T + 2, n), dtype=bool)
    agg = np.zeros(T + 2, dtype=bool)

    full = bool(
        full or stats is None or old_dead is None or stats.vertex_set_changed
    )
    if full:
        dirty[1 : T + 2] = True
        senders[1 : T + 1] = deg > 0
        agg[1 : T + 1] = True
        active = dirty.copy()
        return PageRankSchedule(T, dirty, senders, agg, active, True)

    changed_src = np.zeros(n, dtype=bool)
    changed_src[stats.ins_src] = True
    changed_src[stats.del_src] = True
    changed_dst = np.zeros(n, dtype=bool)
    changed_dst[stats.ins_dst] = True
    changed_dst[stats.del_dst] = True

    dead_changed = not np.array_equal(dead, old_dead)
    # rank_1 = 1/n is delta-independent, so D_1 stays empty; the closure
    # starts at step 2.  s read at step k sums dead-end ranks from k-1.
    cur = np.zeros(n, dtype=bool)
    for k in range(2, T + 2):
        s_dirty = dead_changed or (cur & dead).any()
        if s_dirty:
            cur = np.ones(n, dtype=bool)
        elif not cur.all():
            cur = cur | out_neighbor_mask(graph, cur | changed_src) | changed_dst
        dirty[k] = cur
        agg[k - 1] = s_dirty
        if cur.all():
            send_row = deg > 0
        else:
            send_row = in_neighbor_mask(graph, cur)
        senders[k - 1] = send_row

    active = dirty.copy()
    active[1 : T + 1] |= senders[1 : T + 1]
    for k in range(1, T + 1):
        if agg[k]:
            active[k] |= dead
    # keep-alive: the BSP loop stops at the first globally empty
    # superstep, so an empty step borrows the next non-empty step's
    # participants (they wake, do nothing, and halt)
    for k in range(T, 0, -1):
        if not active[k].any() and active[k + 1].any():
            active[k] = active[k + 1]
    return PageRankSchedule(T, dirty, senders, agg, active, False)


class PageRankIncrementalBulk(BulkVertexProgram):
    """Schedule-driven PageRank refresh (see the module docstring).

    Class attributes baked in by the planner: ``schedule``, ``hist`` /
    ``hist_s`` (previous-epoch history; ``None`` when the schedule is
    full), and ``iterations``.  Channel construction order matches
    :class:`~repro.algorithms.pagerank.PageRankBasicBulk` so per-channel
    traffic labels line up in comparisons.
    """

    iterations: int
    schedule: PageRankSchedule
    hist: np.ndarray | None  # (T+2, n) global rank history
    hist_s: np.ndarray | None  # (T+2,) aggregate read at each step

    def __init__(self, worker):
        super().__init__(worker)
        self.agg = Aggregator(worker, SUM_F64)
        self.msg = CombinedMessage(worker, SUM_F64)
        li = worker.local_ids
        T = self.iterations
        if self.hist is not None:
            self.new_hist = self.hist[:, li].copy()
            self.new_hist_s = self.hist_s.copy()
            self.rank = self.new_hist[T + 1].copy()
        else:
            self.new_hist = np.zeros((T + 2, worker.num_local))
            self.new_hist_s = np.zeros(T + 2)
            self.rank = np.zeros(worker.num_local)
        self._dead = np.flatnonzero(worker.local_adjacency().degrees == 0)

    def before_superstep(self) -> None:
        nk = self.worker.step_num + 1
        if nk <= self.iterations + 1:
            wake = np.flatnonzero(self.schedule.active[nk][self.worker.local_ids])
            if wake.size:
                self.worker.activate_local_bulk(wake)

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        sched = self.schedule
        li = worker.local_ids
        k, T, n = self.step_num, self.iterations, self.num_vertices

        if k == 1:
            # rank_1 is 1/n regardless of the delta
            self.rank[:] = 1.0 / n
            s_raw = 0.0
        else:
            s_raw = self.agg.result() if sched.agg[k - 1] else self.hist_s[k]
            s = s_raw / n
            if not sched.full:
                self.rank[:] = self.hist[k][li]  # clean baseline
            idx = np.flatnonzero(sched.dirty[k][li])
            if idx.size:
                incoming, _ = self.msg.get_messages()
                self.rank[idx] = (1.0 - DAMPING) / n + DAMPING * (incoming[idx] + s)
        self.new_hist[k] = self.rank
        self.new_hist_s[k] = s_raw

        if k <= T:
            snd = np.flatnonzero(sched.senders[k][li])
            deg = adj.degrees[snd]
            has_out = deg > 0
            snd, deg = snd[has_out], deg[has_out]
            if snd.size:
                shares = self.rank[snd] / deg
                dsts = adj.gather(snd)
                vals = np.repeat(shares, deg)
                nxt = sched.dirty[k + 1]
                if not nxt.all():
                    keep = nxt[dsts]
                    dsts, vals = dsts[keep], vals[keep]
                self.msg.send_messages(dsts, vals)
            if sched.agg[k] and self._dead.size:
                self.agg.add_bulk(self.rank[self._dead])
        worker.halt_bulk(active)

    def finalize(self) -> dict:
        # NOT self.rank: a worker whose last scheduled participation was
        # as a sender (or dead-end aggregator) at some step k <= T holds
        # rank_k there — new_hist[T+1] is right for idle and active
        # workers alike (history baseline for clean rows, recomputed
        # values where this worker was dirty at the final step)
        final = self.new_hist[self.iterations + 1]
        return self.vertex_results(final)


class PageRankStream(StreamAlgorithm):
    def __init__(self, iterations: int = 10):
        self.iterations = check_count("iterations", iterations)

    def plan(
        self,
        old_graph: Graph,
        new_graph: Graph,
        stats: ApplyStats | None,
        state: dict | None,
        refresh: str,
    ) -> RefreshPlan:
        full = refresh == "full" or state is None or stats is None
        old_dead = None if old_graph is None else old_graph.out_degrees == 0
        sched = build_pagerank_schedule(
            new_graph, stats, old_dead, self.iterations, full
        )
        attrs = {
            "iterations": self.iterations,
            "schedule": sched,
            "hist": None if sched.full else state["hist"],
            "hist_s": None if sched.full else state["hist_s"],
        }
        program = ProgramSpec(PageRankIncrementalBulk, attrs)
        seeds = None if sched.full else np.flatnonzero(sched.active[1])
        return RefreshPlan(
            program_factory=program,
            seeds=seeds,
            affected=sched.affected,
            mode="full" if sched.full else "incremental",
        )

    def collect(self, engine, result) -> dict:
        # the history is program state, not a result: read it off a
        # capture, which works wherever the workers ran
        n = engine.graph.num_vertices
        hist = np.zeros((self.iterations + 2, n))
        hist_s = None
        for w, blob in enumerate(engine.backend.capture_state_blobs()):
            program = decode_state(blob)["program"]
            local_ids = np.flatnonzero(engine.owner == w)
            hist[:, local_ids] = program["new_hist"]
            if hist_s is None and local_ids.size > 0:
                hist_s = program["new_hist_s"]
        return {"hist": hist, "hist_s": hist_s}

    def cold_run(self, graph: Graph, num_workers: int, partition: np.ndarray):
        return run_pagerank(
            graph,
            variant="basic",
            iterations=self.iterations,
            mode="bulk",
            num_workers=num_workers,
            partition=partition,
        )

