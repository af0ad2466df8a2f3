"""Incremental WCC: hash-min warm-started only across insertions.

Old labels are converged hash-min labels (the min vertex id of each weak
component).  Hash-min is a monotone MIN program: a label can only fall,
so a warm start is exact exactly when no component can split
(KickStarter's observation).  One rule on the batch picks the plan:

* **insert-only** (or empty): insertions can only merge components, so
  the previous labels warm-start the run, new vertices start at their
  own ids, and only the insertion endpoints wake; the usual hash-min
  wave re-labels the losing side of each merge.  Untouched components
  are never activated.
* **any deleted arc** (a vertex tombstone's arcs included): a deletion
  may split a component, and a split would have to raise labels, which
  hash-min cannot do — so the epoch runs cold: all vertices active,
  every label starting at its own id.

The refresh program is the library's
:class:`~repro.algorithms.wcc.WCCBasicBulk`: in superstep 1 each seeded
vertex broadcasts its *warm* label instead of its own id.  Since labels
are exact ints under a MIN combine, the final labels are bit-identical
to a cold full run on the mutated graph.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.wcc import WCCBasicBulk, run_wcc
from repro.core import ProgramSpec
from repro.graph.graph import Graph
from repro.streaming.delta import ApplyStats
from repro.streaming.plan import RefreshPlan, StreamAlgorithm

__all__ = ["WCCStream"]


class WCCStream(StreamAlgorithm):
    def plan(
        self,
        old_graph: Graph,
        new_graph: Graph,
        stats: ApplyStats | None,
        state: dict | None,
        refresh: str,
    ) -> RefreshPlan:
        n_new = new_graph.num_vertices
        if refresh == "full" or state is None or stats is None or stats.del_src.size:
            warm = None
            plan_seeds, affected, mode = None, n_new, "full"
        else:
            labels = state["labels"]
            warm = np.concatenate(
                [labels, np.arange(labels.size, n_new, dtype=np.int64)]
            )
            # component-merge wakeup: insertion endpoints re-announce labels
            seed = np.zeros(n_new, dtype=bool)
            seed[stats.ins_src] = True
            seed[stats.ins_dst] = True
            plan_seeds = np.flatnonzero(seed)
            affected, mode = int(plan_seeds.size), "incremental"

        program = ProgramSpec(WCCBasicBulk, {"warm_labels": warm})
        return RefreshPlan(
            program_factory=program, seeds=plan_seeds, affected=affected, mode=mode
        )

    def collect(self, engine, result) -> dict:
        labels = np.zeros(engine.graph.num_vertices, dtype=np.int64)
        for v, lab in result.data.items():
            labels[v] = lab
        return {"labels": labels}

    def cold_run(self, graph: Graph, num_workers: int, partition: np.ndarray):
        return run_wcc(
            graph,
            variant="basic",
            mode="bulk",
            num_workers=num_workers,
            partition=partition,
        )
