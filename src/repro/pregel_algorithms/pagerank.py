"""PageRank on the Pregel+ baseline (basic and ghost modes)."""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core.combiner import SUM_F64
from repro.core.program import ProgramSpec
from repro.graph.graph import Graph
from repro.pregel import PregelProgram, pregel_plus
from repro.programs import factory
from repro.runtime.serialization import FLOAT64
from repro.util import check_count

__all__ = ["PageRankPregel", "run_pagerank_pregel"]

DAMPING = 0.85


class PageRankPregel(PregelProgram):
    """Pregel+ PageRank: float messages, global sum combiner, aggregator
    for the dead-end sink."""

    iterations = 30
    message_codec = FLOAT64
    combiner = SUM_F64
    aggregator_combiner = SUM_F64

    def __init__(self, worker):
        super().__init__(worker)
        self.rank = np.zeros(worker.num_local)

    def compute(self, v, messages) -> None:
        n = self.num_vertices
        if self.step_num == 1:
            self.rank[v.local] = 1.0 / n
        else:
            s = (self.agg_result or 0.0) / n
            m = messages if messages is not None else 0.0
            self.rank[v.local] = (1.0 - DAMPING) / n + DAMPING * (m + s)
        if self.step_num <= self.iterations:
            if v.out_degree > 0:
                v.broadcast(self.rank[v.local] / v.out_degree)
            else:
                self.aggregate(self.rank[v.local])
        else:
            v.vote_to_halt()

    def finalize(self) -> dict:
        return {int(g): float(self.rank[i]) for i, g in enumerate(self.worker.local_ids)}


def run_pagerank_pregel(
    graph: Graph,
    variant: str = "basic",
    iterations: int = 30,
    ghost_threshold: int = 16,
    **engine_kwargs,
):
    """Run Pregel+ PageRank; ``variant`` is ``"basic"`` or ``"ghost"``.
    Returns ``(ranks, EngineResult)``."""
    iterations = check_count("iterations", iterations)
    program = ProgramSpec(factory("pagerank", "pregel", variant), {"iterations": iterations})
    result = run_engine(graph, pregel_plus(program, variant, ghost_threshold), **engine_kwargs)
    return gather(result, graph.num_vertices, dtype=np.float64), result
