"""HCC hash-min WCC on the Pregel+ baseline.

WCC is single-message-type (a label, typed as a vertex id), so Pregel's global combiner
*is* applicable here — message bytes match the channel version exactly
(Table IV/V show identical sizes); only the receive-path costs differ.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import ID, MIN_ID
from repro.graph.graph import VERTEX_ID, Graph
from repro.pregel import PregelProgram, pregel_plus
from repro.programs import factory

__all__ = ["WCCPregel", "run_wcc_pregel"]


class WCCPregel(PregelProgram):
    message_codec = ID
    combiner = MIN_ID

    def __init__(self, worker):
        super().__init__(worker)
        self.label = np.zeros(worker.num_local, dtype=VERTEX_ID)

    def _neighbors(self, v) -> np.ndarray:
        g = self.worker.graph
        if not g.directed:
            return v.edges
        return np.concatenate([g.neighbors(v.id), g.in_neighbors(v.id)])

    def compute(self, v, messages) -> None:
        i = v.local
        if self.step_num == 1:
            self.label[i] = v.id
            new = v.id
        else:
            m = messages if messages is not None else None
            if m is None or m >= self.label[i]:
                v.vote_to_halt()
                return
            self.label[i] = m
            new = int(m)
        for e in self._neighbors(v):
            v.send_message(int(e), new)
        v.vote_to_halt()

    def finalize(self) -> dict:
        return {int(g): int(self.label[i]) for i, g in enumerate(self.worker.local_ids)}


def run_wcc_pregel(graph: Graph, **engine_kwargs):
    """Run Pregel+ WCC; returns ``(labels, EngineResult)``."""
    result = run_engine(graph, pregel_plus(factory("wcc", "pregel")), **engine_kwargs)
    return gather(result, graph.num_vertices), result
