"""Community detection by label propagation (LPA, Raghavan et al.).

Synchronous LPA: every vertex starts in its own community and repeatedly
adopts the most frequent label among its neighbors (ties -> smallest
label).  Runs a fixed number of rounds — synchronous LPA can oscillate,
so the round cap is part of the algorithm's contract.

Vertices need the full per-neighbor label multiset (a frequency count,
not a reduction), making this a DirectMessage workload.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import DirectMessage, ProgramSpec, Vertex, VertexProgram
from repro.graph.graph import Graph
from repro.programs import factory
from repro.runtime.serialization import INT32
from repro.util import check_count

__all__ = ["LabelPropagation", "run_lpa"]


class LabelPropagation(VertexProgram):
    rounds = 10

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = DirectMessage(worker, value_codec=INT32)
        self.label = np.zeros(worker.num_local, dtype=np.int64)

    def _broadcast(self, v: Vertex) -> None:
        lbl = int(self.label[v.local])
        send = self.msg.send_message
        for e in v.edges:
            send(int(e), lbl)

    def compute(self, v: Vertex) -> None:
        i = v.local
        if self.step_num == 1:
            self.label[i] = v.id
        else:
            heard = self.msg.get_iterator(v)
            if heard.size:
                counts = Counter(heard.tolist())
                best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
                self.label[i] = best[0]
        if self.step_num <= self.rounds:
            self._broadcast(v)
        else:
            v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.label)


def run_lpa(graph: Graph, rounds: int = 10, **engine_kwargs):
    """Run synchronous LPA; returns ``(labels, EngineResult)``."""
    rounds = check_count("rounds", rounds)
    program = ProgramSpec(factory("lpa"), {"rounds": rounds})
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices), result
