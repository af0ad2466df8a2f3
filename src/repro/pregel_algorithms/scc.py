"""Min-Label SCC on the Pregel+ baseline.

Four message purposes (two trim pings, forward labels, backward labels)
share one tagged monolithic type and rule out any global combiner, so
every label message is delivered and folded individually — the receive
cost and message width the channel version avoids (Table IV: channel SCC
halves the message size; Table VII adds the Propagation speedup that no
Pregel mode can express).

Pregel supports one aggregator here, so the two counters the controller
needs (propagation changes, surviving vertices) travel as a pair.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core.combiner import Combiner
from repro.graph.graph import Graph
from repro.pregel import PregelProgram, pregel_plus
from repro.programs import factory
from repro.runtime.serialization import INT32, INT64, struct_codec

__all__ = ["SCCPregel", "run_scc_pregel"]

TAGGED = struct_codec([("tag", INT32), ("val", INT32)], name="scc_tagged")
TAG_PING_IN, TAG_PING_OUT, TAG_FWD, TAG_BWD = range(4)

_I32_MAX = int(np.iinfo(np.int32).max)

#: (propagation changes, alive survivors) summed pairwise
PAIR_SUM = Combiner(
    fn=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    identity=(0, 0),
    codec=struct_codec([("a", INT64), ("b", INT64)], name="pair_i64"),
    ufunc=None,
    name="pair_sum",
)


class SCCPregel(PregelProgram):
    message_codec = TAGGED
    combiner = None
    aggregator_combiner = PAIR_SUM

    def __init__(self, worker):
        super().__init__(worker)
        n = worker.num_local
        self.alive = np.ones(n, dtype=bool)
        self.scc = np.full(n, -1, dtype=np.int64)
        self.fwd = np.full(n, _I32_MAX, dtype=np.int64)
        self.bwd = np.full(n, _I32_MAX, dtype=np.int64)
        self.state = "init"

    # -- controller --------------------------------------------------------
    def before_superstep(self) -> None:
        s = self.state
        if s == "init":
            self.state = "ping"
        elif s == "ping":
            self.state = "apply"
            self._wake_alive()
        elif s == "apply":
            self.state = "prop"
        elif s == "prop":
            changes = (self.agg_result or (0, 0))[0]
            if changes == 0:
                self.state = "detect"
                self._wake_alive()
        elif s == "detect":
            self.state = "ping"

    def _wake_alive(self) -> None:
        self.worker.activate_local_bulk(np.flatnonzero(self.alive))

    # -- vertex logic -----------------------------------------------------------
    def compute(self, v, messages) -> None:
        i = v.local
        if not self.alive[i]:
            v.vote_to_halt()
            return
        msgs = messages if messages else []
        s = self.state
        g = self.worker.graph
        if s == "ping":
            for e in g.neighbors(v.id):
                v.send_message(int(e), (TAG_PING_IN, 1))
            for e in g.in_neighbors(v.id):
                v.send_message(int(e), (TAG_PING_OUT, 1))
        elif s == "apply":
            has_in = any(tag == TAG_PING_IN for tag, _ in msgs)
            has_out = any(tag == TAG_PING_OUT for tag, _ in msgs)
            if not (has_in and has_out):
                self._die(v, v.id)
                return
            self.fwd[i] = v.id
            self.bwd[i] = v.id
            self._forward(v, v.id)
            self._backward(v, v.id)
            self.aggregate((1, 0))
        elif s == "prop":
            changed = 0
            mf = min((val for tag, val in msgs if tag == TAG_FWD), default=_I32_MAX)
            if mf < self.fwd[i]:
                self.fwd[i] = mf
                self._forward(v, mf)
                changed += 1
            mb = min((val for tag, val in msgs if tag == TAG_BWD), default=_I32_MAX)
            if mb < self.bwd[i]:
                self.bwd[i] = mb
                self._backward(v, mb)
                changed += 1
            self.aggregate((changed, 0))
        elif s == "detect":
            if self.fwd[i] == self.bwd[i]:
                self._die(v, int(self.fwd[i]))
            else:
                self.fwd[i] = _I32_MAX
                self.bwd[i] = _I32_MAX
                self.aggregate((0, 1))

    def _die(self, v, label: int) -> None:
        self.alive[v.local] = False
        self.scc[v.local] = label
        v.vote_to_halt()

    def _forward(self, v, label: int) -> None:
        for e in self.worker.graph.neighbors(v.id):
            v.send_message(int(e), (TAG_FWD, label))

    def _backward(self, v, label: int) -> None:
        for e in self.worker.graph.in_neighbors(v.id):
            v.send_message(int(e), (TAG_BWD, label))

    def finalize(self) -> dict:
        return {int(g): int(self.scc[i]) for i, g in enumerate(self.worker.local_ids)}


def run_scc_pregel(graph: Graph, **engine_kwargs):
    """Run Pregel+ Min-Label SCC; returns ``(labels, EngineResult)``."""
    if not graph.directed:
        raise ValueError("SCC needs a directed graph")
    result = run_engine(graph, pregel_plus(factory("scc", "pregel")), **engine_kwargs)
    return gather(result, graph.num_vertices), result
