"""Boruvka MSF on the Pregel+ baseline.

The paper singles MSF out as "a typical example that uses heterogeneous
messages": the largest message stores an edge record while the smallest
is a single int.  With one monolithic type, every pointer query and reply
is shipped in the full edge-record width — the message overhead Table IV
reports (23–44%).

The phase structure is identical to :class:`repro.algorithms.msf.MSFBasic`;
only the message layer differs.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import run_engine
from repro.core.combiner import SUM_I64
from repro.graph.graph import Graph
from repro.pregel import PregelProgram, pregel_plus
from repro.programs import factory
from repro.runtime.serialization import FLOAT32, INT32, struct_codec

__all__ = ["MSFPregel", "run_msf_pregel"]

#: monolithic union: tag + the widest variant (an edge record)
TAGGED_EDGE = struct_codec(
    [("tag", INT32), ("a", INT32), ("b", INT32), ("c", INT32), ("w", FLOAT32)],
    name="msf_tagged",
)

(
    TAG_CYC_Q,
    TAG_CYC_R,
    TAG_JREQ,
    TAG_JREP,
    TAG_REL_Q,
    TAG_REL_R,
    TAG_SHIP,
) = range(7)


def _edge_key(w: float, ou: int, ov: int) -> tuple:
    return (w, min(ou, ov), max(ou, ov))


class MSFPregel(PregelProgram):
    message_codec = TAGGED_EDGE
    combiner = None
    aggregator_combiner = SUM_I64

    def __init__(self, worker):
        super().__init__(worker)
        n = worker.num_local
        self.D = np.full(n, -1, dtype=np.int64)
        self.edges: list[list[tuple]] = [[] for _ in range(n)]
        self.pending_pick: list[tuple | None] = [None] * n
        self.jdone = np.zeros(n, dtype=bool)
        self.forest: list[tuple] = []
        self.state = "init"

    # -- controller (identical to the channel version) ----------------------
    def before_superstep(self) -> None:
        s = self.state
        if s == "init":
            self.state = "pick"
        elif s == "pick":
            self.state = "cycle_reply"
        elif s == "cycle_reply":
            self.state = "cycle_resolve"
        elif s == "cycle_resolve":
            self.state = "jump_send"
            self.jdone[:] = False
            self.worker.activate_local_bulk(np.arange(self.worker.num_local))
        elif s == "jump_send":
            if (self.agg_result or 0) == 0:
                self.state = "relabel_query"
                self._wake_holders()
            else:
                self.state = "jump_reply"
        elif s == "jump_reply":
            self.state = "jump_send"
        elif s == "relabel_query":
            self.state = "relabel_reply"
        elif s == "relabel_reply":
            self.state = "ship"
        elif s == "ship":
            if (self.agg_result or 0) == 0:
                self.state = "end"
            else:
                self.state = "pick"

    def _wake_holders(self) -> None:
        holders = [i for i, e in enumerate(self.edges) if e]
        if holders:
            self.worker.activate_local_bulk(np.asarray(holders, dtype=np.int64))

    # -- vertex logic ------------------------------------------------------------
    def compute(self, v, messages) -> None:
        msgs = messages if messages else []
        s = self.state
        if s == "pick":
            self._phase_pick(v, msgs)
        elif s == "cycle_reply":
            d = int(self.D[v.local])
            for m in msgs:
                if m[0] == TAG_CYC_Q:
                    v.send_message(int(m[1]), (TAG_CYC_R, d, 0, 0, 0.0))
        elif s == "cycle_resolve":
            self._phase_cycle_resolve(v, msgs)
        elif s == "jump_send":
            self._phase_jump_send(v, msgs)
        elif s == "jump_reply":
            d = int(self.D[v.local])
            for m in msgs:
                if m[0] == TAG_JREQ:
                    v.send_message(int(m[1]), (TAG_JREP, d, 0, 0, 0.0))
        elif s == "relabel_query":
            targets = {e[3] for e in self.edges[v.local]}
            for c in sorted(targets):
                v.send_message(int(c), (TAG_REL_Q, v.id, 0, 0, 0.0))
        elif s == "relabel_reply":
            d = int(self.D[v.local])
            for m in msgs:
                if m[0] == TAG_REL_Q:
                    v.send_message(int(m[1]), (TAG_REL_R, v.id, d, 0, 0.0))
        elif s == "ship":
            self._phase_ship(v, msgs)
        else:
            v.vote_to_halt()

    def _phase_pick(self, v, msgs) -> None:
        i = v.local
        if self.D[i] == -1:
            self.D[i] = v.id
            if v.out_degree:
                ws = (
                    v.edge_weights
                    if self.worker.graph.weighted
                    else np.ones(v.out_degree)
                )
                self.edges[i] = [
                    (v.id, int(e), float(w), int(e)) for e, w in zip(v.edges, ws)
                ]
        for m in msgs:
            if m[0] == TAG_SHIP:
                self.edges[i].append((int(m[1]), int(m[2]), float(m[4]), int(m[3])))
        if not self.edges[i]:
            v.vote_to_halt()
            return
        best = min(self.edges[i], key=lambda e: _edge_key(e[2], e[0], e[1]))
        self.pending_pick[i] = best
        c = best[3]
        self.D[i] = c
        v.send_message(c, (TAG_CYC_Q, v.id, 0, 0, 0.0))

    def _phase_cycle_resolve(self, v, msgs) -> None:
        i = v.local
        replies = [m for m in msgs if m[0] == TAG_CYC_R]
        if not replies:
            return
        best = self.pending_pick[i]
        self.pending_pick[i] = None
        c = int(self.D[i])
        dc = int(replies[0][1])
        if dc == v.id and v.id < c:
            self.D[i] = v.id
        else:
            self.forest.append((best[0], best[1], best[2]))

    def _phase_jump_send(self, v, msgs) -> None:
        i = v.local
        if self.jdone[i]:
            return
        replies = [m for m in msgs if m[0] == TAG_JREP]
        if replies:
            p = int(self.D[i])
            gp = int(replies[0][1])
            if gp == p:
                self.jdone[i] = True
                return
            self.D[i] = gp
        d = int(self.D[i])
        if d == v.id:
            self.jdone[i] = True
            return
        v.send_message(d, (TAG_JREQ, v.id, 0, 0, 0.0))
        self.aggregate(1)

    def _phase_ship(self, v, msgs) -> None:
        i = v.local
        root = {int(m[1]): int(m[2]) for m in msgs if m[0] == TAG_REL_R}
        my_root = int(self.D[i])
        shipped = 0
        for ou, ov, w, dst in self.edges[i]:
            new_dst = root[dst]
            if new_dst == my_root:
                continue
            v.send_message(my_root, (TAG_SHIP, ou, ov, new_dst, w))
            shipped += 1
        self.edges[i] = []
        self.aggregate(shipped)
        v.vote_to_halt()

    def finalize(self) -> dict:
        total = sum(w for _, _, w in self.forest)
        return {
            f"forest_{self.worker.worker_id}": list(self.forest),
            f"weight_{self.worker.worker_id}": total,
        }


def run_msf_pregel(graph: Graph, **engine_kwargs):
    """Run Pregel+ Boruvka MSF; returns
    ``(forest_edges, total_weight, EngineResult)``."""
    if graph.directed:
        raise ValueError("MSF needs an undirected graph")
    result = run_engine(graph, pregel_plus(factory("msf", "pregel")), **engine_kwargs)
    forest: list[tuple] = []
    weight = 0.0
    for key, val in result.data.items():
        if str(key).startswith("forest_"):
            forest.extend(val)
        elif str(key).startswith("weight_"):
            weight += val
    return forest, weight, result
