"""Minimum spanning forest via distributed Boruvka
(Chung & Condon's parallel Boruvka, the paper's MSF workload).

Each Boruvka round, over the current component graph:

1. **pick** — every component root picks its minimum-weight incident edge
   (totally ordered by ``(w, min_endpoint, max_endpoint)`` so ties are
   impossible) and points its disjoint-set pointer at the other side;
2. **cycle resolution** — the pointer graph is a pseudo-forest whose only
   cycles are 2-cycles of components that picked the same edge; the
   smaller id becomes the merged root, and the edge joins the forest once;
3. **pointer jumping** — every vertex (current and former roots alike)
   shortcuts its pointer until the structure is a forest of stars;
4. **relabel & ship** — edge holders rewrite each edge's endpoint to its
   new component root (a query/reply conversation), drop now-internal
   edges, and ship the survivors to their new root.

Rounds repeat until no inter-component edge survives.  MSF exercises the
paper's *heterogeneous message* point: pointer traffic is a single int
while edge records are a 4-field struct, so a monolithic Pregel message
type must widen everything to the edge record (Table IV shows the
resulting 23–44% message overhead).

This module is the channel version (one minimal codec per channel);
:mod:`repro.pregel_algorithms.msf` is the monolithic baseline.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import run_engine
from repro.core import (
    Aggregator,
    DirectMessage,
    SUM_I64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory
from repro.runtime.serialization import INT32, pair_codec, struct_codec, FLOAT32

__all__ = ["MSFBasic", "run_msf", "EDGE_CODEC"]

#: the "4-tuple of integer values for storing an edge": original endpoints,
#: weight, and the destination component
EDGE_CODEC = struct_codec(
    [("ou", INT32), ("ov", INT32), ("w", FLOAT32), ("dst", INT32)], name="msf_edge"
)
#: relabel replies carry (queried component, its new root)
PAIR_I32 = pair_codec(INT32, INT32, name="msf_pair")


def _edge_key(w: float, ou: int, ov: int) -> tuple:
    """Total order over edges: weight, then normalized original endpoints.

    Uniqueness of the minimum is what limits pointer cycles to 2-cycles
    (any longer cycle would need equal-key edges)."""
    return (w, min(ou, ov), max(ou, ov))


class MSFBasic(VertexProgram):
    """Boruvka MSF on standard channels.

    Per-vertex state: a disjoint-set pointer ``D`` and, for edge holders,
    the list of surviving edges ``(ou, ov, w, dst_component)``.
    """

    def __init__(self, worker):
        super().__init__(worker)
        # pointer conversations (int32 payloads)
        self.cyc_q = DirectMessage(worker, value_codec=INT32)  # pick queries
        self.cyc_r = DirectMessage(worker, value_codec=INT32)  # D[c] replies
        self.jreq = DirectMessage(worker, value_codec=INT32)
        self.jrep = DirectMessage(worker, value_codec=INT32)
        # relabel conversation
        self.rel_q = DirectMessage(worker, value_codec=INT32)
        self.rel_r = DirectMessage(worker, value_codec=PAIR_I32)
        # edge shipping (the wide messages)
        self.ship = DirectMessage(worker, value_codec=EDGE_CODEC)
        self.agg = Aggregator(worker, SUM_I64)

        n = worker.num_local
        self.D = np.full(n, -1, dtype=np.int64)
        self.edges: list[list[tuple]] = [[] for _ in range(n)]  # (ou, ov, w, dst)
        self.pending_pick: list[tuple | None] = [None] * n
        self.jdone = np.zeros(n, dtype=bool)
        self.forest: list[tuple] = []  # (ou, ov, w)
        self.state = "init"

    # -- controller (runs identically on every worker) ---------------------
    def before_superstep(self) -> None:
        s = self.state
        if s == "init":
            self.state = "pick"  # everyone starts active holding its edges
        elif s == "pick":
            self.state = "cycle_reply"
        elif s == "cycle_reply":
            self.state = "cycle_resolve"
        elif s == "cycle_resolve":
            self.state = "jump_send"
            self.jdone[:] = False
            self.worker.activate_local_bulk(np.arange(self.worker.num_local))
        elif s == "jump_send":
            # result = number of vertices that sent a jump query last step;
            # zero means every pointer already reaches a root
            if self.agg.result() == 0:
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
            # result = edges shipped; zero means the forest is complete
            if self.agg.result() == 0:
                self.state = "end"
            else:
                self.state = "pick"

    def _wake_holders(self) -> None:
        holders = [i for i, e in enumerate(self.edges) if e]
        if holders:
            self.worker.activate_local_bulk(np.asarray(holders, dtype=np.int64))

    # -- dispatch -------------------------------------------------------------
    def compute(self, v: Vertex) -> None:
        s = self.state
        if s == "pick":
            self._phase_pick(v)
        elif s == "cycle_reply":
            self._phase_cycle_reply(v)
        elif s == "cycle_resolve":
            self._phase_cycle_resolve(v)
        elif s == "jump_send":
            self._phase_jump_send(v)
        elif s == "jump_reply":
            self._phase_jump_reply(v)
        elif s == "relabel_query":
            self._phase_relabel_query(v)
        elif s == "relabel_reply":
            self._phase_relabel_reply(v)
        elif s == "ship":
            self._phase_ship(v)
        else:  # "end"
            v.vote_to_halt()

    # -- phases -----------------------------------------------------------------
    def _phase_pick(self, v: Vertex) -> None:
        i = v.local
        if self.D[i] == -1:
            # first round: adopt the input adjacency as component edges
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
        # merge edges shipped to me at the end of the previous round
        for rec in self.ship.get_iterator(v):
            self.edges[i].append(
                (int(rec["ou"]), int(rec["ov"]), float(rec["w"]), int(rec["dst"]))
            )
        if not self.edges[i]:
            v.vote_to_halt()
            return
        best = min(self.edges[i], key=lambda e: _edge_key(e[2], e[0], e[1]))
        self.pending_pick[i] = best
        c = best[3]
        self.D[i] = c
        self.cyc_q.send_message(c, v.id)

    def _phase_cycle_reply(self, v: Vertex) -> None:
        d = int(self.D[v.local])
        for requester in self.cyc_q.get_iterator(v):
            self.cyc_r.send_message(int(requester), d)

    def _phase_cycle_resolve(self, v: Vertex) -> None:
        i = v.local
        replies = self.cyc_r.get_iterator(v)
        if replies.size == 0:
            return  # not a picker (was only answering queries)
        best = self.pending_pick[i]
        self.pending_pick[i] = None
        c = int(self.D[i])
        dc = int(replies[0])
        if dc == v.id and v.id < c:
            # 2-cycle: I win the merge and become the root; my partner
            # records our shared minimum edge
            self.D[i] = v.id
        else:
            self.forest.append((best[0], best[1], best[2]))

    def _phase_jump_send(self, v: Vertex) -> None:
        i = v.local
        if self.jdone[i]:
            return
        replies = self.jrep.get_iterator(v)
        if replies.size:
            p = int(self.D[i])
            gp = int(replies[0])
            if gp == p:
                self.jdone[i] = True  # parent is a root
                return
            self.D[i] = gp
        d = int(self.D[i])
        if d == v.id:
            self.jdone[i] = True
            return
        self.jreq.send_message(d, v.id)
        self.agg.add(1)

    def _phase_jump_reply(self, v: Vertex) -> None:
        d = int(self.D[v.local])
        for requester in self.jreq.get_iterator(v):
            self.jrep.send_message(int(requester), d)

    def _phase_relabel_query(self, v: Vertex) -> None:
        targets = {e[3] for e in self.edges[v.local]}
        for c in sorted(targets):
            self.rel_q.send_message(c, v.id)

    def _phase_relabel_reply(self, v: Vertex) -> None:
        d = int(self.D[v.local])
        for requester in self.rel_q.get_iterator(v):
            self.rel_r.send_message(int(requester), (v.id, d))

    def _phase_ship(self, v: Vertex) -> None:
        i = v.local
        root = {int(r["a"]): int(r["b"]) for r in self.rel_r.get_iterator(v)}
        my_root = int(self.D[i])
        shipped = 0
        for ou, ov, w, dst in self.edges[i]:
            new_dst = root[dst]
            if new_dst == my_root:
                continue  # both sides merged: the edge became internal
            self.ship.send_message(my_root, (ou, ov, w, new_dst))
            shipped += 1
        self.edges[i] = []
        self.agg.add(shipped)
        v.vote_to_halt()

    def finalize(self) -> dict:
        total = sum(w for _, _, w in self.forest)
        return {
            f"forest_{self.worker.worker_id}": list(self.forest),
            f"weight_{self.worker.worker_id}": total,
        }


def run_msf(graph: Graph, **engine_kwargs):
    """Run Boruvka MSF; returns ``(forest_edges, total_weight, EngineResult)``.

    ``forest_edges`` is a list of ``(u, v, w)`` in original vertex ids.
    """
    if graph.directed:
        raise ValueError("MSF needs an undirected graph")
    result = run_engine(graph, factory("msf"), **engine_kwargs)
    forest: list[tuple] = []
    weight = 0.0
    for key, val in result.data.items():
        if str(key).startswith("forest_"):
            forest.extend(val)
        elif str(key).startswith("weight_"):
            weight += val
    return forest, weight, result
