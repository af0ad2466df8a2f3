"""Pointer jumping: every vertex of a rooted forest finds its root.

The minimal request-respond workload (Table V, middle).  Input graphs are
directed with each non-root vertex's first out-edge pointing at its
parent (what :func:`repro.graph.generators.chain` / ``random_tree``
produce).

* ``PointerJumpingBasic`` — request/reply with two ``DirectMessage``
  channels: one jump costs two supersteps (ask, answer).
* ``PointerJumpingReqResp`` — the ``RequestRespond`` channel: dedup'd
  requests, positional responses, one superstep per jump;
  ``PointerJumpingReqRespBulk`` is its columnar port (``mode="bulk"``).

Wire sizes match the paper's setup: parent pointers travel as ``int32``
("the smallest one is just an int").
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    BulkVertexProgram,
    DirectMessage,
    RequestRespond,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory
from repro.runtime.serialization import INT32

__all__ = [
    "PointerJumpingBasic",
    "PointerJumpingReqResp",
    "PointerJumpingReqRespBulk",
    "run_pointer_jumping",
]


def _init_parent(v: Vertex) -> int:
    nb = v.edges
    return int(nb[0]) if nb.size else v.id


class PointerJumpingBasic(VertexProgram):
    """Two-superstep jump cycle with plain messages.

    Odd supersteps: unfinished vertices ask their parent.  Even supersteps:
    parents answer each requester individually (per-requester replies are
    exactly the load-imbalance the request-respond pattern removes).
    """

    def __init__(self, worker):
        super().__init__(worker)
        self.req = DirectMessage(worker, value_codec=INT32)
        self.reply = DirectMessage(worker, value_codec=INT32)
        self.D = np.zeros(worker.num_local, dtype=np.int64)
        self.done = np.zeros(worker.num_local, dtype=bool)

    def compute(self, v: Vertex) -> None:
        i = v.local
        if self.step_num == 1:
            self.D[i] = _init_parent(v)
            if self.D[i] == v.id:
                self.done[i] = True
                v.vote_to_halt()
            else:
                self.req.send_message(int(self.D[i]), v.id)
            return
        # answer anyone asking for my pointer (any superstep)
        for requester in self.req.get_iterator(v):
            self.reply.send_message(int(requester), int(self.D[i]))
        if self.done[i]:
            v.vote_to_halt()
            return
        replies = self.reply.get_iterator(v)
        if replies.size:
            p = int(self.D[i])
            gp = int(replies[0])
            if gp == p:
                # parent is a root
                self.done[i] = True
                v.vote_to_halt()
            else:
                self.D[i] = gp
                self.req.send_message(gp, v.id)

    def finalize(self) -> dict:
        return self.vertex_results(self.D)


class PointerJumpingReqResp(VertexProgram):
    """One superstep per jump via the RequestRespond channel."""

    def __init__(self, worker):
        super().__init__(worker)
        self.D = np.zeros(worker.num_local, dtype=np.int64)
        self.rr = RequestRespond(
            worker,
            respond_fn=lambda v: int(self.D[v.local]),
            codec=INT32,
            respond_fn_bulk=lambda idx: self.D[idx],
        )

    def compute(self, v: Vertex) -> None:
        i = v.local
        if self.step_num == 1:
            self.D[i] = _init_parent(v)
            if self.D[i] == v.id:
                v.vote_to_halt()
            else:
                self.rr.add_request(v, int(self.D[i]))
            return
        p = int(self.D[i])
        gp = int(self.rr.get_respond(p))
        if gp == p:
            v.vote_to_halt()
        else:
            self.D[i] = gp
            self.rr.add_request(v, gp)

    def finalize(self) -> dict:
        return self.vertex_results(self.D)


class PointerJumpingReqRespBulk(BulkVertexProgram, PointerJumpingReqResp):
    """Bulk port of :class:`PointerJumpingReqResp`: every unfinished
    vertex jumps in one pass over the active set."""

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        if self.step_num == 1:
            adj = worker.local_adjacency("out")
            # the parent is the first out-edge; a vertex without one is a root
            p = worker.local_ids[active]
            gp = p.copy()
            has_parent = adj.degrees[active] > 0
            gp[has_parent] = adj.indices[adj.indptr[active[has_parent]]]
        else:
            p = self.D[active]
            gp = self.rr.get_responds(p)
        self.D[active] = gp
        done = gp == p
        worker.halt_bulk(active[done])
        self.rr.add_requests(active[~done], gp[~done])


def run_pointer_jumping(
    graph: Graph, variant: str = "basic", mode: str = "scalar", **engine_kwargs
):
    """Run pointer jumping; returns ``(roots, EngineResult)``.

    ``variant`` is ``"basic"`` or ``"reqresp"``; ``mode="bulk"`` selects
    the columnar compute path (``"reqresp"`` only).
    """
    program = factory("pj", "channel", variant, mode)
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices), result
