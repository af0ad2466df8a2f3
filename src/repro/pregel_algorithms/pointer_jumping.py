"""Pointer jumping on the Pregel+ baseline (basic and reqresp modes)."""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.graph.graph import Graph
from repro.pregel import PregelProgram, pregel_plus
from repro.programs import factory
from repro.runtime.serialization import INT32

__all__ = ["PJPregelBasic", "PJPregelReqResp", "run_pointer_jumping_pregel"]


def _init_parent(v) -> int:
    nb = v.edges
    return int(nb[0]) if nb.size else v.id


class PJPregelBasic(PregelProgram):
    """Parity-scheduled basic pointer jumping.

    With one monolithic int32 message type, requester ids and pointer
    replies are indistinguishable by content, so the conversation is
    scheduled by superstep parity: odd supersteps send/receive replies
    (jump), even supersteps deliver requests (answer them).  One jump
    therefore costs two supersteps — the cost the reqresp pattern halves.
    """

    message_codec = INT32

    def __init__(self, worker):
        super().__init__(worker)
        self.D = np.zeros(worker.num_local, dtype=np.int64)
        self.done = np.zeros(worker.num_local, dtype=bool)

    def compute(self, v, messages) -> None:
        i = v.local
        if self.step_num == 1:
            self.D[i] = _init_parent(v)
            if self.D[i] == v.id:
                self.done[i] = True
                v.vote_to_halt()
            else:
                v.send_message(int(self.D[i]), v.id)
            return
        msgs = messages if messages else []
        if self.step_num % 2 == 0:
            # request-delivery superstep: answer each requester
            d = int(self.D[i])
            for requester in msgs:
                v.send_message(int(requester), d)
            if self.done[i]:
                v.vote_to_halt()
        else:
            # reply-delivery superstep: jump
            if self.done[i]:
                v.vote_to_halt()
                return
            if msgs:
                p = int(self.D[i])
                gp = int(msgs[0])
                if gp == p:
                    self.done[i] = True
                    v.vote_to_halt()
                else:
                    self.D[i] = gp
                    v.send_message(gp, v.id)

    def finalize(self) -> dict:
        return {int(g): int(self.D[i]) for i, g in enumerate(self.worker.local_ids)}


class PJPregelReqResp(PregelProgram):
    """Pregel+ reqresp-mode pointer jumping (the paper's Table V row that
    is *slower* than basic despite fewer bytes, due to per-request hash
    bookkeeping and (id, value) response echoes)."""

    message_codec = INT32

    def __init__(self, worker):
        super().__init__(worker)
        self.D = np.zeros(worker.num_local, dtype=np.int64)

    def respond_value(self, local_idx: int):
        return int(self.D[local_idx])

    def compute(self, v, messages) -> None:
        i = v.local
        if self.step_num == 1:
            self.D[i] = _init_parent(v)
            if self.D[i] == v.id:
                v.vote_to_halt()
            else:
                v.request(int(self.D[i]))
            return
        p = int(self.D[i])
        gp = int(v.get_resp(p))
        if gp == p:
            v.vote_to_halt()
        else:
            self.D[i] = gp
            v.request(gp)

    def finalize(self) -> dict:
        return {int(g): int(self.D[i]) for i, g in enumerate(self.worker.local_ids)}


def run_pointer_jumping_pregel(graph: Graph, variant: str = "basic", **engine_kwargs):
    """Run Pregel+ pointer jumping; ``variant`` is ``"basic"`` or
    ``"reqresp"``.  Returns ``(roots, EngineResult)``."""
    program = factory("pj", "pregel", variant)
    result = run_engine(graph, pregel_plus(program, variant), **engine_kwargs)
    return gather(result, graph.num_vertices), result
