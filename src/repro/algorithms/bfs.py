"""Breadth-first search levels (hop distance from a source).

The unweighted special case of SSSP; included because it is the
propagation channel's best case (pure frontier expansion, one superstep
per hop in the basic version, one superstep total with Propagation).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    BulkVertexProgram,
    CombinedMessage,
    MIN_I64,
    ProgramSpec,
    Propagation,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory
from repro.util import check_vertex

__all__ = ["BFSBasic", "BFSBasicBulk", "BFSPropagation", "run_bfs"]

UNREACHED = np.iinfo(np.int64).max


class BFSBasic(VertexProgram):
    """Frontier BFS: each superstep advances one hop."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_I64)
        self.level = np.full(worker.num_local, UNREACHED, dtype=np.int64)

    def _settle(self, v: Vertex, level: int) -> None:
        self.level[v.local] = level
        send = self.msg.send_message
        for e in v.edges:
            send(int(e), level + 1)

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            if v.id == self.source:
                self._settle(v, 0)
        else:
            m = int(self.msg.get_message(v))
            if m < self.level[v.local]:
                self._settle(v, m)
        v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.level)


class BFSBasicBulk(BulkVertexProgram):
    """Bulk port of :class:`BFSBasic`: the whole frontier settles and
    scatters ``level + 1`` in one set of array passes per superstep."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_I64)
        self.level = np.full(worker.num_local, UNREACHED, dtype=np.int64)

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        if self.step_num == 1:
            li = worker.local_index(self.source)
            settled = (
                np.asarray([li], dtype=np.int64) if li >= 0 else np.empty(0, np.int64)
            )
            levels = np.zeros(settled.size, dtype=np.int64)
        else:
            inbox, _ = self.msg.get_messages()
            m = inbox[active]
            improved = m < self.level[active]
            settled = active[improved]
            levels = m[improved]
        if settled.size:
            self.level[settled] = levels
            dsts = adj.gather(settled)
            self.msg.send_messages(dsts, np.repeat(levels + 1, adj.degrees[settled]))
        worker.halt_bulk(active)

    def finalize(self) -> dict:
        return self.vertex_results(self.level)


class BFSPropagation(VertexProgram):
    """BFS on the Propagation channel: ``level + 1`` relaxation to
    fixpoint within a single superstep."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.prop = Propagation(
            worker, MIN_I64, edge_fn=lambda w, lvl: lvl + 1
        )
        self.level = np.full(worker.num_local, UNREACHED, dtype=np.int64)

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            self.prop.add_edges(v, v.edges)
            if v.id == self.source:
                self.prop.set_value(v, 0)
        else:
            self.level[v.local] = self.prop.get_value(v)
            v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.level)


def run_bfs(
    graph: Graph,
    source: int = 0,
    variant: str = "basic",
    mode: str = "scalar",
    **engine_kwargs,
):
    """Run BFS; returns ``(levels, EngineResult)``.

    ``levels[v]`` is the hop distance from ``source``, an int in
    ``[0, V)`` (``np.iinfo(int64).max`` when unreachable).
    ``mode="bulk"`` selects the columnar compute path (``"basic"`` only).
    """
    source = check_vertex("source", source, graph.num_vertices)
    program = ProgramSpec(factory("bfs", "channel", variant, mode), {"source": source})
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices), result
