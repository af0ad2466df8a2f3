"""Single-source shortest paths (weighted, non-negative).

Not part of the paper's tables but one of its motivating algorithms;
included as a library algorithm and example workload.

* ``SSSPBasic`` — Bellman-Ford-style relaxation over a
  ``CombinedMessage(MIN)`` channel, the classic Pregel SSSP.
* ``SSSPPropagation`` — the ``Propagation`` channel with
  ``edge_fn = dist + w``: the relaxation runs to fixpoint inside one
  superstep.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    BulkVertexProgram,
    CombinedMessage,
    MIN_F64,
    ProgramSpec,
    Propagation,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory
from repro.util import check_vertex

__all__ = ["SSSPBasic", "SSSPBasicBulk", "SSSPPropagation", "run_sssp"]


def _weights(v: Vertex) -> np.ndarray:
    g = v._worker.graph
    if g.weighted:
        return v.edge_weights
    return np.ones(v.out_degree)


class SSSPBasic(VertexProgram):
    """Pregel-style SSSP: relax on message arrival."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_F64)
        self.dist = np.full(worker.num_local, np.inf)

    def _relax(self, v: Vertex, d: float) -> None:
        self.dist[v.local] = d
        send = self.msg.send_message
        for e, w in zip(v.edges, _weights(v)):
            send(int(e), d + float(w))

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            if v.id == self.source:
                self._relax(v, 0.0)
        else:
            m = float(self.msg.get_message(v))
            if m < self.dist[v.local]:
                self._relax(v, m)
        v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.dist)


class SSSPBasicBulk(BulkVertexProgram):
    """Bulk port of :class:`SSSPBasic`: Bellman-Ford relaxation with whole
    -frontier edge gathers (weights come from the local CSR view).

    Superstep 1 announces ``dist + w`` from every active vertex with a
    finite distance.  ``warm_dist`` (indexed by global id) warm-starts
    the distances, as a streaming refresh does from the previous epoch's
    (KickStarter); ``None`` means 0 at ``source`` and ``inf`` elsewhere,
    the cold kick-off.  ``announce_targets`` (a boolean mask by global
    id) restricts superstep 1's announcements to those destinations;
    ``None`` sends to every destination.
    """

    source = 0
    warm_dist: np.ndarray | None = None
    announce_targets: np.ndarray | None = None

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_F64)
        if self.warm_dist is None:
            self.dist = np.full(worker.num_local, np.inf)
            li = worker.local_index(self.source)
            if li >= 0:
                self.dist[li] = 0.0
        else:
            self.dist = self.warm_dist[worker.local_ids]

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        if self.step_num == 1:
            settled = active[np.isfinite(self.dist[active])]
            dists = self.dist[settled]
        else:
            inbox, _ = self.msg.get_messages()
            m = inbox[active]
            improved = m < self.dist[active]
            settled = active[improved]
            dists = m[improved]
            self.dist[settled] = dists
        if settled.size:
            dsts = adj.gather(settled)
            vals = np.repeat(dists, adj.degrees[settled]) + adj.gather_weights(settled)
            if self.step_num == 1 and self.announce_targets is not None:
                keep = self.announce_targets[dsts]
                dsts, vals = dsts[keep], vals[keep]
            self.msg.send_messages(dsts, vals)
        worker.halt_bulk(active)

    def finalize(self) -> dict:
        return self.vertex_results(self.dist)


class SSSPPropagation(VertexProgram):
    """SSSP on the Propagation channel (weighted relaxation to fixpoint)."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.prop = Propagation(worker, MIN_F64, edge_fn=lambda w, d: w + d)
        self.dist = np.full(worker.num_local, np.inf)

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            self.prop.add_edges(v, v.edges, _weights(v))
            if v.id == self.source:
                self.prop.set_value(v, 0.0)
        else:
            self.dist[v.local] = self.prop.get_value(v)
            v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.dist)


def run_sssp(
    graph: Graph,
    source: int = 0,
    variant: str = "basic",
    mode: str = "scalar",
    **engine_kwargs,
):
    """Run SSSP; returns ``(dists, EngineResult)`` (inf = unreachable).

    ``source`` must be an int in ``[0, V)``; ``mode="bulk"`` selects the
    columnar compute path (``"basic"`` only).
    """
    source = check_vertex("source", source, graph.num_vertices)
    program = ProgramSpec(factory("sssp", "channel", variant, mode), {"source": source})
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices, dtype=np.float64), result
