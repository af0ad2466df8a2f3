"""Weakly connected components via HCC hash-min (Kang et al.'s HCC,
the paper's Table V bottom workload).

Every vertex holds the minimum vertex id it has heard of; improvements
propagate to neighbors.  On a directed input the label must flow both
ways (weak connectivity), so programs operate on out- plus in-edges.

* ``WCCBasic`` — one ``CombinedMessage(MIN)`` per superstep; converges in
  O(diameter) supersteps.
* ``WCCPropagation`` — the ``Propagation`` channel: the whole fixpoint
  runs inside one superstep's exchange rounds (paper: up to 5.02× faster,
  especially on partitioned inputs).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    BulkVertexProgram,
    CombinedMessage,
    MIN_ID,
    Propagation,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import VERTEX_ID, Graph
from repro.programs import factory

__all__ = ["WCCBasic", "WCCBasicBulk", "WCCPropagation", "run_wcc"]


def _undirected_neighbors(v: Vertex) -> np.ndarray:
    """Out- plus in-neighbors (weak connectivity ignores direction)."""
    g = v._worker.graph
    if not g.directed:
        return v.edges
    return np.concatenate([g.neighbors(v.id), g.in_neighbors(v.id)])


class WCCBasic(VertexProgram):
    """Hash-min with a standard combined-message channel."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_ID)
        self.label = np.zeros(worker.num_local, dtype=VERTEX_ID)

    def compute(self, v: Vertex) -> None:
        i = v.local
        if self.step_num == 1:
            self.label[i] = v.id
            new = v.id
        else:
            m = self.msg.get_message(v)
            if m >= self.label[i]:
                v.vote_to_halt()
                return
            self.label[i] = m
            new = int(m)
        send = self.msg.send_message
        for e in _undirected_neighbors(v):
            send(int(e), new)
        v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.label)


class WCCBasicBulk(BulkVertexProgram):
    """Bulk port of :class:`WCCBasic`: hash-min over whole frontiers.

    Uses the worker's ``"both"``-direction local CSR, whose per-row order
    (out-edges then in-edges) matches ``_undirected_neighbors`` — so the
    wire traffic is record-for-record identical to the scalar program.

    Superstep 1 broadcasts every active vertex's label.  ``warm_labels``
    (indexed by global id) warm-starts the labels, as a streaming refresh
    does from the previous epoch's (KickStarter); ``None`` starts each
    vertex from its own id.
    """

    warm_labels: np.ndarray | None = None

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_ID)
        ids = worker.local_ids
        if self.warm_labels is None:
            self.label = ids.copy()
        else:
            self.label = self.warm_labels.take(ids).astype(VERTEX_ID)

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency("both")
        if self.step_num == 1:
            senders = active
            new = self.label[active]
        else:
            inbox, _ = self.msg.get_messages()
            m = inbox[active]
            improved = m < self.label[active]
            senders = active[improved]
            new = m[improved]
            self.label[senders] = new
        if senders.size:
            dsts = adj.gather(senders)
            self.msg.send_messages(dsts, np.repeat(new, adj.degrees[senders]))
        worker.halt_bulk(active)

    def finalize(self) -> dict:
        return self.vertex_results(self.label)


class WCCPropagation(VertexProgram):
    """Hash-min on the Propagation channel — converges within one
    superstep's exchange rounds."""

    def __init__(self, worker):
        super().__init__(worker)
        self.prop = Propagation(worker, MIN_ID)
        self.label = np.zeros(worker.num_local, dtype=VERTEX_ID)

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            self.prop.add_edges(v, _undirected_neighbors(v))
            self.prop.set_value(v, v.id)
        else:
            self.label[v.local] = self.prop.get_value(v)
            v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.label)


def run_wcc(graph: Graph, variant: str = "basic", mode: str = "scalar", **engine_kwargs):
    """Run WCC; returns ``(labels, EngineResult)`` where ``labels[v]`` is
    the minimum vertex id of v's weak component.

    ``variant`` is ``"basic"`` or ``"prop"``; ``mode="bulk"`` selects the
    columnar compute path (``"basic"`` only).
    """
    program = factory("wcc", "channel", variant, mode)
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices), result
