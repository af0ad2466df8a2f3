"""PageRank with channels (Fig. 1 of the paper).

Two variants:

* ``PageRankBasic`` — a ``CombinedMessage`` for rank shares plus an
  ``Aggregator`` collecting dead-end rank (the paper's Fig. 1 verbatim).
* ``PageRankScatter`` — the one-line change of Section III-B: the message
  channel becomes a ``ScatterCombine`` (static messaging pattern), which
  the paper reports as a 3.03–3.16× speedup with ~1/3 fewer message bytes.
  That third is against a baseline that already combines at the sender:
  it is the 4-byte destination id no longer sent beside each 8-byte value
  (here: sent once, in the first scatter).  Against this repo's
  ``PageRankBasic``, whose ``CombinedMessage`` combines only at the
  receiver, sender-side combining is the larger cut (86 % fewer bytes on
  a scale-13 RMAT at 4 workers).

Each variant also has a bulk port (``mode="bulk"`` on :func:`run_pagerank`)
whose ``compute_bulk`` replaces the per-vertex Python loop with whole
-active-set NumPy passes; results and channel traffic are identical to the
scalar path (see ARCHITECTURE.md).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    Aggregator,
    BulkVertexProgram,
    CombinedMessage,
    MirroredScatter,
    ProgramSpec,
    ScatterCombine,
    SUM_F64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory
from repro.util import check_count

__all__ = [
    "PageRankBasic",
    "PageRankScatter",
    "PageRankMirrored",
    "PageRankBasicBulk",
    "PageRankScatterBulk",
    "PageRankMirroredBulk",
    "run_pagerank",
]

DAMPING = 0.85
DEFAULT_ITERS = 30


class _PageRankBase(VertexProgram):
    """Common PageRank logic; subclasses provide the message channel."""

    iterations = DEFAULT_ITERS

    def __init__(self, worker):
        super().__init__(worker)
        self.agg = Aggregator(worker, SUM_F64)
        self.rank = np.zeros(worker.num_local)

    # subclasses: read the combined share sum for v
    def _incoming(self, v: Vertex) -> float:
        raise NotImplementedError

    # subclasses: send share to all of v's out-edges
    def _outgoing(self, v: Vertex, share: float) -> None:
        raise NotImplementedError

    def _setup(self, v: Vertex) -> None:
        """First-superstep channel initialization hook."""

    def compute(self, v: Vertex) -> None:
        n = self.num_vertices
        if self.step_num == 1:
            self._setup(v)
            self.rank[v.local] = 1.0 / n
        else:
            # s: rank mass collected from dead ends, redistributed uniformly
            s = self.agg.result() / n
            self.rank[v.local] = (1.0 - DAMPING) / n + DAMPING * (
                self._incoming(v) + s
            )
        if self.step_num <= self.iterations:
            num_edges = v.out_degree
            if num_edges > 0:
                self._outgoing(v, self.rank[v.local] / num_edges)
            else:
                self.agg.add(self.rank[v.local])
        else:
            v.vote_to_halt()

    def finalize(self) -> dict:
        return self.vertex_results(self.rank)


class PageRankBasic(_PageRankBase):
    """Standard-channel PageRank (CombinedMessage + Aggregator)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)

    def _incoming(self, v: Vertex) -> float:
        return float(self.msg.get_message(v))

    def _outgoing(self, v: Vertex, share: float) -> None:
        send = self.msg.send_message
        for e in v.edges:
            send(int(e), share)


class PageRankScatter(_PageRankBase):
    """ScatterCombine PageRank — the paper's one-line optimization."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)

    def _setup(self, v: Vertex) -> None:
        if v.out_degree > 0:
            self.msg.add_edges(v, v.edges)

    def _incoming(self, v: Vertex) -> float:
        return float(self.msg.get_message(v))

    def _outgoing(self, v: Vertex, share: float) -> None:
        self.msg.set_message(v, share)


class PageRankMirrored(PageRankScatter):
    """PageRank over the :class:`MirroredScatter` extension channel
    (mirroring as a channel: a vertex with at least the channel's default
    threshold of edges into a worker sends it its own value, which the
    worker folds along the vertex's row)."""

    def __init__(self, worker):
        _PageRankBase.__init__(self, worker)
        self.msg = MirroredScatter(worker, SUM_F64)


class _PageRankBulkBase(BulkVertexProgram):
    """Columnar PageRank: the scalar per-vertex recurrence applied to the
    whole active set at once.  Channel construction order matches
    :class:`_PageRankBase` so per-channel metrics labels line up."""

    iterations = DEFAULT_ITERS

    def __init__(self, worker):
        super().__init__(worker)
        self.agg = Aggregator(worker, SUM_F64)
        self.rank = np.zeros(worker.num_local)

    # subclasses: full-length combined-inbox array (indexed by local idx)
    def _incoming_bulk(self) -> np.ndarray:
        raise NotImplementedError

    # subclasses: scatter shares[i] along senders[i]'s degrees[i] out-edges
    def _outgoing_bulk(
        self, adj, senders: np.ndarray, degrees: np.ndarray, shares: np.ndarray
    ) -> None:
        raise NotImplementedError

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        n = self.num_vertices
        # every vertex active (all of PageRank but a seeded or streaming
        # run): whole-array slices and the adjacency's static degree split
        # give what indexing by ``active`` would, element for element
        everyone = active.size == self.num_local
        rows = slice(None) if everyone else active
        if self.step_num == 1:
            self.rank[rows] = 1.0 / n
        else:
            # s: rank mass collected from dead ends, redistributed uniformly
            s = self.agg.result() / n
            incoming = self._incoming_bulk()
            self.rank[rows] = (1.0 - DAMPING) / n + DAMPING * (incoming[rows] + s)
        if self.step_num <= self.iterations:
            if everyone:
                # (the split holds a mask of the rows with edges; indexing
                # by a mask is several times slower than by its indices)
                has_edges, degrees = adj.degree_split
                senders, dead = np.flatnonzero(has_edges), np.flatnonzero(~has_edges)
            else:
                deg = adj.degrees[active]
                has_out = deg > 0
                senders, degrees, dead = active[has_out], deg[has_out], active[~has_out]
            if senders.size:
                self._outgoing_bulk(adj, senders, degrees, self.rank[senders] / degrees)
            if dead.size:
                self.agg.add_bulk(self.rank[dead])
        else:
            worker.halt_bulk(active)

    def finalize(self) -> dict:
        return self.vertex_results(self.rank)


class PageRankBasicBulk(_PageRankBulkBase):
    """Bulk port of :class:`PageRankBasic` (CombinedMessage + Aggregator)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)

    def _incoming_bulk(self) -> np.ndarray:
        return self.msg.get_messages()[0]

    def _outgoing_bulk(self, adj, senders, degrees, shares) -> None:
        self.msg.send_messages(adj.gather(senders), np.repeat(shares, degrees))


class PageRankScatterBulk(_PageRankBulkBase):
    """Bulk port of :class:`PageRankScatter` (static scatter pattern)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)
        self.msg.add_adjacency("out")

    def _incoming_bulk(self) -> np.ndarray:
        return self.msg.get_messages()[0]

    def _outgoing_bulk(self, adj, senders, degrees, shares) -> None:
        self.msg.set_messages(senders, shares)


class PageRankMirroredBulk(PageRankScatterBulk):
    """Bulk port of :class:`PageRankMirrored`."""

    def __init__(self, worker):
        _PageRankBulkBase.__init__(self, worker)
        self.msg = MirroredScatter(worker, SUM_F64)
        self.msg.add_adjacency("out")


def run_pagerank(
    graph: Graph,
    variant: str = "basic",
    iterations: int = DEFAULT_ITERS,
    mode: str = "scalar",
    **engine_kwargs,
):
    """Run PageRank; returns ``(ranks, EngineResult)``.

    ``variant`` is ``"basic"``, ``"scatter"``, or ``"mirror"``;
    ``mode`` selects the per-vertex (``"scalar"``) or whole-active-set
    (``"bulk"``) compute path — both produce identical ranks and traffic
    whenever every vertex is active in superstep 1 (every plain run).

    Under a seeded first superstep (``initial_active=``) the ``scatter``
    and ``mirror`` variants differ by mode: the scalar listing registers
    the static out-edges of the vertices active in superstep 1 only, so a
    vertex first woken later scatters along no edge and its share is
    dropped; the bulk programs register the whole local adjacency
    (``add_adjacency``: all rows, whoever is active), and a static channel
    sends along every registered edge once any vertex of the worker set a
    message (the combiner's identity for a vertex that set none), so a
    worker's first scatter wakes everything its rows point at.  ``basic``
    has no static edge set and agrees in both modes.
    """
    iterations = check_count("iterations", iterations)
    base = factory("pagerank", "channel", variant, mode)
    program = ProgramSpec(base, {"iterations": iterations})
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices, dtype=np.float64), result
