"""The Shiloach–Vishkin (S-V) connected-components algorithm —
the paper's flagship example of *composing* optimized channels
(Section III-C, Tables IV and VI).

Each round every vertex ``u`` of the disjoint-set forest either

* **tree merging** — if its parent ``D[u]`` is a root: compute
  ``t = min(D[e] for e in Nbr[u])`` and, when ``t < D[u]``, ask the root
  to point at ``t`` (min-combined remote update), or
* **pointer jumping** — otherwise shortcut ``D[u] := D[D[u]]``,

until ``D`` stabilizes (checked with an aggregator).  Three communication
patterns appear simultaneously, and each maps to a channel choice:

==================  ==========================  ==========================
pattern             basic channel               optimized channel
==================  ==========================  ==========================
read ``D[D[u]]``    two DirectMessage channels  RequestRespond
neighbor minimum    CombinedMessage(MIN)        ScatterCombine(MIN)
root update         CombinedMessage(MIN)        (already optimal)
==================  ==========================  ==========================

The four Table VI variants are the flags ``use_reqresp`` and
``use_scatter`` bound on one program by a :class:`~repro.core.ProgramSpec`
(the rows of :data:`repro.programs.PROGRAMS`).
A round costs 4 supersteps with the request/reply emulation and 3 with
the RequestRespond channel.

Each variant exists twice: the per-vertex listing (``mode="scalar"``, the
paper's program text) and its columnar port (``mode="bulk"``), which runs
every phase over the whole active set and is bit-identical to it in
results and traffic.  With ``use_scatter`` the port names its local
adjacency as the ``ScatterCombine``'s edge set where the listing registers
``v.edges`` per vertex, so its checkpoints hold a direction instead of two
edge columns; every other snapshot key is equal.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    Aggregator,
    BulkVertexProgram,
    CombinedMessage,
    DirectMessage,
    MIN_I32,
    RequestRespond,
    ScatterCombine,
    SUM_I64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory
from repro.runtime.serialization import INT32
from repro.util import expand_ranges

__all__ = ["run_sv"]


class _SVChannels(VertexProgram):
    """What the scalar and bulk programs share: channels chosen by class
    flags, state arrays, the phase cycle."""

    use_reqresp = False
    use_scatter = False

    def __init__(self, worker):
        super().__init__(worker)
        if self.use_reqresp:
            self.rr = RequestRespond(
                worker,
                respond_fn=lambda v: int(self.D[v.local]),
                codec=INT32,
                respond_fn_bulk=lambda idx: self.D[idx],
            )
        else:
            self.req = DirectMessage(worker, value_codec=INT32)
            self.reply = DirectMessage(worker, value_codec=INT32)
        if self.use_scatter:
            self.bcast = ScatterCombine(worker, MIN_I32)
        else:
            self.bcast = CombinedMessage(worker, MIN_I32)
        self.upd = CombinedMessage(worker, MIN_I32)
        self.agg = Aggregator(worker, SUM_I64)

        self.D = np.zeros(worker.num_local, dtype=np.int64)
        self.tmin = np.zeros(worker.num_local, dtype=np.int64)
        self.changed = np.zeros(worker.num_local, dtype=np.int8)

    # -- phase plumbing ------------------------------------------------------
    @property
    def cycle(self) -> int:
        return 3 if self.use_reqresp else 4

    def _phase(self) -> int:
        return (self.step_num - 1) % self.cycle + 1

    def finalize(self) -> dict:
        return self.vertex_results(self.D)


class _SVBase(_SVChannels):
    """The per-vertex listing."""

    # -- per-phase actions -----------------------------------------------------
    def _start_round(self, v: Vertex) -> None:
        """Phase 1: ask for the grandparent, broadcast D to neighbors."""
        i = v.local
        if self.step_num == 1:
            self.D[i] = v.id
            if self.use_scatter and v.out_degree > 0:
                self.bcast.add_edges(v, v.edges)
        elif self.agg.result() == 0:
            v.vote_to_halt()
            return
        d = int(self.D[i])
        if self.use_reqresp:
            self.rr.add_request(v, d)
        else:
            self.req.send_message(d, v.id)
        if self.use_scatter:
            self.bcast.set_message(v, d)
        else:
            send = self.bcast.send_message
            for e in v.edges:
                send(int(e), d)

    def _answer_and_gather(self, v: Vertex) -> None:
        """Phase 2 (basic only): answer pointer requests, store the
        neighborhood minimum."""
        i = v.local
        d = int(self.D[i])
        for requester in self.req.get_iterator(v):
            self.reply.send_message(int(requester), d)
        self.tmin[i] = self.bcast.get_message(v)

    def _merge_or_jump(self, v: Vertex, gp: int, t: int) -> None:
        """The branch of the Palgol listing: tree merging vs jumping."""
        i = v.local
        d = int(self.D[i])
        if gp == d:
            # parent is a root: propose the neighborhood minimum to it
            if t < d:
                self.upd.send_message(d, t)
        else:
            # pointer jumping (path halving)
            self.D[i] = gp
            self.changed[i] = 1

    def _apply_updates(self, v: Vertex) -> None:
        """Last phase: roots adopt the minimum proposal; count changes."""
        i = v.local
        delta = int(self.changed[i])
        self.changed[i] = 0
        m = int(self.upd.get_message(v))
        if m < self.D[i]:
            self.D[i] = m
            delta += 1
        self.agg.add(delta)

    # -- dispatch ---------------------------------------------------------------
    def compute(self, v: Vertex) -> None:
        phase = self._phase()
        if self.use_reqresp:
            if phase == 1:
                self._start_round(v)
            elif phase == 2:
                gp = int(self.rr.get_respond(int(self.D[v.local])))
                t = int(self.bcast.get_message(v))
                self._merge_or_jump(v, gp, t)
            else:
                self._apply_updates(v)
        else:
            if phase == 1:
                self._start_round(v)
            elif phase == 2:
                self._answer_and_gather(v)
            elif phase == 3:
                replies = self.reply.get_iterator(v)
                gp = int(replies[0])
                self._merge_or_jump(v, gp, int(self.tmin[v.local]))
            else:
                self._apply_updates(v)


class _SVBulk(BulkVertexProgram, _SVChannels):
    """Columnar port of :class:`_SVBase`: each phase over the whole active
    set, records in the order the per-vertex loop emits them."""

    def __init__(self, worker):
        super().__init__(worker)
        if self.use_scatter:
            self.bcast.add_adjacency("out")

    def _start_round(self, active: np.ndarray) -> None:
        """Phase 1: ask for the grandparent, broadcast D to neighbors."""
        if self.step_num == 1:
            self.D[active] = self.worker.local_ids[active]
        elif self.agg.result() == 0:
            self.worker.halt_bulk(active)
            return
        d = self.D[active]
        if self.use_reqresp:
            self.rr.add_requests(active, d)
        else:
            self.req.send_messages(d, self.worker.local_ids[active])
        if self.use_scatter:
            self.bcast.set_messages(active, d)
        else:
            adj = self.worker.local_adjacency("out")
            self.bcast.send_messages(
                adj.gather(active), np.repeat(d, adj.degrees[active])
            )

    def _answer_and_gather(self, active: np.ndarray) -> None:
        """Phase 2 (basic only): answer pointer requests, store the
        neighborhood minimum."""
        indptr, requesters = self.req.get_messages()
        counts = np.diff(indptr)[active]
        self.reply.send_messages(
            requesters[expand_ranges(indptr[active], counts)],
            np.repeat(self.D[active], counts),
        )
        self.tmin[active] = self.bcast.get_messages()[0][active]

    def _merge_or_jump(self, active: np.ndarray, gp: np.ndarray, t: np.ndarray) -> None:
        """The branch of the Palgol listing: tree merging vs jumping."""
        d = self.D[active]
        at_root = gp == d
        # parent is a root: propose the neighborhood minimum to it
        propose = at_root & (t < d)
        self.upd.send_messages(d[propose], t[propose])
        # pointer jumping (path halving)
        jump = active[~at_root]
        self.D[jump] = gp[~at_root]
        self.changed[jump] = 1

    def _apply_updates(self, active: np.ndarray) -> None:
        """Last phase: roots adopt the minimum proposal; count changes."""
        delta = self.changed[active].astype(np.int64)
        self.changed[active] = 0
        m = self.upd.get_messages()[0][active]
        adopt = m < self.D[active]
        self.D[active[adopt]] = m[adopt]
        self.agg.add_bulk(delta + adopt)

    def compute_bulk(self, active: np.ndarray) -> None:
        phase = self._phase()
        if phase == 1:
            self._start_round(active)
        elif phase == self.cycle:
            self._apply_updates(active)
        elif self.use_reqresp:
            gp = self.rr.get_responds(self.D[active])
            self._merge_or_jump(active, gp, self.bcast.get_messages()[0][active])
        elif phase == 2:
            self._answer_and_gather(active)
        else:
            indptr, replies = self.reply.get_messages()
            self._merge_or_jump(active, replies[indptr[active]], self.tmin[active])


def run_sv(graph: Graph, variant: str = "basic", mode: str = "bulk", **engine_kwargs):
    """Run S-V connected components; returns ``(labels, EngineResult)``.

    ``labels[v]`` is the minimum vertex id of v's component.  ``variant``
    is one of ``basic`` / ``reqresp`` / ``scatter`` / ``both``; ``mode``
    selects the columnar port (``"bulk"``, the default: it is bit-identical
    to the listing in results and traffic) or the paper's per-vertex
    listing (``"scalar"``).

    The modes can differ only under a seeded first superstep
    (``initial_active=``) with ``scatter`` / ``both``: the listing
    registers ``v.edges`` for the vertices active in superstep 1, the port
    the whole local adjacency (``add_adjacency``: all rows, whoever is
    active), so a vertex first woken later broadcasts to its neighbors in
    bulk mode and to nobody in scalar mode.
    """
    program = factory("sv", "channel", variant, mode)
    result = run_engine(graph, program, **engine_kwargs)
    return gather(result, graph.num_vertices), result
