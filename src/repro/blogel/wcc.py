"""Blogel's hash-min connected components block program.

This is the >100-line block-level program the paper contrasts with the
10-line Propagation-channel version: the user must hand-write the
in-block fixpoint (a frontier relaxation over the block's subgraph),
boundary-message generation, and incremental re-propagation on message
arrival.  Labels travel as vertex ids (``ID``), as the channel version's
do.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.blogel.system import BlockProgram
from repro.core import ID
from repro.core.worker import Worker
from repro.graph.graph import Graph
from repro.programs import factory
from repro.util import expand_ranges, group_starts

__all__ = ["BlogelWCC", "run_wcc_blogel"]


def _fold_min(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct keys, the least value of each)``."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = group_starts(keys[order])
    return uniq, np.minimum.reduceat(values[order], starts)


class BlogelWCC(BlockProgram):
    """Hash-min WCC as a block program."""

    value_codec = ID

    def __init__(self, worker: Worker) -> None:
        super().__init__(worker)
        self.labels = self.local_ids.copy()  # init: own id
        # the block-local CSR over undirected adjacency: out-edges, then in-edges
        adj = worker.local_adjacency("both")
        self.indptr = adj.indptr
        self.edst_global = adj.indices
        self.edst_local = worker.local_index(adj.indices)  # -1 for boundary edges

    # -- the hand-written block fixpoint ------------------------------------
    def _propagate(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Push labels to a local fixpoint; return the boundary updates."""
        labels = self.labels
        indptr = self.indptr
        rdsts, rlabs = [self.edst_global[:0]], [labels[:0]]
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            eidx = expand_ranges(indptr[frontier], counts)
            if eidx.size == 0:
                break
            lab = labels[np.repeat(frontier, counts)]
            tgt_local = self.edst_local[eidx]
            remote = tgt_local < 0
            rdsts.append(self.edst_global[eidx[remote]])
            rlabs.append(lab[remote])
            mask = ~remote
            if not mask.any():
                break
            uniq, folded = _fold_min(tgt_local[mask], lab[mask])
            new = np.minimum(labels[uniq], folded)
            changed = new != labels[uniq]
            upd = uniq[changed]
            labels[upd] = new[changed]
            frontier = upd
        return _fold_min(np.concatenate(rdsts), np.concatenate(rlabs))

    def block_compute(self, incoming):
        if self.step_num == 1:
            frontier = np.arange(self.num_local)
        else:
            # fold each receiver's labels, then apply improvements
            indptr, vals = incoming
            rows = np.flatnonzero(np.diff(indptr))
            folded = np.minimum.reduceat(vals, indptr[rows])
            new = np.minimum(self.labels[rows], folded)
            changed = new != self.labels[rows]
            frontier = rows[changed]
            self.labels[frontier] = new[changed]
        return self._propagate(frontier)

    def state_dict(self) -> dict:
        # the block CSR is the worker's adjacency, rebuilt with the worker
        return {"labels": self.labels.copy()}

    def finalize(self):
        return self.vertex_results(self.labels)


def run_wcc_blogel(graph: Graph, **options):
    """Run Blogel WCC; returns ``(labels, EngineResult)``.  ``options`` are
    :class:`~repro.core.engine.ChannelEngine`'s (``num_workers``,
    ``partition``, ``executor``, ``checkpoint_every``, ...)."""
    result = run_engine(graph, factory("wcc", "blogel"), **options)
    return gather(result, graph.num_vertices), result
