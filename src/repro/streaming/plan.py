"""Refresh planning: what one epoch's engine run should do.

A :class:`StreamAlgorithm` turns (previous state, applied batch) into a
:class:`RefreshPlan` — a program factory plus the seed active set.  The
contract every implementation must honour (tested by the streaming parity
matrix) is **incremental correctness**: after the refresh run,
``result.data`` is bit-identical to a cold full run of the library
algorithm on the mutated graph.  Incremental refreshes are free to do
*less* work (fewer active vertices, fewer messages) but never to produce
approximately-equal results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.graph import Graph
from repro.streaming.delta import ApplyStats
from repro.util import expand_ranges

__all__ = ["RefreshPlan", "StreamAlgorithm", "out_neighbor_mask", "in_neighbor_mask"]

REFRESH_MODES = ("incremental", "full")


@dataclass
class RefreshPlan:
    """One epoch's marching orders for the engine.

    ``seeds`` is the initial active set as global vertex ids (``None``
    means all vertices — a cold/full refresh); ``affected`` counts the
    vertices the plan expects to touch (for the per-epoch metrics).
    """

    program_factory: Callable
    seeds: np.ndarray | None
    affected: int
    mode: str  # "incremental" | "full"


class StreamAlgorithm:
    """Base class: one streaming-capable algorithm (PageRank, WCC, SSSP).

    Subclasses implement :meth:`plan` and :meth:`collect`; ``state`` is an
    opaque per-algorithm dict handed back to the next epoch's ``plan``.
    ``state is None`` or ``refresh == "full"`` must yield a cold plan.
    """

    def plan(
        self,
        old_graph: Graph,
        new_graph: Graph,
        stats: ApplyStats | None,
        state: dict | None,
        refresh: str,
    ) -> RefreshPlan:
        raise NotImplementedError

    def collect(self, engine, result) -> dict:
        """Extract the next epoch's warm state from a finished run: its
        ``result.data``, or worker state beyond it read through
        ``engine.backend.capture_state_blobs()`` (the workers may live in
        other processes)."""
        raise NotImplementedError

    def cold_run(self, graph: Graph, num_workers: int, partition: np.ndarray):
        """Reference full run of the library algorithm (used by parity
        tests and the benchmark's cold baseline); returns
        ``(data_array, EngineResult)``."""
        raise NotImplementedError


def out_neighbor_mask(graph: Graph, mask: np.ndarray) -> np.ndarray:
    """Boolean mask of all out-neighbors of the masked vertex set."""
    rows = np.flatnonzero(mask)
    out = np.zeros(graph.num_vertices, dtype=bool)
    if rows.size:
        deg = graph.indptr[rows + 1] - graph.indptr[rows]
        pos = expand_ranges(graph.indptr[rows], deg)
        out[graph.indices[pos]] = True
    return out


def in_neighbor_mask(graph: Graph, mask: np.ndarray) -> np.ndarray:
    """Boolean mask of all in-neighbors of the masked vertex set."""
    if not graph.directed:
        return out_neighbor_mask(graph, mask)
    graph._ensure_reverse()
    rows = np.flatnonzero(mask)
    out = np.zeros(graph.num_vertices, dtype=bool)
    if rows.size:
        indptr, indices = graph._rev_indptr, graph._rev_indices
        deg = indptr[rows + 1] - indptr[rows]
        pos = expand_ranges(indptr[rows], deg)
        out[indices[pos]] = True
    return out
