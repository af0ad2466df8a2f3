"""Streaming-graph subsystem: mutation batches, epoch engine, incremental
recomputation.

The fifth architecture layer (see ARCHITECTURE.md §6).  The one-shot
stack computes over an immutable CSR; this layer makes the graph a
*moving target*:

* :class:`MutationBatch` — validated edge/vertex insertions & deletions.
* :func:`apply_batch` — a stream's graph is one CSR graph; each applied
  batch builds the next one from the surviving arcs and the batch's.
* :class:`EpochEngine` — repeated ``apply(batch) -> refresh`` cycles on
  top of :class:`~repro.core.engine.ChannelEngine`, seeding each refresh
  from the delta-affected region.
* Incremental PageRank / WCC / SSSP — refresh plans whose output is
  **bit-identical** to a cold full run on the mutated graph.  SSSP
  warm-starts the library's own bulk program; WCC warm-starts it only
  from a batch that deletes nothing, and runs it cold otherwise;
  PageRank keeps a refresh program of its own, which replays a
  per-iteration history.

Quick start::

    from repro.streaming import EpochEngine, PageRankStream, synthesize_stream

    eng = EpochEngine(graph, PageRankStream(iterations=10), num_workers=8)
    for batch in synthesize_stream(graph, num_epochs=3,
                                   insertions_per_epoch=50,
                                   deletions_per_epoch=50):
        epoch = eng.run_epoch(batch)
        print(epoch.summary())
"""

from repro.streaming.batch import MutationBatch
from repro.streaming.delta import ApplyStats, apply_batch
from repro.streaming.epoch import EpochEngine, EpochResult
from repro.streaming.incremental_pagerank import (
    PageRankIncrementalBulk,
    PageRankSchedule,
    PageRankStream,
    build_pagerank_schedule,
)
from repro.streaming.incremental_sssp import SSSPStream
from repro.streaming.incremental_wcc import WCCStream
from repro.streaming.plan import RefreshPlan, StreamAlgorithm
from repro.streaming.updates import synthesize_batch, synthesize_stream

#: CLI / benchmark registry: name -> StreamAlgorithm factory (kwargs are
#: algorithm parameters, e.g. ``iterations`` or ``source``)
STREAM_ALGORITHMS = {
    "pagerank": PageRankStream,
    "wcc": WCCStream,
    "sssp": SSSPStream,
}

__all__ = [
    "MutationBatch",
    "ApplyStats",
    "apply_batch",
    "EpochEngine",
    "EpochResult",
    "RefreshPlan",
    "StreamAlgorithm",
    "PageRankStream",
    "PageRankIncrementalBulk",
    "PageRankSchedule",
    "build_pagerank_schedule",
    "WCCStream",
    "SSSPStream",
    "synthesize_batch",
    "synthesize_stream",
    "STREAM_ALGORITHMS",
]
