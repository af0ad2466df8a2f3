"""The paper's primary contribution: the channel-based vertex-centric engine.

Public surface:

* :class:`~repro.core.engine.ChannelEngine` — runs a vertex program over a
  partitioned graph with per-superstep channel exchange rounds (Fig. 4).
* :class:`~repro.core.config.RunConfig` — a run's value options, declared
  and validated once.
* :class:`~repro.core.worker.Worker` / :class:`~repro.core.vertex.Vertex` —
  the per-worker execution context and the per-vertex handle.
* :class:`~repro.core.program.VertexProgram` — user programs subclass this,
  creating channels in ``__init__`` and implementing ``compute``.
* Standard channels: :class:`DirectMessage`, :class:`CombinedMessage`,
  :class:`Aggregator` (Table I).
* Optimized channels: :class:`ScatterCombine`, :class:`RequestRespond`,
  :class:`Propagation` (Table II).
"""

from repro.core.combiner import (
    Combiner,
    make_combiner,
    SUM_F64,
    SUM_I64,
    SUM_I32,
    MIN_F64,
    MIN_I64,
    MIN_I32,
    MAX_F64,
    MAX_I64,
    MAX_I32,
)
from repro.core.adjacency import LocalCSR
from repro.core.vertex import Vertex
from repro.core.channel import Channel
from repro.core.program import VertexProgram, BulkVertexProgram, ProgramSpec
from repro.core.worker import Worker
from repro.core.config import RunConfig
from repro.core.engine import ChannelEngine, EngineResult
from repro.core.recovery import FailureSchedule, FrameLog
from repro.core.channels.direct import DirectMessage
from repro.core.channels.combined import CombinedMessage
from repro.core.channels.aggregator import Aggregator
from repro.core.channels.scatter_combine import ScatterCombine
from repro.core.channels.request_respond import RequestRespond
from repro.core.channels.propagation import Propagation
from repro.core.channels.mirrored_scatter import MirroredScatter

__all__ = [
    "Combiner",
    "make_combiner",
    "SUM_F64",
    "SUM_I64",
    "SUM_I32",
    "MIN_F64",
    "MIN_I64",
    "MIN_I32",
    "MAX_F64",
    "MAX_I64",
    "MAX_I32",
    "Vertex",
    "Channel",
    "VertexProgram",
    "BulkVertexProgram",
    "ProgramSpec",
    "LocalCSR",
    "Worker",
    "ChannelEngine",
    "EngineResult",
    "RunConfig",
    "FailureSchedule",
    "FrameLog",
    "DirectMessage",
    "CombinedMessage",
    "Aggregator",
    "ScatterCombine",
    "RequestRespond",
    "Propagation",
    "MirroredScatter",
]
