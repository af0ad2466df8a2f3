"""repro — channel-based vertex-centric graph processing.

A from-scratch Python reproduction of *"Composing Optimization Techniques
for Vertex-Centric Graph Processing via Communication Channels"*
(Zhang & Hu, IPDPS 2019).  See README.md for a tour and ARCHITECTURE.md
for the system inventory and experiment index.

Top-level re-exports cover the public API a downstream user needs:

>>> from repro import ChannelEngine, VertexProgram, CombinedMessage, SUM_F64
"""

from repro.core import (
    ChannelEngine,
    EngineResult,
    VertexProgram,
    Vertex,
    Worker,
    Channel,
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
    ID,
    MIN_ID,
    DirectMessage,
    CombinedMessage,
    Aggregator,
    ScatterCombine,
    RequestRespond,
    Propagation,
    MirroredScatter,
)
from repro.graph import Graph
from repro.runtime import NetworkModel, MetricsCollector

__version__ = "1.0.0"

__all__ = [
    "ChannelEngine",
    "EngineResult",
    "VertexProgram",
    "Vertex",
    "Worker",
    "Channel",
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
    "ID",
    "MIN_ID",
    "DirectMessage",
    "CombinedMessage",
    "Aggregator",
    "ScatterCombine",
    "RequestRespond",
    "Propagation",
    "MirroredScatter",
    "Graph",
    "NetworkModel",
    "MetricsCollector",
    "__version__",
]
