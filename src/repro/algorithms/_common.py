"""Shared helpers for the algorithm modules."""

from __future__ import annotations

import numpy as np

from repro.core.engine import ChannelEngine, EngineResult
from repro.core.program import VertexResults

__all__ = ["gather", "run_engine"]


def gather(result: EngineResult, n: int, dtype=np.int64) -> np.ndarray:
    """Turn ``result.data`` (global id -> value) into a dense array."""
    data = result.data
    out = np.empty(n, dtype=dtype)
    if isinstance(data, VertexResults):
        out[data.ids] = data.array
    else:
        out[np.fromiter(data.keys(), np.int64, len(data))] = np.fromiter(
            data.values(), dtype, len(data)
        )
    return out


def run_engine(graph, program, **engine_kwargs) -> EngineResult:
    """Run ``program`` on a fresh :class:`ChannelEngine` (``engine_kwargs``
    are its options) and free the engine before returning its result.

    Workers, programs and channels point back at one another, so a dropped
    engine left to the cycle collector keeps its per-worker arrays
    resident until the collector's schedule happens to fall — possibly
    after the caller has built its own working set on top of them.
    :meth:`ChannelEngine.close` makes the release deterministic: the
    engine and everything it built are freed by refcount as this function
    returns, without a full collection.
    """
    engine = ChannelEngine(graph, program, **engine_kwargs)
    try:
        return engine.run()
    finally:
        engine.close()
