"""Maximal independent set via Luby's algorithm.

Each round, every undecided vertex draws a deterministic pseudo-random
priority (a hash of round and id) and enters the set iff its priority
beats every undecided neighbor's; neighbors of new members drop out.
Expected O(log n) rounds.

Channels: a ``CombinedMessage(MIN)`` carries priorities (only the
minimum matters) and a second ``CombinedMessage(MAX)`` flags "a neighbor
joined the set".  The decided/undecided bookkeeping drives vote-to-halt.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    CombinedMessage,
    MAX_I32,
    MIN_I64,
    ProgramSpec,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.programs import factory

__all__ = ["LubyMIS", "run_mis"]

UNDECIDED, IN_SET, OUT = 0, 1, 2


def _priority(seed: int, round_no: int, vid: int) -> int:
    """Deterministic per-(round, vertex) priority; SplitMix64-style."""
    x = (seed * 0x9E3779B97F4A7C15 + round_no * 0xBF58476D1CE4E5B9 + vid) & (2**64 - 1)
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x ^= x >> 27
    # keep positive and leave room so ties are broken by id
    return int(((x >> 16) & 0x7FFFFFFF) * (1 << 20) + vid)


class LubyMIS(VertexProgram):
    """Phases alternate: PROPOSE (broadcast priorities) and RESOLVE
    (winners join, their neighbors leave)."""

    seed = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.prio = CombinedMessage(worker, MIN_I64)
        self.taken = CombinedMessage(worker, MAX_I32)
        self.state = np.full(worker.num_local, UNDECIDED, dtype=np.int8)

    def _round(self) -> int:
        return (self.step_num + 1) // 2

    def compute(self, v: Vertex) -> None:
        i = v.local
        if self.state[i] != UNDECIDED:
            v.vote_to_halt()
            return
        if self.step_num % 2 == 1:
            # PROPOSE: first fold in "a neighbor joined" flags from the
            # previous resolve step, then bid with my priority
            if self.taken.get_message(v) == 1:
                self.state[i] = OUT
                v.vote_to_halt()
                return
            p = _priority(self.seed, self._round(), v.id)
            send = self.prio.send_message
            for e in v.edges:
                send(int(e), p)
            # stay active for the resolve step
        else:
            # RESOLVE: join iff my priority beats every undecided neighbor
            best_nbr = int(self.prio.get_message(v))
            mine = _priority(self.seed, self._round(), v.id)
            if mine < best_nbr:
                self.state[i] = IN_SET
                send = self.taken.send_message
                for e in v.edges:
                    send(int(e), 1)
                v.vote_to_halt()
            # else: stay undecided; remain active for the next propose

    def finalize(self) -> dict:
        return self.vertex_results(self.state)


def run_mis(graph: Graph, seed: int = 0, **engine_kwargs):
    """Compute a maximal independent set; returns ``(in_set, EngineResult)``
    where ``in_set`` is a boolean array; ``seed`` is any int but a bool."""
    if graph.directed:
        raise ValueError("MIS expects an undirected graph")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an int, got {seed!r}")
    program = ProgramSpec(factory("mis"), {"seed": int(seed)})
    result = run_engine(graph, program, **engine_kwargs)
    states = gather(result, graph.num_vertices)
    return states == IN_SET, result
