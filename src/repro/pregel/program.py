"""Pregel+ program and vertex API.

The programming model mirrors Pregel: ``compute(v, messages)`` is called
on every active vertex with the messages delivered to it, and the vertex
handle exposes ``send_message``/``broadcast``/``request``/``get_resp``
plus ``vote_to_halt``.  Unlike the channel system, all traffic shares one
message type (``message_codec``) and at most one global combiner.

A program is built per worker, like a channel program, and hosted by that
worker's :class:`~repro.pregel.system.PregelLayer` (the worker's
``program``), which carries its traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.combiner import Combiner
from repro.core.program import VertexProgram
from repro.core.vertex import Vertex
from repro.runtime.serialization import Codec, INT64

if TYPE_CHECKING:  # pragma: no cover
    from repro.pregel.system import PregelLayer

__all__ = ["PregelProgram", "PregelVertex"]


class PregelVertex(Vertex):
    """Flyweight vertex handle for Pregel+ programs: the channel system's
    adjacency and vote-to-halt, plus Pregel+'s one message layer."""

    __slots__ = ("_layer",)

    def __init__(self, layer: "PregelLayer") -> None:
        super().__init__(layer.worker)
        self._layer = layer

    # -- communication ------------------------------------------------------
    def send_message(self, dst: int, value) -> None:
        self._layer.messages.send(dst, value)

    def broadcast(self, value) -> None:
        """Send ``value`` to every out-neighbor (the pattern the ghost
        mode's mirroring optimizes)."""
        self._layer.broadcast(self.id, value)

    def request(self, dst: int) -> None:
        """reqresp mode: ask for ``dst``'s respond value (next superstep)."""
        self._layer.request(dst, self.local)

    def get_resp(self, dst: int):
        """reqresp mode: the value requested from ``dst`` last superstep."""
        return self._layer.requests.responses[dst]


class PregelProgram(VertexProgram):
    """Base class for Pregel+ vertex programs.

    Class attributes configure the monolithic message layer:

    ``message_codec``
        The single wire codec shared by *all* messages in the program.
    ``combiner``
        Optional global combiner; legal only if every message in the
        program admits it (this is Pregel's rule the paper criticizes).
    ``aggregator_combiner``
        Optional combiner enabling the global aggregator.
    ``respond_value``
        reqresp mode: ``(program, local_idx) -> value``, the attribute
        served to requesters.

    ``before_superstep``, ``finalize``, ``step_num``, ``num_vertices`` and
    checkpointing are :class:`VertexProgram`'s.
    """

    message_codec: Codec = INT64
    combiner: Combiner | None = None
    aggregator_combiner: Combiner | None = None

    def compute(self, v: PregelVertex, messages) -> None:
        """``messages`` is the combined value (with a global combiner) or a
        list of values (without); ``None``/empty when nothing arrived."""
        raise NotImplementedError

    def respond_value(self, local_idx: int):  # pragma: no cover - overridden
        raise NotImplementedError("reqresp mode needs respond_value()")

    # -- aggregator -----------------------------------------------------------
    def aggregate(self, value) -> None:
        self.worker.program.aggregate(value)

    @property
    def agg_result(self):
        """Aggregate of last superstep's contributions (None in step 1)."""
        return self.worker.program.agg_result
