"""The ``Channel`` base class (Fig. 3 of the paper).

A channel is a per-worker object responsible for one communication pattern.
Identically-constructed instances on every worker form a *channel group*;
the engine keeps a group in the exchange loop while any instance's
``again()`` returns ``True``.

Lifecycle within one superstep (Fig. 4)::

    compute() on active vertices          # vertices call channel APIs
    for each channel: reset_round()
    while any channel group active:
        serialize()    -> write frames into per-peer buffers
        buffer exchange
        deserialize()  -> read frames received from peers
        group active = OR over workers of again()

Data written during ``serialize`` is framed by the worker
(``emit(peer, payload)``) so multiple channels share the same raw buffer,
as in the paper's architecture (Fig. 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.worker import Worker

__all__ = ["Channel"]


class Channel:
    """Base class for all channels.

    Subclasses implement ``serialize``/``deserialize`` and may override
    ``initialize`` (one-time setup after graph load) and ``again``
    (request another exchange round this superstep).
    """

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker
        self.channel_id: int = worker.register_channel(self)
        self.round: int = 0

    # -- one-time setup ----------------------------------------------------
    def initialize(self) -> None:
        """Called once, after graph load, before the first superstep."""

    # -- per-superstep round protocol ---------------------------------------
    def reset_round(self) -> None:
        """Called at the start of each superstep's exchange phase."""
        self.round = 0

    def serialize(self) -> None:
        """Write this round's outgoing data into per-peer buffers."""
        raise NotImplementedError

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        """Consume this round's incoming data.

        ``payloads`` is a list of ``(src_worker, payload)`` in worker order;
        only non-empty payloads addressed to this channel appear.
        Implementations should bump ``self.round`` here.
        """
        raise NotImplementedError

    def again(self) -> bool:
        """Return ``True`` to request another exchange round (evaluated
        after ``deserialize``).  The default single-round behaviour matches
        plain message passing."""
        return False

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        """This channel's state at a superstep boundary, as a dict of
        checkpointable values (see :mod:`repro.runtime.checkpoint`).

        Must capture everything a freshly constructed instance needs to
        continue the run bit-identically: in-flight inbox state readable
        next superstep, plus any structure registered by the program
        (static edge sets, learnt patterns) that a replacement worker
        cannot re-derive because registration happened in a past
        superstep.  Per-round scratch (pending sends, request queues) is
        always empty at a boundary and need not be captured.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement snapshot(); "
            "checkpointing requires every channel to support it"
        )

    def restore(self, state: dict) -> None:
        """Load the state captured by :meth:`snapshot` into this (possibly
        freshly constructed) instance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement restore()"
        )

    # -- helpers for subclasses ---------------------------------------------
    def emit(self, peer: int, payload: bytes) -> None:
        """Send ``payload`` to this channel's instance on worker ``peer``."""
        self.worker.emit(self.channel_id, peer, payload)

    def count_net_messages(self, n: int) -> None:
        """Account ``n`` network messages to this channel."""
        self.worker.count_net_messages(n, self.channel_id)

    @property
    def num_workers(self) -> int:
        return self.worker.num_workers

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(id={self.channel_id}, worker={self.worker.worker_id})"
