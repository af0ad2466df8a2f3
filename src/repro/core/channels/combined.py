"""``CombinedMessage``: message passing with receiver-side combining
(Table I).

The wire format is identical to :class:`DirectMessage` — one ``(dst,
value)`` record per ``send_message`` call — so its byte counts match a
basic Pregel implementation exactly (Table IV shows identical message
sizes for PR/WCC/PJ).  The difference is on the receive path: values are
folded straight into one slot per local vertex with a bulk ``ufunc.at``,
so the receiver never materializes per-vertex message lists.
"""

from __future__ import annotations

from repro.core.channels._inbox import CombinedInbox
from repro.core.channels._records import RecordChannel
from repro.core.combiner import Combiner
from repro.core.worker import Worker

__all__ = ["CombinedMessage"]


class CombinedMessage(CombinedInbox, RecordChannel):
    """Combine all messages for one receiver into a single value.

    Send half: :class:`RecordChannel`.  Receive half, and the whole
    checkpoint state: :class:`CombinedInbox` (``get_message[s]``,
    ``has_message``, fold-and-wake).

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        The associative/commutative reduction (paper: ``Combiner<ValT> c``).
    """

    def __init__(self, worker: Worker, combiner: Combiner) -> None:
        RecordChannel.__init__(self, worker, combiner.codec)
        self._init_inbox(combiner)

    snapshot = CombinedInbox._inbox_snapshot
    restore = CombinedInbox._inbox_restore
