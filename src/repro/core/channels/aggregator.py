"""``Aggregator``: global reduction channel (Table I).

Two exchange rounds per superstep: every worker sends its local partial to
the master (worker 0), which combines them and broadcasts the global value
back.  ``result()`` returns the aggregate of the *previous* superstep's
contributions, matching Pregel's aggregator semantics (Fig. 1 reads
``agg.result()`` one superstep after ``agg.add``).
"""

from __future__ import annotations

import numpy as np

from repro.core.channel import Channel
from repro.core.channels._records import wire_codec
from repro.core.combiner import Combiner
from repro.core.worker import Worker

__all__ = ["Aggregator"]

_MASTER = 0


class Aggregator(Channel):
    """Global all-reduce over values contributed by vertices.

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        Reduction operation and identity (paper: ``Combiner<ValT> c``).
    """

    def __init__(self, worker: Worker, combiner: Combiner) -> None:
        super().__init__(worker)
        self.combiner = combiner
        self.value_codec = wire_codec(self, combiner.codec)
        self._partial = combiner.identity
        self._contributed = False
        self._result = combiner.identity
        self._global = combiner.identity  # master-only scratch

    # -- contributing (during compute) ----------------------------------
    def add(self, value) -> None:
        self._partial = self.combiner.combine(self._partial, value)
        self._contributed = True

    def add_bulk(self, values: np.ndarray) -> None:
        """Contribute a whole array in one call.

        Folds left-to-right (``ufunc.accumulate``), i.e. exactly the
        sequence of combines a loop of :meth:`add` calls would perform —
        so a bulk program's float aggregates are bit-identical to its
        scalar counterpart's, not merely close (``ufunc.reduce`` would
        use pairwise summation and drift in the last ulp).
        """
        values = np.asarray(values, dtype=self.value_codec.dtype)
        if values.size == 0:
            return
        uf = self.combiner.ufunc
        if uf is not None:
            seeded = np.empty(values.size + 1, dtype=values.dtype)
            seeded[0] = self._partial
            seeded[1:] = values
            self._partial = uf.accumulate(seeded)[-1]
        else:
            for v in values:
                self._partial = self.combiner.fn(self._partial, v)
        self._contributed = True

    # -- reading (next superstep) ------------------------------------------
    def result(self):
        """The aggregate of all ``add`` calls from the previous superstep
        (the combiner identity when nothing was contributed)."""
        return self._result

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "partial": self._partial,
            "contributed": self._contributed,
            "result": self._result,
            "global": self._global,
        }

    def restore(self, state: dict) -> None:
        # cast scalars back through the codec dtype so restored values are
        # bit-for-bit what the running instance held (not widened floats);
        # structured codecs round-trip as tuples already
        dtype = self.value_codec.dtype
        cast = (lambda v: v) if dtype.names else dtype.type
        self._partial = cast(state["partial"])
        self._contributed = state["contributed"]
        # None: a subclass's result before its first broadcast
        self._result = None if state["result"] is None else cast(state["result"])
        self._global = cast(state["global"])

    # -- round protocol ----------------------------------------------------
    def serialize(self) -> None:
        me = self.worker.worker_id
        if self.round == 0:
            # everyone ships its partial to the master
            self.emit(_MASTER, self.value_codec.encode_one(self._partial))
            if me != _MASTER:
                self.count_net_messages(1)
            self._partial = self.combiner.identity
            self._contributed = False
        elif self.round == 1 and me == _MASTER:
            payload = self.value_codec.encode_one(self._global)
            for peer in range(self.num_workers):
                self.emit(peer, payload)
            self.count_net_messages(self.num_workers - 1)

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        if self.round == 0:
            if self.worker.worker_id == _MASTER:
                acc = self.combiner.identity
                for _src, payload in payloads:
                    acc = self.combiner.combine(
                        acc, self.value_codec.decode_one(payload)
                    )
                self._global = acc
        elif self.round == 1:
            for _src, payload in payloads:
                self._result = self.value_codec.decode_one(payload)
        self.round += 1

    def again(self) -> bool:
        # the master requests the broadcast round; everyone participates
        # because the channel group stays active while any instance says so
        return self.round == 1 and self.worker.worker_id == _MASTER
