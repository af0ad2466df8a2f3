"""``MirroredScatter``: sender-side combining via mirroring, as a channel.

Pregel+ offers mirroring (its *ghost mode*) only as a global engine mode
that cannot be combined with its other optimizations — exactly the
rigidity the paper criticizes.  This channel packages the same technique
behind the channel interface, which makes it composable with everything
else: a vertex whose registered edge set reaches a worker through at
least ``threshold`` edges sends that worker *one* value, and the
receiving side expands it through a pre-built mirror adjacency.

This is an extension beyond the paper's three optimized channels (the
paper's Section VI explicitly lists mirroring as a known technique its
framework could host).  Interface-wise it is a drop-in replacement for
:class:`ScatterCombine`: ``add_edges`` once, ``set_message`` per
superstep, ``get_message`` next superstep.

Compared to ScatterCombine on the same traffic:

* fewer bytes whenever one sender has many neighbors on one worker
  (one record per (vertex, worker) instead of one per unique
  destination);
* more receive-side work (the expansion), which is why the paper found
  ghost mode saves bytes but not time (Table V top).
"""

from __future__ import annotations

import numpy as np

from repro.core.channel import Channel
from repro.core.channels._edges import ScatterEdges
from repro.core.channels._inbox import CombinedInbox
from repro.core.channels._records import decode_records, emit_payloads, encode_records
from repro.core.combiner import Combiner
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.runtime.serialization import Codec, INT32
from repro.util import group_starts

__all__ = ["MirroredScatter"]


def _counted_block(payload: memoryview, off: int, codec: Codec) -> tuple:
    """``(ids, values, end offset)`` of the record block at ``off`` that is
    prefixed by its int32 record count."""
    end = off + INT32.itemsize
    end += INT32.decode_one(payload, off) * (INT32.itemsize + codec.itemsize)
    return (*decode_records(payload[off + INT32.itemsize : end], codec), end)


class MirroredScatter(ScatterEdges, CombinedInbox, Channel):
    """Scatter with sender-side mirroring above a degree threshold.

    Same static edge set (:class:`ScatterEdges`) and combined inbox
    (:class:`CombinedInbox`) as :class:`ScatterCombine`; its own are the
    three-block payload and the receive-side expansion tables.

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        Receiver-side reduction (must carry a ufunc).
    threshold:
        Mirroring kicks in for a (vertex, peer) pair once the vertex has
        at least this many edges to that peer (the paper used 16 for
        Pregel+'s ghost mode).
    """

    def __init__(self, worker: Worker, combiner: Combiner, threshold: int = 16) -> None:
        Channel.__init__(self, worker)
        self._init_inbox(combiner)
        self._init_edges()
        self.threshold = threshold
        # per-superstep state: the value each vertex scatters, identity until set
        self._values = self._slots.copy()
        self._dirty = False
        # static dispatch structure (built lazily), one row per peer: plain
        # (non-mirrored) edges — sender local indices sorted by destination,
        # segment start and int32 id of each unique one; mirrored senders,
        # whose value is shipped once and expanded remotely — local indices
        # and int32 ids; expansion-table rows to ship — (sender id, its dsts)
        self._dispatch: list[tuple[np.ndarray, ...]] = []
        # expansion tables on the receiving side: (src vertex id -> local
        # neighbor indices); exchanged once during the first serialize
        self._expansion: dict[int, np.ndarray] = {}
        self._setup_sent = False

    # -- setup ------------------------------------------------------------
    def _build(self) -> None:
        src, dst = self._checked_edges()
        owner = self.worker.owner[dst]
        local_ids = self.worker.local_ids
        self._dispatch = []
        for peer in range(self.num_workers):
            sel = owner == peer
            order = np.argsort(src[sel], kind="stable")
            # (int64 whatever width the column arrived in: these index
            # _values every superstep, and a narrower index is widened per call)
            psrc = src[sel][order].astype(np.int64, copy=False)
            pdst = dst[sel][order]
            # a sender with >= threshold edges into `peer` is mirrored there
            uniq_src, starts = group_starts(psrc)
            heavy_senders = uniq_src[
                np.diff(starts, append=psrc.size) >= self.threshold
            ]
            heavy = np.isin(psrc, heavy_senders)
            order = np.argsort(pdst[~heavy], kind="stable")
            uniq_dst, starts = group_starts(pdst[~heavy][order])
            self._dispatch.append(
                (
                    psrc[~heavy][order],
                    starts,
                    uniq_dst.astype(np.int32),
                    heavy_senders,
                    local_ids[heavy_senders].astype(np.int32),
                    local_ids[psrc[heavy]],
                    pdst[heavy],
                )
            )
        self._built = True

    # -- per-superstep API ---------------------------------------------------
    def set_message(self, v: Vertex, value) -> None:
        self._values[v.local] = value
        self._dirty = True

    send_message = set_message

    def set_messages(self, local_idx: np.ndarray, values: np.ndarray) -> None:
        """Array form of :meth:`set_message` for bulk programs."""
        self._values[local_idx] = values
        self._dirty = True

    # -- checkpointing (no migrate_states: the expansion tables are keyed by
    # receiver-local indices that a migration would have to re-exchange) ----
    def snapshot(self) -> dict:
        return {
            **self._edges_snapshot(),
            "values": self._values.copy(),
            "dirty": self._dirty,
            **self._inbox_snapshot(),
            # receive-side expansion tables cannot be re-derived: their
            # setup frames are only ever shipped once (first superstep)
            "expansion": {int(k): v.copy() for k, v in self._expansion.items()},
            "setup_sent": self._setup_sent,
        }

    def restore(self, state: dict) -> None:
        self._edges_restore(state)
        self._values[...] = state["values"]
        self._dirty = state["dirty"]
        self._inbox_restore(state)
        self._expansion = {int(k): v for k, v in state["expansion"].items()}
        self._setup_sent = state["setup_sent"]

    # -- round protocol (deserialize is CombinedInbox's, over _receive) --------
    # Payload: [n][setup records] [n][plain records] [mirrored records], each
    # block in the record format; the two counted blocks may be empty.
    def serialize(self) -> None:
        if self.round != 0 or not self._dirty:
            return
        if not self._built:
            self._build()
        self._dirty = False
        emit_payloads(self, map(self._payload, range(self.num_workers)))
        self._setup_sent = True

    def _payload(self, peer: int) -> tuple[int, bytes, int]:
        codec = self.value_codec
        lsrc, starts, uniq_dst, msrc, msrc_wire, ids, dsts = self._dispatch[peer]
        if self._setup_sent:  # the setup block is only sent in the first superstep
            ids = dsts = ids[:0]
        payload = b"".join(
            (
                INT32.encode_one(ids.size),
                encode_records(ids, dsts, INT32),
                # plain block: per-unique-dst combined records
                INT32.encode_one(uniq_dst.size),
                encode_records(
                    uniq_dst, self.combiner.reduceat(self._values[lsrc], starts), codec
                ),
                # mirrored block: one value per heavy sender
                encode_records(msrc_wire, self._values[msrc], codec),
            )
        )
        return peer, payload, ids.size + uniq_dst.size + msrc.size

    def _receive(self, payload: memoryview) -> None:
        local_index = self.worker._local_index
        ids, dsts, off = _counted_block(payload, 0, INT32)
        if ids.size:
            order = np.argsort(ids, kind="stable")
            uniq, starts = group_starts(ids[order])
            tables = np.split(local_index[dsts][order], starts[1:])
            self._expansion.update(zip(uniq.tolist(), tables))
        dst, vals, off = _counted_block(payload, off, self.value_codec)
        self._fold(local_index[dst], vals)
        # every mirrored record is expanded through its sender's table
        sids, vals = decode_records(payload[off:], self.value_codec)
        for sid, val in zip(sids.tolist(), vals):
            local = self._expansion[sid]
            self._fold(local, np.full(local.size, val, dtype=vals.dtype))
