"""The record wire format and the send half built on it.

A *record payload* is what every data channel puts on the wire for one
peer and round: an ``int32`` id array followed by a value array of the
same length (payload length and the two fixed item sizes recover the
count, so there is no header).  It is written here once —
:func:`encode_records` / :func:`decode_records` — next to the one per-peer
"emit, count what leaves this worker" loop (:func:`emit_payloads`;
:func:`emit_records` for whole record payloads).

A *pattern payload* is what the static channels send instead
(:func:`encode_pattern` / :func:`decode_pattern`; the state on both ends
of it, and the rule that picks a form, is
:mod:`~repro.core.channels._pattern`).  Its first int32, the tag, tells
three forms apart: an *announcement* ``[#words][words][values]`` carries
the ids once, as int32 words; a *dense* payload ``[0][values]`` the values
alone; a *delta* ``[-(k+1)][k positions][k values]`` only the values that
changed since the last payload, at strictly ascending positions.

``DirectMessage`` and ``CombinedMessage`` also share their whole send
path, :class:`RecordChannel`: scalar appends, array sends and peer
routing, records leaving for each peer in call order
(:class:`RecordBuffer`).  They differ only in how the receiver consumes
them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.channel import Channel
from repro.core.worker import Worker
from repro.runtime.serialization import Codec, INT32


def encode_records(ids: np.ndarray, values: np.ndarray, codec: Codec) -> bytes:
    """One record payload: ``[int32 ids][values]``."""
    return INT32.encode_array(ids) + codec.encode_array(values)


def decode_records(payload: memoryview, codec: Codec) -> tuple[np.ndarray, np.ndarray]:
    """``(int64 ids, values)`` of a payload written by :func:`encode_records`.

    On the wire the values start wherever the ids end, which for an odd
    count of 8-byte values is not a multiple of their size; they are
    returned aligned (copied when they are not), because ``ufunc.at`` over
    unaligned values leaves its fast path and runs some 20x slower."""
    count = len(payload) // (INT32.itemsize + codec.itemsize)
    split = count * INT32.itemsize
    values = _aligned(codec.decode_array(payload[split:], count))
    return INT32.decode_array(payload[:split]).astype(np.int64), values


def _aligned(values: np.ndarray) -> np.ndarray:
    return values if values.flags.aligned else values.copy()


def encode_pattern(
    values: np.ndarray,
    codec: Codec,
    *,
    words: np.ndarray | None = None,
    positions: np.ndarray | None = None,
) -> bytes:
    """One pattern payload: the announcement of ``words`` followed by
    ``values``, the delta that sends ``values[positions]`` (ascending
    positions), or — neither given — the dense ``values``."""
    if words is not None:
        head = (INT32.encode_one(words.size), INT32.encode_array(words))
    elif positions is not None:
        head = (INT32.encode_one(-positions.size - 1), INT32.encode_array(positions))
        values = values[positions]
    else:
        head = (INT32.encode_one(0),)
    return b"".join((*head, codec.encode_array(values)))


def decode_pattern(
    payload: memoryview, codec: Codec
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """``(words, positions, values)`` of a payload written by
    :func:`encode_pattern`, at most one of the first two not ``None``
    (lengths alone would not tell the forms apart: ``n`` records of 12
    bytes are also ``1.5 n`` values of 8).  The values are aligned, by
    :func:`decode_records`' rule.  A payload whose length disagrees with
    its tag raises a ``ValueError``."""
    tag = INT32.decode_one(payload)
    count = tag if tag >= 0 else -tag - 1
    split = (1 + count) * INT32.itemsize
    if tag < 0 and len(payload) != split + count * codec.itemsize:
        raise ValueError(f"a delta of {count} values in {len(payload)} bytes")
    head = INT32.decode_array(payload[INT32.itemsize : split]) if tag else None
    values = _aligned(codec.decode_array(payload[split:]))
    return (head, None, values) if tag >= 0 else (None, head, values)


def check_ids(channel: Channel, what: str, ids: np.ndarray, bound: int) -> None:
    """Raise a ``ValueError`` naming the channel and the first of ``ids``
    outside ``[0, bound)``.  Ids index dense arrays (``owner[...]``,
    ``_local_index[...]``), where a negative one would wrap around to a
    wrong answer instead of failing."""
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        bad = ids[(ids < 0) | (ids >= bound)][0]
        raise ValueError(f"{channel!r}: {what} {bad} outside [0, {bound})")


def emit_payloads(channel: Channel, payloads: Iterable[tuple[int, bytes, int]]) -> None:
    """The per-peer send loop: emit every ``(peer, payload, messages)``
    that carries a message, and account those that cross the network."""
    me = channel.worker.worker_id
    net_msgs = 0
    for peer, payload, count in payloads:
        if count:
            channel.emit(peer, payload)
            if peer != me:
                net_msgs += count
    channel.count_net_messages(net_msgs)


def emit_records(
    channel: Channel, records: Iterable[tuple[int, np.ndarray, np.ndarray]]
) -> None:
    """:func:`emit_payloads` over one record payload per ``(peer, ids,
    values)``."""
    emit_payloads(
        channel,
        (
            (peer, encode_records(ids, values, channel.value_codec), len(ids))
            for peer, ids, values in records
        ),
    )


class RecordBuffer:
    """Parallel columns that grow by scalar rows and by array chunks and
    read back flat, in call order."""

    __slots__ = ("dtypes", "rows", "chunks")

    def __init__(self, *dtypes) -> None:
        self.dtypes = dtypes
        self.clear()

    def clear(self) -> None:
        #: scalar appends since the last chunk, one list per column
        self.rows: tuple[list, ...] = tuple([] for _ in self.dtypes)
        self.chunks: list[tuple[np.ndarray, ...]] = []

    def add_chunk(self, *columns: np.ndarray) -> None:
        self._flush_rows()
        self.chunks.append(columns)

    def _flush_rows(self) -> None:
        if self.rows[0]:
            rows, self.rows = self.rows, tuple([] for _ in self.dtypes)
            self.chunks.append(
                tuple(np.asarray(r, dtype=d) for r, d in zip(rows, self.dtypes))
            )

    def flat(self) -> tuple[np.ndarray, ...]:
        """One array per column.  Several chunks are merged once and kept
        merged; a single chunk is handed back as is, not copied."""
        self._flush_rows()
        if len(self.chunks) > 1:
            self.chunks = [tuple(np.concatenate(col) for col in zip(*self.chunks))]
        if not self.chunks:
            return tuple(np.empty(0, dtype=d) for d in self.dtypes)
        return self.chunks[0]


class RecordChannel(Channel):
    """Channel whose outgoing traffic is (dst, value) record arrays."""

    def __init__(self, worker: Worker, value_codec: Codec) -> None:
        super().__init__(worker)
        self.value_codec = value_codec
        self._out = [
            RecordBuffer(np.int64, value_codec.dtype) for _ in range(worker.num_workers)
        ]

    # -- sending (during compute) -----------------------------------------
    def send_message(self, dst: int, value) -> None:
        dsts, values = self._out[self.worker.owner_of(dst)].rows
        dsts.append(dst)
        values.append(value)

    def send_messages(self, dsts: np.ndarray, values: np.ndarray) -> None:
        """Vectorized send of many ``(dst, value)`` records, preserving
        their order within each destination worker (so a bulk program's
        wire bytes match the scalar loop it replaces record-for-record)."""
        dsts = np.asarray(dsts, dtype=np.int64)
        values = np.asarray(values, dtype=self.value_codec.dtype)
        owners = self.worker.owner[dsts]
        for peer in range(self.num_workers):
            sel = owners == peer
            if sel.any():
                self._out[peer].add_chunk(dsts[sel], values[sel])

    def _drain(self, peer: int) -> tuple[int, np.ndarray, np.ndarray]:
        records = self._out[peer].flat()
        self._out[peer].clear()
        return (peer, *records)

    # -- round protocol ----------------------------------------------------
    def serialize(self) -> None:
        if self.round == 0:
            emit_records(self, map(self._drain, range(self.num_workers)))
