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
of it is :mod:`~repro.core.channels._pattern`).  Its first int32, the
tag, tells seven forms apart — never the length, which can be equal for
two of them::

    form                       tag          after the tag
    dense                      0            [n values]
    announce, list             4m + 1       [m int32 ids][values]
    announce, bitmap           4m + 2       [int32 lo][int32 span][bitmap over the span][m values]
    announce senders, list     4m + 3       [int32 d][combined set][m int32 ids][c + m values]
    announce senders, bitmap   4m + 4       [int32 d][combined set][int32 lo][int32 span][bitmap][c + m values]
    delta, list                -(2k + 1)    [k int32 positions][k values]
    delta, bitmap              -(2k + 2)    [bitmap over [0, n)][k values]

    combined set               2c           [c int32 ids]
    (its first int32 word)     2c + 1       [int32 lo][int32 span][bitmap over the span]

An announcement carries the pattern once: one strictly ascending id set,
``ids``, as whichever of the id list and a bitmap over ``[lo, lo +
span)`` is smaller.  The ids are the destination of each value, unless
the announcement names ``d``: then they are the ``m`` senders whose own
values follow the ``c`` values combined at the sender, and ``d`` counts
the destinations the receiver folds along the senders' rows — every one
of its vertices those rows reach, except the ``combined`` ids
(``ScatterCombine``'s per-destination choice of the end that folds).
The combined ids are a second ascending set, priced and written by the
same rule, behind one int32 word that holds their count and form; an
announcement of senders alone has ``c = 0`` and pays that word.  A dense
payload carries the ``n`` values alone; a delta only the ``k`` that
changed since the last payload, at strictly ascending positions in ``[0,
n)``, as a list or as a bitmap.  :func:`encode_pattern` sends the
smallest form, ties going to the earlier row, so the form is a function
of the values alone (after the tag, with ``s`` the value size: ``n·s``
dense, ``k·(4 + s)`` and ``⌈n/8⌉ + k·s`` delta; ``4·m`` and ``8 +
⌈span/8⌉`` for the ids).  The one set codec behind both id sets is
:func:`set_nbytes` (the rule's prices), :func:`as_int32` (a list,
refusing what int32 cannot hold) and :func:`_bitmap` /
:func:`_unbitmap`.

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


def encode_records(channel: Channel, ids: np.ndarray, values: np.ndarray) -> bytes:
    """One record payload of ``channel``: ``[int32 ids][values]``.  An id
    int32 cannot hold is a ``ValueError`` naming ``channel``
    (:func:`as_int32`)."""
    return _int32(channel, "record id", ids) + channel.value_codec.encode_array(values)


def decode_records(payload: memoryview, codec: Codec) -> tuple[np.ndarray, np.ndarray]:
    """``(int64 ids, values)`` of a payload written by :func:`encode_records`.

    On the wire the values start wherever the ids end, which for an odd
    count of 8-byte values is not a multiple of their size; they are
    returned aligned (copied when they are not), because ``ufunc.at`` over
    unaligned values leaves its fast path and runs some 20x slower.  A
    length that is not a whole number of records raises a ``ValueError``."""
    count, ragged = divmod(len(payload), INT32.itemsize + codec.itemsize)
    if ragged:
        raise ValueError(f"a record payload of {len(payload)} bytes, {ragged} past its {count} records")
    split = count * INT32.itemsize
    values = _aligned(codec.decode_array(payload[split:], count))
    return INT32.decode_array(payload[:split]).astype(np.int64), values


def _aligned(values: np.ndarray) -> np.ndarray:
    return values if values.flags.aligned else values.copy()


_INT32_RANGE = np.iinfo(np.int32)
#: a bitmap announcement's ``[lo][span]``, between its tag and its bitmap
_RANGE_NBYTES = 2 * INT32.itemsize


def set_nbytes(count: int, span: int) -> tuple[int, int]:
    """Bytes of a set of ``count`` ids from a range of ``span`` ids: as an
    int32 list, and as a bitmap of one bit per id of the range."""
    return count * INT32.itemsize, -(-span // 8)


def as_int32(channel: Channel, what: str, values: np.ndarray) -> np.ndarray:
    """``values`` as int32 words, the wire's one narrowing cast.  A value
    int32 cannot hold is a ``ValueError`` naming the channel, where
    ``astype`` would wrap it, silently, into another id."""
    values = np.asarray(values)
    if values.dtype != np.int32 and values.size:
        lo, hi = int(values.min()), int(values.max())
        if lo < _INT32_RANGE.min or hi > _INT32_RANGE.max:
            bad = lo if lo < _INT32_RANGE.min else hi
            raise ValueError(f"{channel!r}: {what} {bad} does not fit an int32 word")
    return values.astype(np.int32, copy=False)


def _int32(channel: Channel, what: str, values: np.ndarray) -> bytes:
    return as_int32(channel, what, values).tobytes()


def _bitmap(mask: np.ndarray) -> bytes:
    return np.packbits(mask, bitorder="little").tobytes()


def _unbitmap(data: memoryview, bits: int) -> np.ndarray:
    """The ``bits`` flags of a bitmap written by :func:`_bitmap`.  A
    length other than ``⌈bits/8⌉`` bytes, or a bit set past ``bits``,
    raises a ``ValueError``."""
    packed = np.frombuffer(data, dtype=np.uint8)
    if packed.size != -(-bits // 8):
        raise ValueError(f"a bitmap of {packed.size} bytes for {bits} bits")
    flags = np.unpackbits(packed, bitorder="little").view(bool)
    if flags[bits:].any():
        raise ValueError(f"a bitmap with a bit set past its {bits} bits")
    return flags[:bits]


#: forms per count on either side of the tag: an announcement's ids or
#: senders, as a list or a bitmap; a delta's list or bitmap
_ANNOUNCE_FORMS, _DELTA_FORMS = 4, 2


def _tag(channel: Channel, sign: int, count: int, form: int) -> bytes:
    width = _ANNOUNCE_FORMS if sign > 0 else _DELTA_FORMS
    return _int32(channel, "pattern tag", np.array([sign * (width * count + 1 + form)]))


_DENSE = (INT32.encode_one(0),)


def encode_pattern(
    channel: Channel,
    values: np.ndarray,
    *,
    ids: np.ndarray | None = None,
    destinations: int | None = None,
    combined: np.ndarray | None = None,
    changed: np.ndarray | None = None,
) -> bytes:
    """One pattern payload of ``channel``'s ``values``: the announcement
    of the strictly ascending ``ids`` — sender ids, behind ``destinations``
    and the strictly ascending ``combined`` ids, when ``destinations`` is
    given; the delta of the values ``changed`` flags (a mask over
    ``values``), or the dense values if they are smaller; or — none given
    — the dense values.  Every choice is
    the smallest form, a tie going to the earlier row of the module's
    table.  An id, position or count that does not fit an int32 word
    raises a ``ValueError`` naming ``channel``."""
    if ids is not None:
        head = _announce_ids(channel, ids, destinations, combined)
    elif changed is not None:
        head, values = _delta(channel, changed, values)
    else:
        head = _DENSE
    return b"".join((*head, channel.value_codec.encode_array(values)))


def _id_set(channel: Channel, what: str, ids: np.ndarray) -> tuple[int, tuple[bytes, ...]]:
    """``(form, parts)`` of the strictly ascending ``ids`` on the wire:
    ``0`` and the int32 list, or ``1`` and ``[lo][span][bitmap]`` when
    that is smaller."""
    ids = as_int32(channel, what, ids)
    lo = int(ids[0]) if ids.size else 0
    span = int(ids[-1]) - lo + 1 if ids.size else 0
    as_list, as_bitmap = set_nbytes(ids.size, span)
    if _RANGE_NBYTES + as_bitmap >= as_list:
        return 0, (ids.tobytes(),)
    flags = np.zeros(span, dtype=bool)
    flags[ids - lo] = True
    return 1, (_int32(channel, "id range", np.array([lo, flags.size])), _bitmap(flags))


def _announce_ids(
    channel: Channel, ids: np.ndarray, destinations: int | None, combined: np.ndarray | None
) -> tuple[bytes, ...]:
    form, parts = _id_set(channel, "id", ids)
    if destinations is None:
        return _tag(channel, 1, ids.size, form), *parts
    # senders: [d][combined set] between the tag and the ids
    if combined is None:
        combined = np.empty(0, dtype=np.int32)
    combined_form, combined_parts = _id_set(channel, "combined id", combined)
    return (
        _tag(channel, 1, ids.size, 2 + form),
        _int32(channel, "destination count", np.array([destinations])),
        _int32(channel, "combined count", np.array([2 * combined.size + combined_form])),
        *combined_parts,
        *parts,
    )


def _delta(
    channel: Channel, changed: np.ndarray, values: np.ndarray
) -> tuple[tuple[bytes, ...], np.ndarray]:
    item = channel.value_codec.itemsize
    k = int(np.count_nonzero(changed))
    as_list, as_bitmap = set_nbytes(k, changed.size)
    sizes = [changed.size * item, as_list + k * item, as_bitmap + k * item]
    form = sizes.index(min(sizes))
    if form == 0:
        return _DENSE, values
    if form == 1:
        positions = np.flatnonzero(changed)
        head = (_tag(channel, -1, k, 0), _int32(channel, "position", positions))
    else:
        head = (_tag(channel, -1, k, 1), _bitmap(changed))
    return head, values[changed]


def decode_pattern(
    payload: memoryview, codec: Codec, bound: int, size: int | None
) -> tuple[np.ndarray | None, tuple[int, np.ndarray] | None, np.ndarray | None, np.ndarray]:
    """``(ids, senders, positions, values)`` of a payload written by
    :func:`encode_pattern`, at most one of ``ids`` and ``positions`` not
    ``None``: the ids of an announcement (a bitmap's must lie in ``[0,
    bound)``) and, when it announces senders, ``senders = (d, combined
    ids)``; or the positions of a delta's values (a bitmap's
    over the receiver's pattern of ``size`` values).  List or bitmap, the
    caller gets the same arrays.  The values are aligned, by
    :func:`decode_records`' rule.  A payload that disagrees with its tag —
    in length, range or bit count — or a delta when ``size`` is ``None``
    (the receiver has no pattern) raises a ``ValueError``."""
    tag = INT32.decode_one(payload)
    body = payload[INT32.itemsize :]
    if tag == 0:
        return None, None, None, _aligned(codec.decode_array(body))
    if tag > 0:
        count, form = divmod(tag - 1, _ANNOUNCE_FORMS)
        bitmap, of_senders = form % 2, form // 2
    else:
        (count, bitmap), of_senders = divmod(-tag - 1, _DELTA_FORMS), 0
        if size is None:
            raise ValueError(f"a delta of {count} values before any announcement")
    what = "an announcement" if tag > 0 else "a delta"
    values_count, senders = count, None
    if of_senders:  # [d][combined set] ahead of the ids
        if len(body) < 2 * INT32.itemsize:
            raise ValueError(f"{what} of {count} senders in {len(payload)} bytes")
        destinations, word = INT32.decode_array(body[: 2 * INT32.itemsize]).tolist()
        combined, body = _combined_set(body[2 * INT32.itemsize :], word, bound, len(payload))
        senders = destinations, combined
        values_count += combined.size
    if tag > 0 and not bitmap:  # the values' count is the pattern's business
        split = count * INT32.itemsize
        if split > len(body):
            raise ValueError(f"{what} of {count} words in {len(payload)} bytes")
        ids = INT32.decode_array(body[:split])
        return ids, senders, None, _aligned(codec.decode_array(body[split:]))
    # every other form ends in its count of values
    split = len(body) - values_count * codec.itemsize
    head = _RANGE_NBYTES if tag > 0 else 0  # a bitmap announcement's [lo][span]
    if split < head or (not bitmap and split != count * INT32.itemsize):
        raise ValueError(f"{what} of {values_count} values in {len(payload)} bytes")
    values = _aligned(codec.decode_array(body[split:]))
    if not bitmap:
        return None, None, INT32.decode_array(body[:split]), values
    if tag > 0:
        lo, span = _id_range(body[:head], bound)
        return lo + _set_bits(body[head:split], span, count), senders, None, values
    return None, None, _set_bits(body[:split], size, count), values


def _id_range(data: memoryview, bound: int) -> tuple[int, int]:
    """A bitmap id set's ``[lo][span]``, which must lie in ``[0, bound)``."""
    lo, span = INT32.decode_array(data).tolist()
    if lo < 0 or span < 0 or lo + span > bound:
        raise ValueError(f"a bitmap of ids [{lo}, {lo + span}) outside [0, {bound})")
    return lo, span


def _set_bits(data: memoryview, bits: int, count: int) -> np.ndarray:
    """The positions of a bitmap's set bits, of which there must be
    ``count``."""
    flags = _unbitmap(data, bits)
    found = int(np.count_nonzero(flags))
    if found != count:
        raise ValueError(f"a bitmap of {found} set bits for {count} values")
    return np.flatnonzero(flags)


def _combined_set(
    body: memoryview, word: int, bound: int, nbytes: int
) -> tuple[np.ndarray, memoryview]:
    """``(ids, the rest of body)`` of the combined set at the head of
    ``body``, whose count and form are ``word`` (``2c`` or ``2c + 1``);
    ``nbytes``, the payload's length, names it in an error."""
    if word < 0:
        raise ValueError(f"a combined set whose count word is {word}")
    count, bitmap = divmod(word, 2)
    if not bitmap:
        end = count * INT32.itemsize
        if end > len(body):
            raise ValueError(f"a combined set of {count} ids in {nbytes} bytes")
        return INT32.decode_array(body[:end]), body[end:]
    if len(body) < _RANGE_NBYTES:
        raise ValueError(f"a combined set of {count} ids in {nbytes} bytes")
    lo, span = _id_range(body[:_RANGE_NBYTES], bound)
    end = _RANGE_NBYTES + -(-span // 8)
    if end > len(body):
        raise ValueError(f"a combined set of {count} ids in {nbytes} bytes")
    return lo + _set_bits(body[_RANGE_NBYTES:end], span, count), body[end:]


def check_ids(channel: Channel, what: str, ids: np.ndarray, bound: int) -> None:
    """Raise a ``ValueError`` naming the channel and the first of ``ids``
    outside ``[0, bound)``.  Ids index dense arrays (``owner[...]``, the
    host's position table), where a negative one would wrap around to a
    wrong answer instead of failing."""
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        bad = ids[(ids < 0) | (ids >= bound)][0]
        raise ValueError(f"{channel!r}: {what} {bad} outside [0, {bound})")


def check_ascending(channel: Channel, src: int, what: str, ids: np.ndarray) -> None:
    """Raise a ``RuntimeError`` naming the channel and ``src`` unless the
    ``ids`` worker ``src`` announced strictly ascend: an announced id set
    names each id once."""
    if (ids[1:] <= ids[:-1]).any():
        raise RuntimeError(
            f"{channel!r}: worker {src} announced {what} that do not strictly ascend"
        )


def local_ids(channel: Channel, src: int, ids: np.ndarray) -> np.ndarray:
    """Local indices of the ``ids`` worker ``src`` sent ``channel``, every
    one of which this worker must own.  Unchecked, a negative id would wrap
    to the last vertex, an id past the last raise a bare ``IndexError``,
    and an id owned elsewhere (:meth:`~repro.core.worker.Worker.local_index`
    is -1 there) fold into the last slot; each is a ``RuntimeError`` naming
    the channel and ``src``."""
    worker = channel.worker
    bound = worker.graph.num_vertices
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        bad = ids[(ids < 0) | (ids >= bound)][0]
        raise RuntimeError(f"{channel!r}: worker {src} sent id {bad} outside [0, {bound})")
    local = worker.local_index(ids)
    if local.size and local.min() < 0:
        raise RuntimeError(
            f"{channel!r}: worker {src} sent id {ids[local < 0][0]}, which "
            f"worker {worker.worker_id} does not own"
        )
    return local


def receive_records(channel: Channel, src: int, payload: memoryview) -> tuple[np.ndarray, np.ndarray]:
    """``(local indices, values)`` of the record payload worker ``src``
    sent ``channel``; a malformed one is a ``RuntimeError`` naming both."""
    try:
        ids, values = decode_records(payload, channel.value_codec)
    except ValueError as exc:
        raise RuntimeError(f"{channel!r}: worker {src} sent {exc}") from None
    return local_ids(channel, src, ids), values


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
            (peer, encode_records(channel, ids, values), len(ids))
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
