"""The record wire format, the id codec under it, and the send half built
on them.

Every vertex id and every position a channel puts on the wire is written
and read here, by the *id codec*.  An id of a graph of ``V`` vertices
takes the fewest whole bytes that hold ``V + 1`` codes (:func:`id_width`):
1, 2 or 3 while ``V < 2**8``, ``2**16`` or ``2**24``, else 4.  The last
code, all ones, stands for the identity of a MIN over ids
(:data:`MIN_ID`), which in memory is ``VERTEX_ID``'s largest value.  A
position into a pattern of ``n`` values takes the bytes ``n`` codes need
(:func:`code_width`).  The codes of an array cross as byte planes — the
low byte or the low 16 bits as one ``uint8`` / ``uint16`` column, a third
byte as one ``uint8`` column after it — so encode and decode are
whole-array casts (:func:`_pack` / :func:`_unpack`).  A program types a
value as an id by its codec, :data:`ID`, or its combiner,
:data:`MIN_ID`; a channel binds either to its graph's ``V`` once
(:func:`wire_codec`), and in memory an id stays ``VERTEX_ID``.  Sending an
id outside ``[0, V)`` that is not the identity, or decoding a code that
stands for neither, is a ``ValueError``: no id crosses as another.

A *record payload* is what every data channel puts on the wire for one
peer and round: the ids, ``w = id_width(V)`` bytes each, followed by a
value array of the same length (payload length and the two item sizes
recover the count, so there is no header).  It is written here once —
:func:`encode_records` / :func:`decode_records` — next to the one per-peer
"emit, count what leaves this worker" loop (:func:`emit_payloads`;
:func:`emit_records` for whole record payloads).

A *pattern payload* is what the static channels send instead
(:func:`encode_pattern` / :func:`decode_pattern`; the state on both ends
of it is :mod:`~repro.core.channels._pattern`).  Its first int32 word,
the tag, tells seven forms apart — never the length, which can be equal
for two of them::

    form                       tag          after the tag
    dense                      0            [n values]
    announce, list             4m + 1       [m ids][values]
    announce, bitmap           4m + 2       [int32 lo][int32 span][bitmap over the span][m values]
    announce senders, list     4m + 3       [int32 d][combined set][m ids][c + m values]
    announce senders, bitmap   4m + 4       [int32 d][combined set][int32 lo][int32 span][bitmap][c + m values]
    delta, list                -(2k + 1)    [k positions][k values]
    delta, bitmap              -(2k + 2)    [bitmap over [0, n)][k values]

    combined set               2c           [c ids]
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
of the values alone (after the tag, with ``s`` the value size, ``w`` the
id width and ``p = code_width(n)`` the position width: ``n·s`` dense,
``k·(p + s)`` and ``⌈n/8⌉ + k·s`` delta; ``w·m`` and ``8 + ⌈span/8⌉`` for
the ids).  The one set codec behind both id sets is :func:`set_nbytes`
(the rule's prices), the id codec (a list) and :func:`_bitmap` /
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
from repro.core.combiner import Combiner
from repro.core.worker import Worker
from repro.graph.graph import MAX_VERTICES, VERTEX_ID
from repro.runtime.serialization import Codec, INT32

# -- the id codec: every id, position and header word on the wire ------------

#: the identity of a MIN over ids in memory; on the wire, the all-ones code
_ID_IDENTITY = int(np.iinfo(VERTEX_ID).max)
#: one header word: a tag, a count, a bitmap's ``lo`` or ``span``
_WORD = INT32.itemsize
_INT32_RANGE = np.iinfo(np.int32)


def code_width(codes: int) -> int:
    """Whole bytes of one of ``codes`` codes: 1, 2 or 3 up to ``2**8``,
    ``2**16`` or ``2**24`` codes, else 4."""
    for width in (1, 2, 3):
        if codes <= 1 << 8 * width:
            return width
    return 4


def id_width(bound: int) -> int:
    """Bytes of one id below ``bound`` on the wire: ``bound`` codes, and
    the all-ones one of the identity."""
    return code_width(bound + 1)


def _pack(codes: np.ndarray, width: int) -> bytes:
    """``codes``, each below ``2**(8·width)`` (or the identity, whose low
    bytes are all ones), as ``width``-byte codes in byte planes: the low
    byte or 16 bits as one column, a third byte as a second."""
    if not codes.size:
        return b""
    if width == 4:
        return codes.astype(np.int32, copy=False).tobytes()
    low = codes.astype(np.uint8 if width == 1 else np.uint16)
    if width < 3:
        return low.tobytes()
    return low.tobytes() + (codes >> 16).astype(np.uint8).tobytes()


def _unpack(data: memoryview, count: int, width: int) -> np.ndarray:
    """The ``count`` codes :func:`_pack` wrote, as ``VERTEX_ID`` (a
    read-only view of ``data`` at width 4).  A length other than
    ``count·width`` bytes raises a ``ValueError``."""
    if len(data) != count * width:
        raise ValueError(f"{len(data)} bytes for {count} codes of {width} bytes")
    if width == 4:
        return np.frombuffer(data, dtype=VERTEX_ID, count=count)
    if width == 1:
        return np.frombuffer(data, dtype=np.uint8, count=count).astype(VERTEX_ID)
    codes = np.frombuffer(data, dtype=np.uint16, count=count).astype(VERTEX_ID)
    if width == 3:
        high = np.frombuffer(data, dtype=np.uint8, count=count, offset=2 * count)
        codes |= high.astype(VERTEX_ID) << 16
    return codes


def _stray(codes: np.ndarray, bound: int, identity: int | None) -> int | None:
    """The first of ``codes`` that is neither in ``[0, bound)`` nor
    ``identity``, or ``None``."""
    if not codes.size or (codes.min() >= 0 and codes.max() < bound):
        return None
    stray = (codes < 0) | (codes >= bound)
    if identity is not None:
        stray &= codes != identity
    return int(codes[stray.argmax()]) if stray.any() else None


class IdCodec(Codec):
    """The codec of vertex ids as values (:data:`ID`): ``VERTEX_ID`` in
    memory, :func:`id_width` bytes a code on the wire.  Unbound, it holds
    any graph's ids, in 4 bytes; a channel binds it to its graph's ``V``
    (:func:`wire_codec`) and is named by the errors it raises.  Encoding
    an id outside ``[0, V)`` that is not the identity, or decoding a code
    that stands for neither, is a ``ValueError``; a code decodes to the
    same id at every width.  With ``positions``, the codes are positions
    into ``bound`` values, :func:`code_width` bytes each, and there is no
    identity."""

    __slots__ = ("bound", "owner", "identity")

    def __init__(
        self, bound: int = MAX_VERTICES, owner: object = None, *, positions: bool = False
    ) -> None:
        super().__init__("position" if positions else "id", VERTEX_ID)
        self.bound, self.owner = bound, owner
        self.identity = None if positions else _ID_IDENTITY
        self.itemsize = code_width(bound) if positions else id_width(bound)

    def encode_array(self, values) -> bytes:
        codes = np.asarray(values)
        stray = _stray(codes, self.bound, self.identity)
        if stray is not None:
            owner = "" if self.owner is None else f"{self.owner!r}: "
            raise ValueError(f"{owner}{self.name} {stray} outside [0, {self.bound})")
        return _pack(codes, self.itemsize)

    def decode_array(self, data: bytes | memoryview, count: int = -1) -> np.ndarray:
        if count < 0:
            count, ragged = divmod(len(data), self.itemsize)
            if ragged:
                raise ValueError(f"{len(data)} bytes of {self.itemsize}-byte {self.name}s")
        narrow = self.itemsize < 4
        codes = _unpack(data, count, self.itemsize)
        # (one pass where every code is in range: a narrow code is never negative)
        if codes.size and (codes.max() >= self.bound or not narrow and codes.min() < 0):
            top = (1 << 8 * self.itemsize) - 1 if narrow else _ID_IDENTITY
            stray = _stray(codes, self.bound, None if self.identity is None else top)
            if stray is not None:
                raise ValueError(f"{self.name} code {stray} outside [0, {self.bound})")
            if self.identity is not None and narrow:
                codes[codes == top] = self.identity
        return codes

    def encode_one(self, value) -> bytes:
        return self.encode_array(np.array([value]))

    def decode_one(self, data: bytes | memoryview, offset: int = 0):
        return int(self.decode_array(memoryview(data)[offset : offset + self.itemsize], 1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdCodec(bound={self.bound}, {self.itemsize}B)"


#: vertex ids as values: the codec a program types an id with
ID = IdCodec()
#: the minimum of ids, whose identity crosses as the all-ones code
MIN_ID = Combiner(min, _ID_IDENTITY, ID, np.minimum, "min_id")


def id_codec(channel: Channel) -> IdCodec:
    """The id codec bound to ``channel``'s graph."""
    return IdCodec(channel.worker.graph.num_vertices, channel)


def wire_codec(channel: Channel, codec: Codec) -> Codec:
    """``codec`` as ``channel`` writes it: the id codec bound to its
    graph (:func:`id_codec`), any other as it is."""
    return id_codec(channel) if isinstance(codec, IdCodec) else codec


def set_nbytes(count: int, span: int, width: int) -> tuple[int, int]:
    """Bytes of a set of ``count`` codes from a range of ``span``: as a
    list of ``width``-byte codes, and as a bitmap of one bit per code of
    the range."""
    return count * width, -(-span // 8)


def as_int32(channel: Channel, what: str, values: np.ndarray) -> np.ndarray:
    """``values`` as int32 words, the one narrowing cast of ids as they
    enter a channel (an int32 array is handed back as it is).  A value
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
    """Header words (``values``) on the wire."""
    return as_int32(channel, what, values).tobytes()


def _words(data: memoryview, count: int) -> list[int]:
    """The first ``count`` header words of ``data``, which must hold them."""
    return np.frombuffer(data, dtype=np.int32, count=count).tolist()


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


# -- end of the id codec -------------------------------------------------------


def encode_records(channel: Channel, ids: np.ndarray, values: np.ndarray) -> bytes:
    """One record payload of ``channel``: ``[ids][values]``.  An id
    outside ``[0, V)`` is a ``ValueError`` naming ``channel``."""
    ids = as_int32(channel, "record id", ids)
    return id_codec(channel).encode_array(ids) + channel.value_codec.encode_array(values)


def decode_records(payload: memoryview, codec: Codec, keys: IdCodec) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, values)`` of a payload written by :func:`encode_records`
    with ``keys``, the ids ``VERTEX_ID``.

    On the wire the values start wherever the ids end, which for an odd
    count of 8-byte values is not a multiple of their size; they are
    returned aligned (copied when they are not), because ``ufunc.at`` over
    unaligned values leaves its fast path and runs some 20x slower.  A
    length that is not a whole number of records, or a code ``keys``
    does not decode, raises a ``ValueError``."""
    count, ragged = divmod(len(payload), keys.itemsize + codec.itemsize)
    if ragged:
        raise ValueError(f"a record payload of {len(payload)} bytes, {ragged} past its {count} records")
    split = count * keys.itemsize
    values = _aligned(codec.decode_array(payload[split:], count))
    return keys.decode_array(payload[:split], count), values


def encode_block_records(
    channel: Channel, positions: np.ndarray, values: np.ndarray, block: IdCodec
) -> bytes:
    """One record payload of ``channel`` keyed by positions in the
    receiving block, whose codec is ``block``: a form byte, then
    ``[positions][values]`` (form 0) or — when the positions strictly
    ascend and that is smaller — ``[bitmap over the block][values]``
    (form 1).  Only a sender that knows the receiver's block can address
    its vertices by a bitmap over ``[0, block size)``."""
    listed = block.encode_array(positions)
    bitmap = -(-block.bound // 8)
    if positions.size and bitmap < len(listed) and (np.diff(positions) > 0).all():
        flags = np.zeros(block.bound, dtype=bool)
        flags[positions] = True
        head = b"\x01" + _bitmap(flags)
    else:
        head = b"\x00" + listed
    return head + channel.value_codec.encode_array(values)


def decode_block_records(
    payload: memoryview, codec: Codec, block: IdCodec
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, values)`` of a payload written by
    :func:`encode_block_records`, the positions in ``[0, block.bound)``.
    A form other than 0 or 1, a list that is not whole records, or a
    bitmap whose length or bit count disagrees with the values raises a
    ``ValueError``."""
    if not len(payload) or payload[0] > 1:
        raise ValueError(f"a block payload of {len(payload)} bytes whose form is not 0 or 1")
    body = payload[1:]
    if payload[0] == 0:
        return decode_records(body, codec, block)
    split = -(-block.bound // 8)
    count, ragged = divmod(len(body) - split, codec.itemsize)
    if count < 0 or ragged:
        raise ValueError(f"a block bitmap and values in {len(payload)} bytes")
    values = _aligned(codec.decode_array(body[split:], count))
    return _set_bits(body[:split], block.bound, count), values


def _aligned(values: np.ndarray) -> np.ndarray:
    return values if values.flags.aligned else values.copy()


#: a bitmap announcement's ``[lo][span]``, between its tag and its bitmap
_RANGE_NBYTES = 2 * _WORD


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
    table.  An id outside ``[0, V)``, or a count that does not fit an
    int32 word, raises a ``ValueError`` naming ``channel``."""
    if ids is not None:
        head = _announce_ids(channel, ids, destinations, combined)
    elif changed is not None:
        head, values = _delta(channel, changed, values)
    else:
        head = _DENSE
    return b"".join((*head, channel.value_codec.encode_array(values)))


def _id_set(channel: Channel, what: str, ids: np.ndarray) -> tuple[int, tuple[bytes, ...]]:
    """``(form, parts)`` of the strictly ascending ``ids`` on the wire:
    ``0`` and the id list, or ``1`` and ``[lo][span][bitmap]`` when that
    is smaller."""
    ids = as_int32(channel, what, ids)
    codec = id_codec(channel)
    lo = int(ids[0]) if ids.size else 0
    span = int(ids[-1]) - lo + 1 if ids.size else 0
    as_list, as_bitmap = set_nbytes(ids.size, span, codec.itemsize)
    if _RANGE_NBYTES + as_bitmap >= as_list:
        return 0, (codec.encode_array(ids),)
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
        combined = np.empty(0, dtype=VERTEX_ID)
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
    positions = IdCodec(changed.size, channel, positions=True)
    as_list, as_bitmap = set_nbytes(k, changed.size, positions.itemsize)
    sizes = [changed.size * item, as_list + k * item, as_bitmap + k * item]
    form = sizes.index(min(sizes))
    if form == 0:
        return _DENSE, values
    if form == 1:
        head = (_tag(channel, -1, k, 0), positions.encode_array(np.flatnonzero(changed)))
    else:
        head = (_tag(channel, -1, k, 1), _bitmap(changed))
    return head, values[changed]


def decode_pattern(
    payload: memoryview, codec: Codec, bound: int, size: int | None
) -> tuple[np.ndarray | None, tuple[int, np.ndarray] | None, np.ndarray | None, np.ndarray]:
    """``(ids, senders, positions, values)`` of a payload written by
    :func:`encode_pattern`, at most one of ``ids`` and ``positions`` not
    ``None``: the ids of an announcement (codes of ids in ``[0, bound)``
    or the identity's) and, when it announces senders, ``senders = (d,
    combined ids)``; or the positions of a delta's values, strictly
    ascending in the receiver's pattern of ``size`` values.  List or bitmap, the caller gets the same
    arrays.  The values are aligned, by :func:`decode_records`' rule.  A
    payload that disagrees with its tag — in length, range or bit count —
    or a delta when ``size`` is ``None`` (the receiver has no pattern)
    raises a ``ValueError``."""
    if len(payload) < _WORD:
        raise ValueError(f"a pattern payload of {len(payload)} bytes")
    tag = INT32.decode_one(payload)
    body = payload[_WORD:]
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
        if len(body) < 2 * _WORD:
            raise ValueError(f"{what} of {count} senders in {len(payload)} bytes")
        destinations, word = _words(body, 2)
        combined, body = _combined_set(body[2 * _WORD :], word, bound, len(payload))
        senders = destinations, combined
        values_count += combined.size
    if tag > 0 and not bitmap:  # the values' count is the pattern's business
        ids = IdCodec(bound)
        split = count * ids.itemsize
        if split > len(body):
            raise ValueError(f"{what} of {count} ids in {len(payload)} bytes")
        values = _aligned(codec.decode_array(body[split:]))
        return ids.decode_array(body[:split], count), senders, None, values
    # every other form ends in its count of values
    split = len(body) - values_count * codec.itemsize
    head = _RANGE_NBYTES if tag > 0 else 0  # a bitmap announcement's [lo][span]
    positions = IdCodec(size, positions=True) if tag < 0 else None  # a delta's
    if split < head or (not bitmap and split != count * positions.itemsize):
        raise ValueError(f"{what} of {values_count} values in {len(payload)} bytes")
    values = _aligned(codec.decode_array(body[split:]))
    if not bitmap:
        return None, None, _ascending(positions.decode_array(body[:split], count)), values
    if tag > 0:
        lo, span = _id_range(body[:head], bound)
        return _set_bits(body[head:split], span, count).astype(VERTEX_ID) + lo, senders, None, values
    return None, None, _set_bits(body[:split], size, count), values


def _ascending(positions: np.ndarray) -> np.ndarray:
    """A list delta's positions, which must strictly ascend: anything
    else would patch the wrong value, silently."""
    if (positions[1:] <= positions[:-1]).any():
        raise ValueError("delta positions that do not strictly ascend")
    return positions


def _id_range(data: memoryview, bound: int) -> tuple[int, int]:
    """A bitmap id set's ``[lo][span]``, which must lie in ``[0, bound)``."""
    lo, span = _words(data, 2)
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
        ids = IdCodec(bound)
        end = count * ids.itemsize
        if end > len(body):
            raise ValueError(f"a combined set of {count} ids in {nbytes} bytes")
        return ids.decode_array(body[:end], count), body[end:]
    if len(body) < _RANGE_NBYTES:
        raise ValueError(f"a combined set of {count} ids in {nbytes} bytes")
    lo, span = _id_range(body[:_RANGE_NBYTES], bound)
    end = _RANGE_NBYTES + -(-span // 8)
    if end > len(body):
        raise ValueError(f"a combined set of {count} ids in {nbytes} bytes")
    return _set_bits(body[_RANGE_NBYTES:end], span, count).astype(VERTEX_ID) + lo, body[end:]


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


def receive_records(
    channel: Channel, src: int, payload: memoryview, block: IdCodec | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(local indices, values)`` of the record payload worker ``src``
    sent ``channel``, keyed by ids — or, with ``block`` (the codec of
    positions in this worker's vertices), a payload of
    :func:`encode_block_records`; a malformed one is a ``RuntimeError``
    naming both."""
    try:
        if block is None:
            ids, values = decode_records(
                payload, channel.value_codec, IdCodec(channel.worker.graph.num_vertices)
            )
        else:
            positions, values = decode_block_records(payload, channel.value_codec, block)
    except ValueError as exc:
        raise RuntimeError(f"{channel!r}: worker {src} sent {exc}") from None
    return (local_ids(channel, src, ids) if block is None else positions.astype(np.intp)), values


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
    read back flat, in call order (a scalar row a column's dtype cannot
    hold is NumPy's ``OverflowError`` then, never a wrapped value)."""

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
        self.value_codec = wire_codec(self, value_codec)
        self._out = [
            RecordBuffer(VERTEX_ID, value_codec.dtype) for _ in range(worker.num_workers)
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
        dsts = as_int32(self, "destination id", dsts)
        values = np.asarray(values, dtype=self.value_codec.dtype)
        owners = self.worker.owner.take(dsts)
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
