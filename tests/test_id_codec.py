"""The id codec: every vertex id and position crosses the wire as wide as
its bound needs, and every decoder of ids is total at every width.

At each of V = 255, 256, 65 535, 65 536, 2**24 - 1 and 2**24 (the edges
of the 1-, 2-, 3- and 4-byte widths) every id below V, and the identity
of a MIN over ids, round-trips through ``decode_records``,
``decode_pattern`` (announced ids as a list and a bitmap, senders, the
combined set, a delta's list and bitmap), ``decode_block_records``
(Blogel's records, keyed by position in a block) and ``RequestRespond``'s
request and response decode.  A truncated, extended or spliced payload
is refused with a ``ValueError`` (the pure decoders) or a
``RuntimeError`` naming the worker that sent it, or read as what its
bytes say: never an ``IndexError``, never an id outside ``[0, V)`` but
the identity, never a position outside the pattern.  A code that stands
for no id is always refused.

The channels here sit on a stub worker that owns the even ids of a
graph it never allocates, so the widest bounds cost no V-sized array.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import mover
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import ID, MIN_ID, RequestRespond
from repro.core.channels import _records
from repro.core.channels._records import (
    IdCodec,
    code_width,
    decode_block_records,
    decode_pattern,
    decode_records,
    encode_block_records,
    encode_pattern,
    encode_records,
    id_width,
    receive_records,
    wire_codec,
)
from repro.graph import rmat
from repro.graph.graph import VERTEX_ID
from repro.runtime.serialization import FLOAT64, INT32

BOUNDS = [255, 256, 65_535, 65_536, 2**24 - 1, 2**24]
WIDTHS = dict(zip(BOUNDS, [1, 2, 2, 3, 3, 4]))
IDENTITY = MIN_ID.identity
#: the value codecs of the payloads: ids (each one's all-ones code is the
#: identity) and floats
CODECS = {"ids": ID, "floats": FLOAT64}

quick = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class _Worker:
    """What the encoders and the receive paths read of a worker: a graph
    of ``bound`` vertices (no array of them), of which worker 0 owns the
    even ids and worker 1 the odd ones."""

    num_workers = 2

    def __init__(self, bound: int, worker_id: int = 0) -> None:
        self.graph = SimpleNamespace(num_vertices=bound)
        self.worker_id = worker_id
        self.channels: list = []

    def register_channel(self, channel) -> int:
        self.channels.append(channel)
        return len(self.channels) - 1

    def local_index(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        return np.where(ids % 2 == self.worker_id, ids // 2, -1).astype(np.intp)

    def activate_local_bulk(self, local: np.ndarray) -> None:
        pass


class _Channel:
    """A channel as the encoders see it: its worker and value codec."""

    def __init__(self, bound: int, codec) -> None:
        self.worker = _Worker(bound)
        self.value_codec = wire_codec(self, codec)

    def __repr__(self) -> str:
        return "Stub(worker=0)"


def _ids(bound: int, *, identity: bool = False, unique: bool = False, max_size: int = 24):
    """Lists of ids below ``bound`` (sorted and unique for ``unique``),
    the identity among them for ``identity``; half the time in a small
    window, so that a set of them is smaller as a bitmap."""
    any_id = st.integers(0, bound - 1)
    if identity:
        any_id = st.one_of(any_id, st.just(IDENTITY))

    def lists(element):
        ids = st.lists(element, max_size=max_size, unique=unique)
        return ids.map(sorted) if unique else ids

    windowed = st.integers(0, bound - 64).flatmap(lambda lo: lists(st.integers(lo, lo + 63)))
    return st.one_of(lists(any_id), windowed)


def _values(codec, count: int, bound: int):
    if codec is FLOAT64:
        return st.lists(st.floats(allow_nan=False), min_size=count, max_size=count)
    return st.lists(
        st.one_of(st.integers(0, bound - 1), st.just(IDENTITY)), min_size=count, max_size=count
    )


def _array(codec, values) -> np.ndarray:
    return np.asarray(values, dtype=codec.dtype)


@st.composite
def _mutated(draw, payload: bytes, other: bytes) -> bytes:
    """``payload`` truncated, extended, or spliced with ``other`` (a valid
    payload of the same kind) at a cut of each."""
    kind = draw(st.sampled_from(["truncate", "extend", "splice"]))
    if kind == "truncate" and payload:
        return payload[: draw(st.integers(0, len(payload) - 1))]
    if kind == "extend" or not payload:
        return payload + draw(st.binary(min_size=1, max_size=9))
    cut, at = draw(st.integers(0, len(payload))), draw(st.integers(0, len(other)))
    return payload[:cut] + other[at:]


def _legal_ids(ids: np.ndarray, bound: int) -> None:
    assert ids.dtype == VERTEX_ID
    assert (((ids >= 0) & (ids < bound)) | (ids == IDENTITY)).all()


def _legal_values(values: np.ndarray, codec, bound: int) -> None:
    assert values.flags.aligned
    if codec is not FLOAT64:
        _legal_ids(values, bound)


def _stray_codes(bound: int) -> list[int]:
    """Codes at ``bound``'s width that stand for no id: between the last
    id and the identity's all-ones code, and (at 4 bytes) the negatives."""
    width = id_width(bound)
    top = IDENTITY if width == 4 else (1 << 8 * width) - 1
    codes = [code for code in (bound, (bound + top) // 2, top - 1) if bound <= code < top]
    return codes + ([-1, -(2**31)] if width == 4 else [])


# -- the width rule -----------------------------------------------------------------


@pytest.mark.parametrize("bound", BOUNDS)
def test_an_id_takes_the_fewest_bytes_that_hold_v_ids_and_the_identity(bound):
    assert id_width(bound) == _Channel(bound, ID).value_codec.itemsize == WIDTHS[bound]
    # a position into n values needs n codes only
    assert code_width(256) == 1 and code_width(257) == 2 and code_width(1 << 24) == 3


def test_an_unbound_id_codec_is_four_bytes():
    assert ID.itemsize == 4 and ID.dtype == VERTEX_ID


# -- ids as values ----------------------------------------------------------------


@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_ids_and_the_identity_round_trip(bound, data):
    codec = _Channel(bound, ID).value_codec
    ids = np.asarray(data.draw(_ids(bound, identity=True)), dtype=VERTEX_ID)
    payload = codec.encode_array(ids)
    assert len(payload) == ids.size * WIDTHS[bound]
    decoded = codec.decode_array(memoryview(payload))
    assert decoded.dtype == VERTEX_ID
    np.testing.assert_array_equal(decoded, ids)


@pytest.mark.parametrize("bound", BOUNDS)
def test_a_code_that_stands_for_no_id_is_refused(bound):
    channel = _Channel(bound, ID)
    codec, width = channel.value_codec, WIDTHS[bound]
    for code in _stray_codes(bound):
        codes = np.array([0, code, bound - 1], dtype=np.int64)
        with pytest.raises(ValueError, match=rf"id code {code} outside \[0, {bound}\)"):
            codec.decode_array(memoryview(_records._pack(codes, width)))
        with pytest.raises(ValueError, match=rf"Stub\(worker=0\): id {code} outside"):
            codec.encode_array(codes)
    with pytest.raises(ValueError, match=rf"{2 * width + 1} bytes for 2 codes"):
        codec.decode_array(memoryview(bytes(2 * width + 1)), 2)
    if width > 1:
        with pytest.raises(ValueError, match=rf"{2 * width + 1} bytes of {width}-byte ids"):
            codec.decode_array(memoryview(bytes(2 * width + 1)))


# -- record payloads ----------------------------------------------------------------


@pytest.mark.parametrize("values", sorted(CODECS))
@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_records_round_trip_or_are_refused(bound, values, data):
    channel = _Channel(bound, CODECS[values])
    codec = channel.value_codec

    def payload():
        ids = data.draw(_ids(bound))
        return encode_records(channel, np.asarray(ids), _array(codec, data.draw(_values(codec, len(ids), bound))))

    first, other = payload(), payload()
    ids, vals = decode_records(memoryview(first), codec, IdCodec(bound))
    assert encode_records(channel, ids, vals) == first
    mutated = data.draw(_mutated(first, other))
    try:
        ids, vals = decode_records(memoryview(mutated), codec, IdCodec(bound))
    except ValueError:
        with pytest.raises(RuntimeError, match=r"Stub\(worker=0\): worker 1 sent "):
            receive_records(channel, 1, memoryview(mutated))
        return
    _legal_ids(ids, bound)
    _legal_values(vals, codec, bound)
    assert encode_records(channel, ids, vals) == mutated  # what its bytes say


@pytest.mark.parametrize("values", sorted(CODECS))
@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_block_records_round_trip_or_are_refused(bound, values, data):
    """Blogel's records, keyed by position in a receiving block of
    ``bound`` vertices: a list of positions, or a bitmap over the block
    where they ascend and that is smaller."""
    channel = _Channel(bound, CODECS[values])
    codec, block = channel.value_codec, IdCodec(bound, channel, positions=True)

    def payload():
        ascending = data.draw(st.booleans())
        positions = np.asarray(data.draw(_ids(bound, unique=ascending, max_size=80)), dtype=np.int64)
        vals = _array(codec, data.draw(_values(codec, positions.size, bound)))
        return encode_block_records(channel, positions, vals, block), positions, vals

    (first, positions, vals), (other, _, _) = payload(), payload()
    got, got_vals = decode_block_records(memoryview(first), codec, block)
    np.testing.assert_array_equal(got, positions)
    np.testing.assert_array_equal(got_vals, vals)
    mutated = data.draw(_mutated(first, other))
    try:
        got, got_vals = decode_block_records(memoryview(mutated), codec, block)
    except ValueError:
        with pytest.raises(RuntimeError, match=r"Stub\(worker=0\): worker 1 sent "):
            receive_records(channel, 1, memoryview(mutated), block)
        return
    assert ((got >= 0) & (got < bound)).all() and got.size == got_vals.size
    _legal_values(got_vals, codec, bound)


def test_ascending_block_positions_cross_as_a_bitmap_where_it_is_smaller():
    channel = _Channel(256, FLOAT64)
    block = IdCodec(256, channel, positions=True)
    dense, values = np.arange(0, 256, 4), np.ones(64)
    # 64 positions: 32 bytes of bitmap against 64 of list; unsorted, a list
    assert len(encode_block_records(channel, dense, values, block)) == 1 + 32 + 64 * 8
    assert len(encode_block_records(channel, dense[::-1], values, block)) == 1 + 64 + 64 * 8
    with pytest.raises(ValueError, match="form is not 0 or 1"):
        decode_block_records(memoryview(b"\x02" + bytes(9)), FLOAT64, block)


# -- pattern payloads -----------------------------------------------------------------


def _announcement(data, channel, bound: int):
    """An announcement of ids or of senders (behind a destination count
    and a combined set), and what decoding it must give."""
    ids = np.asarray(data.draw(_ids(bound, unique=True)), dtype=VERTEX_ID)
    if data.draw(st.booleans()):
        values = _array(channel.value_codec, data.draw(_values(channel.value_codec, ids.size, bound)))
        return encode_pattern(channel, values, ids=ids), (ids, None, values)
    combined = np.asarray(data.draw(_ids(bound, unique=True)), dtype=VERTEX_ID)
    destinations = data.draw(st.integers(0, 2**31 - 1))
    count = combined.size + ids.size
    values = _array(channel.value_codec, data.draw(_values(channel.value_codec, count, bound)))
    payload = encode_pattern(channel, values, ids=ids, destinations=destinations, combined=combined)
    return payload, (ids, (destinations, combined), values)


def _delta(data, channel, bound: int):
    n = data.draw(st.integers(1, 80))
    values = _array(channel.value_codec, data.draw(_values(channel.value_codec, n, bound)))
    changed = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    payload = encode_pattern(channel, values, changed=changed)
    return payload, n, changed, values


def _check_pattern(out, codec, bound: int, size: int | None) -> None:
    ids, senders, positions, values = out
    if ids is not None:
        _legal_ids(ids, bound)
    if senders is not None:
        _legal_ids(senders[1], bound)
    if positions is not None:
        assert (np.diff(positions) > 0).all() and (positions < size).all() and (positions >= 0).all()
    _legal_values(values, codec, bound)


@pytest.mark.parametrize("values", sorted(CODECS))
@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_announcements_round_trip_or_are_refused(bound, values, data):
    channel = _Channel(bound, CODECS[values])
    codec = channel.value_codec
    first, (ids, senders, vals) = _announcement(data, channel, bound)
    other, _ = _announcement(data, channel, bound)
    got_ids, got_senders, positions, got_vals = decode_pattern(memoryview(first), codec, bound, None)
    np.testing.assert_array_equal(got_ids, ids)
    assert positions is None and got_ids.dtype == VERTEX_ID
    if senders is None:
        assert got_senders is None
    else:
        assert got_senders[0] == senders[0]
        np.testing.assert_array_equal(got_senders[1], senders[1])
    np.testing.assert_array_equal(got_vals, vals)
    mutated = data.draw(_mutated(first, other))
    try:
        out = decode_pattern(memoryview(mutated), codec, bound, None)
    except ValueError:
        return
    _check_pattern(out, codec, bound, None)


@pytest.mark.parametrize("values", sorted(CODECS))
@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_deltas_round_trip_or_are_refused(bound, values, data):
    channel = _Channel(bound, CODECS[values])
    codec = channel.value_codec
    first, n, changed, vals = _delta(data, channel, bound)
    other = _delta(data, channel, bound)[0]
    _, _, positions, got = decode_pattern(memoryview(first), codec, bound, n)
    if positions is None:  # dense was smaller
        np.testing.assert_array_equal(got, vals)
    else:
        np.testing.assert_array_equal(positions, np.flatnonzero(changed))
        np.testing.assert_array_equal(got, vals[changed])
    mutated = data.draw(_mutated(first, other))
    try:
        out = decode_pattern(memoryview(mutated), codec, bound, n)
    except ValueError:
        return
    _check_pattern(out, codec, bound, n)


@pytest.mark.parametrize("bound", BOUNDS)
def test_every_form_carries_ids_at_the_width_of_v(bound):
    """The list forms price and write an id at ``id_width(V)``, a
    position at ``code_width(n)``; a stray code in any id list of a
    pattern payload is refused."""
    channel, width = _Channel(bound, FLOAT64), WIDTHS[bound]
    codec, sparse = channel.value_codec, np.array([0, bound - 1], dtype=VERTEX_ID)
    dense = np.arange(bound - 40, bound, dtype=VERTEX_ID)
    cases = {
        "announce, list": (dict(ids=sparse), 4 + 2 * width),
        "announce, bitmap": (dict(ids=dense), 4 + 8 + 5),
        "announce senders, list": (dict(ids=sparse, destinations=3, combined=sparse), 4 + 8 + 4 * width),
        "announce senders, bitmap": (dict(ids=dense, destinations=3, combined=dense), 4 + 8 + 2 * 13),
    }
    for form, (args, head) in cases.items():
        count = args["ids"].size + args.get("combined", sparse[:0]).size
        payload = encode_pattern(channel, np.ones(count), **args)
        assert len(payload) == head + 8 * count, form
        got = decode_pattern(memoryview(payload), codec, bound, None)
        np.testing.assert_array_equal(got[0], args["ids"])
    # a list delta of 2 positions into 300 values: 2 bytes a position
    changed = np.isin(np.arange(300), [5, 299])
    payload = encode_pattern(channel, np.ones(300), changed=changed)
    assert len(payload) == 4 + 2 * (2 + 8)
    # a stray code where the list announcement's second id is
    for code in _stray_codes(bound):
        ids = _records._pack(np.array([0, code]), width)
        payload = INT32.encode_one(4 * 2 + 1) + ids + np.ones(2).tobytes()
        with pytest.raises(ValueError, match=rf"id code {code} outside"):
            decode_pattern(memoryview(payload), codec, bound, None)


# -- RequestRespond's conversation ------------------------------------------------------


def _requester(bound: int, codec) -> RequestRespond:
    # worker 0 answers each request with the id asked for
    return RequestRespond(_Worker(bound), None, codec, respond_fn_bulk=lambda local: 2 * local)


@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_requests_round_trip_or_are_refused(bound, data):
    rr = _requester(bound, ID)
    asked = [np.asarray(data.draw(_ids(bound // 2, unique=True))) * 2 for _ in range(2)]
    first, other = (rr._ids.encode_array(ids) for ids in asked)
    rr._deserialize_requests([(1, memoryview(first))])
    np.testing.assert_array_equal(rr._responses_out[1], asked[0])
    mutated = data.draw(_mutated(first, other))
    try:
        rr._deserialize_requests([(1, memoryview(mutated))])
    except RuntimeError as exc:
        assert "worker 1 sent" in str(exc)
        return
    # read as what its bytes say: ids of worker 0's, each answered
    ids = rr._ids.decode_array(memoryview(mutated))
    np.testing.assert_array_equal(rr._responses_out[1], ids)


@pytest.mark.parametrize("values", sorted(CODECS))
@pytest.mark.parametrize("bound", BOUNDS)
@quick
@given(data=st.data())
def test_responses_round_trip_or_are_refused(bound, values, data):
    rr = _requester(bound, CODECS[values])
    codec = rr.value_codec
    asked = np.asarray(data.draw(_ids(bound // 2, unique=True).filter(len)), dtype=VERTEX_ID) * 2 + 1
    answers = [_array(codec, data.draw(_values(codec, asked.size, bound))) for _ in range(2)]
    first, other = (codec.encode_array(vals) for vals in answers)
    rr._asked = [asked[:0], asked]
    rr._deserialize_responses([(1, memoryview(first))])
    np.testing.assert_array_equal(rr._resp_keys, asked)
    np.testing.assert_array_equal(rr._resp_vals, answers[0])
    mutated = data.draw(_mutated(first, other))
    rr._asked = [asked[:0], asked]
    try:
        rr._deserialize_responses([(1, memoryview(mutated))])
    except RuntimeError as exc:
        assert "worker 1 sent" in str(exc)
        return
    assert len(mutated) == len(first)
    _legal_values(rr._resp_vals, codec, bound)
    assert codec.encode_array(rr._resp_vals) == mutated


@pytest.mark.parametrize("bound", BOUNDS)
def test_a_stray_code_in_a_request_or_response_is_refused(bound):
    rr = _requester(bound, ID)
    for code in _stray_codes(bound):
        payload = memoryview(_records._pack(np.array([code]), WIDTHS[bound]))
        with pytest.raises(RuntimeError, match=rf"worker 1 sent request ids: id code {code}"):
            rr._deserialize_requests([(1, payload)])
        rr._asked = [np.empty(0, dtype=VERTEX_ID), np.array([1], dtype=VERTEX_ID)]
        with pytest.raises(RuntimeError, match=rf"worker 1 sent responses: id code {code}"):
            rr._deserialize_responses([(1, payload)])


def test_a_response_nobody_asked_for_is_refused():
    rr = _requester(256, ID)
    with pytest.raises(RuntimeError, match="worker 1 sent responses nobody asked for"):
        rr._deserialize_responses([(1, memoryview(rr.value_codec.encode_array([3])))])


# -- 3-byte ids across the process backend ------------------------------------------------


@pytest.fixture(scope="module")
def wide_graph():
    """An undirected graph past 2**16 vertices: its ids cross in 3 bytes."""
    graph = rmat(17, edge_factor=1, seed=5, directed=False)
    assert id_width(graph.num_vertices) == 3
    return graph


@pytest.mark.parametrize("name", ["shm", "pipe"])
def test_three_byte_ids_cross_the_process_backend_as_in_sim(wide_graph, name):
    runs = {
        "sv": lambda **kw: run_sv(wide_graph, variant="both", **kw),
        "wcc": lambda **kw: run_wcc(wide_graph, variant="basic", mode="bulk", **kw),
    }
    for algorithm, run in runs.items():
        sim_labels, sim = run(num_workers=2)
        with mover(name):
            labels, proc = run(num_workers=2, executor="process")
        np.testing.assert_array_equal(labels, sim_labels)
        assert proc.metrics.channel_breakdown() == sim.metrics.channel_breakdown(), algorithm
        assert proc.metrics.total_net_bytes == sim.metrics.total_net_bytes
        assert proc.metrics.total_messages == sim.metrics.total_messages
