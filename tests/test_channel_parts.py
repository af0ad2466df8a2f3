"""Relations between the channels that are composed from shared parts
(``core/channels/_records.py``, ``_inbox.py``, ``_edges.py``).

Two runs, assert the relation — no golden values: the same logical
traffic delivered through CombinedMessage, ScatterCombine and
MirroredScatter must land in equal combined inboxes and wake the same
vertices; and every channel's checkpoint capture format (snapshot keys,
their order, array dtypes) is pinned in one table so it cannot move
silently under a refactor.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    MIN_I64,
    MIN_ID,
    MirroredScatter,
    Propagation,
    RequestRespond,
    ScatterCombine,
    SUM_F64,
    SUM_I64,
    VertexProgram,
)
from repro.core.channels import _records
from repro.core.channels._records import IdCodec, decode_records, encode_records
from repro.graph import rmat
from repro.graph.graph import VERTEX_ID
from repro.graph.partition import range_partition
from repro.runtime.serialization import FLOAT64, INT32, INT64
from helpers import line_graph

GRAPH = rmat(7, edge_factor=6, seed=11)

#: how each combining channel is built and how one vertex sends
#: ``value`` to all of its out-neighbours
DELIVERIES = {
    "combined": (
        lambda w: CombinedMessage(w, SUM_I64),
        lambda ch, v, value: [ch.send_message(int(e), value) for e in v.edges],
    ),
    "scatter": (
        lambda w: ScatterCombine(w, SUM_I64),
        lambda ch, v, value: (ch.add_edges(v, v.edges), ch.set_message(v, value)),
    ),
    # threshold 3: rmat hubs cross as mirrored senders and fold at the
    # receiver, the rest combine at the sender, and both reach the inbox
    "mirrored": (
        lambda w: MirroredScatter(w, SUM_I64, threshold=3),
        lambda ch, v, value: (ch.add_edges(v, v.edges), ch.set_message(v, value)),
    ),
}


def deliver(how: str, workers: int):
    """Every vertex sends ``3 * id + 1`` along its out-edges in superstep
    1 and halts; returns the global ``(values, has_msg)`` inbox read in
    superstep 2 and the set of vertices that superstep ran, i.e. woke."""
    make, send = DELIVERIES[how]

    class P(VertexProgram):
        def __init__(self, worker):
            super().__init__(worker)
            self.msg = make(worker)
            self.inbox = None
            self.ran = []

        def compute(self, v):
            if self.step_num == 1:
                if v.out_degree:
                    send(self.msg, v, 3 * v.id + 1)
            else:
                if self.inbox is None:
                    values, has_msg = self.msg.get_messages()
                    self.inbox = values.copy(), has_msg.copy()
                self.ran.append(v.id)
            v.vote_to_halt()

    engine = ChannelEngine(GRAPH, P, num_workers=workers)
    assert engine.run().supersteps == 2
    values = np.full(GRAPH.num_vertices, SUM_I64.identity, dtype=np.int64)
    has_msg = np.zeros(GRAPH.num_vertices, dtype=bool)
    woken = []
    for worker in engine.workers:
        woken += worker.program.ran
        if worker.program.inbox is not None:  # no receiver here: nothing ran
            values[worker.local_ids], has_msg[worker.local_ids] = worker.program.inbox
    return values, has_msg, sorted(woken)


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("how", ["scatter", "mirrored"])
def test_same_traffic_same_inbox_and_woken_set(how, workers):
    values, has_msg, woken = deliver(how, workers)
    ref_values, ref_has_msg, ref_woken = deliver("combined", workers)
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(has_msg, ref_has_msg)
    assert woken == ref_woken == np.flatnonzero(ref_has_msg).tolist()
    assert len(woken) > GRAPH.num_vertices // 2


# -- the receive: record values are aligned once decoded -------------------------


def test_decode_records_returns_aligned_values_at_any_payload_offset():
    """An odd count puts the float64 column 4 bytes past a multiple of 8
    (and a frame can start anywhere in a ring): the wire stays as it is,
    the decoded values are aligned (``ufunc.at`` is ~20x slower
    otherwise) and equal to what was encoded."""
    ids = np.arange(5, dtype=np.int32) * 3
    values = np.array([0.1, -2.5, np.inf, 1e-300, 7.0])
    payload = encode_records(_receiver(CombinedMessage)[0], ids, values)
    assert len(payload) == 5 * (2 + 8)  # 2-byte ids: V = 300
    raw_alignment = []
    for offset in (0, 4, 8):
        buffer = bytearray(offset) + payload
        view = memoryview(buffer)[offset:]
        raw_alignment.append(np.frombuffer(view[5 * 2 :], np.float64).flags.aligned)
        got_ids, got_values = decode_records(view, FLOAT64, IdCodec(_V))
        assert got_values.flags.aligned and got_values.dtype == np.float64
        assert got_ids.dtype == VERTEX_ID and got_ids.tolist() == ids.tolist()
        assert got_values.tobytes() == values.tobytes()
    # 10 bytes of ids: the wire view itself was unaligned somewhere
    assert not all(raw_alignment)


def test_request_respond_values_are_aligned_after_an_odd_response():
    """``RequestRespond`` decodes its own responses; they reach the
    program through ``np.concatenate``, which realigns them.  Two channels
    answer in one round: 3 int32 values ahead put the int64 answers 4
    bytes past a multiple of 8 in the peer's buffer."""
    raw_aligned = []

    class Int64Answers(RequestRespond):
        def _deserialize_responses(self, payloads):
            raw_aligned.extend(np.frombuffer(p, np.uint8).ctypes.data % 8 == 0 for _, p in payloads)
            super()._deserialize_responses(payloads)

    class Ask(VertexProgram):
        def __init__(self, worker):
            super().__init__(worker)
            self.rr32 = RequestRespond(worker, respond_fn=lambda v: v.id, codec=INT32)
            self.rr64 = Int64Answers(worker, respond_fn=lambda v: 10 * v.id)
            self.got = None

        def compute(self, v):
            if self.step_num == 1 and v.id < 3:
                self.rr32.add_request(v, 8 + v.id)  # 3 answers of 4 bytes ...
                self.rr64.add_request(v, 8 + v.id)  # ... ahead of 3 of 8
            elif self.step_num == 2:
                self.got = self.rr64._resp_vals
            v.vote_to_halt()

    engine = ChannelEngine(line_graph(16), Ask, num_workers=2, partition=range_partition(16, 2))
    engine.run()
    got = engine.workers[0].program.got
    assert got.tolist() == [80, 90, 100] and got.flags.aligned
    assert raw_aligned == [False]


def _fold_on_worker_1(how: str, count: int):
    """Worker 0 sends ``count`` records to worker 1 of a 16-vertex range
    partition; returns worker 1's combined slots next superstep and the
    left-to-right Python fold of the same records."""
    expected = [0.0] * 8
    if how == "combined":
        records = [(8 + j % 3, 0.1 * (j + 1)) for j in range(count)]
        for dst, value in records:  # one record per send, folded on arrival
            expected[dst - 8] += value
    else:
        for dst in range(8, 8 + count):  # one record per destination
            expected[dst - 8] = 0.375 + 0.75 + 1.125  # exact in any order

    class P(VertexProgram):
        def __init__(self, worker):
            super().__init__(worker)
            make = CombinedMessage if how == "combined" else ScatterCombine
            self.msg = make(worker, SUM_F64)
            self.slots = None

        def compute(self, v):
            if self.step_num == 2:
                self.slots = self.msg.get_messages()[0].copy()
            elif how == "combined" and v.id == 0:
                for dst, value in records:
                    self.msg.send_message(dst, value)
            elif how == "scatter" and v.id < 3:
                self.msg.add_edges(v, np.arange(8, 8 + count))
                self.msg.set_message(v, 0.375 * (v.id + 1))
            v.vote_to_halt()

    engine = ChannelEngine(line_graph(16), P, num_workers=2, partition=range_partition(16, 2))
    result = engine.run()
    assert result.metrics.total_messages == count
    return engine.workers[1].program.slots.tolist(), expected


@pytest.mark.parametrize("how", ["combined", "scatter"])
def test_odd_and_even_record_counts_fold_alike(how):
    """7 records put the values of the one payload at a 4-byte offset, 8
    do not; both fold to the Python sum, bit for bit."""
    for count in (7, 8):
        got, expected = _fold_on_worker_1(how, count)
        assert [x.hex() for x in got] == [x.hex() for x in expected]


#: the checkpoint capture format: per channel, its snapshot keys in order,
#: each with the array dtype (or the Python type of a non-array value)
SNAPSHOT_FORMAT = {
    DirectMessage: {"recv_indptr": "int64", "recv_vals": "int64"},
    CombinedMessage: {"slots": "float64", "has_msg": "bool"},
    Aggregator: {"partial": float, "contributed": bool, "result": float, "global": float},
    ScatterCombine: {
        "edge_src": "int64",
        "edge_dst": "int32",
        "values": "float64",
        "dirty": bool,
        "slots": "float64",
        "has_msg": "bool",
        "announced": bool,
        "patterns": dict,
        "sent": dict,
        "received": dict,
    },
    RequestRespond: {"resp_keys": "int32", "resp_vals": "int64", "asked": list},
    Propagation: {
        "edge_src": "int64",
        "edge_dst": "int32",
        "edge_w": "float64",
        "values": "int64",
        "dirty": list,
        "pending": list,
    },
    MirroredScatter: {
        "edge_src": "int64",
        "edge_dst": "int32",
        "values": "float64",
        "dirty": bool,
        "slots": "float64",
        "has_msg": "bool",
        "announced": bool,
        "patterns": dict,
        "sent": dict,
        "received": dict,
    },
}

_BUILD = {
    DirectMessage: lambda w: DirectMessage(w),
    CombinedMessage: lambda w: CombinedMessage(w, SUM_F64),
    Aggregator: lambda w: Aggregator(w, SUM_F64),
    ScatterCombine: lambda w: ScatterCombine(w, SUM_F64),
    RequestRespond: lambda w: RequestRespond(w, respond_fn=lambda v: v.id),
    Propagation: lambda w: Propagation(w, MIN_I64),
    MirroredScatter: lambda w: MirroredScatter(w, SUM_F64),
}


@pytest.mark.parametrize("cls", list(SNAPSHOT_FORMAT), ids=lambda c: c.__name__)
def test_snapshot_keys_and_dtypes_are_pinned(cls):
    class Idle(VertexProgram):
        def compute(self, v):
            v.vote_to_halt()

    worker = ChannelEngine(GRAPH, Idle, num_workers=2).workers[0]
    channel = _BUILD[cls](worker)
    if hasattr(channel, "add_edge"):  # scalar and per-vertex registration
        v = worker._vertex._bind(0)
        channel.add_edge(v, 5)
        channel.add_edges(v, np.array([6, 7]))
    snap = channel.snapshot()
    got = {
        key: str(val.dtype) if isinstance(val, np.ndarray) else type(val)
        for key, val in snap.items()
    }
    assert list(got.items()) == list(SNAPSHOT_FORMAT[cls].items())
    if "edge_dst" in snap:
        assert snap["edge_dst"].tolist() == [5, 6, 7]


#: the same table for an edge set registered with ``add_adjacency``: the
#: direction under one key where the two columns were, the rest unchanged
ADJACENCY_SNAPSHOT_FORMAT = {
    ScatterCombine: {
        "edge_adjacency": str,
        "values": "float64",
        "dirty": bool,
        "slots": "float64",
        "has_msg": "bool",
        "announced": bool,
        "patterns": dict,
        "sent": dict,
        "received": dict,
    },
    MirroredScatter: {
        "edge_adjacency": str,
        "values": "float64",
        "dirty": bool,
        "slots": "float64",
        "has_msg": "bool",
        "announced": bool,
        "patterns": dict,
        "sent": dict,
        "received": dict,
    },
}


@pytest.mark.parametrize("cls", list(ADJACENCY_SNAPSHOT_FORMAT), ids=lambda c: c.__name__)
@pytest.mark.parametrize("built", [False, True], ids=["registered", "built"])
def test_adjacency_snapshot_keys_are_pinned(cls, built):
    class Idle(VertexProgram):
        def compute(self, v):
            v.vote_to_halt()

    worker = ChannelEngine(GRAPH, Idle, num_workers=2).workers[0]
    channel = _BUILD[cls](worker)
    channel.add_adjacency("in")
    if built:
        channel._build()
    snap = channel.snapshot()
    got = {
        key: str(val.dtype) if isinstance(val, np.ndarray) else type(val)
        for key, val in snap.items()
    }
    assert list(got.items()) == list(ADJACENCY_SNAPSHOT_FORMAT[cls].items())
    assert snap["edge_adjacency"] == "in"


# -- malformed payloads: every receiver names the channel and the source --------


def _ones(n, dtype=np.float64):
    return np.ones(n, dtype=dtype)


#: the receivers' graph: 300 vertices, whose ids cross in 2 bytes
_V = 300


def _raw(ids) -> bytes:
    """``ids`` as 2-byte codes, written past the encoders' checks."""
    return _records._pack(np.asarray(ids), 2)


#: per receiving channel: how it is built, and the payload that sends ``ids``
RECEIVERS = {
    CombinedMessage: (
        lambda w: CombinedMessage(w, SUM_F64),
        lambda ch, ids: _raw(ids) + _ones(len(ids)).tobytes(),
    ),
    DirectMessage: (
        DirectMessage,
        lambda ch, ids: _raw(ids) + _ones(len(ids), np.int64).tobytes(),
    ),
    Propagation: (
        lambda w: Propagation(w, MIN_I64),
        lambda ch, ids: _raw(ids) + _ones(len(ids), np.int64).tobytes(),
    ),
    RequestRespond: (
        lambda w: RequestRespond(w, respond_fn=lambda v: v.id),
        lambda ch, ids: _raw(ids),
    ),
    # an announcement of the ids, which ascend as an announced set does
    ScatterCombine: (
        lambda w: ScatterCombine(w, SUM_F64),
        lambda ch, ids: INT32.encode_one(4 * len(ids) + 1) + _raw(np.sort(ids)) + _ones(len(ids)).tobytes(),
    ),
}

#: on worker 1 of a 300-vertex range partition, which owns 150..299; a
#: negative id has no code below 4 bytes, and the all-ones one is the
#: identity of a MIN over ids, which no receiver owns
BAD_IDS = {
    "the identity": ([151, MIN_ID.identity], r"id 2147483647 outside \[0, 300\)"),
    "past the last": ([151, 300], r".*id code 300 outside \[0, 300\)"),
    "owned elsewhere": ([151, 3], r"id 3, which worker 1 does not own"),
}


def _receiver(cls):
    class Idle(VertexProgram):
        def compute(self, v):
            v.vote_to_halt()

    engine = ChannelEngine(line_graph(_V), Idle, num_workers=2, partition=range_partition(_V, 2))
    make, payload = RECEIVERS[cls]
    return make(engine.workers[1]), payload


@pytest.mark.parametrize("bad", list(BAD_IDS))
@pytest.mark.parametrize("cls", list(RECEIVERS), ids=lambda c: c.__name__)
def test_a_received_id_the_worker_cannot_index_is_refused(cls, bad):
    """Received ids index the position table: unchecked, a negative one wraps
    to the last vertex, one past the last raises a bare ``IndexError`` and
    one owned elsewhere (-1 there) folds into the last slot."""
    channel, payload = _receiver(cls)
    ids, match = BAD_IDS[bad]
    with pytest.raises(RuntimeError, match=rf"{cls.__name__}.*worker 0 sent {match}"):
        channel.deserialize([(0, memoryview(payload(channel, ids)))])


@pytest.mark.parametrize("cls", list(RECEIVERS), ids=lambda c: c.__name__)
def test_a_ragged_payload_is_refused(cls):
    """One byte short of whole records: the partial record is an error,
    never dropped silently."""
    channel, payload = _receiver(cls)
    with pytest.raises(RuntimeError, match=rf"{cls.__name__}.*worker 0 sent"):
        channel.deserialize([(0, memoryview(payload(channel, [151, 152])[:-1]))])


# -- the send: an id int32 cannot hold is refused by name, never wrapped ----------


def test_a_record_id_past_int32_is_refused():
    """``encode_records`` serves ``CombinedMessage``, ``DirectMessage`` and
    ``Propagation``; a plain int32 cast would send 2**31 as -2**31."""
    channel, _ = _receiver(CombinedMessage)
    with pytest.raises(ValueError, match=r"CombinedMessage.*record id 2147483648 does not fit"):
        encode_records(channel, np.array([151, 2**31]), _ones(2))


def test_a_request_id_past_int32_is_refused():
    """Request ids are narrowed to ``VERTEX_ID`` as they enter, so one
    that does not fit is refused by the request itself, by name."""
    channel, _ = _receiver(RequestRespond)
    with pytest.raises(ValueError, match=r"RequestRespond.*request id 2147483648 does not fit"):
        channel.add_requests([0, 1], [9, 2**31])
