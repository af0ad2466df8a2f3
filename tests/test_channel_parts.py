"""Relations between the channels that are composed from shared parts
(``core/channels/_records.py``, ``_inbox.py``, ``_edges.py``).

Two runs, assert the relation — no golden values: the same logical
traffic delivered through CombinedMessage, ScatterCombine and
MirroredScatter must land in equal combined inboxes and wake the same
vertices; and every channel's checkpoint capture format (snapshot keys,
their order, array dtypes) is pinned in one table so it cannot move
silently under a refactor.
"""

import numpy as np
import pytest

from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    MIN_I64,
    MirroredScatter,
    Propagation,
    RequestRespond,
    ScatterCombine,
    SUM_F64,
    SUM_I64,
    VertexProgram,
)
from repro.graph import rmat

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
    # threshold 3: rmat hubs go through the mirrored section, the rest
    # through the plain one, so both reach the shared inbox
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


#: the checkpoint capture format: per channel, its snapshot keys in order,
#: each with the array dtype (or the Python type of a non-array value)
SNAPSHOT_FORMAT = {
    DirectMessage: {"recv_indptr": "int64", "recv_vals": "int64"},
    CombinedMessage: {"slots": "float64", "has_msg": "bool"},
    Aggregator: {"partial": float, "contributed": bool, "result": float, "global": float},
    ScatterCombine: {
        "edge_src": "int64",
        "edge_dst": "int64",
        "values": "float64",
        "sent_mask": "bool",
        "dirty": bool,
        "slots": "float64",
        "has_msg": "bool",
    },
    RequestRespond: {"resp_keys": "int64", "resp_vals": "int64", "asked": list},
    Propagation: {
        "edge_src": "int64",
        "edge_dst": "int64",
        "edge_w": "float64",
        "values": "int64",
        "dirty": list,
        "pending": list,
        "deferred": list,
    },
    MirroredScatter: {
        "edge_src": "int64",
        "edge_dst": "int64",
        "values": "float64",
        "dirty": bool,
        "slots": "float64",
        "has_msg": "bool",
        "expansion": dict,
        "setup_sent": bool,
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
