"""Which end of a peer's edges ``ScatterCombine`` folds each destination
at: the sender, which sends one combined value for it, or — once the own
values of all its senders cross — the receiver, which folds them along
rows it reads from its own graph.  Per peer the destinations the
receiver folds are chosen by the data: the shortest prefix of them, by
ascending in-degree, that sends the fewest values names the senders that
cross, and every destination they alone reach is folded at the receiver.

The property: over any graph, partition, worker count, registration form
and combiner, every receiver's slots are the numpy oracle's fold (each
sender reduces its edges into each destination in destination order, the
receiver folds those in source order), and the channel's bytes are the
closed form that prices that choice per peer by brute force
(:func:`test_static_pattern.split_nbytes`).
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import MOVERS, mover, scan_segments
from repro.algorithms.pagerank import run_pagerank
from repro.core import (
    ChannelEngine,
    MIN_I64,
    MirroredScatter,
    ScatterCombine,
    SUM_F64,
    VertexProgram,
)
from repro.core.channels import _edges, scatter_combine
from repro.core.channels._records import encode_pattern
from repro.graph import rmat
from repro.graph.graph import Graph
from repro.graph.partition import degree_range_partition, hash_partition, range_partition
from repro.runtime.serialization import INT32

from test_bulk_parity import _assert_parity, engines  # noqa: F401 - a fixture
from test_static_pattern import announced_ids_nbytes, received_forms, split_nbytes

SCATTERS = (1, 2, 3)  # supersteps that scatter; the slots are read one later
FORMS = ["adjacency-out", "adjacency-in", "rows", "partial"]


def value(vertex, step, combiner):
    """What ``vertex`` scatters in ``step``: a fresh value every time, so
    every payload after an announcement is dense."""
    if combiner is SUM_F64:
        return np.random.default_rng([step, vertex]).standard_normal()
    return 1000 * step + (vertex * 7919) % 997


def registered(graph, form, vertices):
    """The edges one worker registers, in registration order, for its
    ``vertices`` (ascending): ``(sender, destination)`` global ids."""
    if form == "adjacency-in":
        rows = {v: graph.in_neighbors(v) for v in vertices}
    elif form == "partial":  # every row but its last edge
        rows = {v: graph.neighbors(v)[:-1] for v in vertices}
    else:
        rows = {v: graph.neighbors(v) for v in vertices}
    src = np.concatenate([np.full(len(r), v) for v, r in rows.items()] + [[]]).astype(np.int64)
    dst = np.concatenate([np.asarray(r) for r in rows.values()] + [[]]).astype(np.int64)
    return src, dst


def program(form, combiner):
    class P(VertexProgram):
        def __init__(self, worker):
            super().__init__(worker)
            self.msg = ScatterCombine(worker, combiner)
            if form.startswith("adjacency"):
                self.msg.add_adjacency(form.split("-")[1])
            self.got = {}

        def compute(self, v):
            step = self.step_num
            if step == 1 and not form.startswith("adjacency"):
                src, dst = registered(self.worker.graph, form, [v.id])
                self.msg.add_edges(v, dst)
            if step > 1:
                self.got[v.id, step] = (self.msg.get_message(v), self.msg.has_message(v))
            if step in SCATTERS:
                self.msg.set_message(v, value(v.id, step, combiner))
            else:
                v.vote_to_halt()

        def finalize(self):
            return self.got

    return P


def whole_rows(graph, src, dst):
    """Senders ascending, each one's edges its whole out-row."""
    return bool((np.diff(src) >= 0).all()) and all(
        np.array_equal(dst[src == v], graph.neighbors(v)) for v in np.unique(src)
    )


def oracle(graph, owner, form, combiner):
    """Per ``(vertex, superstep)``: the slot and flag the channel should
    leave, and the channel's ``(net, local)`` bytes."""
    workers = int(owner.max()) + 1
    dtype = combiner.codec.dtype
    item = combiner.codec.itemsize
    slots, has = {}, np.zeros(graph.num_vertices, dtype=bool)
    net = local = 0
    edges = {w: registered(graph, form, np.flatnonzero(owner == w)) for w in range(workers)}
    for step in SCATTERS:
        values = np.array(
            [value(v, step, combiner) for v in range(graph.num_vertices)], dtype=dtype
        )
        slot = np.full(graph.num_vertices, combiner.identity, dtype=dtype)
        for w in range(workers):  # the receiver folds in source order
            src, dst = edges[w]
            order = np.argsort(dst, kind="stable")
            uniq, starts = np.unique(dst[order], return_index=True)
            if uniq.size:
                combined = combiner.ufunc.reduceat(values[src[order]], starts)
                slot[uniq] = combiner.ufunc(slot[uniq], combined)
                has[uniq] = True
            whole = form.startswith("adjacency") or whole_rows(graph, src, dst)
            for p in np.unique(owner[dst]).tolist():
                into = owner[dst] == p
                ids = np.unique(dst[into])
                n, words = ids.size, announced_ids_nbytes(ids)
                if w != p and whole and not combiner.is_selection:
                    n, words = split_nbytes(src[into], dst[into])
                cost = 4 + n * item + (words if step == SCATTERS[0] else 0)
                if w == p:
                    local += cost
                else:
                    net += cost
        for v in range(graph.num_vertices):
            slots[v, step + 1] = (slot[v], bool(has[v]))
    return slots, (net, local)


@st.composite
def cases(draw, workers):
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    partition = draw(st.sampled_from(["range", "hash", "any"]))
    owner = {
        "range": lambda: range_partition(n, workers),
        "hash": lambda: hash_partition(n, workers),
        "any": lambda: np.array(
            draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)), dtype=np.int64
        ),
    }[partition]()
    return Graph.from_edges(n, edges, directed=True), owner


@contextlib.contextmanager
def learnt():
    """How many times a receiver derived a peer's senders' pattern."""
    calls = []
    real = ScatterCombine._learn_senders

    def spy(self, src, *announced):
        calls.append((self.worker.step_num, self.worker.worker_id, src))
        return real(self, src, *announced)

    with mock.patch.object(ScatterCombine, "_learn_senders", spy):
        yield calls


@pytest.mark.parametrize("combiner", [SUM_F64, MIN_I64], ids=repr)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("workers", [1, 2, 8])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_slots_are_the_oracle_fold_in_the_closed_form_bytes(workers, form, combiner, data):
    graph, owner = data.draw(cases(workers))
    engine = ChannelEngine(graph, program(form, combiner), num_workers=workers, partition=owner)
    result = engine.run()
    slots, (net, local) = oracle(graph, owner, form, combiner)
    got = {key: (slot, bool(flag)) for key, (slot, flag) in result.data.items()}
    assert {k: (np.asarray(s).tobytes(), f) for k, (s, f) in got.items()} == {
        k: (np.asarray(s, dtype=combiner.codec.dtype).tobytes(), f) for k, (s, f) in slots.items()
    }
    counted = result.metrics.channel_breakdown().get(
        "0:ScatterCombine", {"net_bytes": 0, "local_bytes": 0}
    )
    assert (counted["net_bytes"], counted["local_bytes"]) == (net, local)


@pytest.mark.parametrize("workers", [2, 8])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_peer_gets_at_most_the_fewer_of_its_destinations_and_senders(workers, data):
    """Per (worker, peer): the values the channel sends are the brute
    force's (:func:`split_nbytes`), never more than the fewer of the
    destinations and the senders there; edges leave the sender's scan only
    where that sends fewer values than the destinations, and never more of
    them than the peer's, which the rule before moved whenever fewer
    senders than destinations reach the peer."""
    graph, owner = data.draw(cases(workers))
    engine = ChannelEngine(graph, _Idle, num_workers=workers, partition=owner)
    src_all, dst_all = graph.edge_array()
    for worker in engine.workers:
        w = worker.worker_id
        channel = ScatterCombine(worker, SUM_F64)
        channel.add_adjacency("out")
        # blocks of a few edges: a peer's segments span many of them
        with mock.patch.object(scatter_combine, "_BLOCK_EDGES", data.draw(st.sampled_from([4, 1 << 16]))):
            channel._build()
        senders, starts = scan_segments(channel._scan)
        lengths = np.diff(np.append(starts, senders.size))
        for p in range(workers):
            into = (owner[src_all] == w) & (owner[dst_all] == p)
            if p == w or not into.any():
                continue
            src, dst = src_all[into], dst_all[into]
            destinations, senders = np.unique(dst).size, np.unique(src).size
            scanned = lengths[channel._peer_select[p]]
            expanded = channel._expanded[p]
            values = scanned.size + (0 if expanded is None else expanded[0].size)
            assert values == split_nbytes(src, dst)[0] <= min(destinations, senders)
            assert expanded is None or expanded[1] == destinations
            moved = dst.size - int(scanned.sum())
            assert (moved > 0) == (values < destinations) == (expanded is not None)
            assert moved <= dst.size


def _star(leaves=12):
    """Vertex 0 on worker 0 points at ``leaves`` vertices on worker 1: one
    sender, many destinations."""
    n = leaves + 1
    graph = Graph.from_edges(n, [(0, d) for d in range(1, n)], directed=True)
    owner = np.ones(n, dtype=np.int64)
    owner[0] = 0
    return graph, owner


@pytest.mark.parametrize("combiner", [SUM_F64, MIN_I64], ids=repr)
def test_a_selection_keeps_the_combined_form(combiner):
    """One sender, twelve destinations: a sum sends the hub's value, a
    min the twelve combined ones (the bytes the wire had before).  The
    sum's bytes are :func:`split_nbytes`' price of the star."""
    graph, owner = _star()
    with received_forms() as forms, learnt() as calls:
        result = ChannelEngine(
            graph, program("rows", combiner), num_workers=2, partition=owner
        ).run()
    net = result.metrics.channel_breakdown()["0:ScatterCombine"]["net_bytes"]
    scatters = len(SCATTERS)
    if combiner is SUM_F64:
        assert "announce senders, list" in forms and calls == [(1, 1, 0)]
        values, words = split_nbytes(np.zeros(12, dtype=np.int64), np.arange(1, 13))
        assert (values, words) == (1, 4 + 4 + 4)
        assert net == 4 + words + values * 8 + (scatters - 1) * (4 + values * 8)
    else:
        assert not any(form.startswith("announce senders") for form in forms) and not calls
        ids = announced_ids_nbytes(np.arange(1, 13))
        assert net == 4 + ids + 12 * 8 + (scatters - 1) * (4 + 12 * 8)
    # one logical message per destination, whichever end combines
    assert result.metrics.total_messages == scatters * 12


# -- malformed announcements: a RuntimeError naming the channel and the source ----


class _Idle(VertexProgram):
    def compute(self, v):
        v.vote_to_halt()


@pytest.fixture()
def receiver(request):
    """Worker 1 of a 2-worker range partition of 8 vertices (it owns
    4..7); worker 0's vertices 0 and 1 reach 4, 5 and 4.  A
    ``ScatterCombine``, unless the test names another class."""
    graph = Graph.from_edges(8, [(0, 4), (0, 5), (1, 4), (2, 3)], directed=True)
    worker = ChannelEngine(graph, _Idle, num_workers=2, partition=range_partition(8, 2)).workers[1]
    return getattr(request, "param", ScatterCombine)(worker, SUM_F64)


#: both classes decode the senders form, and refuse its flaws by name
BOTH_RECEIVERS = pytest.mark.parametrize(
    "receiver", [ScatterCombine, MirroredScatter], indirect=True, ids=lambda c: c.__name__
)


def _senders(tag_count, destinations, ids, values, combined=()):
    """A senders announcement by hand, with its combined ids as a list:
    ``[4m + 3][d][2c][c combined ids][m sender ids][values]``."""
    parts = [INT32.encode_one(4 * tag_count + 3), INT32.encode_one(destinations)]
    parts += [INT32.encode_one(2 * len(combined)), np.int32(combined).tobytes()]
    parts += [np.int32(ids).tobytes(), np.float64(values).tobytes()]
    return memoryview(b"".join(parts))


def test_the_senders_form_round_trips(receiver):
    """The sum of 0's and 1's values at 4, 0's at 5 — and again after a
    dense payload, and from a snapshot, derived once more from the store."""
    payload = encode_pattern(receiver, np.array([1.5, 2.0]), ids=np.array([0, 1]), destinations=2)
    receiver.deserialize([(0, memoryview(payload))])
    assert receiver.get_messages()[0].tolist() == [3.5, 1.5, 0.0, 0.0]
    receiver.deserialize([(0, memoryview(encode_pattern(receiver, np.array([4.0, 8.0]))))])
    assert receiver.get_messages()[0].tolist() == [12.0, 4.0, 0.0, 0.0]
    restored = ScatterCombine(receiver.worker, SUM_F64)
    restored.restore(receiver.snapshot())
    restored.deserialize([(0, memoryview(encode_pattern(receiver, np.array([1.0, 1.0]))))])
    assert restored.get_messages()[0].tolist() == [2.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "combined, form",
    [([5], "list"), ([4, 5, 6], "bitmap")],  # 4 bytes as a list; 8 + 1 as a bitmap, not 12
)
def test_combined_ids_fold_as_they_are_and_leave_the_derivation(receiver, combined, form):
    """Worker 0 combines ``combined`` itself: their values come first and
    fold as they are, and the senders' rows fold into the rest of what
    they reach here — 4, unless it is combined — also after a snapshot."""
    folded = sorted({4, 5} - set(combined))
    sent = np.arange(1.0, len(combined) + 3)  # the combined values, then 0's and 1's
    payload = encode_pattern(
        receiver, sent, ids=np.array([0, 1]), destinations=len(folded), combined=np.array(combined)
    )
    word = INT32.decode_one(memoryview(payload)[8:])
    assert word == 2 * len(combined) + (form == "bitmap")
    expected = np.zeros(4)
    expected[np.array(combined) - 4] = sent[: len(combined)]
    expected[np.array(folded, dtype=int) - 4] = sent[-2:].sum()
    for channel in (receiver, ScatterCombine(receiver.worker, SUM_F64)):
        if channel is receiver:
            channel.deserialize([(0, memoryview(payload))])
        else:
            channel.restore(receiver.snapshot())
            channel.deserialize([(0, memoryview(encode_pattern(receiver, sent)))])
        assert channel.get_messages()[0].tolist() == expected.tolist()


@pytest.mark.parametrize(
    "ids, destinations, values, match",
    [
        ([0, 5], 2, [1.0, 2.0], "worker 0 announced sender 5, which it does not own"),
        ([0, 9], 2, [1.0, 2.0], r"worker 0 announced sender 9 outside \[0, 8\)"),
        ([1, 0], 2, [1.0, 2.0], "worker 0 announced senders that do not strictly ascend"),
        ([0, 1], 3, [1.0, 2.0], "worker 0 announced 3 destinations; the rows of its 2 senders reach 2 here"),
        ([0], 1, [1.0], "worker 0 announced 1 destinations; the rows of its 1 senders reach 2 here"),
        ([0, 1], 2, [1.0, 2.0, 3.0], "3 values from worker 0, whose pattern takes 2"),
    ],
)
@BOTH_RECEIVERS
def test_a_malformed_senders_announcement(receiver, ids, destinations, values, match):
    name = type(receiver).__name__
    with pytest.raises(RuntimeError, match=rf"{name}.*: {match}"):
        receiver.deserialize([(0, _senders(len(ids), destinations, ids, values))])
    # a later payload's value count is checked against the senders' too
    receiver.deserialize([(0, _senders(2, 2, [0, 1], [1.0, 2.0]))])
    with pytest.raises(RuntimeError, match=rf"{name}.*1 values from worker 0.*takes 2"):
        receiver.deserialize([(0, memoryview(INT32.encode_one(0) + np.float64([1.0]).tobytes()))])


@pytest.mark.parametrize(
    "combined, destinations, values, match",
    [
        ([5, 4], 0, [1.0] * 4, "worker 0 announced combined ids that do not strictly ascend"),
        ([4, 4], 1, [1.0] * 4, "worker 0 announced combined ids that do not strictly ascend"),
        ([9], 2, [1.0] * 3, r"worker 0 sent id 9 outside \[0, 8\)"),
        ([-1], 2, [1.0] * 3, r"worker 0 sent id -1 outside \[0, 8\)"),
        ([3], 2, [1.0] * 3, "worker 0 sent id 3, which worker 1 does not own"),
        # 5 is combined: the senders' rows reach 4 alone
        ([5], 2, [1.0] * 3, "worker 0 announced 2 destinations; the rows of its 2 senders reach 1 here"),
        ([5], 1, [1.0] * 2, "2 values from worker 0, whose pattern takes 3"),
        ([5], 1, [1.0] * 4, "4 values from worker 0, whose pattern takes 3"),
    ],
)
@BOTH_RECEIVERS
def test_a_malformed_combined_set(receiver, combined, destinations, values, match):
    """Senders 0 and 1 with ``combined`` ids: each flaw is refused by name,
    and nothing of the announcement is kept."""
    with pytest.raises(RuntimeError, match=rf"{type(receiver).__name__}.*: {match}"):
        receiver.deserialize([(0, _senders(2, destinations, [0, 1], values, combined))])
    assert 0 not in receiver._patterns and 0 not in receiver._senders


@BOTH_RECEIVERS
def test_a_truncated_senders_announcement(receiver):
    name = type(receiver).__name__
    with pytest.raises(RuntimeError, match=rf"{name}.*worker 0 sent an announcement of 2 senders"):
        receiver.deserialize([(0, memoryview(INT32.encode_one(4 * 2 + 3)))])
    # [d] without the combined set's word
    with pytest.raises(RuntimeError, match=rf"{name}.*worker 0 sent an announcement of 2 senders in 8 bytes"):
        receiver.deserialize([(0, memoryview(INT32.encode_one(4 * 2 + 3) + INT32.encode_one(2)))])
    head = INT32.encode_one(4 * 2 + 3) + INT32.encode_one(2)
    with pytest.raises(RuntimeError, match=rf"{name}.*worker 0 sent an announcement of 2 words in 12 bytes"):
        receiver.deserialize([(0, memoryview(head + INT32.encode_one(0)))])


@pytest.mark.parametrize(
    "word, tail, match",
    [
        # two combined ids as a list, one of them there
        (2 * 2, np.int32([4]), "a combined set of 2 ids in 16 bytes"),
        # a bitmap's [lo][span] cut short, then its bitmap missing
        (2 * 3 + 1, np.int32([4]), "a combined set of 3 ids in 16 bytes"),
        (2 * 3 + 1, np.int32([4, 3]), "a combined set of 3 ids in 20 bytes"),
        (2 * 3 + 1, np.int32([4, 4]), "a combined set of 3 ids in 20 bytes"),
        # a bitmap over a range outside the graph, or of the wrong count
        (2 * 3 + 1, (np.int32([6, 4]), np.uint8([0b111])), r"a bitmap of ids \[6, 10\) outside \[0, 8\)"),
        (2 * 3 + 1, (np.int32([4, 3]), np.uint8([0b011])), "a bitmap of 2 set bits for 3 values"),
        (2 * 3 + 1, (np.int32([4, 3]), np.uint8([0b1111])), "a bitmap with a bit set past its 3 bits"),
        (-2, (), "a combined set whose count word is -2"),
    ],
)
@BOTH_RECEIVERS
def test_a_truncated_or_malformed_combined_set(receiver, word, tail, match):
    """The combined set's own bytes: never an ``IndexError``, never a
    wrong slot."""
    tail = tail if isinstance(tail, tuple) else (tail,)
    payload = INT32.encode_one(4 * 2 + 3) + INT32.encode_one(1) + INT32.encode_one(word)
    payload += b"".join(np.asarray(part).tobytes() for part in tail)
    with pytest.raises(RuntimeError, match=rf"{type(receiver).__name__}.*worker 0 sent {match}"):
        receiver.deserialize([(0, memoryview(payload))])
    assert 0 not in receiver._patterns


# -- the new form on pr-scatter: every backend, every recovery ---------------------

_PR_GRAPH = rmat(8, edge_factor=6, seed=11, directed=True)


@pytest.mark.parametrize("workers", [2, 8])
def test_pagerank_listing_equals_port_across_the_senders_form(workers, engines):  # noqa: F811
    kw = dict(variant="scatter", iterations=6, num_workers=workers, checkpoint_every=2)
    with received_forms() as forms:
        scalar = run_pagerank(_PR_GRAPH, mode="scalar", **kw)
    assert any(form.startswith("announce senders") for form in forms)
    _assert_parity(scalar, run_pagerank(_PR_GRAPH, mode="bulk", **kw), by_adjacency=engines)


@pytest.mark.parametrize("recovery", ["rollback", "confined"])
@pytest.mark.parametrize("workers", [2, 8])
def test_backends_and_recoveries_count_the_simulator_bytes(workers, recovery):
    """A failure in superstep 4 recovers from the checkpoint of superstep
    2, after the senders' announcement: the restored receivers derive
    their patterns again from the store."""
    kw = dict(
        variant="scatter", mode="bulk", iterations=6, num_workers=workers,
        checkpoint_every=2, failures=[(1, 4)], recovery=recovery,
    )  # fmt: skip
    with learnt() as calls:
        ranks, sim = run_pagerank(_PR_GRAPH, **kw)
    assert calls  # the form crossed, and a restore derived it again
    clean_ranks, clean = run_pagerank(_PR_GRAPH, **{**kw, "failures": None})
    np.testing.assert_array_equal(ranks, clean_ranks)
    assert sim.metrics.channel_breakdown() == clean.metrics.channel_breakdown()
    for m in MOVERS:
        with mover(m):
            got_ranks, proc = run_pagerank(_PR_GRAPH, executor="process", **kw)
        np.testing.assert_array_equal(got_ranks, ranks)
        a, b = proc.metrics, sim.metrics
        assert a.channel_breakdown() == b.channel_breakdown()
        assert (a.total_net_bytes, a.total_messages, a.supersteps, a.total_rounds) == (
            b.total_net_bytes, b.total_messages, b.supersteps, b.total_rounds,
        )  # fmt: skip
        assert (a.checkpoint_bytes, a.log_bytes, a.recovery_bytes) == (
            b.checkpoint_bytes, b.log_bytes, b.recovery_bytes,
        )  # fmt: skip


# -- memory pins: each derived edge is held once ----------------------------------


def test_the_derivation_holds_one_word_per_kept_pair():
    """tracemalloc's peak over ``_learn_senders``: the one 8-byte word per
    kept (destination, sender) pair that ``group_by_key`` sorts and the scan
    keeps (2 B of it once sorted: 1024 senders index in ``uint16``), the
    group starts (found a block of pairs at a time, where they took a
    1-byte mask per pair), and what is fixed or
    per destination — one ``_edges._BLOCK_EDGES`` block at a time, the
    scan's per-block buffer.  A list of packed blocks beside the buffer,
    as before, held 16 B per pair.  Every row here lies on the receiver:
    the buffer is allocated at the senders' row total and filled as a
    prefix, and tracemalloc counts an allocation whole even where the
    unwritten tail never becomes resident."""
    n, senders, degree, reach = 1 << 15, 1024, 256, 2048
    ids = np.arange(senders) * 16  # worker 0's, each reaching worker 1 only
    src = np.repeat(ids, degree)
    dst = n // 2 + np.random.default_rng(3).integers(0, reach, src.size)
    graph = Graph(n, src, dst)
    worker = ChannelEngine(graph, _Idle, num_workers=2, partition=range_partition(n, 2)).workers[1]
    channel = ScatterCombine(worker, SUM_F64)
    channel.add_adjacency("out")
    destinations, block = np.unique(dst).size, 1 << 12
    with (
        mock.patch.object(_edges, "_BLOCK_EDGES", block),
        mock.patch.object(scatter_combine, "_BLOCK_EDGES", block),
    ):
        tracemalloc.start()
        try:
            local, scan = channel._learn_senders(0, ids, destinations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert scan.edge_src.size == src.size and local.size == destinations
    assert peak <= 9 * src.size + 64 * (block + destinations)


def test_the_senders_drop_under_a_contiguous_partition_copies_no_edges():
    """After ``group_by_key``, ``_group`` of a worker whose peer folds
    some of its destinations allocates less than one 8-byte word per edge
    it keeps — the choice of those destinations included: a block at a
    time, the kept edges move down inside the sorted buffer, which shrinks
    in place (a mask and a second edge array were ≈ 14 B a kept edge)."""
    graph = rmat(16, edge_factor=16, seed=7)
    owner = degree_range_partition(graph, 2)
    worker = ChannelEngine(graph, _Idle, num_workers=2, partition=owner).workers[0]
    channel = ScatterCombine(worker, SUM_F64)
    channel.add_adjacency("out")
    grouped = []
    real = scatter_combine.group_by_key

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        grouped.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    with mock.patch.object(scatter_combine, "group_by_key", spy):
        tracemalloc.start()
        try:
            channel._build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert channel._expanded[1] is not None
    kept = channel._scan.edge_src.size
    assert 0 < kept < worker.local_adjacency("out").num_edges
    assert peak - grouped[0] < 8 * kept
