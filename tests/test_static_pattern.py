"""The static pattern wire (``core/channels/_pattern.py``): ids cross once,
unchanged values not at all.

``ScatterCombine`` and ``MirroredScatter`` announce ``[ids][values]`` in
the first scatter after a registration (the ids as a list or a bitmap,
whichever is smaller, and — to a peer that folds some destinations along
its senders' rows — the ids it still combines, sender ids, and the
combined values followed by the senders' own); after it
they send each peer the smallest of ``[values]`` and ``[changed
positions][their values]``, the positions as a list or a bitmap.  The
format they replaced — ids beside the values in every scatter — lives on
here, as :class:`IdsEveryRound`, the oracle of the property below: any
graph, partition, worker count, combiner, scatter and value-change
schedule, checkpoint cadence, failure and second registration must
deliver, bit for bit, what the oracle delivers, in exactly the bytes
of the closed form.
"""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import MOVERS, mover
from repro.core import (
    ChannelEngine,
    MIN_I64,
    MirroredScatter,
    ScatterCombine,
    SUM_F64,
    VertexProgram,
)
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sv import run_sv
from repro.core.channels import _pattern, _records
from repro.core.channels._inbox import CombinedInbox
from repro.core.channels._pattern import StaticPattern
from repro.core.channels._records import emit_records, encode_pattern
from repro.runtime.serialization import INT32
from repro.graph import rmat
from repro.graph.graph import Graph
from repro.graph.partition import hash_partition, range_partition
from repro.runtime.checkpoint import decode_state, encode_state

STEPS = 7  # supersteps of the test program; the last one only reads
THRESHOLD = 3  # MirroredScatter: edges into one peer that make a sender heavy


class IdsEveryRound(ScatterCombine):
    """``ScatterCombine`` on the wire format it had before: one record
    payload ``[int32 ids][values]`` per peer in every scatter, decoded and
    looked up again by every receive, every peer's values combined at the
    sender."""

    def _expandable(self):
        return False

    def _build(self):
        self._announced = False  # so every build leaves the ids in _words
        super()._build()

    def _scatter(self, payloads):
        emit_records(
            self, ((peer, self._words[peer]["ids"], values) for peer, values, _ in payloads)
        )

    _receive = CombinedInbox._receive


def scattered(vertex, step, scatter_steps, exact, changes, specials):
    """The value ``vertex`` scatters in ``step``: drawn afresh in its first
    scatter step and in each later one in which it is among the share
    ``changes.get(step, 1)`` of the vertices whose value changes, and kept
    in between.  With ``specials`` half the draws are ``0.0``, ``-0.0`` or
    a NaN, which only a bit-for-bit comparison tells apart correctly."""
    steps = sorted(s for s in scatter_steps if s <= step)
    drawn = steps[0]
    for s in steps[1:]:
        if np.random.default_rng([s, vertex, 1]).random() < changes.get(s, 1.0):
            drawn = s
    rng = np.random.default_rng([drawn, vertex])
    if specials and rng.random() < 0.5:
        return rng.choice([0.0, -0.0, np.nan])
    # eighths sum exactly in any order; normals pin the order
    return rng.integers(-64, 64) / 8 if exact else rng.standard_normal()


def make_program(channel, scatter_steps, register_again_at, exact, changes=None, specials=False):
    """Every vertex registers its out-edges in superstep 1 (and its
    in-neighbours as well in ``register_again_at``), scatters a value in
    each of ``scatter_steps`` (:func:`scattered`) and records what it
    reads in every superstep, in per-vertex arrays."""
    changes = changes or {}

    class P(VertexProgram):
        def __init__(self, worker):
            super().__init__(worker)
            self.msg = channel(worker)
            self.got = np.zeros((worker.num_local, STEPS), dtype=self.msg.value_codec.dtype)
            self.had = np.zeros((worker.num_local, STEPS), dtype=bool)

        def compute(self, v):
            step = self.step_num
            self.got[v.local, step - 1] = self.msg.get_message(v)
            self.had[v.local, step - 1] = self.msg.has_message(v)
            if step == 1:
                self.msg.add_edges(v, v.edges)
            if step == register_again_at:
                self.msg.add_edges(v, self.worker.graph.in_neighbors(v.id))
            if step in scatter_steps:
                value = scattered(v.id, step, scatter_steps, exact, changes, specials)
                self.msg.set_message(v, value)
            if step == STEPS:
                v.vote_to_halt()

        def finalize(self):
            ids = self.worker.local_ids.tolist()
            return {i: (g.tobytes(), h.tobytes()) for i, g, h in zip(ids, self.got, self.had)}

    return P


def nbytes_for(codes):
    """Whole bytes of one of ``codes`` codes on the wire: 1, 2, 3 up to
    2**8, 2**16, 2**24 codes, else 4.  An id of a graph of V vertices is
    one of ``V + 1`` (the last, the identity of a MIN over ids), a
    position into ``n`` values one of ``n``."""
    return next(b for b in (1, 2, 3, 4) if b == 4 or codes <= 1 << 8 * b)


def announced_ids_nbytes(ids, width):
    """An ascending id set on the wire: the smaller of its list of
    ``width``-byte ids and ``[lo][span]`` plus a bitmap over ``[ids[0],
    ids[-1]]``."""
    if not ids.size:
        return 0
    return min(width * ids.size, 8 + -(-(int(ids[-1]) - int(ids[0]) + 1) // 8))


def split(src, dst):
    """``(combined, crossing)`` of the edges ``src -> dst`` from one worker
    into another that may fold destinations along the senders' rows, by
    brute force: take the destinations by ascending in-degree (edges from
    ``src``), ties by id, and for every prefix count the destinations after
    it plus the senders that reach it; the shortest prefix of the fewest
    values — none when nothing beats the destinations — names the
    ``crossing`` senders, whose own values cross.  The peer folds every
    destination whose senders all cross; the sender combines the rest."""
    ids, degree = np.unique(dst, return_counts=True)
    by_degree = ids[np.argsort(degree, kind="stable")]
    fewest, crossing = ids.size, src[:0]
    for k in range(1, ids.size + 1):
        senders = np.unique(src[np.isin(dst, by_degree[:k])])
        if ids.size - k + senders.size < fewest:
            fewest, crossing = ids.size - k + senders.size, senders
    return np.unique(dst[~np.isin(src, crossing)]), crossing


def split_nbytes(src, dst, width, crossing=None):
    """``(values, words)`` of the edges ``src -> dst`` into another worker
    under :func:`split` — or with the ``crossing`` senders given, and the
    destinations any other sender reaches combined: the combined values,
    then the crossing senders' own; the words are the destination ids —
    or, where senders cross, the destination count, the combined set's
    count word, the combined ids and the sender ids."""
    if crossing is None:
        crossing = split(src, dst)[1]
    combined = np.unique(dst[~np.isin(src, crossing)])
    if not crossing.size:
        return combined.size, announced_ids_nbytes(combined, width)
    words = 4 + 4 + announced_ids_nbytes(combined, width) + announced_ids_nbytes(crossing, width)
    return combined.size + crossing.size, words


def whole_rows(graph, owner, register_again_at):
    """Per superstep and sender worker, whether its registered columns are
    whole out-rows in ascending sender order, which lets a peer combine
    them.  Every vertex registers its out-edges in superstep 1 and its
    in-edges in ``register_again_at``, in vertex order."""
    src, dst = graph.edge_array()
    workers = int(owner.max()) + 1
    columns = [(src[owner[src] == w], dst[owner[src] == w]) for w in range(workers)]
    whole = {}
    for step in range(1, STEPS + 1):
        if step == register_again_at:
            for w in range(workers):
                again = [(v, u) for v in np.flatnonzero(owner == w) for u in graph.in_neighbors(v)]
                s_, d_ = np.array(again, dtype=np.int64).reshape(-1, 2).T
                columns[w] = tuple(np.concatenate(pair) for pair in zip(columns[w], (s_, d_)))
        for w, (s_, d_) in enumerate(columns):
            whole[step, w] = bool((np.diff(s_) >= 0).all()) and all(
                np.array_equal(d_[s_ == v], graph.neighbors(v)) for v in np.unique(s_)
            )
    return whole


def closed_form(
    graph, mirrored, itemsize, owner, scatter_steps, register_again_at, sent, selection=True
):
    """``(net, local)`` bytes of the channel: per scatter, sender and peer
    with ``n`` values to send, a 4-byte tag and the smallest of the dense
    ``n * itemsize``, the list delta ``k * (p + itemsize)`` (``p`` the
    bytes of a position into ``n`` values) and the bitmap
    delta ``ceil(n / 8) + k * itemsize``, where ``k`` values differ, bit
    for bit, from those the sender sent that peer last — but, in the
    sender's first scatter after a registration, the pattern's ids
    (:func:`announced_ids_nbytes`, at the bytes of an id of the graph) and
    all ``n`` values.
    ``n`` is one value per destination, except where a combiner that is
    not a ``selection`` lets the channel send another worker senders'
    values — where its columns are :func:`whole_rows` — and then ``n`` and
    the words are :func:`split_nbytes`': over ``ScatterCombine``'s split,
    or, ``mirrored``, with the senders of at least ``THRESHOLD`` edges
    into that worker crossing.
    ``owner`` is the partition; ``sent[step, w][p]`` the values worker
    ``w`` handed ``p`` in ``step``."""
    out_src, out_dst = graph.edge_array()
    width = nbytes_for(graph.num_vertices + 1)
    whole = whole_rows(graph, owner, register_again_at)
    total = {True: 0, False: 0}  # keyed by "crosses the network"
    announced = set()
    last = {}  # (sender, peer) -> the values it sent last
    bits = f"u{itemsize}"
    for step in range(1, STEPS + 1):
        if step == register_again_at:
            announced.clear()
            last.clear()
        if step not in scatter_steps:
            continue
        src, dst = out_src, out_dst
        if register_again_at is not None and step >= register_again_at:
            src, dst = np.concatenate((out_src, out_dst)), np.concatenate((out_dst, out_src))
        for w in np.unique(owner[src]).tolist():
            for p in np.unique(owner[dst[owner[src] == w]]).tolist():
                here = (owner[src] == w) & (owner[dst] == p)
                ids = np.unique(dst[here])  # one per unique destination
                values, words = ids.size, announced_ids_nbytes(ids, width)
                if not selection and w != p and whole[step, w]:
                    crossing = None
                    if mirrored:
                        senders, degree = np.unique(src[here], return_counts=True)
                        crossing = senders[degree >= THRESHOLD]
                    values, words = split_nbytes(src[here], dst[here], width, crossing)
                got = sent[step, w][p]
                assert got.size == values
                if w in announced:
                    k = np.count_nonzero(got.view(bits) != last[w, p].view(bits))
                    body = min(
                        values * itemsize,
                        k * (nbytes_for(values) + itemsize),
                        -(-values // 8) + k * itemsize,
                    )
                else:
                    body = words + values * itemsize
                last[w, p] = got
                total[w != p] += 4 + body
            announced.add(w)
    return total[True], total[False]


@contextlib.contextmanager
def recording_scatters():
    """Record, per ``(superstep, sender worker)``, the values every
    ``StaticPattern`` scatter hands each peer (a superstep that rollback
    or replay runs again scatters the same values again)."""
    sent = {}
    real_scatter = StaticPattern._scatter

    def scatter(self, payloads):
        payloads = list(payloads)
        key = (self.worker.step_num, self.worker.worker_id)
        sent[key] = {peer: values.copy() for peer, values, _ in payloads}
        real_scatter(self, payloads)

    with mock.patch.object(StaticPattern, "_scatter", scatter):
        yield sent


def run(
    graph, channel, workers, partition, scatter_steps, register_again_at, exact,
    changes=None, specials=False, **kw,
):  # fmt: skip
    program = make_program(channel, scatter_steps, register_again_at, exact, changes, specials)
    engine = ChannelEngine(graph, program, num_workers=workers, partition=partition, **kw)
    with warnings.catch_warnings():
        # a failure that never fired is a broken example
        warnings.simplefilter("error", RuntimeWarning)
        result = engine.run()
    assert result.supersteps == STEPS
    return result


@st.composite
def cases(draw, workers, mirrored, recovery):
    n = draw(st.integers(2, 20))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=50))
    partition = st.sampled_from(["range", "hash", "any"])
    drawn = {
        "range": lambda: range_partition(n, workers),
        "hash": lambda: hash_partition(n, workers),
        "any": lambda: np.array(
            draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)), dtype=np.int64
        ),
    }
    owner = drawn[draw(partition)]()
    fail = None
    if recovery is not None:
        populated = np.unique(owner).tolist()  # a worker with no vertex has nothing to lose
        fail = (draw(st.sampled_from(populated)), draw(st.integers(1, STEPS - 1)))
    combiner = draw(st.sampled_from([SUM_F64, MIN_I64]))
    # per step, the share of vertices whose value changes: none, all, and
    # around the crossovers of the forms: list and bitmap delta (1/32),
    # list delta and dense (2/3 of 8-byte values), bitmap delta and dense
    # (1 - 1/(8 * itemsize))
    share = st.sampled_from([0.0, 0.03, 0.04, 0.25, 0.5, 2 / 3, 0.75, 0.9, 0.99, 1.0])
    return dict(
        graph=Graph.from_edges(n, edges, directed=True),
        owner=owner,
        combiner=combiner,
        changes={step: draw(share) for step in range(1, STEPS)},
        # (an integer slot cannot hold a NaN)
        specials=combiner is SUM_F64 and draw(st.booleans()),
        scatter_steps=draw(st.frozensets(st.integers(1, STEPS - 1), min_size=2)),
        register_again_at=draw(st.none() | st.integers(2, STEPS - 1)),
        checkpoint_every=draw(st.none() | st.integers(1, 3)),
        fail=fail,
    )


@pytest.mark.parametrize("mirrored", [False, True], ids=["ScatterCombine", "MirroredScatter"])
@pytest.mark.parametrize(
    "workers, recovery",
    # (the only worker's loss is total: no failure cell at 1 worker)
    [(1, None)] + [(w, r) for w in (2, 8) for r in (None, "rollback", "confined")],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_run_delivers_the_oracle_data_in_the_closed_form_bytes(
    workers, mirrored, recovery, data
):
    case = data.draw(cases(workers, mirrored, recovery))
    graph, combiner = case["graph"], case["combiner"]
    schedule = (case["scatter_steps"], case["register_again_at"], mirrored)
    values = dict(changes=case["changes"], specials=case["specials"])

    if mirrored:
        subject = lambda w: MirroredScatter(w, combiner, threshold=THRESHOLD)  # noqa: E731
    else:
        subject = lambda w: ScatterCombine(w, combiner)  # noqa: E731
    with recording_scatters() as sent:
        got = run(
            graph, subject, workers, case["owner"], *schedule, **values,
            checkpoint_every=case["checkpoint_every"],
            failures=[case["fail"]] if case["fail"] else None,
            recovery=recovery or "rollback",
        )  # fmt: skip
    # the oracle takes no failure: recovery must leave no trace
    oracle = run(
        graph, lambda w: IdsEveryRound(w, combiner), workers, case["owner"], *schedule, **values
    )
    assert got.data == oracle.data
    assert got.metrics.num_failures == (case["fail"] is not None)
    # one message per unique destination, id or no id, mirrored or not
    assert got.metrics.total_messages == oracle.metrics.total_messages

    net, local = closed_form(
        graph, mirrored, combiner.codec.itemsize, case["owner"],
        case["scatter_steps"], case["register_again_at"], sent, combiner.is_selection,
    )  # fmt: skip
    (counted,) = got.metrics.channel_breakdown().values() or [{"net_bytes": 0, "local_bytes": 0}]
    assert (counted["net_bytes"], counted["local_bytes"]) == (net, local)


# -- sim == process x {shm, pipe}: bytes and data, both static channels -----------

_GRAPH = rmat(6, edge_factor=4, seed=2)


def _form(tag):
    if tag == 0:
        return "dense"
    if tag < 0:
        return f"delta, {'bitmap' if (-tag - 1) % 2 else 'list'}"
    form = (tag - 1) % 4
    kind = "announce senders" if form >= 2 else "announce"
    return f"{kind}, {'bitmap' if form % 2 else 'list'}"


@contextlib.contextmanager
def received_forms():
    """The set of forms (:func:`_form`) of every pattern payload received."""
    forms = set()
    real_decode = _pattern.decode_pattern

    def decode(payload, *args):
        forms.add(_form(INT32.decode_one(payload)))
        return real_decode(payload, *args)

    with mock.patch.object(_pattern, "decode_pattern", decode):
        yield forms


#: per superstep, the share of values that changes: a schedule that reaches
#: every form after the announcement, whichever superstep re-announces
_EVERY_FORM = {2: 0.0, 3: 0.1, 4: 0.9, 5: 0.02, 6: 1.0}


@pytest.mark.parametrize(
    "channel",
    [lambda w: ScatterCombine(w, SUM_F64), lambda w: MirroredScatter(w, SUM_F64, threshold=3)],
    ids=["ScatterCombine", "MirroredScatter"],
)
@pytest.mark.parametrize("recovery", ["confined", "rollback"])
@pytest.mark.parametrize("register_again_at", [3, 4, 5])
def test_process_backends_count_the_simulator_bytes(channel, recovery, register_again_at):
    """Two announcements (superstep 1, and after the registration of
    ``register_again_at``) and a failure in superstep 5 that recovers from
    the checkpoint of superstep 3 and replays supersteps 4 and 5, on every
    backend.  The checkpoint holds a re-announced pattern (registration at
    3), or predates the registration, whose re-announcement the replay
    runs before a delta scatter (4) or after one (5).  Every form crosses
    the wire, and the replay reads logged frames of each."""
    kw = dict(checkpoint_every=3, failures=[(1, 5)], recovery=recovery)
    schedule = ({1, 2, 3, 4, 5, 6}, register_again_at, True)
    owner = hash_partition(_GRAPH.num_vertices, 3)
    with received_forms() as forms:
        sim = run(_GRAPH, channel, 3, owner, *schedule, changes=_EVERY_FORM, **kw)
    assert forms >= {"delta, list", "delta, bitmap", "dense"}
    clean = run(_GRAPH, channel, 3, owner, *schedule, changes=_EVERY_FORM)
    assert sim.data == clean.data
    assert sim.metrics.channel_breakdown() == clean.metrics.channel_breakdown()
    dense = run(_GRAPH, channel, 3, owner, *schedule)  # every value changes
    assert sim.metrics.total_net_bytes < dense.metrics.total_net_bytes
    for m in MOVERS:
        with mover(m):
            proc = run(
                _GRAPH, channel, 3, owner, *schedule, changes=_EVERY_FORM,
                executor="process", **kw,
            )  # fmt: skip
        assert proc.data == sim.data
        assert proc.metrics.channel_breakdown() == sim.metrics.channel_breakdown()
        assert proc.metrics.total_net_bytes == sim.metrics.total_net_bytes
        assert proc.metrics.checkpoint_bytes == sim.metrics.checkpoint_bytes


# -- the two workloads the rule was written for ---------------------------------------


def _dense_wire():
    """The wire before the delta form: every payload after an announcement
    is the dense values."""
    return mock.patch.object(_pattern, "_changed", lambda kept, values: None)


def _list_wire():
    """The wire before the bitmap forms: announced ids and delta positions
    always cross as lists."""
    return mock.patch.object(_records, "set_nbytes", lambda count, span, width: (width * count, math.inf))


def _bitmap_wire():
    """Announced ids and delta positions cross as bitmaps: the lists are
    priced out."""
    return mock.patch.object(_records, "set_nbytes", lambda count, span, width: (math.inf, -(-span // 8)))


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_sv_sends_fewer_bytes_for_the_same_run(workers):
    """S-V ``both`` broadcasts labels that mostly stopped changing, to
    destination ids that fill much of their range.  Each cut of the wire —
    the delta forms, then the bitmap forms — leaves labels and every
    logical counter where the wire before it has them, in fewer bytes."""
    graph = rmat(9, edge_factor=4, seed=7, directed=False)
    owner = hash_partition(graph.num_vertices, workers)
    runs = []
    for patches in ((_dense_wire(), _list_wire()), (_list_wire(),), ()):
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            runs.append(run_sv(graph, variant="both", num_workers=workers, partition=owner))
    for (before_labels, before), (labels, after) in zip(runs, runs[1:]):
        np.testing.assert_array_equal(labels, before_labels)
        a, b = after.metrics, before.metrics
        assert (a.supersteps, a.total_rounds, a.total_messages) == (
            b.supersteps, b.total_rounds, b.total_messages,
        )  # fmt: skip
        assert a.total_net_bytes + a.total_local_bytes < b.total_net_bytes + b.total_local_bytes
        if workers > 1:
            assert a.total_net_bytes < b.total_net_bytes


def test_pagerank_keeps_the_dense_wire():
    """Every PageRank share changes in every scatter, so every payload
    after the announcement is dense: the channel's bytes are ``iterations``
    scatters of a tag and ``n`` values per sender and peer, plus the ``n``
    announced ids (a list or a bitmap) — where ``n`` is the destinations,
    or, to another worker, :func:`split_nbytes`' values and words."""
    graph = rmat(8, edge_factor=4, seed=3, directed=True)
    workers, iterations = 3, 6
    owner = hash_partition(graph.num_vertices, workers)
    _, result = run_pagerank(
        graph, variant="scatter", mode="bulk", iterations=iterations,
        num_workers=workers, partition=owner,
    )  # fmt: skip
    src, dst = graph.edge_array()
    width = nbytes_for(graph.num_vertices + 1)
    total = {True: 0, False: 0}  # keyed by "crosses the network"
    for w in range(workers):
        for p in range(workers):
            here = (owner[src] == w) & (owner[dst] == p)
            ids = np.unique(dst[here])
            values, words = ids.size, announced_ids_nbytes(ids, width)
            if w != p and values:
                values, words = split_nbytes(src[here], dst[here], width)
            if values:
                total[w != p] += iterations * (4 + values * 8) + words
    counted = result.metrics.channel_breakdown()["1:ScatterCombine"]
    assert (counted["net_bytes"], counted["local_bytes"]) == (total[True], total[False])


# -- who announces, and when --------------------------------------------------------


def _announcements(**run_kw):
    """Sender worker of every announcing scatter of one ScatterCombine run
    over ``_GRAPH`` on 3 workers (each of which has destinations on all
    three), in order."""
    senders = []
    real_scatter = ScatterCombine._scatter

    def scatter(self, payloads):
        if self._words is not None:
            assert all(w["ids"].size for w in self._words)
            senders.append(self.worker.worker_id)
        real_scatter(self, payloads)

    with mock.patch.object(ScatterCombine, "_scatter", scatter):
        run(
            _GRAPH, lambda w: ScatterCombine(w, SUM_F64), 3,
            range_partition(_GRAPH.num_vertices, 3), exact=True, **run_kw,
        )  # fmt: skip
    return senders


def test_one_announcement_per_sender():
    assert _announcements(scatter_steps={1, 2, 4, 6}, register_again_at=None) == [0, 1, 2]


def test_a_second_registration_re_announces_exactly_once():
    senders = _announcements(scatter_steps={1, 2, 4, 6}, register_again_at=3)
    assert senders == [0, 1, 2] * 2


def test_a_restore_does_not_re_announce():
    """Rollback to the checkpoint of superstep 2 re-executes superstep 3
    with the flag and the patterns the snapshot held."""
    senders = _announcements(
        scatter_steps={1, 2, 3, 4, 6}, register_again_at=None,
        checkpoint_every=2, failures=[(1, 3)], recovery="rollback",
    )  # fmt: skip
    assert senders == [0, 1, 2]


# -- what each end keeps ---------------------------------------------------------------


@pytest.mark.parametrize("cls", [ScatterCombine, MirroredScatter])
def test_wire_ids_are_freed_and_patterns_snapshot_in_four_bytes(cls):
    make = (lambda w: cls(w, SUM_F64)) if cls is ScatterCombine else (
        lambda w: cls(w, SUM_F64, threshold=THRESHOLD)
    )
    engine = ChannelEngine(
        _GRAPH, make_program(make, {1, 2}, None, True), num_workers=2,
        partition=hash_partition(_GRAPH.num_vertices, 2),
    )  # fmt: skip
    engine.run()
    for worker in engine.workers:
        channel = worker.program.msg
        assert channel._announced and channel._words is None
        assert sorted(channel._patterns) == [0, 1]
        assert all(p[0].dtype == np.intp for p in channel._patterns.values())
        state = decode_state(encode_state(channel.snapshot()))
        assert state["announced"] is True
        for src, (local, second, *combined) in state["patterns"].items():
            assert local.dtype == np.int32
            if isinstance(second, int):  # announced senders, destination count, combined ids
                assert src in channel._senders
                assert combined[0].dtype == np.int32
            else:  # a destination id per value: a pattern has no third kind
                assert second is None and channel._patterns[src][1] is None
        # mirrors cross as announced senders, and snapshot as what was announced
        assert bool(channel._senders) or cls is ScatterCombine
        # a restored channel rebuilds its dispatch without the wire ids
        restored = make(worker)
        restored.restore(state)
        restored._build()
        assert restored._announced and restored._words is None
        for src, (local, repeats) in channel._patterns.items():
            np.testing.assert_array_equal(restored._patterns[src][0], local)
            assert restored._patterns[src][0].dtype == np.intp


# -- protocol errors: raised by name, once per announcement ----------------------------


class _Idle(VertexProgram):
    def compute(self, v):
        v.vote_to_halt()


@pytest.fixture()
def receiver():
    """Worker 1 of a 2-worker range partition of 8 vertices (it owns 4..7)."""
    graph = Graph.from_edges(8, [(0, 4)], directed=True)
    worker = ChannelEngine(
        graph, _Idle, num_workers=2, partition=range_partition(8, 2)
    ).workers[1]
    return ScatterCombine(worker, SUM_F64)


def _wire(tag, *parts):
    """A pattern payload assembled by hand: ``tag``, then each part's bytes."""
    return memoryview(b"".join([INT32.encode_one(tag), *(np.asarray(p).tobytes() for p in parts)]))


def _payload(ids, values, positions=None):
    """The list announcement of ``ids`` before ``values``, the list delta
    of ``values[positions]``, or (neither given) the dense ``values`` — by
    hand, so that they may be malformed.  An id of the 8-vertex graph, and
    a position into fewer than 257 values, cross as one byte."""
    values = np.asarray(values, dtype=np.float64)
    if ids is not None:
        return _wire(4 * len(ids) + 1, np.asarray(ids).astype(np.uint8), values)
    if positions is not None:
        positions = np.asarray(positions, dtype=np.int64)
        return _wire(-(2 * positions.size + 1), positions.astype(np.uint8), values[positions])
    return _wire(0, values)


def _encoded(channel, values, **form):
    """What ``encode_pattern`` sends for ``ids=`` (with ``destinations=``
    and ``combined=``, senders), ``changed=`` or (none given) the dense
    ``values``."""
    form = {key: np.asarray(arg) for key, arg in form.items()}
    return memoryview(encode_pattern(channel, np.asarray(values, dtype=np.float64), **form))


def test_a_delta_patches_the_kept_values_and_folds_them_all(receiver):
    receiver.deserialize([(0, _payload([4, 6], [1.0, 2.0]))])
    receiver.deserialize([(0, _payload(None, [0.0, 5.0], positions=[1]))])
    assert receiver.get_messages()[0].tolist() == [1.0, 0.0, 5.0, 0.0]
    # no change: a bare tag, and both destinations still receive
    receiver.deserialize([(0, _payload(None, [], positions=[]))])
    slots, has_msg = receiver.get_messages()
    assert (slots.tolist(), has_msg.tolist()) == ([1.0, 0.0, 5.0, 0.0], [True, False, True, False])
    state = decode_state(encode_state(receiver.snapshot()))
    assert state["received"][0].tolist() == [1.0, 5.0]


def test_bitmap_forms_announce_and_patch_as_the_lists_do(receiver):
    """Three ids in a range of four: 8 + 1 bytes as a bitmap (at a byte
    an id, a list of them is smaller, so it is priced out here); two
    changed values of three: 1 + 16 bytes, 18 as a list."""
    with _bitmap_wire():
        announce = _encoded(receiver, [1.0, 2.0, 3.0], ids=[4, 5, 7])
    assert (_form(INT32.decode_one(announce)), len(announce)) == ("announce, bitmap", 4 + 9 + 24)
    receiver.deserialize([(0, announce)])
    assert receiver.get_messages()[0].tolist() == [1.0, 2.0, 0.0, 3.0]
    delta = _encoded(receiver, [1.0, 9.0, 8.0], changed=[False, True, True])
    assert (_form(INT32.decode_one(delta)), len(delta)) == ("delta, bitmap", 4 + 1 + 16)
    receiver.deserialize([(0, delta)])
    slots, has_msg = receiver.get_messages()
    assert (slots.tolist(), has_msg.tolist()) == ([1.0, 9.0, 0.0, 8.0], [True, True, False, True])
    # every value changed: dense, not a bitmap of three set bits
    dense = _encoded(receiver, [1.0, 2.0, 3.0], changed=[True, True, True])
    assert (_form(INT32.decode_one(dense)), len(dense)) == ("dense", 4 + 24)


def test_a_tie_goes_to_the_earlier_form():
    """Equal sizes go to dense before a list, and to a list before a
    bitmap: the form is a function of the values, ties included."""
    graph = Graph.from_edges(64, [], directed=True)  # a byte an id
    worker = ChannelEngine(graph, _Idle, num_workers=2, partition=range_partition(64, 2)).workers[1]
    receiver = ScatterCombine(worker, SUM_F64)
    ties = [
        # twelve ids in a range of 32: 12 bytes either way
        (dict(ids=[0, *range(21, 32)]), 12, "announce, list"),
        # four changes in 32 values: 4 * (1 + 8) = 4 + 4 * 8 bytes (dense: 256)
        (dict(changed=np.isin(np.arange(32), [5, 6, 7, 8])), 32, "delta, list"),
        # 63 changes in 64 values: 8 + 63 * 8 = 64 * 8 bytes
        (dict(changed=np.arange(64) != 5), 64, "dense"),
    ]
    for form, n, expected in ties:
        assert _form(INT32.decode_one(_encoded(receiver, np.ones(n), **form))) == expected


def test_values_from_a_source_that_never_announced(receiver):
    with pytest.raises(RuntimeError, match=r"ScatterCombine.*2 values from worker 0.*no pattern"):
        receiver.deserialize([(0, _payload(None, [1.0, 2.0]))])


def test_delta_from_a_source_that_never_announced(receiver):
    bitmap = _wire(-4, np.uint8([0b10]), np.float64([2.0]))
    for delta in (_payload(None, [1.0, 2.0], positions=[1]), bitmap):
        with pytest.raises(
            RuntimeError, match=r"ScatterCombine.*worker 0 sent a delta of 1 values before any announcement"
        ):
            receiver.deserialize([(0, delta)])


def test_delta_position_outside_the_pattern(receiver):
    receiver.deserialize([(0, _payload([4, 6], [1.0, 2.0]))])
    with pytest.raises(RuntimeError, match=r"ScatterCombine.*worker 0 .*position code 2 outside \[0, 2\)"):
        receiver.deserialize([(0, _payload(None, [1.0, 2.0, 3.0], positions=[0, 2]))])
    # a byte's last code is no position either
    with pytest.raises(RuntimeError, match=r"ScatterCombine.*worker 0 .*position code 255 outside"):
        receiver.deserialize([(0, _payload(None, [1.0, 2.0], positions=[-1]))])


def test_delta_positions_that_do_not_ascend(receiver):
    receiver.deserialize([(0, _payload([4, 5, 6], [1.0, 2.0, 3.0]))])
    for positions in ([1, 0], [1, 1]):
        with pytest.raises(RuntimeError, match=r"ScatterCombine.*worker 0 .*not strictly ascend"):
            receiver.deserialize([(0, _payload(None, [1.0, 2.0], positions=positions))])


def test_delta_count_differs_from_the_payload_length(receiver):
    receiver.deserialize([(0, _payload([4, 6], [1.0, 2.0]))])
    delta = bytes(_payload(None, [1.0, 2.0], positions=[0, 1]))
    for wrong in (delta[:-8], delta + bytes(8), delta[:-1]):
        with pytest.raises(RuntimeError, match=r"ScatterCombine.*worker 0 sent a delta of 2 values"):
            receiver.deserialize([(0, memoryview(wrong))])


def test_value_count_differs_from_the_pattern(receiver):
    receiver.deserialize([(0, _payload([4, 6], [1.0, 2.0]))])
    assert receiver.get_messages()[0].tolist() == [1.0, 0.0, 2.0, 0.0]
    with pytest.raises(RuntimeError, match=r"ScatterCombine.*3 values from worker 0.*takes 2"):
        receiver.deserialize([(0, _payload(None, [1.0, 2.0, 3.0]))])


def test_announced_id_the_receiver_does_not_own(receiver):
    """``_local_index`` is -1 there: the value used to fold, silently,
    into the receiver's last slot."""
    with pytest.raises(RuntimeError, match=r"worker 0 sent id 3, which worker 1 does not own"):
        receiver.deserialize([(0, _payload([4, 3], [1.0, 2.0]))])
    assert 0 not in receiver._patterns
    with pytest.raises(RuntimeError, match=r"ScatterCombine.*worker 0 sent id code 8 outside \[0, 8\)"):
        receiver.deserialize([(0, _payload([8], [1.0]))])


def test_announced_ids_that_do_not_strictly_ascend(receiver):
    """``[4·2 + 1][4][4][1.0][2.0]`` used to fold 3.0 into vertex 4: an
    announced id set names each id once, in ascending order."""
    for ids in ([4, 4], [6, 4]):
        with pytest.raises(
            RuntimeError, match=r"ScatterCombine.*worker 0 announced ids that do not strictly ascend"
        ):
            receiver.deserialize([(0, _payload(ids, [1.0, 2.0]))])
        assert 0 not in receiver._patterns


# -- malformed bitmaps: a RuntimeError naming the channel and the source ---------------

_ONE = np.float64([9.0])


def _refuses(receiver, payload, match):
    with pytest.raises(RuntimeError, match=rf"ScatterCombine.*worker 0 sent {match}"):
        receiver.deserialize([(0, payload)])


def test_bitmap_popcount_disagrees_with_the_tag_or_the_values(receiver):
    receiver.deserialize([(0, _payload([4, 5, 6], [1.0, 2.0, 3.0]))])
    # a delta tagged with one value, two bits set
    _refuses(receiver, _wire(-4, np.uint8([0b011]), _ONE), "a bitmap of 2 set bits for 1 values")
    # one bit set, as tagged, and two values: the bitmap is not the pattern's
    _refuses(receiver, _wire(-4, np.uint8([0b010]), _ONE, _ONE), "a bitmap of 9 bytes for 3 bits")
    # an announcement tagged with two ids, three bits set
    head = np.int32([4, 3])
    _refuses(receiver, _wire(10, head, np.uint8([0b111]), _ONE, _ONE), "a bitmap of 3 set bits for 2")


def test_bitmap_bit_set_past_its_last(receiver):
    receiver.deserialize([(0, _payload([4, 5, 6], [1.0, 2.0, 3.0]))])
    _refuses(receiver, _wire(-4, np.uint8([0b1000]), _ONE), "a bitmap with a bit set past its 3 bits")
    _refuses(
        receiver, _wire(6, np.int32([4, 3]), np.uint8([0b1000]), _ONE),
        "a bitmap with a bit set past its 3 bits",
    )  # fmt: skip


def test_bitmap_announcement_outside_the_graph(receiver):
    for lo, span in ((6, 4), (-1, 2), (4, -1)):
        _refuses(
            receiver, _wire(6, np.int32([lo, span]), np.uint8([0b1]), _ONE),
            rf"a bitmap of ids \[{lo}, {lo + span}\) outside \[0, 8\)",
        )  # fmt: skip
    assert 0 not in receiver._patterns


def test_truncated_bitmap(receiver):
    receiver.deserialize([(0, _payload([4, 5, 6], [1.0, 2.0, 3.0]))])
    _refuses(receiver, _wire(-4, _ONE), "a bitmap of 0 bytes for 3 bits")
    _refuses(receiver, _wire(-4, np.uint8([0b10]), _ONE)[:-1], "a bitmap of 0 bytes for 3 bits")
    _refuses(receiver, _wire(-4, np.uint8([0b10]), _ONE)[:-2], "a delta of 1 values in 11 bytes")
    _refuses(receiver, _wire(6, np.int32([4, 4]), _ONE), "a bitmap of 0 bytes for 4 bits")
    _refuses(receiver, _wire(6, np.int32([4])), "an announcement of 1 values in 8 bytes")


# -- wire limits: what an int32 word cannot hold is refused, never wrapped -------------


@pytest.mark.parametrize(
    "form, bad",
    [
        (dict(ids=[5, 2**31]), "id 2147483648"),
        # a run of ids whose bitmap is the smaller form
        (dict(ids=np.arange(2**31 - 64, 2**31 + 64)), "id 2147483711"),
        # an announcement of senders: a sender id, a combined id, the count
        (dict(ids=[5, 2**31], destinations=1), "id 2147483648"),
        (dict(ids=[5], destinations=1, combined=[-(2**31) - 1, 0]), "combined id -2147483649"),
        (dict(ids=[5], destinations=2**31), "destination count 2147483648"),
    ],
)
def test_the_encoder_refuses_what_an_int32_word_cannot_hold(receiver, form, bad):
    """No graph with 2**31 vertices fits a test: the encoder is handed the
    ids itself (``ScatterCombine._build`` narrows them through the same
    ``as_int32``)."""
    values = np.zeros(len(next(iter(form.values()))))
    with pytest.raises(ValueError, match=rf"ScatterCombine.*: {bad} does not fit an int32 word"):
        _encoded(receiver, values, **form)
