"""Worker-level tests: the frame layer that multiplexes channels onto
shared buffers, ownership bookkeeping, and halting/waking mechanics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChannelEngine, Channel, VertexProgram
from repro.graph.graph import Graph
from helpers import line_graph


def make_engine(n=6, workers=2):
    class Idle(VertexProgram):
        def compute(self, v):
            v.vote_to_halt()

    return ChannelEngine(line_graph(n), Idle, num_workers=workers)


class TestFrameLayer:
    def test_emit_route_roundtrip(self):
        engine = make_engine()
        w0, w1 = engine.workers
        w0.emit(0, 1, b"alpha")
        w0.emit(1, 1, b"beta!")
        w0.emit(0, 1, b"gamma")
        # deliver by hand
        w1.buffers.inbox[0] = w0.buffers.out[1].getvalue()
        routed = w1.route_inbox()
        assert [bytes(p) for _, p in routed[0]] == [b"alpha", b"gamma"]
        assert [bytes(p) for _, p in routed[1]] == [b"beta!"]
        assert all(src == 0 for src, _ in routed[0])

    def test_empty_payload_not_framed(self):
        engine = make_engine()
        w0 = engine.workers[0]
        w0.emit(0, 1, b"")
        assert w0.buffers.out[1].nbytes == 0

    @settings(max_examples=30)
    @given(
        frames=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.binary(min_size=0, max_size=64),
            ),
            max_size=20,
        )
    )
    def test_routing_fuzz(self, frames):
        """Arbitrary interleavings of channel frames survive the trip."""
        engine = make_engine()
        w0, w1 = engine.workers
        expected: dict[int, list[bytes]] = {}
        for cid, payload in frames:
            w0.emit(cid, 1, payload)
            if payload:
                expected.setdefault(cid, []).append(payload)
        w1.buffers.inbox[0] = w0.buffers.out[1].getvalue()
        w0.buffers.out[1].clear()
        routed = w1.route_inbox()
        got = {cid: [bytes(p) for _, p in lst] for cid, lst in routed.items()}
        assert got == expected


class TestExchangeRound:
    """``Worker.serialize_round`` / ``deserialize_round``: the two halves
    every superstep driver runs a round through."""

    class _Echo(Channel):
        """Sends one tagged byte string to every peer; keeps what arrives
        and asks for ``rounds_wanted`` rounds in total."""

        rounds_wanted = 1

        def serialize(self):
            for peer in range(self.num_workers):
                self.emit(peer, b"from %d" % self.worker.worker_id)

        def deserialize(self, payloads):
            self.round += 1
            self.got = sorted((src, bytes(p)) for src, p in payloads)

        def again(self):
            return self.round < self.rounds_wanted

    def _engine(self, channels=1):
        echo = self._Echo

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.chans = [echo(worker) for _ in range(channels)]

            def compute(self, v):
                v.vote_to_halt()

        return ChannelEngine(line_graph(6), P, num_workers=2)

    @staticmethod
    def _swap(engine):
        for dst in engine.workers:
            dst.buffers.inbox = [
                src.buffers.out[dst.worker_id].getvalue() for src in engine.workers
            ]
        for worker in engine.workers:
            for writer in worker.buffers.out:
                writer.clear()

    def test_round_trip_and_votes(self):
        engine = self._engine(channels=2)
        w0, w1 = engine.workers
        w0.channels[1].rounds_wanted = 2  # one instance's vote is enough
        flushed = []
        for worker in engine.workers:
            worker.serialize_round([True, True], flush=lambda: flushed.append(1))
        assert len(flushed) == 4  # once per active channel per worker
        self._swap(engine)
        assert w0.deserialize_round([True, True]) == [False, True]
        assert w1.deserialize_round([True, True]) == [False, False]
        assert w1.channels[0].got == [(0, b"from 0"), (1, b"from 1")]

    def test_inactive_channels_neither_write_nor_vote(self):
        engine = self._engine(channels=2)
        for worker in engine.workers:
            worker.serialize_round([False, True])
        self._swap(engine)
        w0 = engine.workers[0]
        assert w0.deserialize_round([False, True]) == [False, False]
        assert w0.channels[0].round == 0 and w0.channels[1].round == 1

    def test_frame_for_an_inactive_channel_is_an_error(self):
        engine = self._engine(channels=2)
        w0, w1 = engine.workers
        w1.serialize_round([True, True])
        self._swap(engine)
        with pytest.raises(RuntimeError, match=r"worker 0 .* channel 0 from worker 1"):
            w0.deserialize_round([False, True])

    def test_frame_for_an_unregistered_channel_is_an_error(self):
        # Worker.emit takes any id; a frame nobody is registered to
        # consume used to be counted as traffic and silently dropped
        engine = self._engine()
        w0, w1 = engine.workers
        w1.emit(7, 0, b"stray")
        self._swap(engine)
        with pytest.raises(RuntimeError, match=r"channel 7 from worker 1"):
            w0.deserialize_round([True])

    def test_stray_frame_fails_the_run(self):
        class Stray(self._Echo):
            def serialize(self):
                self.worker.emit(self.channel_id + 1, 0, b"stray")

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.chan = Stray(worker)

            def compute(self, v):
                v.vote_to_halt()

        with pytest.raises(RuntimeError, match="no active channel consumes it"):
            ChannelEngine(line_graph(6), P, num_workers=2).run()


class TestOwnership:
    def test_local_index_and_owner(self):
        g = line_graph(6)
        part = np.array([0, 1, 0, 1, 0, 1])
        engine = ChannelEngine(
            g, type("P", (VertexProgram,), {"compute": lambda s, v: v.vote_to_halt()}),
            num_workers=2, partition=part,
        )
        w0, w1 = engine.workers
        assert w0.local_ids.tolist() == [0, 2, 4]
        assert w0.local_index(2) == 1
        assert w0.local_index(1) == -1  # not owned
        assert w0.owner_of(3) == 1
        assert w1.num_local == 3

    def test_every_vertex_owned_exactly_once(self):
        engine = make_engine(n=10, workers=3)
        seen = np.concatenate([w.local_ids for w in engine.workers])
        assert np.sort(seen).tolist() == list(range(10))


class TestHaltWake:
    def test_begin_superstep_resolves_wakes(self):
        engine = make_engine(n=4, workers=1)
        w = engine.workers[0]
        active = w.begin_superstep()
        assert active.tolist() == [0, 1, 2, 3]
        w.halt(1)
        w.halt(2)
        assert w.begin_superstep().tolist() == [0, 3]
        w.activate_local_bulk(np.array([2]))
        assert w.begin_superstep().tolist() == [0, 2, 3]
        # the wake is consumed: 2 stays active only because waking
        # cleared its halted flag
        w.halt(2)
        assert w.begin_superstep().tolist() == [0, 3]

    def test_activate_by_global_id(self):
        engine = make_engine(n=4, workers=2)
        w = engine.workers[engine.owner[3]]
        w.begin_superstep()
        w.halt(w.local_index(3))
        w.activate(3)
        assert w.local_index(3) in w.begin_superstep().tolist()


class TestChannelRegistration:
    def test_channels_get_sequential_ids(self):
        class Multi(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                from repro.core import Aggregator, DirectMessage, SUM_I64

                self.a = DirectMessage(worker)
                self.b = DirectMessage(worker)
                self.c = Aggregator(worker, SUM_I64)

            def compute(self, v):
                v.vote_to_halt()

        engine = ChannelEngine(line_graph(4), Multi, num_workers=2)
        prog = engine.workers[0].program
        assert prog.a.channel_id == 0
        assert prog.b.channel_id == 1
        assert prog.c.channel_id == 2

    def test_custom_channel_minimal_contract(self):
        """A do-nothing Channel subclass participates without breaking
        the engine (the Fig. 3 base-class defaults)."""

        class Noop(Channel):
            def serialize(self):
                pass

            def deserialize(self, payloads):
                self.round += 1

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.noop = Noop(worker)

            def compute(self, v):
                v.vote_to_halt()

        res = ChannelEngine(line_graph(4), P, num_workers=2).run()
        assert res.supersteps == 1
