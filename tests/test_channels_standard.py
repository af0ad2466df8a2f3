"""Unit tests for the standard channels: DirectMessage, CombinedMessage,
Aggregator (Table I)."""

import numpy as np
import pytest

from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    MAX_F64,
    MIN_I64,
    SUM_F64,
    SUM_I64,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.runtime.serialization import INT32, INT64, pair_codec
from helpers import line_graph, two_triangles


def run(graph, program_cls, workers=2, **kw):
    return ChannelEngine(graph, program_cls, num_workers=workers, **kw).run()


class TestDirectMessage:
    def test_delivery_and_iteration(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker, value_codec=INT64)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    # everyone sends its id to vertex 0, twice
                    self.msg.send_message(0, v.id)
                    self.msg.send_message(0, v.id * 10)
                else:
                    self.got[v.id] = sorted(self.msg.get_iterator(v).tolist())
                v.vote_to_halt()

            def finalize(self):
                return self.got

        g = line_graph(4)
        res = run(g, P, workers=2)
        assert res.data[0] == sorted(
            [0, 0, 1, 10, 2, 20, 3, 30]
        )

    def test_has_messages(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker)
                self.flags = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.id == 0:
                        self.msg.send_message(1, 7)
                else:
                    self.flags[v.id] = self.msg.has_messages(v)
                v.vote_to_halt()

            def finalize(self):
                return self.flags

        res = run(line_graph(3), P)
        assert res.data[1] is True
        assert 2 not in res.data or res.data[2] is False  # 2 was never woken

    def test_messages_live_one_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker)
                self.counts = []

            def compute(self, v):
                if self.step_num == 1 and v.id == 0:
                    self.msg.send_message(1, 5)
                if v.id == 1:
                    self.counts.append(self.msg.get_iterator(v).size)
                if self.step_num < 3:
                    pass
                else:
                    v.vote_to_halt()

            def finalize(self):
                return {"counts": self.counts} if self.counts else {}

        res = run(line_graph(3), P, workers=1)
        # step1: nothing yet; step2: one message; step3: drained
        assert res.data["counts"] == [0, 1, 0]

    def test_bulk_send_matches_scalar(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker, value_codec=INT32)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.id == 0:
                        self.msg.send_messages(
                            np.array([1, 2, 1]), np.array([5, 6, 7])
                        )
                else:
                    self.got[v.id] = sorted(self.msg.get_iterator(v).tolist())
                v.vote_to_halt()

            def finalize(self):
                return self.got

        res = run(line_graph(3), P)
        assert res.data[1] == [5, 7]
        assert res.data[2] == [6]

    def test_structured_codec_payload(self):
        pc = pair_codec(INT32, INT32)

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker, value_codec=pc)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1 and v.id == 0:
                    self.msg.send_message(1, (3, 9))
                elif self.step_num == 2 and v.id == 1:
                    rec = self.msg.get_iterator(v)[0]
                    self.got[1] = (int(rec["a"]), int(rec["b"]))
                v.vote_to_halt()

            def finalize(self):
                return self.got

        res = run(line_graph(2), P)
        assert res.data[1] == (3, 9)


class TestCombinedMessage:
    def _sum_program(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = CombinedMessage(worker, SUM_I64)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.send_message(0, v.id + 1)
                else:
                    self.got[v.id] = (
                        int(self.msg.get_message(v)),
                        self.msg.has_message(v),
                    )
                v.vote_to_halt()

            def finalize(self):
                return self.got

        return P

    def test_receiver_side_combining(self):
        res = run(line_graph(4), self._sum_program(), workers=2)
        assert res.data[0] == (1 + 2 + 3 + 4, True)

    def test_identity_when_no_message(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = CombinedMessage(worker, MIN_I64)
                self.got = {}

            def compute(self, v):
                if self.step_num == 2:
                    self.got[v.id] = (
                        int(self.msg.get_message(v)),
                        self.msg.has_message(v),
                    )
                    v.vote_to_halt()
                # step 1: send nothing, stay active

            def finalize(self):
                return self.got

        res = run(line_graph(3), P)
        assert all(val == (MIN_I64.identity, False) for val in res.data.values())

    def test_wire_bytes_match_direct_message(self):
        """CombinedMessage must not change wire sizes (the Table IV
        'identical message size' rows): one (dst,value) record per send."""

        def bytes_of(channel_cls, combiner):
            class P(VertexProgram):
                def __init__(self, worker):
                    super().__init__(worker)
                    if combiner is None:
                        self.msg = channel_cls(worker, value_codec=INT64)
                    else:
                        self.msg = channel_cls(worker, combiner)

                def compute(self, v):
                    if self.step_num == 1:
                        for e in v.edges:
                            self.msg.send_message(int(e), 7)
                    v.vote_to_halt()

            g = two_triangles()
            part = np.array([0, 1, 0, 1, 0, 1])
            res = ChannelEngine(g, P, num_workers=2, partition=part).run()
            return res.metrics.total_net_bytes

        assert bytes_of(DirectMessage, None) == bytes_of(CombinedMessage, SUM_I64)

    def test_min_combining(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = CombinedMessage(worker, MIN_I64)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.send_message(0, 100 - v.id)
                else:
                    self.got[v.id] = int(self.msg.get_message(v))
                v.vote_to_halt()

            def finalize(self):
                return self.got

        res = run(line_graph(5), P)
        assert res.data[0] == 96  # min(100, 99, 98, 97, 96)


class TestAggregator:
    def test_global_sum_visible_next_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.agg = Aggregator(worker, SUM_F64)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.agg.add(1.5)
                else:
                    self.got[v.id] = float(self.agg.result())
                    v.vote_to_halt()

            def finalize(self):
                return self.got

        g = line_graph(6)
        res = run(g, P, workers=3)
        assert all(val == pytest.approx(9.0) for val in res.data.values())

    def test_result_is_identity_before_any_add(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.agg = Aggregator(worker, MAX_F64)
                self.first = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.first[v.id] = self.agg.result()
                v.vote_to_halt()

            def finalize(self):
                return self.first

        res = run(line_graph(3), P)
        assert all(val == MAX_F64.identity for val in res.data.values())

    def test_aggregation_resets_every_superstep(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.agg = Aggregator(worker, SUM_I64)
                self.seen = []

            def compute(self, v):
                if v.id == 0:
                    self.seen.append(int(self.agg.result()))
                if self.step_num == 1:
                    self.agg.add(2)  # only contributed in step 1
                if self.step_num >= 3:
                    v.vote_to_halt()

            def finalize(self):
                return {"seen": self.seen} if self.seen else {}

        res = run(line_graph(4), P, workers=2)
        # step1 result: identity; step2: sum of step1 adds; step3: reset to 0
        assert res.data["seen"] == [0, 8, 0]

    def test_costs_two_exchange_rounds(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.agg = Aggregator(worker, SUM_I64)

            def compute(self, v):
                self.agg.add(1)
                v.vote_to_halt()

        res = run(line_graph(4), P)
        assert res.metrics.records[0].rounds == 2

    def test_works_with_single_worker(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.agg = Aggregator(worker, SUM_I64)
                self.out = {}

            def compute(self, v):
                if self.step_num == 1:
                    self.agg.add(3)
                else:
                    self.out[v.id] = int(self.agg.result())
                    v.vote_to_halt()

            def finalize(self):
                return self.out

        res = run(line_graph(2), P, workers=1)
        assert res.data[0] == 6


class TestMessageFuzz:
    """Property: arbitrary message batches survive the full wire trip
    identically on one worker and on many."""

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        sends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
            ),
            max_size=40,
        ),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_direct_message_delivery_fuzz(self, sends, workers):
        from repro.runtime.serialization import INT32

        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker, value_codec=INT32)
                self.got = {}

            def compute(self, v):
                if self.step_num == 1:
                    if v.id == 0:
                        for dst, val in sends:
                            self.msg.send_message(dst, val)
                else:
                    self.got[v.id] = sorted(self.msg.get_iterator(v).tolist())
                v.vote_to_halt()

            def finalize(self):
                return self.got

        expected = {}
        for dst, val in sends:
            expected.setdefault(dst, []).append(val)
        expected = {k: sorted(v) for k, v in expected.items()}

        res = ChannelEngine(line_graph(10), P, num_workers=workers).run()
        got = {k: v for k, v in res.data.items() if v}
        assert got == expected
