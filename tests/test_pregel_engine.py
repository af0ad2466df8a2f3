"""Unit tests for the Pregel+ baseline: its message layer, run through
``pregel_plus`` on the one engine."""

import numpy as np
import pytest

from repro.core.combiner import MIN_I64, SUM_I64
from repro.graph.graph import Graph
from repro.core import ChannelEngine
from repro.pregel import PregelProgram, pregel_plus
from repro.runtime.serialization import INT64, struct_codec, INT32
from helpers import line_graph


class Echo(PregelProgram):
    """Everyone sends its id to vertex 0 in step 1."""

    message_codec = INT64

    def __init__(self, worker):
        super().__init__(worker)
        self.got = {}

    def compute(self, v, messages):
        if self.step_num == 1:
            v.send_message(0, v.id)
        else:
            self.got[v.id] = sorted(int(m) for m in messages)
        v.vote_to_halt()

    def finalize(self):
        return self.got


class TestBasicMode:
    def test_message_lists_without_combiner(self):
        res = ChannelEngine(line_graph(4), pregel_plus(Echo), num_workers=2).run()
        assert res.data[0] == [0, 1, 2, 3]

    def test_combined_delivery(self):
        class P(Echo):
            combiner = MIN_I64

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.send_message(0, v.id + 10)
                else:
                    self.got[v.id] = messages  # scalar, already combined
                v.vote_to_halt()

        res = ChannelEngine(line_graph(4), pregel_plus(P), num_workers=2).run()
        assert res.data[0] == 10

    def test_no_message_is_none_with_combiner(self):
        class P(PregelProgram):
            combiner = MIN_I64
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.seen = {}

            def compute(self, v, messages):
                self.seen[v.id] = messages
                v.vote_to_halt()

            def finalize(self):
                return self.seen

        res = ChannelEngine(line_graph(3), pregel_plus(P), num_workers=2).run()
        assert all(v is None for v in res.data.values())

    def test_structured_monolithic_type(self):
        tagged = struct_codec([("tag", INT32), ("val", INT32)])

        class P(PregelProgram):
            message_codec = tagged

            def __init__(self, worker):
                super().__init__(worker)
                self.got = {}

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.send_message(0, (7, v.id))
                else:
                    self.got[v.id] = sorted(messages)
                v.vote_to_halt()

            def finalize(self):
                return self.got

        res = ChannelEngine(line_graph(3), pregel_plus(P), num_workers=2).run()
        assert res.data[0] == [(7, 0), (7, 1), (7, 2)]

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'turbo'"):
            pregel_plus(Echo, variant="turbo")

    def test_request_outside_reqresp_mode_rejected(self):
        class P(PregelProgram):
            def compute(self, v, messages):
                v.request(0)

        with pytest.raises(RuntimeError, match="reqresp"):
            ChannelEngine(line_graph(2), pregel_plus(P, variant="basic"), num_workers=1).run()

    def test_aggregate_without_declaration_rejected(self):
        class P(PregelProgram):
            def compute(self, v, messages):
                self.aggregate(1)

        with pytest.raises(RuntimeError, match="aggregator"):
            ChannelEngine(line_graph(2), pregel_plus(P), num_workers=1).run()


class TestAggregator:
    def test_sum_and_timing(self):
        class P(PregelProgram):
            aggregator_combiner = SUM_I64

            def __init__(self, worker):
                super().__init__(worker)
                self.seen = []

            def compute(self, v, messages):
                if v.id == 0:
                    self.seen.append(self.agg_result)
                if self.step_num == 1:
                    self.aggregate(1)
                if self.step_num >= 2:
                    v.vote_to_halt()

            def finalize(self):
                return {"seen": self.seen} if self.seen else {}

        res = ChannelEngine(line_graph(5), pregel_plus(P), num_workers=2).run()
        assert res.data["seen"] == [None, 5]


class TestReqRespMode:
    def test_dedup_and_echo_format(self):
        class P(PregelProgram):
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.attr = worker.local_ids * 3
                self.got = {}

            def respond_value(self, local_idx):
                return int(self.attr[local_idx])

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.request(0)
                else:
                    self.got[v.id] = int(v.get_resp(0))
                v.vote_to_halt()

        part = np.array([0, 1, 1, 1])
        engine = ChannelEngine(
            line_graph(4), pregel_plus(P, variant="reqresp"), num_workers=2, partition=part
        )
        res = engine.run()
        # all of worker 1's requests for vertex 0 dedup to one wire id;
        # the response echoes (id, value): 4B + 8B
        # worker 0's self-request is local
        assert res.metrics.total_messages == 2

    def test_only_requesters_wake(self):
        class P(PregelProgram):
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.computed = []

            def respond_value(self, local_idx):
                return 1

            def compute(self, v, messages):
                self.computed.append((self.step_num, v.id))
                if self.step_num == 1 and v.id == 0:
                    v.request(2)
                v.vote_to_halt()

            def finalize(self):
                return {f"w{self.worker.worker_id}": self.computed}

        res = ChannelEngine(
            line_graph(3),
            pregel_plus(P, variant="reqresp"),
            num_workers=1,
        ).run()
        computed = res.data["w0"]
        # step 1: everyone; step 2: only vertex 0 (the requester) —
        # the responder (vertex 2) is answered by the system, not compute()
        assert (2, 0) in computed
        assert (2, 2) not in computed and (2, 1) not in computed


class TestGhostMode:
    def test_mirror_expansion_correct(self):
        class P(PregelProgram):
            message_codec = INT64
            combiner = SUM_I64

            def __init__(self, worker):
                super().__init__(worker)
                self.got = {}

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.broadcast(v.id + 1)
                else:
                    self.got[v.id] = messages
                v.vote_to_halt()

            def finalize(self):
                return self.got

        from repro.graph import star

        g = star(10, center=0)
        part = np.zeros(10, dtype=np.int64)
        part[5:] = 1
        basic = ChannelEngine(g, pregel_plus(P, variant="basic"), num_workers=2, partition=part).run()
        ghost = ChannelEngine(
            g, pregel_plus(P, variant="ghost", ghost_threshold=3), num_workers=2, partition=part
        ).run()
        assert basic.data == ghost.data
        assert ghost.metrics.total_net_bytes < basic.metrics.total_net_bytes

    def test_low_degree_vertices_unaffected(self):
        class P(PregelProgram):
            message_codec = INT64

            def __init__(self, worker):
                super().__init__(worker)
                self.got = {}

            def compute(self, v, messages):
                if self.step_num == 1:
                    v.broadcast(5)
                else:
                    self.got[v.id] = sorted(messages)
                v.vote_to_halt()

            def finalize(self):
                return self.got

        g = line_graph(4)  # max degree 2 < threshold
        res = ChannelEngine(g, pregel_plus(P, variant="ghost", ghost_threshold=16), num_workers=2).run()
        assert res.data[1] == [5, 5]
