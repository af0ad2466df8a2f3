"""Unit tests for the channel engine: lifecycle, halting, activation."""

import numpy as np
import pytest

from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    SUM_I64,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.runtime.serialization import INT64
from helpers import line_graph


class HaltImmediately(VertexProgram):
    def compute(self, v):
        v.vote_to_halt()


class CountSteps(VertexProgram):
    """Runs for `limit` supersteps keeping everyone active."""

    limit = 3

    def __init__(self, worker):
        super().__init__(worker)
        self.seen = []

    def compute(self, v):
        if self.step_num >= self.limit:
            v.vote_to_halt()

    def finalize(self):
        return {f"w{self.worker.worker_id}": self.worker.step_num}


class TestLifecycle:
    def test_halts_after_one_superstep(self):
        g = line_graph(10)
        res = ChannelEngine(g, HaltImmediately, num_workers=2).run()
        assert res.supersteps == 1

    def test_runs_limit_supersteps(self):
        g = line_graph(10)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert res.supersteps == 3

    def test_step_num_visible_in_finalize(self):
        g = line_graph(4)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert all(v == 3 for v in res.data.values())

    def test_max_supersteps_guard(self):
        class Forever(VertexProgram):
            def compute(self, v):
                pass  # never halts

        with pytest.raises(RuntimeError, match="max_supersteps"):
            ChannelEngine(line_graph(4), Forever, num_workers=1).run(max_supersteps=5)

    def test_empty_graph_runs_zero_supersteps(self):
        g = Graph.from_edges(0, [])
        res = ChannelEngine(g, HaltImmediately, num_workers=2).run()
        assert res.supersteps == 0


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ChannelEngine(line_graph(4), HaltImmediately, num_workers=0)

    def test_rejects_bad_partition_shape(self):
        with pytest.raises(ValueError):
            ChannelEngine(
                line_graph(4), HaltImmediately, num_workers=2, partition=np.zeros(3, dtype=int)
            )

    def test_rejects_out_of_range_partition(self):
        with pytest.raises(ValueError):
            ChannelEngine(
                line_graph(4),
                HaltImmediately,
                num_workers=2,
                partition=np.array([0, 1, 2, 0]),
            )

    @pytest.mark.parametrize("engine", ["channel", "epoch"])
    @pytest.mark.parametrize(
        "partition, match",
        [
            (np.full(4, 0.9), "integer array, got dtype float64"),  # would run on worker 0
            (np.full(4, 1.7), "integer array, got dtype float64"),  # would run on worker 1
            (np.array([True, False, True, False]), "integer array, got dtype bool"),
            ([0.0, 1.0, 0.0, 1.0], "integer array, got dtype float64"),
            (np.array([0, 1, 0], dtype=np.uint8), r"assign every vertex: shape \(3,\)"),
            (np.zeros((4, 1), dtype=np.int64), r"assign every vertex: shape \(4, 1\)"),
            (np.array([0, 1, 2, 0], dtype=np.uint8), "unknown workers"),
            (np.array([0, -1, 1, 0]), "unknown workers"),
        ],
    )
    def test_refuses_a_partition_that_is_not_an_integer_array_of_workers(
        self, engine, partition, match
    ):
        """One check on both engines: a non-integer dtype is a
        ``ValueError`` naming ``partition``, not a truncation to worker
        numbers; so are a wrong shape and a worker out of range."""
        from repro.streaming import EpochEngine, WCCStream

        with pytest.raises(ValueError, match=f"partition .*{match}"):
            if engine == "channel":
                ChannelEngine(line_graph(4), HaltImmediately, num_workers=2, partition=partition)
            else:
                EpochEngine(line_graph(4), WCCStream(), num_workers=2, partition=partition)

    @pytest.mark.parametrize("engine", ["channel", "epoch"])
    def test_keeps_an_integer_partition_as_given(self, engine):
        from repro.streaming import EpochEngine, WCCStream

        for dtype in (np.uint8, np.int16, np.int64, np.uint64):
            partition = np.array([0, 1, 1, 0], dtype=dtype)
            if engine == "channel":
                owner = ChannelEngine(
                    line_graph(4), HaltImmediately, num_workers=2, partition=partition
                ).owner
            else:
                owner = EpochEngine(
                    line_graph(4), WCCStream(), num_workers=2, partition=partition
                ).owner
            assert owner.dtype == dtype and np.shares_memory(owner, partition)

    def test_rejects_mismatched_channel_counts(self):
        from repro.runtime.parallel import WorkerProcessError

        class Uneven(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                if worker.worker_id == 0:
                    self.msg = DirectMessage(worker)

            def compute(self, v):
                v.vote_to_halt()

        with pytest.raises(RuntimeError, match="same channels"):
            ChannelEngine(line_graph(4), Uneven, num_workers=2)
        # the process parent builds no workers to compare: the children's
        # startup barrier refuses, before superstep 1
        engine = ChannelEngine(line_graph(4), Uneven, num_workers=2, executor="process")
        with pytest.raises(WorkerProcessError, match="differing channel sets"):
            engine.run()
        assert engine.metrics.supersteps == 0


class MessageWake(VertexProgram):
    """Vertex 0 pings down the line; each vertex relays once then halts."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = DirectMessage(worker, value_codec=INT64)
        self.received = np.zeros(worker.num_local, dtype=np.int64)

    def compute(self, v):
        if self.step_num == 1:
            if v.id == 0 and v.out_degree:
                self.msg.send_message(int(v.edges.max()), 1)
        else:
            for m in self.msg.get_iterator(v):
                self.received[v.local] += int(m)
                nxt = v.edges[v.edges > v.id]
                if nxt.size:
                    self.msg.send_message(int(nxt[0]), int(m))
        v.vote_to_halt()

    def finalize(self):
        return {int(g): int(self.received[i]) for i, g in enumerate(self.worker.local_ids)}


class TestActivation:
    def test_messages_wake_halted_vertices(self):
        n = 6
        g = line_graph(n)
        res = ChannelEngine(g, MessageWake, num_workers=3).run()
        # the ping visits 1, 2, ..., n-1
        assert [res.data[i] for i in range(n)] == [0] + [1] * (n - 1)
        assert res.supersteps == n  # one relay per superstep

    def test_partition_respected(self):
        g = line_graph(8)
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        engine = ChannelEngine(g, HaltImmediately, num_workers=2, partition=part)
        assert engine.workers[0].local_ids.tolist() == [0, 1, 2, 3]
        assert engine.workers[1].local_ids.tolist() == [4, 5, 6, 7]

    def test_single_worker_runs_everything_locally(self):
        g = line_graph(6)
        res = ChannelEngine(g, MessageWake, num_workers=1).run()
        assert res.metrics.total_net_bytes == 0
        assert res.metrics.total_local_bytes > 0


class BeforeSuperstepCounter(VertexProgram):
    def __init__(self, worker):
        super().__init__(worker)
        self.calls = 0

    def before_superstep(self):
        self.calls += 1

    def compute(self, v):
        if self.step_num >= 2:
            v.vote_to_halt()

    def finalize(self):
        return {f"calls{self.worker.worker_id}": self.calls}


def test_before_superstep_called_every_superstep_plus_final_check():
    g = line_graph(4)
    res = ChannelEngine(g, BeforeSuperstepCounter, num_workers=2).run()
    # 2 supersteps ran; the hook also fires before the terminating check
    assert all(v == 3 for v in res.data.values())


class TestMetricsIntegration:
    def test_compute_time_recorded(self):
        g = line_graph(10)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert res.metrics.wall_time > 0
        assert all(r.compute_time_max >= 0 for r in res.metrics.records)

    def test_active_vertex_counts(self):
        g = line_graph(10)
        res = ChannelEngine(g, CountSteps, num_workers=2).run()
        assert res.metrics.records[0].active_vertices == 10
