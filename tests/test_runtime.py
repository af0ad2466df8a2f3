"""Unit tests for buffers, cost model, and metrics."""

import numpy as np
import pytest

from repro.runtime.buffers import BufferExchange, WorkerBuffers
from repro.runtime.costmodel import NetworkModel, DEFAULT_NETWORK
from repro.runtime.metrics import MetricsCollector, SuperstepRecord


class TestNetworkModel:
    def test_latency_only_when_empty(self):
        nm = NetworkModel(latency=0.5, bandwidth=1e6)
        assert nm.exchange_time(np.zeros(4), np.zeros(4)) == 0.5

    def test_charges_busiest_worker(self):
        nm = NetworkModel(latency=0.0, bandwidth=100.0)
        send = np.array([100, 0, 0, 0])
        recv = np.array([0, 50, 25, 25])
        # worker 0 sends 100 bytes at 100 B/s -> 1 second
        assert nm.exchange_time(send, recv) == pytest.approx(1.0)

    def test_full_duplex_max_of_send_recv(self):
        nm = NetworkModel(latency=0.0, bandwidth=1.0)
        send = np.array([10, 0])
        recv = np.array([4, 10])
        # worker 0: max(10, 4) = 10; worker 1: max(0, 10) = 10
        assert nm.exchange_time(send, recv) == pytest.approx(10.0)

    def test_skew_costs_more_than_balance(self):
        """The load-imbalance effect the request-respond channel targets:
        the same total bytes cost more when concentrated on one worker."""
        nm = NetworkModel(latency=0.0, bandwidth=1.0)
        skewed = np.array([100.0, 0, 0, 0])
        balanced = np.full(4, 25.0)
        zero = np.zeros(4)
        assert nm.exchange_time(skewed, zero) > nm.exchange_time(balanced, zero)

    def test_per_message_overhead(self):
        nm = NetworkModel(latency=0.0, bandwidth=1.0, per_message_overhead=10)
        t = nm.exchange_time(np.array([5.0]), np.array([0.0]), messages=2)
        assert t == pytest.approx(25.0)

    def test_empty_cluster(self):
        assert DEFAULT_NETWORK.exchange_time(np.zeros(0), np.zeros(0)) == (
            DEFAULT_NETWORK.latency
        )

    def test_default_matches_paper_cluster(self):
        # 750 Mbps ~ 93.75 MB/s
        assert DEFAULT_NETWORK.bandwidth == pytest.approx(93.75e6)


class TestWorkerBuffers:
    def test_clear_inbox(self):
        wb = WorkerBuffers(0, 2)
        wb.inbox[1] = b"data"
        wb.clear_inbox()
        assert wb.inbox == [b"", b""]


class TestBufferExchange:
    def _metrics(self, m):
        mc = MetricsCollector(num_workers=m, network=NetworkModel(latency=0, bandwidth=1e9))
        mc.start_run()
        mc.start_superstep()
        return mc

    def test_pairwise_delivery(self):
        bufs = [WorkerBuffers(i, 3) for i in range(3)]
        bufs[0].out[2].write_bytes(b"from0to2")
        bufs[1].out[0].write_bytes(b"from1to0")
        sent = BufferExchange().exchange(bufs)
        assert bufs[2].inbox[0] == b"from0to2"
        assert bufs[0].inbox[1] == b"from1to0"
        assert bufs[1].inbox == [b"", b"", b""]
        assert sent.tolist() == [[0, 0, 8], [8, 0, 0], [0, 0, 0]]

    def test_self_delivery_counts_as_local(self):
        mc = self._metrics(2)
        bufs = [WorkerBuffers(i, 2) for i in range(2)]
        bufs[0].out[0].write_bytes(b"selfmsg")
        bufs[0].out[1].write_bytes(b"netmsg!")
        mc.record_exchange(BufferExchange().exchange(bufs))
        mc.end_superstep()
        rec = mc.records[0]
        assert rec.local_bytes == 7
        assert rec.net_bytes == 7
        assert bufs[0].inbox[0] == b"selfmsg"

    def test_writers_cleared_after_exchange(self):
        bufs = [WorkerBuffers(i, 2) for i in range(2)]
        bufs[0].out[1].write_bytes(b"x")
        BufferExchange().exchange(bufs)
        assert bufs[0].out[1].nbytes == 0

    def test_bytes_sent_equal_bytes_received(self):
        """Conservation: every net byte sent lands in exactly one inbox."""
        rng = np.random.default_rng(0)
        mc = self._metrics(4)
        bufs = [WorkerBuffers(i, 4) for i in range(4)]
        total = 0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                data = bytes(rng.integers(0, 256, size=rng.integers(0, 50)).tolist())
                bufs[i].out[j].write_bytes(data)
                total += len(data)
        mc.record_exchange(BufferExchange().exchange(bufs))
        mc.end_superstep()
        received = sum(len(b.inbox[src]) for b in bufs for src in range(4))
        assert received == total == mc.records[0].net_bytes


class TestMetricsCollector:
    def test_superstep_accounting(self):
        mc = MetricsCollector(num_workers=2, network=NetworkModel(latency=1.0, bandwidth=1.0))
        mc.start_run()
        mc.start_superstep(active_vertices=10)
        mc.record_compute(0, 0.5)
        mc.record_compute(1, 0.2)
        mc.record_compute(1, 0.1)
        # worker 0 sends worker 1 four bytes and itself two
        mc.record_exchange(np.array([[2, 4], [0, 0]]))
        mc.count_messages(3)
        mc.end_superstep()
        mc.end_run()

        assert mc.supersteps == 1
        rec = mc.records[0]
        assert rec.active_vertices == 10
        assert rec.compute_time_max == pytest.approx(0.5)
        assert rec.compute_time_sum == pytest.approx(0.8)
        assert rec.net_bytes == 4
        assert rec.local_bytes == 2
        assert rec.messages == 3
        assert rec.exchange_time == pytest.approx(1.0 + 4.0)
        assert rec.simulated_time == pytest.approx(0.5 + 5.0)
        assert mc.simulated_time == pytest.approx(rec.simulated_time)
        assert mc.wall_time > 0

    def test_totals_sum_over_supersteps(self):
        mc = MetricsCollector(num_workers=2, network=NetworkModel(latency=0, bandwidth=1e9))
        mc.start_run()
        for k in range(3):
            mc.start_superstep()
            mc.record_exchange(np.array([[0, k * 10], [0, 0]]))
            mc.count_messages(k)
            mc.end_superstep()
        mc.end_run()
        assert mc.supersteps == 3
        assert mc.total_net_bytes == 0 + 10 + 20
        assert mc.total_messages == 0 + 1 + 2
        assert mc.total_rounds == 3

    def test_summary_keys(self):
        mc = MetricsCollector(num_workers=1)
        mc.start_run()
        mc.end_run()
        s = mc.summary()
        for key in (
            "supersteps",
            "rounds",
            "net_bytes",
            "local_bytes",
            "messages",
            "simulated_time",
            "wall_time",
        ):
            assert key in s
