"""Dedicated tests for the network cost model (`runtime/costmodel.py`).

The model's numbers flow into every reproduced table via
``simulated_time``; these tests pin down its qualitative guarantees
(monotonicity, latency floor, duplex max) and its agreement with the
engine's accounted totals.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.wcc import run_wcc
from repro.graph.generators import erdos_renyi
from repro.runtime.costmodel import DEFAULT_NETWORK, NetworkModel


class TestExchangeTime:
    def test_empty_round_costs_the_latency(self):
        m = NetworkModel(latency=0.5)
        assert m.exchange_time(np.zeros(0), np.zeros(0)) == 0.5
        assert m.exchange_time(np.zeros(4), np.zeros(4)) == 0.5

    def test_monotone_in_bytes(self):
        m = DEFAULT_NETWORK
        base = np.array([100.0, 200.0, 50.0])
        t0 = m.exchange_time(base, base)
        for bump in (1, 1000, 10**6):
            heavier = base.copy()
            heavier[1] += bump
            assert m.exchange_time(heavier, base) > t0 or bump == 0

    def test_only_the_busiest_worker_matters(self):
        m = NetworkModel(latency=0.0, bandwidth=100.0)
        send = np.array([100.0, 500.0, 100.0])
        recv = np.array([200.0, 100.0, 100.0])
        # busiest = max over workers of max(send, recv) = 500 bytes
        assert m.exchange_time(send, recv) == pytest.approx(5.0)

    def test_full_duplex_send_recv_overlap(self):
        m = NetworkModel(latency=0.0, bandwidth=1.0)
        send = np.array([10.0])
        recv = np.array([7.0])
        assert m.exchange_time(send, recv) == pytest.approx(10.0)

    def test_per_message_overhead(self):
        base = NetworkModel(latency=0.0, bandwidth=1.0, per_message_overhead=0)
        taxed = NetworkModel(latency=0.0, bandwidth=1.0, per_message_overhead=8)
        send = np.array([100.0, 50.0])
        assert taxed.exchange_time(send, send, messages=10) == pytest.approx(
            base.exchange_time(send, send) + 80.0
        )

    def test_monotone_in_rounds(self):
        # more rounds at the same payload can never be cheaper: each round
        # pays the latency floor again
        m = NetworkModel(latency=1e-3, bandwidth=1e6)
        one_round = m.exchange_time(np.array([1000.0]), np.array([1000.0]))
        two_rounds = 2 * m.exchange_time(np.array([500.0]), np.array([500.0]))
        assert two_rounds > one_round


class TestAgreementWithEngine:
    """simulated_time must equal the per-record sum the model implies."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(400, 4.0, seed=11, directed=True)

    def test_simulated_time_sums_superstep_records(self, graph):
        _, result = run_pagerank(graph, iterations=5, num_workers=4)
        m = result.metrics
        assert m.simulated_time == pytest.approx(
            sum(r.compute_time_max + r.exchange_time for r in m.records)
        )
        assert result.simulated_time == m.simulated_time

    def test_exchange_floor_latency_times_rounds(self, graph):
        # every accounted round pays at least one latency
        _, result = run_wcc(graph, num_workers=4)
        m = result.metrics
        for rec in m.records:
            assert rec.exchange_time >= rec.rounds * m.network.latency

    def test_lower_bandwidth_costs_more_exchange_time(self, graph):
        fast = NetworkModel(bandwidth=1e9)
        slow = NetworkModel(bandwidth=1e6)
        _, r_fast = run_pagerank(graph, iterations=5, num_workers=4, network=fast)
        _, r_slow = run_pagerank(graph, iterations=5, num_workers=4, network=slow)
        # identical traffic, different modeled time; only the modeled
        # exchange part is compared (simulated_time adds measured compute)
        assert r_fast.total_net_bytes == r_slow.total_net_bytes
        modeled = [
            sum(rec.exchange_time for rec in r.metrics.records) for r in (r_fast, r_slow)
        ]
        assert modeled[1] > modeled[0]

    def test_zero_latency_zero_traffic_costs_nothing(self):
        m = NetworkModel(latency=0.0)
        assert m.exchange_time(np.zeros(3), np.zeros(3)) == 0.0
