"""System-level metric invariants, checked on real algorithm runs."""

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.graph import rmat
from repro.runtime.costmodel import NetworkModel


@pytest.fixture(scope="module")
def g():
    return rmat(8, edge_factor=3, seed=2, directed=False)


class TestByteAccounting:
    def test_single_worker_has_zero_net_bytes(self, g):
        _, res = run_sv(g, variant="both", num_workers=1)
        assert res.metrics.total_net_bytes == 0
        assert res.metrics.total_messages == 0
        assert res.metrics.total_local_bytes > 0

    def test_net_bytes_grow_with_workers(self, g):
        _, r2 = run_sv(g, variant="basic", num_workers=2)
        _, r8 = run_sv(g, variant="basic", num_workers=8)
        assert r8.metrics.total_net_bytes > r2.metrics.total_net_bytes

    def test_messages_nonnegative_and_bounded_by_bytes(self, g):
        _, res = run_wcc(g, variant="basic", num_workers=4)
        m = res.metrics
        assert 0 < m.total_messages
        # every wire message carries at least one byte of payload
        assert m.total_net_bytes >= m.total_messages

    def test_per_superstep_rounds_positive(self, g):
        _, res = run_wcc(g, variant="basic", num_workers=4)
        assert all(r.rounds >= 1 for r in res.metrics.records)


class TestDeterminism:
    def test_identical_runs_identical_metrics(self, g):
        part = np.arange(g.num_vertices) % 4
        _, a = run_sv(g, variant="both", num_workers=4, partition=part)
        _, b = run_sv(g, variant="both", num_workers=4, partition=part)
        assert a.metrics.total_net_bytes == b.metrics.total_net_bytes
        assert a.metrics.total_messages == b.metrics.total_messages
        assert a.supersteps == b.supersteps

    def test_result_independent_of_partition(self, g):
        p1 = np.arange(g.num_vertices) % 4
        p2 = (np.arange(g.num_vertices) * 7 + 3) % 4
        l1, _ = run_sv(g, variant="both", num_workers=4, partition=p1)
        l2, _ = run_sv(g, variant="both", num_workers=4, partition=p2)
        np.testing.assert_array_equal(l1, l2)


class TestCostModel:
    def test_latency_dominates_for_many_rounds(self, g):
        lat = NetworkModel(latency=1.0, bandwidth=1e12)
        _, res = run_pagerank(g, variant="basic", iterations=5, num_workers=4, network=lat)
        # every exchange round pays 1s latency
        assert res.metrics.simulated_time >= res.metrics.total_rounds * 1.0

    def test_simulated_time_components_sum(self, g):
        _, res = run_wcc(g, variant="prop", num_workers=4)
        m = res.metrics
        total = sum(r.compute_time_max + r.exchange_time for r in m.records)
        assert m.simulated_time == pytest.approx(total)
