"""PageRank: channel variants vs a dense oracle and each other."""

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.pregel_algorithms.pagerank import run_pagerank_pregel
from repro.graph import rmat, star
from repro.graph.graph import Graph
from helpers import line_graph, pagerank_oracle


@pytest.fixture(scope="module")
def web():
    return rmat(8, edge_factor=4, seed=1)


class TestChannelVariants:
    @pytest.mark.parametrize("variant", ["basic", "scatter"])
    def test_matches_oracle(self, web, variant):
        ranks, _ = run_pagerank(web, variant=variant, iterations=12, num_workers=4)
        expected = pagerank_oracle(web, iterations=12)
        np.testing.assert_allclose(ranks, expected, atol=1e-12)

    def test_ranks_sum_to_one(self, web):
        ranks, _ = run_pagerank(web, variant="basic", iterations=8, num_workers=4)
        assert ranks.sum() == pytest.approx(1.0)

    def test_scatter_equals_basic(self, web):
        rb, _ = run_pagerank(web, variant="basic", iterations=10, num_workers=4)
        rs, _ = run_pagerank(web, variant="scatter", iterations=10, num_workers=4)
        np.testing.assert_allclose(rb, rs, atol=1e-14)

    def test_scatter_reduces_bytes(self, web):
        _, rb = run_pagerank(web, variant="basic", iterations=10, num_workers=4)
        _, rs = run_pagerank(web, variant="scatter", iterations=10, num_workers=4)
        assert rs.metrics.total_net_bytes < rb.metrics.total_net_bytes

    def test_runs_exactly_iterations_plus_one_supersteps(self, web):
        _, res = run_pagerank(web, variant="basic", iterations=7, num_workers=2)
        assert res.supersteps == 8

    def test_dead_ends_handled(self):
        # vertex 2 is a dead end; its rank must be redistributed, not lost
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], directed=True)
        ranks, _ = run_pagerank(g, variant="basic", iterations=20, num_workers=2)
        assert ranks.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(
            ranks, pagerank_oracle(g, iterations=20), atol=1e-12
        )

    def test_hub_ranks_highest(self):
        g = star(20, center=0)
        ranks, _ = run_pagerank(g, variant="basic", iterations=15, num_workers=3)
        assert ranks.argmax() == 0


class TestPregelVariants:
    @pytest.mark.parametrize("variant", ["basic", "ghost"])
    def test_matches_oracle(self, web, variant):
        ranks, _ = run_pagerank_pregel(web, variant=variant, iterations=12, num_workers=4)
        np.testing.assert_allclose(ranks, pagerank_oracle(web, 12), atol=1e-12)

    def test_basic_bytes_match_channel_basic(self, web):
        """Table IV/V: identical message sizes for basic PR in both
        systems (same wire format, no sender combining)."""
        part = np.arange(web.num_vertices) % 4
        _, rc = run_pagerank(
            web, variant="basic", iterations=10, num_workers=4, partition=part
        )
        _, rp = run_pagerank_pregel(
            web, variant="basic", iterations=10, num_workers=4, partition=part
        )
        assert rc.metrics.total_messages == rp.metrics.total_messages
        # byte counts differ only by frame headers (< 1%)
        delta = abs(rc.metrics.total_net_bytes - rp.metrics.total_net_bytes)
        assert delta / rp.metrics.total_net_bytes < 0.02

    def test_ghost_reduces_bytes(self, web):
        part = np.arange(web.num_vertices) % 4
        _, rb = run_pagerank_pregel(
            web, variant="basic", iterations=10, num_workers=4, partition=part
        )
        _, rg = run_pagerank_pregel(
            web,
            variant="ghost",
            iterations=10,
            num_workers=4,
            ghost_threshold=8,
            partition=part,
        )
        assert rg.metrics.total_net_bytes < rb.metrics.total_net_bytes
        assert rg.metrics.total_messages < rb.metrics.total_messages

    def test_ghost_with_huge_threshold_equals_basic(self, web):
        part = np.arange(web.num_vertices) % 4
        _, rb = run_pagerank_pregel(
            web, variant="basic", iterations=5, num_workers=4, partition=part
        )
        _, rg = run_pagerank_pregel(
            web,
            variant="ghost",
            iterations=5,
            num_workers=4,
            ghost_threshold=10**9,
            partition=part,
        )
        assert rg.metrics.total_net_bytes == rb.metrics.total_net_bytes


def test_single_vertex_graph():
    g = Graph.from_edges(1, [])
    ranks, _ = run_pagerank(g, variant="basic", iterations=5, num_workers=1)
    assert ranks[0] == pytest.approx(1.0)
