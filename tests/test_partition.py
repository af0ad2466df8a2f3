"""Unit tests for the vertex partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import grid_road, rmat
from repro.graph.partition import (
    hash_partition,
    metis_like_partition,
    partition_quality,
    range_partition,
)


class TestHashPartition:
    def test_covers_all_vertices(self):
        p = hash_partition(1000, 8, seed=0)
        assert p.shape == (1000,)
        assert p.min() >= 0 and p.max() < 8

    def test_roughly_balanced(self):
        p = hash_partition(8000, 8, seed=1)
        sizes = np.bincount(p, minlength=8)
        assert sizes.max() < 1.25 * 1000

    def test_deterministic(self):
        np.testing.assert_array_equal(
            hash_partition(100, 4, seed=7), hash_partition(100, 4, seed=7)
        )


class TestRangePartition:
    def test_contiguous_blocks(self):
        p = range_partition(10, 2)
        assert p.tolist() == [0] * 5 + [1] * 5

    def test_uneven(self):
        p = range_partition(5, 2)
        assert sorted(np.bincount(p, minlength=2).tolist()) == [2, 3]


class TestMetisLike:
    def test_covers_and_balances(self):
        g = grid_road(30, 30, seed=0)
        p = metis_like_partition(g, 4, seed=0)
        assert p.shape == (g.num_vertices,)
        assert np.all(p >= 0) and np.all(p < 4)
        q = partition_quality(g, p)
        assert q["imbalance"] < 1.2

    def test_beats_hash_on_locality(self):
        """The whole point of the METIS substitute: far fewer cut edges
        than random assignment on a graph with locality."""
        g = grid_road(40, 40, seed=1)
        ph = hash_partition(g.num_vertices, 8, seed=0)
        pm = metis_like_partition(g, 8, seed=0)
        qh = partition_quality(g, ph)
        qm = partition_quality(g, pm)
        assert qm["internal_fraction"] > 2 * qh["internal_fraction"]

    def test_handles_disconnected_graphs(self):
        g = rmat(8, edge_factor=1, seed=3)  # plenty of isolated vertices
        p = metis_like_partition(g, 4, seed=0)
        assert np.all(p >= 0)

    def test_single_block(self):
        g = grid_road(5, 5, seed=0)
        p = metis_like_partition(g, 1, seed=0)
        assert np.all(p == 0)

    def test_empty_graph(self):
        from repro.graph.graph import Graph

        g = Graph.from_edges(0, [])
        assert metis_like_partition(g, 4).size == 0


class TestPartitionQuality:
    def test_all_internal_when_one_block(self):
        g = grid_road(10, 10, seed=0)
        q = partition_quality(g, np.zeros(g.num_vertices, dtype=np.int64))
        assert q["internal_fraction"] == 1.0
        assert q["edge_cut"] == 0

    def test_edge_cut_counts_arcs(self):
        from repro.graph.graph import Graph

        g = Graph.from_edges(2, [(0, 1)], directed=False)
        q = partition_quality(g, np.array([0, 1]))
        assert q["edge_cut"] == 2  # both stored arc directions cross

    def test_partition_quality_single_worker(self):
        g = rmat(5, edge_factor=4, seed=1, directed=True)
        q = partition_quality(g, np.zeros(g.num_vertices, dtype=np.int64))
        assert q["internal_fraction"] == 1.0
        assert q["edge_cut"] == 0
        assert q["imbalance"] == 1.0

    def test_partition_quality_zero_edge_graph(self):
        from repro.graph.graph import Graph

        g = Graph(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        q = partition_quality(g, np.array([0, 0, 1, 1], dtype=np.int64))
        assert q["internal_fraction"] == 1.0
        assert q["edge_cut"] == 0


@settings(max_examples=25)
@given(
    n=st.integers(min_value=1, max_value=300),
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10),
)
def test_hash_partition_always_valid(n, m, seed):
    p = hash_partition(n, m, seed)
    assert p.shape == (n,)
    assert p.min() >= 0 and p.max() < m


@settings(max_examples=15, deadline=None)
@given(
    scale=st.integers(min_value=4, max_value=8),
    m=st.integers(min_value=1, max_value=6),
)
def test_metis_like_owns_every_vertex_exactly_once(scale, m):
    g = rmat(scale, edge_factor=2, seed=scale)
    p = metis_like_partition(g, m, seed=0)
    # every vertex assigned to exactly one legal block
    assert p.shape == (g.num_vertices,)
    assert np.all((p >= 0) & (p < m))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    m=st.integers(min_value=1, max_value=8),
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=119),
            st.integers(min_value=0, max_value=119),
        ),
        max_size=200,
    ),
    seed=st.integers(min_value=0, max_value=5),
)
def test_metis_like_total_assignment_and_capacity(n, m, edges, seed):
    """On arbitrary graphs — disconnected, self-loopy, or with no edges
    at all — every vertex gets a legal owner (no ``-1`` survives the BFS
    growth) and no block exceeds the capacity bound ``ceil(n/m)``."""
    from repro.graph.graph import Graph

    edges = [(u % n, v % n) for u, v in edges if u % n != v % n]
    g = Graph.from_edges(n, edges, directed=False)
    p = metis_like_partition(g, m, seed=seed)
    assert p.shape == (n,)
    assert np.all((p >= 0) & (p < m)), "every vertex must be assigned"
    capacity = -(-n // m)
    sizes = np.bincount(p, minlength=m)
    assert sizes.max() <= capacity, f"block over capacity: {sizes} > {capacity}"


@settings(max_examples=10, deadline=None)
@given(m=st.integers(min_value=1, max_value=8), n=st.integers(min_value=1, max_value=60))
def test_metis_like_zero_edge_graph(n, m):
    """A graph with no edges degenerates to pure balanced reseeding."""
    from repro.graph.graph import Graph

    g = Graph.from_edges(n, [], directed=False)
    p = metis_like_partition(g, m, seed=1)
    assert np.all((p >= 0) & (p < m))
    assert np.bincount(p, minlength=m).max() <= -(-n // m)
