"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph import chain, complete, erdos_renyi, grid_road, random_tree, rmat, star
from repro.graph.graph import VERTEX_ID


class TestChain:
    def test_structure(self):
        g = chain(5)
        assert g.num_vertices == 5
        assert g.out_degree(0) == 0  # root
        for v in range(1, 5):
            assert g.neighbors(v).tolist() == [v - 1]

    def test_single_vertex(self):
        assert chain(1).num_edges == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chain(0)


class TestRandomTree:
    def test_is_forest_rooted_at_zero(self):
        g = random_tree(200, seed=1)
        assert g.out_degree(0) == 0
        for v in range(1, 200):
            parents = g.neighbors(v)
            assert parents.size == 1
            assert parents[0] < v  # recursive tree: parent precedes child

    def test_deterministic(self):
        a, b = random_tree(50, seed=9), random_tree(50, seed=9)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a, b = random_tree(100, seed=1), random_tree(100, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_logarithmic_depth(self):
        g = random_tree(4096, seed=0)
        # walk each vertex to the root; depth must be << n
        depth = 0
        for v in range(1, 4096, 97):
            d, u = 0, v
            while g.out_degree(u):
                u = int(g.neighbors(u)[0])
                d += 1
            depth = max(depth, d)
        assert depth < 64


class TestRMAT:
    def test_size_and_range(self):
        g = rmat(8, edge_factor=4, seed=3)
        assert g.num_vertices == 256
        assert 0 < g.num_edges <= 4 * 256
        src, dst = g.edge_array()
        assert src.min() >= 0 and dst.max() < 256

    def test_skewed_degrees(self):
        """RMAT must produce the heavy-tailed degree profile the paper's
        load-balance optimizations target."""
        g = rmat(12, edge_factor=8, seed=0)
        deg = g.out_degrees
        assert deg.max() > 10 * max(deg.mean(), 1.0)

    def test_no_self_loops(self):
        src, dst = rmat(8, seed=5).edge_array()
        assert np.all(src != dst)

    def test_dedupe(self):
        src, dst = rmat(7, edge_factor=8, seed=2, dedupe=True).edge_array()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == src.size

    def test_weighted(self):
        g = rmat(6, seed=1, weighted=True)
        assert g.weighted
        assert np.all(g.weights >= 1.0) and np.all(g.weights <= 100.0)

    def test_undirected(self):
        g = rmat(6, seed=1, directed=False)
        assert not g.directed
        for v in range(g.num_vertices):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat(5, a=0.5, b=0.4, c=0.2)

    def test_deterministic(self):
        a, b = rmat(8, seed=42), rmat(8, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestGridRoad:
    def test_low_average_degree(self):
        g = grid_road(40, 40, seed=0)
        assert 1.0 < g.avg_degree < 2.0  # ~road network (USA: 2.41/2)

    def test_weighted_and_undirected(self):
        g = grid_road(5, 5, seed=0)
        assert g.weighted and not g.directed

    def test_unweighted_option(self):
        assert not grid_road(5, 5, weighted=False).weighted


class TestOthers:
    def test_star_degrees(self):
        g = star(10)
        assert g.out_degree(0) == 9
        for v in range(1, 10):
            assert g.neighbors(v).tolist() == [0]

    def test_star_custom_center(self):
        g = star(5, center=2)
        assert g.out_degree(2) == 4

    def test_complete(self):
        g = complete(5)
        for v in range(5):
            assert g.out_degree(v) == 4

    def test_erdos_renyi_size(self):
        g = erdos_renyi(100, avg_degree=5, seed=0)
        assert abs(g.num_edges - 500) < 50


class TestIndexDtypes:
    """Every generator emits ``int64`` row pointers (a graph may hold
    2**31 arcs or more) and ``int32`` vertex ids (it holds at most 2**31
    vertices): ``Graph.__init__`` writes :data:`VERTEX_ID` ids."""

    GENERATORS = [
        lambda: chain(10),
        lambda: random_tree(10, seed=1),
        lambda: rmat(5, edge_factor=4, seed=1),
        lambda: rmat(5, edge_factor=4, seed=1, directed=False, weighted=True),
        lambda: erdos_renyi(50, avg_degree=3, seed=1),
        lambda: grid_road(4, 5, seed=1),
        lambda: star(8),
        lambda: complete(6),
    ]

    @pytest.mark.parametrize("make", GENERATORS)
    def test_int64_indptr_int32_indices(self, make):
        g = make()
        assert g.indptr.dtype == np.int64
        assert g.indices.dtype == VERTEX_ID == np.int32
        if g.weighted:
            assert g.weights.dtype == np.float64
