"""Unit tests for the CSR graph container."""

import numpy as np
import pytest

from repro.graph.graph import MAX_VERTICES, VERTEX_ID, Graph
from helpers import line_graph, two_triangles


class TestConstruction:
    def test_directed_basic(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], directed=True)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_input_edges == 3
        assert g.out_degree(0) == 2
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert g.out_degree(2) == 0

    def test_undirected_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=False)
        assert g.num_edges == 4  # both arc directions stored
        assert g.num_input_edges == 2
        assert g.neighbors(1).tolist() == sorted([0, 2]) or set(
            g.neighbors(1).tolist()
        ) == {0, 2}

    def test_self_loop_not_duplicated_when_symmetrizing(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)], directed=False)
        assert g.out_degree(0) == 2  # loop once + edge to 1

    def test_weighted(self):
        g = Graph.from_edges(2, [(0, 1)], weights=[2.5], directed=True)
        assert g.weighted
        assert g.edge_weights(0).tolist() == [2.5]
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)]).edge_weights(0)

    def test_undirected_weights_mirrored(self):
        g = Graph.from_edges(2, [(0, 1)], weights=[4.0], directed=False)
        assert g.edge_weights(0).tolist() == [4.0]
        assert g.edge_weights(1).tolist() == [4.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            Graph(2, np.array([-1]), np.array([0]))

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([0]), np.array([1]), weights=np.array([1.0, 2.0]))

    def test_empty_graph(self):
        g = Graph.from_edges(5, [])
        assert g.num_edges == 0
        assert g.out_degree(3) == 0
        assert g.avg_degree == 0.0

    def test_zero_vertices(self):
        g = Graph.from_edges(0, [])
        assert g.num_vertices == 0


class TestAccessors:
    def test_out_degrees_vector(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (3, 1)])
        assert g.out_degrees.tolist() == [2, 0, 0, 1]

    def test_edge_array_roundtrip(self):
        edges = [(0, 1), (0, 2), (2, 1)]
        g = Graph.from_edges(3, edges)
        src, dst = g.edge_array()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(edges)

    def test_edges_iterator(self):
        g = Graph.from_edges(3, [(0, 1), (2, 0)])
        assert sorted(g.edges()) == [(0, 1), (2, 0)]

    def test_in_neighbors_directed(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert sorted(g.in_neighbors(2).tolist()) == [0, 1]
        assert g.in_degree(2) == 2
        assert g.in_degree(0) == 0
        assert g.in_degrees.tolist() == [0, 0, 2]

    def test_in_neighbors_undirected_equals_out(self):
        g = two_triangles()
        for v in range(6):
            assert set(g.in_neighbors(v).tolist()) == set(g.neighbors(v).tolist())

    def test_avg_degree(self):
        g = line_graph(5)
        assert g.avg_degree == pytest.approx(4 / 5)


class TestTransforms:
    def test_reverse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        r = g.reverse()
        assert sorted(r.edges()) == [(1, 0), (2, 1)]

    def test_reverse_preserves_weights(self):
        g = Graph.from_edges(2, [(0, 1)], weights=[3.0])
        r = g.reverse()
        assert r.edge_weights(1).tolist() == [3.0]

    def test_relabel_permutation(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        perm = np.array([2, 0, 1])  # old -> new
        h = g.relabel(perm)
        assert sorted(h.edges()) == [(0, 1), (2, 0)]

    def test_relabel_rejects_non_permutation(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.relabel(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            g.relabel(np.array([0, 1]))

    def test_csr_sorted_by_source(self):
        g = Graph.from_edges(4, [(3, 0), (1, 2), (3, 1), (0, 3)])
        # indptr monotone; each vertex's slice holds its own out-edges
        assert np.all(np.diff(g.indptr) >= 0)
        assert set(g.neighbors(3).tolist()) == {0, 1}


class TestCsrExportAttach:
    """The zero-copy pair used by the multiprocess backend."""

    def test_from_csr_wraps_without_copy(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)], weights=[1.0, 2.0, 3.0])
        arrs = g.csr_arrays()
        h = Graph.from_csr(4, arrs["indptr"], arrs["indices"], arrs["weights"])
        assert h.indptr is g.indptr and h.indices is g.indices
        assert h.weights is g.weights
        assert sorted(h.edges()) == sorted(g.edges())
        assert h.in_degree(3) == 1  # reverse adjacency builds lazily

    def test_from_csr_validates(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="indptr"):
            Graph.from_csr(3, indptr, indices)  # wrong indptr length
        with pytest.raises(ValueError, match="out-of-range"):
            Graph.from_csr(2, indptr, np.array([1, 5], dtype=np.int64))
        bad = np.array([0, 2, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="non-decreasing"):
            Graph.from_csr(3, bad, indices)

    def test_index_dtype_enforced(self):
        """``indptr`` counts arcs (int64); ``indices`` are vertex ids,
        written as int32 and read in any integer width."""
        assert VERTEX_ID == np.int32
        built = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert built.indptr.dtype == np.int64 and built.indices.dtype == np.int32
        indptr = np.array([0, 1, 2], dtype=np.int32)
        indices = np.array([1, 0], dtype=np.int32)
        with pytest.raises(TypeError, match="indptr must be int64"):
            Graph.from_csr(2, indptr, indices)
        indptr = indptr.astype(np.int64)
        with pytest.raises(TypeError, match="must be an integer dtype"):
            Graph.from_csr(2, indptr, indices.astype(np.float64))
        for dtype in (np.int32, np.int64, np.uint32):  # an older store's widths
            g = Graph.from_csr(2, indptr, indices.astype(dtype))
            assert g.indices.dtype == dtype
            assert g.reverse().indices.dtype == np.int32

    def test_more_vertices_than_int32_ids_refused(self):
        with pytest.raises(ValueError, match=r"num_vertices must lie in \[0, 2\*\*31\]"):
            Graph(MAX_VERTICES + 1, np.empty(0), np.empty(0))

    def test_from_csr_weight_dtype_enforced(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        with pytest.raises(TypeError, match="float64"):
            Graph.from_csr(2, indptr, indices, np.array([1, 2], dtype=np.float32))
