"""Pointer jumping: all variants find the roots; reqresp saves bytes."""

import numpy as np
import pytest

from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.pregel_algorithms.pointer_jumping import run_pointer_jumping_pregel
from repro.graph import chain, random_tree
from repro.graph.graph import Graph


def forest_roots(graph):
    """Oracle: follow parent pointers to the root."""
    out = np.zeros(graph.num_vertices, dtype=np.int64)
    for v in range(graph.num_vertices):
        u = v
        while graph.out_degree(u):
            u = int(graph.neighbors(u)[0])
        out[v] = u
    return out


@pytest.fixture(scope="module")
def tree():
    return random_tree(300, seed=4)


@pytest.fixture(scope="module")
def chain_graph():
    return chain(128)


ALL_RUNNERS = [
    ("channel-basic", lambda g, **kw: run_pointer_jumping(g, variant="basic", **kw)),
    ("channel-reqresp", lambda g, **kw: run_pointer_jumping(g, variant="reqresp", **kw)),
    ("pregel-basic", lambda g, **kw: run_pointer_jumping_pregel(g, variant="basic", **kw)),
    ("pregel-reqresp", lambda g, **kw: run_pointer_jumping_pregel(g, variant="reqresp", **kw)),
]


@pytest.mark.parametrize("name,runner", ALL_RUNNERS, ids=[r[0] for r in ALL_RUNNERS])
class TestCorrectness:
    def test_tree(self, tree, name, runner):
        roots, _ = runner(tree, num_workers=4)
        np.testing.assert_array_equal(roots, forest_roots(tree))

    def test_chain(self, chain_graph, name, runner):
        roots, _ = runner(chain_graph, num_workers=4)
        assert np.all(roots == 0)

    def test_forest_of_two_trees(self, name, runner):
        # two chains: 0<-1<-2 and 3<-4<-5
        g = Graph.from_edges(6, [(1, 0), (2, 1), (4, 3), (5, 4)], directed=True)
        roots, _ = runner(g, num_workers=3)
        assert roots.tolist() == [0, 0, 0, 3, 3, 3]

    def test_single_root(self, name, runner):
        g = Graph.from_edges(1, [], directed=True)
        roots, _ = runner(g, num_workers=1)
        assert roots.tolist() == [0]


class TestConvergenceAndTraffic:
    def test_reqresp_halves_supersteps(self, chain_graph):
        _, rb = run_pointer_jumping(chain_graph, variant="basic", num_workers=4)
        _, rr = run_pointer_jumping(chain_graph, variant="reqresp", num_workers=4)
        assert rr.supersteps < rb.supersteps
        # one jump per superstep vs one jump per two supersteps
        assert rr.supersteps <= rb.supersteps // 2 + 2

    def test_logarithmic_supersteps_on_chain(self, chain_graph):
        _, rr = run_pointer_jumping(chain_graph, variant="reqresp", num_workers=4)
        # depth 127 -> ~log2 jumps + setup
        assert rr.supersteps <= 12

    def test_reqresp_reduces_bytes_vs_basic(self, tree):
        part = np.arange(tree.num_vertices) % 4
        _, rb = run_pointer_jumping(tree, variant="basic", num_workers=4, partition=part)
        _, rr = run_pointer_jumping(tree, variant="reqresp", num_workers=4, partition=part)
        assert rr.metrics.total_net_bytes < rb.metrics.total_net_bytes

    def test_channel_reqresp_beats_pregel_reqresp_bytes(self, tree):
        """Positional responses vs (id, value) echoes: constant savings."""
        part = np.arange(tree.num_vertices) % 4
        _, rc = run_pointer_jumping(tree, variant="reqresp", num_workers=4, partition=part)
        _, rp = run_pointer_jumping_pregel(tree, variant="reqresp", num_workers=4, partition=part)
        assert rc.metrics.total_net_bytes < rp.metrics.total_net_bytes

    def test_basic_bytes_equal_between_systems(self, tree):
        """Table IV PJ row: identical bytes for the two basic versions."""
        part = np.arange(tree.num_vertices) % 4
        _, rc = run_pointer_jumping(tree, variant="basic", num_workers=4, partition=part)
        _, rp = run_pointer_jumping_pregel(tree, variant="basic", num_workers=4, partition=part)
        assert rc.metrics.total_messages == rp.metrics.total_messages
