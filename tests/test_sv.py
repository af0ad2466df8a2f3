"""S-V connected components: all channel combinations and both Pregel+
modes agree with the union-find oracle; composition helps."""

import numpy as np
import pytest

from repro.algorithms.sv import SV_VARIANTS, run_sv
from repro.graph import complete, erdos_renyi, rmat, star
from repro.graph.graph import Graph
from repro.pregel_algorithms.sv import run_sv_pregel
from helpers import line_graph, nx_components, two_triangles


@pytest.fixture(scope="module")
def social():
    return rmat(8, edge_factor=2, seed=5, directed=False)


@pytest.fixture(scope="module")
def dense():
    return erdos_renyi(150, avg_degree=12, seed=3, directed=False)


ALL = [(f"channel-{v}", v) for v in SV_VARIANTS]


@pytest.mark.parametrize("name,variant", ALL, ids=[a[0] for a in ALL])
class TestChannelVariants:
    mode = "bulk"  # run_sv's default

    def test_power_law(self, social, name, variant):
        labels, _ = run_sv(social, variant=variant, mode=self.mode, num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(social))

    def test_dense(self, dense, name, variant):
        labels, _ = run_sv(dense, variant=variant, mode=self.mode, num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(dense))

    def test_two_triangles(self, name, variant):
        labels, _ = run_sv(two_triangles(), variant=variant, mode=self.mode, num_workers=3)
        assert labels.tolist() == [0, 0, 0, 3, 3, 3]

    def test_path(self, name, variant):
        labels, _ = run_sv(line_graph(33), variant=variant, mode=self.mode, num_workers=4)
        assert np.all(labels == 0)

    def test_star(self, name, variant):
        labels, _ = run_sv(star(17, center=8), variant=variant, mode=self.mode, num_workers=4)
        assert np.all(labels == 0)

    def test_isolated_vertices(self, name, variant):
        g = Graph.from_edges(5, [(1, 2)], directed=False)
        labels, _ = run_sv(g, variant=variant, mode=self.mode, num_workers=2)
        assert labels.tolist() == [0, 1, 1, 3, 4]

    def test_complete_graph(self, name, variant):
        labels, _ = run_sv(complete(12), variant=variant, mode=self.mode, num_workers=3)
        assert np.all(labels == 0)


class TestScalarChannelVariants(TestChannelVariants):
    """The per-vertex listings keep the same oracles."""

    mode = "scalar"


@pytest.mark.parametrize("mode", ["basic", "reqresp"])
class TestPregelVariants:
    def test_power_law(self, social, mode):
        labels, _ = run_sv_pregel(social, mode=mode, num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(social))

    def test_dense(self, dense, mode):
        labels, _ = run_sv_pregel(dense, mode=mode, num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(dense))


class TestComposition:
    """Table VI's shape: each optimization helps; both helps most."""

    def _bytes(self, g, variant, part):
        _, res = run_sv(g, variant=variant, num_workers=4, partition=part)
        return res.metrics.total_net_bytes

    def test_both_minimizes_bytes(self, social):
        part = np.arange(social.num_vertices) % 4
        b = {v: self._bytes(social, v, part) for v in SV_VARIANTS}
        assert b["both"] < b["reqresp"]
        assert b["both"] < b["scatter"]
        assert b["scatter"] < b["basic"]
        assert b["reqresp"] < b["basic"]

    def test_scatter_wins_on_dense_graphs(self, dense):
        """Twitter-analogue: neighborhood traffic dominates, so the
        scatter-combine channel saves more than request-respond."""
        part = np.arange(dense.num_vertices) % 4
        b = {v: self._bytes(dense, v, part) for v in SV_VARIANTS}
        assert b["scatter"] < b["reqresp"]

    def test_reqresp_shortens_rounds(self, social):
        _, rb = run_sv(social, variant="basic", num_workers=4)
        _, rr = run_sv(social, variant="reqresp", num_workers=4)
        # 3-superstep rounds instead of 4
        assert rr.supersteps < rb.supersteps

    def test_channel_basic_fewer_bytes_than_pregel_basic(self, social):
        """Table IV S-V row: per-channel minimal types vs the monolithic
        tagged union."""
        part = np.arange(social.num_vertices) % 4
        _, rc = run_sv(social, variant="basic", num_workers=4, partition=part)
        _, rp = run_sv_pregel(social, mode="basic", num_workers=4, partition=part)
        assert rc.metrics.total_net_bytes < rp.metrics.total_net_bytes

    def test_both_beats_pregel_reqresp(self, social):
        """The headline: composed channels beat the best Pregel+ mode in
        bytes.  The simulated-time half is a median over repetitions in
        benchmarks/bench_table6.py: it includes measured compute."""
        part = np.arange(social.num_vertices) % 4
        _, rc = run_sv(social, variant="both", mode="scalar", num_workers=4, partition=part)
        _, rp = run_sv_pregel(social, mode="reqresp", num_workers=4, partition=part)
        assert rc.metrics.total_net_bytes < rp.metrics.total_net_bytes
