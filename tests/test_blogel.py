"""Unit tests for the Blogel block-centric baseline."""

import numpy as np
import pytest

from repro.blogel import BlockProgram, run_wcc_blogel
from repro.core.engine import ChannelEngine
from repro.graph import grid_road, rmat
from repro.graph.partition import metis_like_partition
from helpers import line_graph, nx_components


class Nothing(BlockProgram):
    def block_compute(self, incoming):
        return []


class PingPong(BlockProgram):
    """Block 0 sends a token to a vertex of block 1 and vice versa, n times."""

    rounds = 3

    def __init__(self, worker):
        super().__init__(worker)
        self.received = 0

    def block_compute(self, incoming):
        dsts, vals = incoming
        self.received += int(np.sum(vals)) if vals.size else 0
        step = self.step_num
        if step <= self.rounds:
            self.halted = False
            # send to some vertex of the other block
            other = 1 - self.block_id
            target = int(np.flatnonzero(self.worker.owner == other)[0])
            return [target], [1]
        return []

    def finalize(self):
        return {f"b{self.block_id}": self.received}


class TestEngine:
    def test_halts_immediately_when_idle(self):
        g = line_graph(4)
        res = ChannelEngine(g, Nothing, num_workers=2).run()
        assert res.supersteps == 1

    def test_message_delivery_and_halting(self):
        g = line_graph(4)
        part = np.array([0, 0, 1, 1])
        res = ChannelEngine(g, PingPong, num_workers=2, partition=part).run()
        # each block receives one token per round after the first
        assert res.data["b0"] == PingPong.rounds
        assert res.data["b1"] == PingPong.rounds

    def test_byte_accounting(self):
        g = line_graph(4)
        part = np.array([0, 0, 1, 1])
        res = ChannelEngine(g, PingPong, num_workers=2, partition=part).run()
        # each token crosses alone in a frame: the 1B form, a 1B position in
        # a block of 2 vertices, a 1B value (an id of 4) and the 8B header
        assert res.metrics.total_net_bytes == res.metrics.total_messages * 11

    def test_max_supersteps_guard(self):
        class Forever(BlockProgram):
            def block_compute(self, incoming):
                self.halted = False
                return []

        with pytest.raises(RuntimeError):
            ChannelEngine(line_graph(2), Forever, num_workers=1).run(max_supersteps=4)


class TestBlogelWCC:
    def test_matches_networkx(self):
        g = rmat(8, edge_factor=2, seed=3, directed=False)
        labels, _ = run_wcc_blogel(g, num_workers=4)
        np.testing.assert_array_equal(labels, nx_components(g))

    def test_partitioned_converges_faster(self):
        g = grid_road(20, 20, seed=0)
        pm = metis_like_partition(g, 4, seed=0)
        _, rh = run_wcc_blogel(g, num_workers=4)
        _, rm = run_wcc_blogel(g, num_workers=4, partition=pm)
        assert rm.metrics.total_net_bytes < rh.metrics.total_net_bytes
        assert rm.supersteps <= rh.supersteps

    def test_single_block_no_network(self):
        g = grid_road(10, 10, seed=0)
        labels, res = run_wcc_blogel(g, num_workers=1)
        np.testing.assert_array_equal(labels, nx_components(g))
        assert res.metrics.total_net_bytes == 0
        assert res.supersteps == 1  # whole graph converges in-block

    def test_empty_blocks_tolerated(self):
        g = line_graph(3)
        part = np.zeros(3, dtype=np.int64)  # block 1 owns nothing
        labels, _ = run_wcc_blogel(g, num_workers=2, partition=part)
        assert np.all(labels == 0)
