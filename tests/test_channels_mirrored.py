"""Unit tests for the MirroredScatter channel (mirroring as a channel —
the library extension beyond the paper's three optimized channels)."""

from unittest import mock

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.core import (
    ChannelEngine,
    MirroredScatter,
    ScatterCombine,
    SUM_F64,
    VertexProgram,
)
from repro.graph import rmat, star
from repro.graph.partition import degree_range_partition, hash_partition
from helpers import line_graph


def make_program(channel_cls, rounds=3, vary=False, real=False, **channel_kwargs):
    """Every vertex scatters ``id + 1`` — plus the superstep, when the
    values ``vary`` from one scatter to the next — or its square root,
    when the values are ``real``: sums of those depend on their order."""

    class P(VertexProgram):
        def __init__(self, worker):
            super().__init__(worker)
            self.msg = channel_cls(worker, SUM_F64, **channel_kwargs)
            self.got = {}

        def compute(self, v):
            value = float(v.id + 1 + (self.step_num if vary else 0))
            if real:
                value **= 0.5
            if self.step_num == 1:
                if v.out_degree:
                    self.msg.add_edges(v, v.edges)
                self.msg.set_message(v, value)
            elif self.step_num <= rounds:
                self.got.setdefault(v.id, []).append(float(self.msg.get_message(v)))
                self.msg.set_message(v, value)
            else:
                self.got.setdefault(v.id, []).append(float(self.msg.get_message(v)))
                v.vote_to_halt()

        def finalize(self):
            return self.got

    return P


def run(graph, program, workers=3, **kw):
    return ChannelEngine(graph, program, num_workers=workers, **kw).run()


class TestCorrectness:
    @pytest.mark.parametrize("real", [False, True], ids=["integers", "reals"])
    @pytest.mark.parametrize("threshold", [1, 2, 4, 10**6])
    def test_matches_scatter_combine(self, threshold, real):
        """Same combined values as ScatterCombine for every threshold, bit
        for bit (mirroring only changes the wire, never the semantics)."""
        g = rmat(7, edge_factor=4, seed=3)
        ref = run(g, make_program(ScatterCombine, real=real)).data
        got = run(g, make_program(MirroredScatter, real=real, threshold=threshold)).data
        assert got == ref

    @pytest.mark.parametrize("partition", ["degree", "hash"])
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("mode", ["scalar", "bulk"])
    def test_pagerank_ranks_equal_scatter_bit_for_bit(self, mode, workers, partition):
        """Mirroring changes the wire, never the bits: a destination that
        mirrored and plain senders reach is folded once, over all of them,
        as ``ScatterCombine`` folds it."""
        g = rmat(9, edge_factor=8, seed=7)
        if partition == "degree":
            owner = degree_range_partition(g, workers)
        else:
            owner = hash_partition(g.num_vertices, workers)
        kw = dict(mode=mode, iterations=6, num_workers=workers, partition=owner)
        scatter, plain = run_pagerank(g, variant="scatter", **kw)
        mirror, mirrored = run_pagerank(g, variant="mirror", **kw)
        assert mirror.tobytes() == scatter.tobytes()
        assert mirrored.metrics.total_net_bytes != plain.metrics.total_net_bytes  # it mirrored
        assert mirrored.metrics.total_messages == plain.metrics.total_messages

    def test_line_graph(self):
        g = line_graph(5)
        res = run(g, make_program(MirroredScatter, threshold=2), workers=2)
        # vertex 1 receives (0+1) from vertex 0 and (2+1) from vertex 2
        assert res.data[1] == [1.0 + 3.0] * 3
        assert res.data[0] == [2.0] * 3

    def test_multiworker_matches_singleworker(self):
        g = rmat(7, edge_factor=3, seed=5)
        r1 = run(g, make_program(MirroredScatter, threshold=4), workers=1).data
        r4 = run(g, make_program(MirroredScatter, threshold=4), workers=4).data
        assert r1 == r4


class TestWireBehaviour:
    def _steady_state_bytes(self, channel_cls, graph, part, rounds=6, vary=True, **kw):
        """Bytes of the *last* superstep that carried data (setup paid
        off by then)."""
        res = ChannelEngine(
            graph, make_program(channel_cls, rounds=rounds, vary=vary, **kw),
            num_workers=2, partition=part,
        ).run()
        data_steps = [r for r in res.metrics.records if r.net_bytes > 0]
        return data_steps[-1].net_bytes

    def test_hub_broadcast_collapses(self):
        """A hub with all leaves on one remote worker ships one value per
        superstep after setup, instead of one per leaf — mirrored, and by
        ``ScatterCombine`` too, which hands a peer that one sender reaches
        (39 destinations) the sender's value to combine itself."""
        g = star(40, center=0)
        part = np.zeros(40, dtype=np.int64)
        part[1:] = 1
        mirrored = self._steady_state_bytes(MirroredScatter, g, part, threshold=4)
        plain = self._steady_state_bytes(ScatterCombine, g, part)
        # a frame each way: its 8-byte header, the 4-byte tag, one value
        assert mirrored == plain == 2 * (8 + 4 + 8)

    def test_unchanged_values_cost_their_tags(self):
        """Once the values stop changing, either channel sends each peer
        the 4-byte tag of an empty delta: the same bytes, mirrored or not."""
        g = star(40, center=0)
        part = np.zeros(40, dtype=np.int64)
        part[1:] = 1
        mirrored = self._steady_state_bytes(MirroredScatter, g, part, vary=False, threshold=4)
        plain = self._steady_state_bytes(ScatterCombine, g, part, vary=False)
        varying = self._steady_state_bytes(MirroredScatter, g, part, threshold=4)
        # one mirrored value each way no longer crosses
        assert mirrored == plain == varying - 2 * 8

    def test_high_threshold_degenerates_to_scatter(self):
        g = rmat(6, edge_factor=4, seed=1)
        part = (np.arange(g.num_vertices) % 2).astype(np.int64)
        mirrored = self._steady_state_bytes(MirroredScatter, g, part, threshold=10**9)
        with mock.patch.object(ScatterCombine, "_expandable", lambda self: False):
            combined = self._steady_state_bytes(ScatterCombine, g, part)
        plain = self._steady_state_bytes(ScatterCombine, g, part)
        # no mirrored sender: the same wire as ScatterCombine with every
        # destination combined at the sender, byte for byte
        assert mirrored == combined
        # ScatterCombine itself lets the peer fold the destinations whose
        # senders' values cross for fewer values than the destinations
        assert plain < combined

    def test_setup_cost_paid_once(self):
        g = star(30, center=0)
        part = np.zeros(30, dtype=np.int64)
        part[1:] = 1
        res = ChannelEngine(
            g,
            make_program(MirroredScatter, rounds=5, threshold=2),
            num_workers=2,
            partition=part,
        ).run()
        data_steps = [r.net_bytes for r in res.metrics.records if r.net_bytes > 0]
        # the first superstep announces, in a frame each way (its 8-byte
        # header, then the 4-byte tag): the hub as a mirrored sender, behind
        # the destination count and an empty combined set, and its value;
        # back, the hub's id as the one destination, and its combined value
        assert data_steps[0] == (8 + 4 + 4 + 4 + 4 + 8) + (8 + 4 + 4 + 8)
        # later ones send the 4-byte tags of empty deltas alone
        assert data_steps[1:] == [2 * (8 + 4)] * 4
