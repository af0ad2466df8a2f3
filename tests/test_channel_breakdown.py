"""Tests for the per-channel traffic breakdown and send-path validation."""

import numpy as np
import pytest

from repro.algorithms.sv import run_sv
from repro.core import (
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    SUM_I64,
    VertexProgram,
)
from repro.core.worker import Worker
from repro.graph import rmat
from helpers import line_graph


class TestBreakdown:
    def test_labels_and_conservation(self, monkeypatch):
        """Per-channel net bytes must sum to the run's total net payload
        (frame headers are the only difference)."""
        frames = []
        real_emit = Worker.emit

        def emit(self, channel_id, peer, payload):
            if payload and peer != self.worker_id:
                frames.append(channel_id)
            real_emit(self, channel_id, peer, payload)

        monkeypatch.setattr(Worker, "emit", emit)
        g = rmat(7, edge_factor=2, seed=3, directed=False)
        _, res = run_sv(g, variant="both", num_workers=4)
        breakdown = res.metrics.channel_breakdown()
        # S-V 'both' = RequestRespond + ScatterCombine + CombinedMessage + Aggregator
        names = {label.split(":")[1] for label in breakdown}
        assert names == {
            "RequestRespond",
            "ScatterCombine",
            "CombinedMessage",
            "Aggregator",
        }
        payload_net = sum(v["net_bytes"] for v in breakdown.values())
        # the total is the payload plus exactly one 8 B frame header per
        # emitted cross-worker frame, and there is at most one frame per
        # channel, round and ordered pair of workers
        assert payload_net > 0 and frames
        assert res.metrics.total_net_bytes == payload_net + 8 * len(frames)
        assert len(frames) <= len(breakdown) * res.metrics.total_rounds * 4 * 3

    def test_message_attribution_sums_to_total(self):
        g = rmat(7, edge_factor=2, seed=3, directed=False)
        _, res = run_sv(g, variant="both", num_workers=4)
        breakdown = res.metrics.channel_breakdown()
        assert (
            sum(v["messages"] for v in breakdown.values())
            == res.metrics.total_messages
        )

    def test_dominant_pattern_identifiable(self):
        """The analysis use case: on a dense graph the neighborhood
        broadcast dominates S-V's traffic."""
        g = rmat(7, edge_factor=8, seed=1, directed=False)
        _, res = run_sv(g, variant="basic", num_workers=4)
        breakdown = res.metrics.channel_breakdown()
        bcast = next(
            v for k, v in breakdown.items() if "CombinedMessage" in k and k[0] == "2"
        )
        # channel ids: 0=req, 1=reply, 2=bcast, 3=upd, 4=agg
        others = sum(
            v["net_bytes"] for k, v in breakdown.items() if not k.startswith("2")
        )
        assert bcast["net_bytes"] > others

    def test_local_bytes_attributed(self):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = DirectMessage(worker)

            def compute(self, v):
                if self.step_num == 1:
                    self.msg.send_message(v.id, 1)  # to self: always local
                v.vote_to_halt()

        res = ChannelEngine(line_graph(4), P, num_workers=1).run()
        b = res.metrics.channel_breakdown()
        (entry,) = b.values()
        assert entry["net_bytes"] == 0
        assert entry["local_bytes"] > 0


class TestSendValidation:
    @pytest.mark.parametrize("bad", [-1, 99])
    def test_out_of_range_destination_rejected(self, bad):
        class P(VertexProgram):
            def __init__(self, worker):
                super().__init__(worker)
                self.msg = CombinedMessage(worker, SUM_I64)

            def compute(self, v):
                self.msg.send_message(bad, 1)

        with pytest.raises(IndexError, match="out of range"):
            ChannelEngine(line_graph(4), P, num_workers=2).run()
