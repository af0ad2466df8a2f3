"""Ablation benches for the channels' design decisions (ARCHITECTURE.md §2).

These isolate *single* mechanisms the paper's channels rely on, holding
everything else fixed.  An ablation lives here, with its one caller, and
never as a switch in the channel library:

* **D1 — positional vs id-echo responses** (a closed form over the
  positional run's counters: the echo adds 4 bytes per response)
* **D2 — sorted linear-scan vs hash combining** (HashScatterCombine, below)
* **D3 — per-channel message types** (exercised by Table IV S-V/SCC/MSF)
* **D4 — propagation vs partition quality**
* **D5 — cost-model sensitivity** (orderings stable under other networks)
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankScatter
from repro.algorithms.pointer_jumping import PointerJumpingReqResp
from repro.algorithms.wcc import run_wcc
from repro.algorithms.sv import run_sv
from repro.bench.datasets import load_dataset
from repro.core import ChannelEngine, Combiner, ScatterCombine, SUM_F64
from repro.graph.partition import hash_partition, metis_like_partition
from repro.pregel_algorithms.sv import run_sv_pregel
from repro.runtime.costmodel import NetworkModel


def _run(graph, program_cls, benchmark, **kw):
    res = benchmark.pedantic(
        lambda: ChannelEngine(graph, program_cls, num_workers=8, **kw).run(),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info.update(
        {
            "message_mb": round(res.metrics.total_net_bytes / 1e6, 3),
            "simulated_time": round(res.metrics.simulated_time, 4),
            "supersteps": res.supersteps,
        }
    )
    return res


# -- D1: response format --------------------------------------------------
def _respond(metrics) -> tuple[dict, int]:
    """The PJ run's RequestRespond traffic and the bytes Pregel+-style
    ``(id, value)`` responses would add to it: one int32 id per response,
    and requests and responses cross the network in equal numbers, so 4
    bytes per two of the channel's messages."""
    channel = metrics.channel_breakdown()["0:RequestRespond"]
    return channel, 2 * channel["messages"]


def test_ablation_respond_format(benchmark):
    res = _run(load_dataset("tree"), PointerJumpingReqResp, benchmark)
    _, echo = _respond(res.metrics)
    benchmark.extra_info["echoed_message_mb"] = round((res.metrics.total_net_bytes + echo) / 1e6, 3)
    assert res.supersteps > 2


def test_ablation_respond_format_saves_bytes():
    """The paper's constant ~33% respond-size saving, isolated."""
    engine = ChannelEngine(load_dataset("tree"), PointerJumpingReqResp, num_workers=8)
    metrics = engine.run().metrics
    channel, echo = _respond(metrics)
    echoed = channel["net_bytes"] + echo
    # what the id-echo wire format measured on this run, total and channel
    assert (metrics.total_net_bytes + echo, echoed) == (1_391_460, 1_387_044)
    assert 1 - channel["net_bytes"] / echoed == pytest.approx(1 / 3, abs=1e-3)


# -- D2: combine strategy ----------------------------------------------------
class _HashReduce(Combiner):
    """The general-case combining a basic message channel performs — one
    table lookup and one scalar combine per edge — in place of the single
    ``ufunc.reduceat`` over ScatterCombine's pre-sorted segments (Fig. 5)."""

    def reduceat(self, values: np.ndarray, starts: np.ndarray, out: np.ndarray) -> np.ndarray:
        keys = np.repeat(
            np.arange(starts.size), np.diff(starts, append=values.size)
        )
        fn = self.fn
        table: dict = {}
        for key, val in zip(keys.tolist(), values):
            table[key] = fn(table[key], val) if key in table else val
        # segments are visited in order, so insertion order is segment order
        out[:] = np.fromiter(table.values(), dtype=self.codec.dtype, count=len(table))
        return out


class HashScatterCombine(ScatterCombine):
    """D2 ablation: ScatterCombine whose per-destination combine is a hash
    table instead of the linear scan.  Wire bytes, record order and traffic
    equal ScatterCombine's; values equal it exactly for integer combiners
    (a float sum is folded in another order, so it may differ in the last
    ulp — tests/test_channels_optimized.py checks the integer case)."""

    def __init__(self, worker, combiner: Combiner) -> None:
        super().__init__(
            worker,
            _HashReduce(
                combiner.fn, combiner.identity, combiner.codec, combiner.ufunc, combiner.name
            ),
        )


@pytest.mark.parametrize(
    "channel", [ScatterCombine, HashScatterCombine], ids=["linear-scan", "hash"]
)
def test_ablation_scan_vs_hash(benchmark, channel):
    graph = load_dataset("wikipedia")

    class PR(PageRankScatter):
        iterations = 10

        def __init__(self, worker):
            super(PageRankScatter, self).__init__(worker)  # every channel but msg
            self.msg = channel(worker, SUM_F64)

    res = _run(graph, PR, benchmark)
    benchmark.extra_info["channel"] = channel.__name__
    assert res.supersteps == 11


# -- D4: propagation vs partition quality --------------------------------------
@pytest.mark.parametrize("partitioner", ["hash", "metis-like"])
def test_ablation_prop_partition_quality(benchmark, partitioner):
    graph = load_dataset("usa-road")  # high diameter: partition matters most
    if partitioner == "hash":
        part = hash_partition(graph.num_vertices, 8, seed=0)
    else:
        part = metis_like_partition(graph, 8, seed=0)

    def run():
        return run_wcc(graph, variant="prop", num_workers=8, partition=part)[1]

    res = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {
            "partitioner": partitioner,
            "rounds": res.metrics.total_rounds,
            "message_mb": round(res.metrics.total_net_bytes / 1e6, 3),
        }
    )


def test_ablation_prop_partition_quality_ordering():
    graph = load_dataset("usa-road")
    ph = hash_partition(graph.num_vertices, 8, seed=0)
    pm = metis_like_partition(graph, 8, seed=0)
    _, rh = run_wcc(graph, variant="prop", num_workers=8, partition=ph)
    _, rm = run_wcc(graph, variant="prop", num_workers=8, partition=pm)
    assert rm.metrics.total_net_bytes < rh.metrics.total_net_bytes


# -- D5: cost-model sensitivity ---------------------------------------------------
NETWORKS = {
    "paper-750mbps": NetworkModel(latency=1e-3, bandwidth=93.75e6),
    "slow-100mbps": NetworkModel(latency=5e-3, bandwidth=12.5e6),
    "fast-10gbps": NetworkModel(latency=1e-4, bandwidth=1.25e9),
}


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_ablation_costmodel_table6_ordering(benchmark, network):
    """Table VI's headline ordering must hold under any plausible network:
    channel-both < pregel-reqresp in simulated time."""
    graph = load_dataset("facebook")
    nm = NETWORKS[network]

    def run():
        # per-vertex program against per-vertex program, as in Table VI
        _, best = run_sv(graph, variant="both", mode="scalar", num_workers=8, network=nm)
        _, prior = run_sv_pregel(graph, variant="reqresp", num_workers=8, network=nm)
        return best, prior

    best, prior = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {
            "network": network,
            "channel_both": round(best.metrics.simulated_time, 4),
            "pregel_reqresp": round(prior.metrics.simulated_time, 4),
        }
    )
    assert best.metrics.simulated_time < prior.metrics.simulated_time


# -- extension: mirroring as a channel ------------------------------------------
@pytest.mark.parametrize(
    "program", ["channel-scatter", "channel-mirror", "pregel-ghost"]
)
def test_ablation_mirror_channel(cell, program):
    """Beyond the paper: Pregel+'s ghost mode re-packaged as a channel
    (`MirroredScatter`: ScatterCombine's split, with the senders of at
    least 16 edges into a peer crossing to it), compared against
    ScatterCombine and the engine-mode original on the same PageRank
    workload.  The channel's ranks and messages are ScatterCombine's; only
    the bytes differ."""
    kwargs = {"ghost_threshold": 16} if program == "pregel-ghost" else {}
    row = cell("pagerank", program, "webuk", **kwargs)
    assert row["supersteps"] == 31

