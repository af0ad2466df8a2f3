"""Run one experiment cell and report the paper's metrics.

A *cell* is (algorithm, system/variant, dataset[, partitioned]) — one
runtime/message entry of Tables IV–VII.  ``runtime`` in our tables is the
cost-model's simulated parallel time (see
:mod:`repro.runtime.costmodel`); ``message_mb`` is real serialized
network bytes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.bfs import run_bfs
from repro.algorithms.msf import run_msf
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.algorithms.scc import run_scc
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.bench.datasets import load_dataset
from repro.blogel import run_wcc_blogel
from repro.graph.partition import metis_like_partition
from repro.pregel_algorithms import (
    run_msf_pregel,
    run_pagerank_pregel,
    run_pointer_jumping_pregel,
    run_scc_pregel,
    run_sssp_pregel,
    run_sv_pregel,
    run_wcc_pregel,
)

__all__ = ["run_cell", "CELLS"]

#: (algorithm, program) -> runner(graph, **kw) returning (..., EngineResult)
CELLS = {
    ("pr", "pregel-basic"): lambda g, **kw: run_pagerank_pregel(g, mode="basic", **kw),
    ("pr", "pregel-ghost"): lambda g, **kw: run_pagerank_pregel(g, mode="ghost", **kw),
    ("pr", "channel-basic"): lambda g, **kw: run_pagerank(g, variant="basic", **kw),
    ("pr", "channel-scatter"): lambda g, **kw: run_pagerank(g, variant="scatter", **kw),
    ("pr", "channel-mirror"): lambda g, **kw: run_pagerank(g, variant="mirror", **kw),
    ("pj", "pregel-basic"): lambda g, **kw: run_pointer_jumping_pregel(g, mode="basic", **kw),
    ("pj", "pregel-reqresp"): lambda g, **kw: run_pointer_jumping_pregel(
        g, mode="reqresp", **kw
    ),
    ("pj", "channel-basic"): lambda g, **kw: run_pointer_jumping(g, variant="basic", **kw),
    ("pj", "channel-reqresp"): lambda g, **kw: run_pointer_jumping(
        g, variant="reqresp", **kw
    ),
    ("wcc", "pregel-basic"): run_wcc_pregel,
    ("wcc", "blogel"): run_wcc_blogel,
    ("wcc", "channel-basic"): lambda g, **kw: run_wcc(g, variant="basic", **kw),
    ("wcc", "channel-prop"): lambda g, **kw: run_wcc(g, variant="prop", **kw),
    ("sv", "pregel-basic"): lambda g, **kw: run_sv_pregel(g, mode="basic", **kw),
    ("sv", "pregel-reqresp"): lambda g, **kw: run_sv_pregel(g, mode="reqresp", **kw),
    # Table VI measures the per-vertex listings; the ports are the -bulk cells
    ("sv", "channel-basic"): lambda g, **kw: run_sv(
        g, variant="basic", mode="scalar", **kw
    ),
    ("sv", "channel-reqresp"): lambda g, **kw: run_sv(
        g, variant="reqresp", mode="scalar", **kw
    ),
    ("sv", "channel-scatter"): lambda g, **kw: run_sv(
        g, variant="scatter", mode="scalar", **kw
    ),
    ("sv", "channel-both"): lambda g, **kw: run_sv(
        g, variant="both", mode="scalar", **kw
    ),
    ("scc", "pregel-basic"): run_scc_pregel,
    ("scc", "channel-basic"): lambda g, **kw: run_scc(g, variant="basic", **kw),
    ("scc", "channel-prop"): lambda g, **kw: run_scc(g, variant="prop", **kw),
    ("msf", "pregel-basic"): run_msf_pregel,
    ("msf", "channel-basic"): run_msf,
    ("sssp", "pregel-basic"): run_sssp_pregel,
    ("sssp", "channel-basic"): lambda g, **kw: run_sssp(g, variant="basic", **kw),
    ("sssp", "channel-prop"): lambda g, **kw: run_sssp(g, variant="prop", **kw),
    ("bfs", "channel-basic"): lambda g, **kw: run_bfs(g, variant="basic", **kw),
    # bulk (columnar compute) counterparts of the channel programs above
    ("pr", "channel-basic-bulk"): lambda g, **kw: run_pagerank(
        g, variant="basic", mode="bulk", **kw
    ),
    ("pr", "channel-scatter-bulk"): lambda g, **kw: run_pagerank(
        g, variant="scatter", mode="bulk", **kw
    ),
    ("pr", "channel-mirror-bulk"): lambda g, **kw: run_pagerank(
        g, variant="mirror", mode="bulk", **kw
    ),
    ("wcc", "channel-basic-bulk"): lambda g, **kw: run_wcc(
        g, variant="basic", mode="bulk", **kw
    ),
    ("bfs", "channel-basic-bulk"): lambda g, **kw: run_bfs(
        g, variant="basic", mode="bulk", **kw
    ),
    ("sssp", "channel-basic-bulk"): lambda g, **kw: run_sssp(
        g, variant="basic", mode="bulk", **kw
    ),
    ("pj", "channel-reqresp-bulk"): lambda g, **kw: run_pointer_jumping(
        g, variant="reqresp", mode="bulk", **kw
    ),
    ("sv", "channel-basic-bulk"): lambda g, **kw: run_sv(
        g, variant="basic", mode="bulk", **kw
    ),
    ("sv", "channel-reqresp-bulk"): lambda g, **kw: run_sv(
        g, variant="reqresp", mode="bulk", **kw
    ),
    ("sv", "channel-scatter-bulk"): lambda g, **kw: run_sv(
        g, variant="scatter", mode="bulk", **kw
    ),
    ("sv", "channel-both-bulk"): lambda g, **kw: run_sv(
        g, variant="both", mode="bulk", **kw
    ),
}

_partition_cache: dict[tuple[str, int], np.ndarray] = {}


def run_cell(
    algorithm: str,
    program: str,
    dataset: str,
    partitioned: bool = False,
    num_workers: int = 8,
    **kwargs,
) -> dict:
    """Run one table cell; returns a metrics row (dict)."""
    runner = CELLS[(algorithm, program)]
    graph = load_dataset(dataset)
    if partitioned:
        key = (dataset, num_workers)
        if key not in _partition_cache:
            _partition_cache[key] = metis_like_partition(graph, num_workers, seed=0)
        kwargs["partition"] = _partition_cache[key]
    t0 = time.perf_counter()
    out = runner(graph, num_workers=num_workers, **kwargs)
    wall = time.perf_counter() - t0
    result = out[-1]
    m = result.metrics
    return {
        "algorithm": algorithm,
        "program": program,
        "dataset": dataset + (" (P)" if partitioned else ""),
        "runtime": round(m.simulated_time, 4),
        "message_mb": round(m.total_net_bytes / 1e6, 3),
        "messages": m.total_messages,
        "supersteps": m.supersteps,
        "rounds": m.total_rounds,
        "wall_s": round(wall, 3),
    }
