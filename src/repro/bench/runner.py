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

from repro.bench.datasets import load_dataset
from repro.graph.partition import metis_like_partition
from repro.programs import cells, runner
from repro.util import check_choice

__all__ = ["run_cell"]

_partition_cache: dict[tuple[str, int], np.ndarray] = {}


def run_cell(
    algorithm: str,
    program: str,
    dataset: str,
    partitioned: bool = False,
    num_workers: int = 8,
    **kwargs,
) -> dict:
    """Run one table cell; returns a metrics row (dict).  ``program``
    names one of ``algorithm``'s rows in :func:`repro.programs.cells`."""
    run = runner(algorithm, *check_choice("program", program, cells(algorithm)))
    graph = load_dataset(dataset)
    if partitioned:
        key = (dataset, num_workers)
        if key not in _partition_cache:
            _partition_cache[key] = metis_like_partition(graph, num_workers, seed=0)
        kwargs["partition"] = _partition_cache[key]
    t0 = time.perf_counter()
    out = run(graph, num_workers=num_workers, **kwargs)
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
