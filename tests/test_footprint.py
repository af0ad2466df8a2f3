"""What a worker holds after a run: each per-vertex fact once, each index
only as wide as its bound.

The check runs in a fresh interpreter (nothing another test cached is
reachable there) and counts ndarray bytes, never the resident size: a
long-lived test process's RSS says nothing about one run.  After a bulk
scatter PageRank run on ``rmat(13)`` at 2 workers it checks that

* no ``LocalCSR`` made its ``degrees`` column (the row structure is
  ``indptr`` alone; the everyone-active path reads the degree split);
* every scan a worker derived from a peer's senders indexes them in
  ``uint16`` where there are at most 2¹⁶ of them;
* the distinct ndarray bytes reachable from each worker — the graph,
  the partition and every other worker excluded — stay under
  :data:`BYTES_PER_VERTEX` a local vertex plus :data:`BYTES_PER_EDGE` a
  local edge.

A second script streams the rows of a ``hash`` partition at 2 and 8
workers, and of a peer's scattered senders, and checks that no block
reads more of the store than ``adjacency._SPAN`` entries.  In process,
every partitioner's ``owner`` is one byte a vertex up to 256 workers,
and both engines keep it without a widening copy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankScatterBulk
from repro.core import ChannelEngine
from repro.graph import rmat
from repro.graph.partition import (
    degree_range_partition,
    extend_partition,
    hash_partition,
    metis_like_partition,
    range_partition,
)
from repro.streaming import EpochEngine, PageRankStream

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the budget of what one worker holds.  Measured 115.6 / 118.0 B a
#: vertex all told (473 770 and 483 054 B on workers 0 and 1), of which
#: 2 B an edge are the scans' uint16 indices; with int64 degrees held
#: twice, a 3-column degree split and uint32 indices it was 652 805 and
#: 667 443 B, over this budget
BYTES_PER_VERTEX, BYTES_PER_EDGE = 100, 2

_HELD = """
import gc, json, sys, types
import numpy as np
from repro.algorithms.pagerank import PageRankScatterBulk
from repro.core import ChannelEngine
from repro.graph import rmat


def owner_of(array):
    # the ndarray that owns the memory, None for a view of something else (a map)
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array if array.base is None else None


def reachable(roots, stop):
    # every distinct memory-owning ndarray reachable from roots, by id
    seen, found, todo = set(stop), {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = owner_of(obj)
            if base is not None:
                found[id(base)] = base.nbytes
            continue
        todo.extend(gc.get_referents(obj))
    return found


engine = ChannelEngine(rmat(13, seed=3), PageRankScatterBulk, num_workers=2)
engine.run()
stop = {id(engine), *map(id, engine.workers)}
stop |= {id(vars(module)) for module in list(sys.modules.values()) if module is not None}
shared = reachable([engine.graph, engine.owner, engine.positions], stop)
report = []
for worker in engine.workers:
    held = reachable([vars(worker)], stop - {id(worker)})
    adj = worker.local_adjacency()
    derived = [
        (scan.size - scan.head, str(scan.edge_src.dtype))
        for channel in worker.channels
        for _, scan in getattr(channel, "_patterns", {}).values()
        if scan is not None
    ]
    report.append({
        "vertices": worker.num_local,
        "edges": adj.num_edges,
        "bytes": sum(n for key, n in held.items() if key not in shared),
        "degrees_made": [direction for direction, csr in worker._local_adj.items() if "degrees" in vars(csr)],
        "derived": derived,
    })
print(json.dumps(report))
"""


def _fresh(script: str):
    """What ``script`` prints as JSON, run in a fresh interpreter."""
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_a_worker_holds_each_fact_once_and_each_index_as_wide_as_its_bound():
    report = _fresh(_HELD)
    assert len(report) == 2
    assert any(w["derived"] for w in report)  # (the scan check is not vacuous)
    for worker in report:
        assert worker["degrees_made"] == []
        for senders, dtype in worker["derived"]:
            assert dtype == ("uint16" if senders <= 2**16 else "uint32")
        budget = BYTES_PER_VERTEX * worker["vertices"] + BYTES_PER_EDGE * worker["edges"]
        assert 0 < worker["bytes"] <= budget, worker


_SPANS = """
import json
import numpy as np
from repro.algorithms.pagerank import PageRankScatterBulk
from repro.core import ChannelEngine, adjacency
from repro.core.channels import _edges
from repro.core.channels.scatter_combine import ScatterCombine
from repro.graph import rmat
from repro.util import expand_ranges

graph = rmat(15, seed=3)
spans = []  # every span of the store a read hands back, in entries
graph.store.release = lambda view: spans.append(view.size)


def stream(adj, rows):
    spans.clear()
    blocks = [dsts.copy() for _, _, dsts in adj.blocks(_edges._BLOCK_EDGES)]
    starts = graph.indptr[rows]
    whole = graph.indices[expand_ranges(starts, graph.indptr[rows + 1] - starts)]
    return {
        "blocks": len(blocks),
        "widest": max(spans),
        "exact": bool(np.array_equal(np.concatenate(blocks), whole)),
    }


report = {"bound": adjacency._SPAN, "hash": {}, "senders": []}
for workers in (2, 8):  # the default partition is a hash of the id
    engine = ChannelEngine(graph, PageRankScatterBulk, num_workers=workers)
    report["hash"][workers] = [
        stream(w.local_adjacency("out"), w.local_ids) for w in engine.workers
    ]

learn = ScatterCombine._learn_senders


def learning(self, *args, **kw):
    spans.clear()
    pattern = learn(self, *args, **kw)
    report["senders"].append(max(spans, default=0))
    return pattern


ScatterCombine._learn_senders = learning
ChannelEngine(graph, PageRankScatterBulk, num_workers=2).run()
print(json.dumps(report))
"""


def test_a_block_reads_at_most_the_span_bound_of_the_store():
    """Each block ``LocalCSR.blocks`` yields over scattered rows — a hash
    partition's, a peer's senders — reads at most ``_SPAN`` entries of
    the store, however few of them it keeps: cut by the edges kept, a
    block of a hash partition at W workers spans about W times its
    edges."""
    report = _fresh(_SPANS)
    bound = report["bound"]
    for workers, streamed in report["hash"].items():
        assert len(streamed) == int(workers)
        for worker in streamed:
            assert worker["exact"]
            assert 0 < worker["widest"] <= bound, (workers, worker)
            assert worker["blocks"] >= 2  # (the bound is not vacuous)
    assert report["senders"]  # a peer's senders were read here
    assert all(0 < widest <= bound for widest in report["senders"]), report["senders"]


@pytest.mark.parametrize("workers, dtype", [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_every_partitioner_numbers_workers_in_the_narrowest_type(workers, dtype):
    graph = rmat(9, seed=1)
    n = graph.num_vertices
    owners = {
        "hash": hash_partition(n, workers),
        "range": range_partition(n, workers),
        "degree": degree_range_partition(graph, workers),
        "metis": metis_like_partition(graph, workers),
        "extend": extend_partition(hash_partition(n, workers), 3, workers),
    }
    for name, owner in owners.items():
        assert owner.dtype == dtype, name
        assert int(owner.max()) < workers, name
    # narrowed after the draw: the hash is the one a wide draw makes
    wide = np.random.default_rng(0).integers(0, workers, size=n, dtype=np.int64)
    assert np.array_equal(owners["hash"], wide)


def test_both_engines_keep_the_partition_without_a_widening_copy():
    graph = rmat(9, seed=1)
    owner = degree_range_partition(graph, 2)
    engines = [
        ChannelEngine(graph, PageRankScatterBulk, num_workers=2, partition=owner),
        EpochEngine(graph, PageRankStream(), num_workers=2, partition=owner),
    ]
    for engine in engines:
        assert engine.owner.dtype == np.uint8
        assert np.shares_memory(engine.owner, owner)
    assert ChannelEngine(graph, PageRankScatterBulk, num_workers=2).owner.dtype == np.uint8
