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
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_a_worker_holds_each_fact_once_and_each_index_as_wide_as_its_bound():
    run = subprocess.run(
        [sys.executable, "-c", _HELD],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert len(report) == 2
    assert any(w["derived"] for w in report)  # (the scan check is not vacuous)
    for worker in report:
        assert worker["degrees_made"] == []
        for senders, dtype in worker["derived"]:
            assert dtype == ("uint16" if senders <= 2**16 else "uint32")
        budget = BYTES_PER_VERTEX * worker["vertices"] + BYTES_PER_EDGE * worker["edges"]
        assert 0 < worker["bytes"] <= budget, worker
