"""A run pays for its graph work and nothing per process besides.

The scan's cut dedupes without ``np.unique`` (whose first call imports
``numpy.ma``), the lanes are plain threads on ``queue.SimpleQueue``s (no
``concurrent.futures``, so no ``logging``), and a finished engine is torn
down by :meth:`ChannelEngine.close` — freed by refcount, not by a full
collection.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import weakref
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.algorithms import _common
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.wcc import run_wcc
from repro.core import ChannelEngine, lanes
from repro.graph import rmat
from repro.graph.generators import erdos_renyi
from repro.pregel_algorithms import run_wcc_pregel
from repro.streaming import EpochEngine, WCCStream, synthesize_stream
from repro.streaming import epoch

SRC = str(Path(__file__).resolve().parents[1] / "src")

_NO_TOLL = """
import gc, sys
collections = []
collect = gc.collect
gc.collect = lambda *a: collections.append(a) or collect(*a)
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sv import run_sv
from repro.core import lanes
from repro.core.channels import scatter_combine
from repro.graph import rmat

lanes.affinity_cores = lambda: 2  # sim: every scan gets two lanes
scatter_combine._BLOCK_EDGES = 32  # ... and has the blocks to cut in two
folds = []
run_lanes = scatter_combine.run_lanes
scatter_combine.run_lanes = lambda calls: folds.append(len(calls)) or run_lanes(calls)
run_sv(rmat(9, edge_factor=6, seed=32, directed=False), variant="both", num_workers=2)
run_pagerank(rmat(9, edge_factor=8, seed=31), variant="scatter", mode="bulk", num_workers=2)
assert 2 in folds, folds
print(sorted(m for m in ("numpy.ma", "concurrent.futures", "logging") if m in sys.modules))
print(len(collections))
"""


def test_a_run_pays_no_toll():
    """Two two-lane sim runs in a fresh interpreter import none of
    ``numpy.ma``, ``concurrent.futures`` and ``logging``, and make no
    ``gc.collect()`` call."""
    run = subprocess.run(
        [sys.executable, "-c", _NO_TOLL],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    imported, collections = run.stdout.split("\n")[:2]
    assert imported == "[]"
    assert collections == "0"


def test_callers_at_once_each_wait_for_their_own_lanes():
    """More callers than cores, switching threads as often as the
    interpreter allows: ``run_lanes`` returns only once every call it was
    handed has run, never on another caller's answer."""
    short = []

    def caller():
        for _ in range(200):
            done = []
            lanes.run_lanes([lambda i=i: done.append(i) for i in range(3)])
            if sorted(done) != [0, 1, 2]:
                short.append(done)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert short == []


@pytest.fixture
def no_collection():
    """The test body runs with the cycle collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "run",
    [
        lambda g: run_pagerank(g, variant="scatter", mode="bulk", num_workers=2)[0],
        lambda g: run_wcc_pregel(g, num_workers=2)[0],
    ],
    ids=["pagerank", "wcc-pregel"],
)
def test_a_sim_run_frees_its_workers_by_refcount(run, monkeypatch, no_collection):
    refs = []

    class Watched(ChannelEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.extend(weakref.ref(x) for x in (self.workers[0], self.workers[0].channels[0]))

    monkeypatch.setattr(_common, "ChannelEngine", Watched)
    values = run(rmat(8, edge_factor=6, seed=5))
    assert values.size and len(refs) == 2
    assert [ref() for ref in refs] == [None, None]


def test_a_closed_sim_engine_still_captures_and_restores(no_collection):
    """The engine holds its workers until it is dropped: a closed one
    still answers ``capture_snapshot`` / ``restore_worker``."""
    from repro.algorithms.pagerank import PageRankScatterBulk
    from repro.runtime.checkpoint import capture_snapshot, restore_worker

    engine = ChannelEngine(rmat(8, edge_factor=6, seed=5), PageRankScatterBulk, num_workers=2)
    engine.run()
    engine.close()
    engine.close()  # idempotent
    worker = weakref.ref(engine.workers[1])
    snapshot = capture_snapshot(engine)
    restore_worker(engine, snapshot, 1)
    assert capture_snapshot(engine).blobs == snapshot.blobs
    del engine
    assert worker() is None


def test_a_process_run_releases_its_pool(monkeypatch, no_collection):
    seen = {}

    class Watched(ChannelEngine):
        def run(self, *args, **kwargs):
            result = super().run(*args, **kwargs)
            pool = self.backend.pool
            seen["procs"] = list(pool._state.procs)
            seen["segments"] = [seg.name for seg in pool._state.export._segments]
            return result

    monkeypatch.setattr(_common, "ChannelEngine", Watched)
    run_wcc(rmat(6, edge_factor=4, seed=25), mode="bulk", num_workers=2, executor="process")
    assert seen["procs"] and seen["segments"]
    assert not any(p.is_alive() for p in seen["procs"])
    for name in seen["segments"]:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_an_epoch_frees_its_workers_before_the_next(monkeypatch, no_collection):
    workers = weakref.WeakSet()

    class Watched(ChannelEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.update(self.workers)

    monkeypatch.setattr(epoch, "ChannelEngine", Watched)
    graph = erdos_renyi(300, 3.0, seed=3, directed=False)
    stream = EpochEngine(graph, WCCStream(), num_workers=2)
    stream.bootstrap()
    for batch in synthesize_stream(graph, 2, 10, 5, seed=4):
        assert len(workers) == 0
        stream.run_epoch(batch)
    assert len(workers) == 0 and len(stream.history) == 3
