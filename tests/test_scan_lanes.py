"""The scatter scan's lanes (``core/lanes.py``, ``scatter_combine._Scan``).

A scan cut into runs of whole blocks folds each run on a lane of its own,
into its own slice of the output: every lane count gives the one-lane
bits.  How many lanes is a rule on the cores — every core on a sim host,
``cores // num_workers`` in a process child, one at least — and a forked
child makes its own lane threads instead of waiting on its parent's.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helpers import mover, scan_segments
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sv import run_sv
from repro.core import MIN_I64, SUM_F64, ChannelEngine, lanes
from repro.core.channels import scatter_combine
from repro.core.channels.scatter_combine import _Scan
from repro.core.combiner import make_combiner
from repro.graph import rmat
from repro.runtime.parallel.worker_proc import _WorkerHost

SRC = str(Path(__file__).resolve().parents[1] / "src")
LANES = [1, 2, 3, 4]


def _scan_input(lengths, size, head=0, seed=0):
    """Segments of ``lengths`` edges over senders ``[0, size - head)``,
    ascending within each segment, and per-call values of ``size``."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    edge_src = np.concatenate(
        [np.sort(rng.integers(0, size - head, n)) for n in lengths] or [np.empty(0, np.int64)]
    ).astype(np.int64)
    return edge_src, starts


def _values(combiner, size, seed=1):
    rng = np.random.default_rng(seed)
    if combiner is SUM_F64:  # magnitudes far apart: a reordered sum changes bits
        return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    return rng.integers(-1000, 1000, size)


SHAPES = {
    # (segment lengths, the scan's block size)
    "hub-longer-than-a-block": ([3, 40, 1, 2, 5, 1, 7, 2, 2, 9, 1, 1], 8),
    "fewer-blocks-than-lanes": ([3, 4, 2], 8),
    "many-blocks": ([1, 2, 3, 5, 8, 13, 2, 1, 4, 4, 6, 1, 1, 1, 9, 3] * 3, 8),
    "empty": ([], 8),
}


@pytest.mark.parametrize("combiner", [SUM_F64, MIN_I64], ids=repr)
@pytest.mark.parametrize("head", [0, 5], ids=["sender", "receiver-head"])
@pytest.mark.parametrize("shape", SHAPES)
def test_every_lane_count_folds_the_one_lane_bits(shape, head, combiner):
    lengths, block = SHAPES[shape]
    size = 60 + head
    edge_src, starts = _scan_input(lengths, size, head)
    values = _values(combiner, size).astype(combiner.codec.dtype)
    with mock.patch.object(scatter_combine, "_BLOCK_EDGES", block):
        scans = {k: _Scan(combiner, edge_src, starts, size, head, lanes=k) for k in LANES}
    expected = scans[1](values)
    assert expected.size == head + len(lengths)
    np.testing.assert_array_equal(expected[:head], values[:head])
    for k, scan in scans.items():
        blocks = [block for run, *_ in scan.runs for block in run]
        assert len(scan.runs) <= max(1, min(k, len(blocks) // 2)), k
        assert scan(values).tobytes() == expected.tobytes(), k
    if shape == "many-blocks":
        assert [len(scans[k].runs) for k in LANES] == LANES


@pytest.mark.parametrize("combiner", [SUM_F64, MIN_I64, make_combiner(min, 0)], ids=repr)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_kept_subset_lays_out_as_the_compacted_segments(seed, shape, combiner):
    """A scan told to keep some segments is, table for table and bit for
    bit, the scan of those segments alone, moved together beforehand (the
    edges the others held are dropped in the same pass, and its index
    shrinks to the kept edges where it lies)."""
    lengths, block = SHAPES[shape]
    size, head = 60 + 4, 4
    edge_src, starts = _scan_input(lengths, size, head)
    keep = np.random.default_rng(seed).random(len(lengths)) < 0.6
    kept = [edge_src[a : a + n] for a, n, k in zip(starts, lengths, keep) if k]
    compact = np.concatenate([*kept, np.empty(0, np.int64)])
    compact_starts = np.cumsum([0, *(np.asarray(lengths)[keep][:-1])]).astype(np.int64)
    values = _values(SUM_F64 if combiner is SUM_F64 else MIN_I64, size)
    values = values.astype(combiner.codec.dtype)
    with mock.patch.object(scatter_combine, "_BLOCK_EDGES", block):
        dropped = _Scan(combiner, edge_src.astype(np.uint16), starts, size, head, keep=keep)
        expected = _Scan(combiner, compact, compact_starts[: keep.sum()], size, head)
    assert dropped.segments == expected.segments == keep.sum()
    assert dropped.edge_src.size == compact.size and dropped.edge_src.dtype == np.uint16
    for got, want in zip(scan_segments(dropped), scan_segments(expected)):
        assert got.tolist() == want.tolist()
    assert dropped(values).tobytes() == expected(values).tobytes()


def test_a_hub_longer_than_the_real_block_keeps_its_bits():
    """At the real block size: a hub segment of more edges than a block
    is a block of its own, in one lane's run."""
    lengths = [scatter_combine._BLOCK_EDGES + 1000] + [50_000] * 5
    edge_src, starts = _scan_input(lengths, 500)
    values = _values(SUM_F64, 500)
    one = _Scan(SUM_F64, edge_src, starts, 500)(values)
    for k in LANES[1:]:
        assert _Scan(SUM_F64, edge_src, starts, 500, lanes=k)(values).tobytes() == one.tobytes()


def test_runs_are_about_equal_in_edges():
    edge_src, starts = _scan_input([4] * 40, 30)
    with mock.patch.object(scatter_combine, "_BLOCK_EDGES", 8):
        scan = _Scan(SUM_F64, edge_src, starts, 30, lanes=4)
    assert [sum(hi - lo for *_, lo, hi in run) for run, *_ in scan.runs] == [40] * 4
    assert [(edges, segments) for _, edges, segments in scan.runs] == [(8, 2)] * 4


def test_lane_threads_fold_under_the_callers_errstate():
    """Each run folds under the caller's ``np.geterr()``, whichever thread
    runs it: sums of 1e308 overflow in both lanes' runs, and inside
    ``np.errstate(all="ignore")`` neither warns, as one lane does not."""
    edge_src, starts = _scan_input([4] * 40, 30)
    values = np.full(30, 1e308)
    with mock.patch.object(scatter_combine, "_BLOCK_EDGES", 8):
        scans = {k: _Scan(SUM_F64, edge_src, starts, 30, lanes=k) for k in (1, 2)}
    assert len(scans[2].runs) == 2
    for k, scan in scans.items():
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            folded = scan(values)
        assert np.isinf(folded).all(), k
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == [], k
        with pytest.warns(RuntimeWarning, match="overflow"):  # the default still warns
            scan(values)


def test_each_thread_folds_in_a_scratch_of_its_own():
    """A lane's scratch grows to the most it was asked for and is reused;
    another thread never gets it."""
    first = lanes.lane_scratch(100)
    assert first.nbytes >= 100 and first.dtype == np.uint8
    assert lanes.lane_scratch(10) is first
    grown = lanes.lane_scratch(first.nbytes + 1)
    assert grown.nbytes == first.nbytes + 1 and lanes.lane_scratch(10) is grown
    other = []
    worker = threading.Thread(target=lambda: other.append(lanes.lane_scratch(10)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert other[0] is not grown


def test_python_folds_keep_one_lane():
    """A fold written in Python only trades the GIL between lanes."""

    class _PythonReduce(type(SUM_F64)):
        def reduceat(self, values, starts, out):
            return super().reduceat(values, starts, out=out)

    edge_src, starts = _scan_input([4] * 40, 30)
    no_ufunc = make_combiner(lambda a, b: a + b, 0.0)
    override = _PythonReduce(SUM_F64.fn, 0.0, SUM_F64.codec, SUM_F64.ufunc, "py")
    with mock.patch.object(scatter_combine, "_BLOCK_EDGES", 8):
        assert len(_Scan(SUM_F64, edge_src, starts, 30, lanes=4).runs) == 4
        for combiner in (no_ufunc, override):
            assert len(_Scan(combiner, edge_src, starts, 30, lanes=4).runs) == 1


def test_run_lanes_waits_for_every_lane_and_raises_their_error():
    done = []

    def fail():
        raise ValueError("lane")

    with pytest.raises(ValueError, match="lane"):
        lanes.run_lanes([lambda: done.append(0), fail, lambda: done.append(2)])
    assert sorted(done) == [0, 2]


# -- the rule -----------------------------------------------------------------
@pytest.mark.parametrize(
    "workers, cores, sim, child",
    [(2, 2, 2, 1), (2, 4, 4, 2), (2, 1, 1, 1), (4, 8, 8, 2), (8, 2, 2, 1), (1, 3, 3, 3)],
    ids=["2-on-2", "2-on-4", "2-on-1", "4-on-8", "8-on-2", "one"],
)
def test_scan_lanes_are_a_rule_on_the_cores(monkeypatch, workers, cores, sim, child):
    """A sim host advances one worker at a time, so its scans get every
    core; a process child shares the cores with its ``num_workers - 1``
    peers; one lane at least.  The frame mover's seam moves no lane."""
    from repro.core.program import VertexProgram
    from repro.runtime.parallel import pool

    graph = rmat(5, edge_factor=2, seed=1)
    monkeypatch.setattr(lanes, "affinity_cores", lambda: cores)
    engine = ChannelEngine(graph, VertexProgram, num_workers=workers)
    assert engine.scan_lanes == sim
    assert _WorkerHost(graph, engine.owner, workers).scan_lanes == child
    monkeypatch.setattr(pool, "usable_cores", lambda: 1 << 16)
    assert engine.scan_lanes == sim


# -- end to end ---------------------------------------------------------------
_GRAPH = rmat(9, edge_factor=8, seed=31, directed=True)
_UNDIRECTED = rmat(9, edge_factor=6, seed=32, directed=False)

WORKLOADS = {
    "pr-scatter": lambda **kw: run_pagerank(_GRAPH, variant="scatter", iterations=8, mode="bulk", **kw),
    "pr-mirror": lambda **kw: run_pagerank(_GRAPH, variant="mirror", iterations=8, mode="bulk", **kw),
    "sv-both": lambda **kw: run_sv(_UNDIRECTED, variant="both", **kw),
}


def _lanes_run(monkeypatch, cores, runner, **kw):
    """``runner(**kw)`` with ``cores`` cores, in blocks small enough that
    every worker's scans have many blocks."""
    monkeypatch.setattr(lanes, "affinity_cores", lambda: cores)
    monkeypatch.setattr(scatter_combine, "_BLOCK_EDGES", 32)
    return runner(**kw)


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("name", WORKLOADS)
def test_two_lanes_equal_one(monkeypatch, name, workers):
    """Data, per-channel bytes and messages, and checkpoint bytes are the
    one-lane run's; a rollback-recovered two-lane run equals its
    failure-free one."""
    runner = WORKLOADS[name]
    kw = dict(num_workers=workers, checkpoint_every=2)
    calls = []
    run_lanes = lanes.run_lanes
    monkeypatch.setattr(scatter_combine, "run_lanes", lambda c: calls.append(len(c)) or run_lanes(c))
    data1, res1 = _lanes_run(monkeypatch, 1, runner, **kw)
    assert set(calls) == {1}
    calls.clear()
    data2, res2 = _lanes_run(monkeypatch, 2, runner, **kw)
    assert 2 in calls  # the scans did fold on two lanes
    np.testing.assert_array_equal(data1, data2)
    assert data1.tobytes() == data2.tobytes()
    m1, m2 = res1.metrics, res2.metrics
    assert m1.channel_breakdown() == m2.channel_breakdown()
    assert (m1.supersteps, m1.total_rounds) == (m2.supersteps, m2.total_rounds)
    assert (m1.total_net_bytes, m1.total_messages) == (m2.total_net_bytes, m2.total_messages)
    assert m1.checkpoint_bytes == m2.checkpoint_bytes > 0
    if workers > 1:
        data3, res3 = _lanes_run(monkeypatch, 2, runner, failures=[(1, 3)], **kw)
        assert res3.metrics.num_failures == 1
        assert data3.tobytes() == data2.tobytes()


# -- fork safety ----------------------------------------------------------------
_SIM_THEN_PROCESS = """
import numpy as np
from repro.algorithms.pagerank import run_pagerank
from repro.core import lanes
from repro.core.channels import scatter_combine
from repro.graph import rmat

lanes.affinity_cores = lambda: 4  # two workers: each child gets 2 lanes
scatter_combine._BLOCK_EDGES = 32
graph = rmat(9, edge_factor=8, seed=31, directed=True)
kw = dict(variant="scatter", iterations=8, mode="bulk", num_workers=2, checkpoint_every=2)
data_s, res_s = run_pagerank(graph, **kw)
assert lanes._pool is not None  # the parent has lane threads when it forks
data_p, res_p = run_pagerank(graph, executor="process", {failures}**kw)
assert data_s.tobytes() == data_p.tobytes()
ms, mp = res_s.metrics, res_p.metrics
assert ms.channel_breakdown() == mp.channel_breakdown()
assert (ms.total_net_bytes, ms.total_messages) == (mp.total_net_bytes, mp.total_messages)
assert (ms.supersteps, ms.total_rounds) == (mp.supersteps, mp.total_rounds)
assert mp.num_failures == {num_failures}
print("ok")
"""


@pytest.mark.parametrize("failures", [False, True], ids=["failure-free", "respawned-child"])
def test_a_forked_child_makes_its_own_lane_threads(failures):
    """A sim run leaves lane threads in the parent; the process run after
    it forks children that inherit the pool object but none of its
    threads.  Each child (a respawned one too) must make its own, or its
    first two-lane scan waits forever."""
    script = _SIM_THEN_PROCESS.format(
        failures="failures=[(1, 3)], " if failures else "", num_failures=int(failures)
    )
    # its own process group: on a hang the workers it forked go with it
    run = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = run.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        out, err = run.communicate()
        pytest.fail(f"a sim run, then a process run, hung for 120 s:\n{out}{err}")
    assert run.returncode == 0 and out.strip() == "ok", out + err


def test_lane_threads_stay_within_the_cores(monkeypatch):
    """The shm mover's seam claims 65 536 cores; the lanes read the
    affinity set alone, so a run's threads stay near its size."""
    monkeypatch.setattr(scatter_combine, "_BLOCK_EDGES", 4)
    bound = lanes.affinity_cores() + 4
    peak = []
    run_lanes = lanes.run_lanes

    def counted(calls):
        run_lanes(calls)
        peak.append(threading.active_count())

    monkeypatch.setattr(scatter_combine, "run_lanes", counted)
    with mover("shm"):
        for executor in ("sim", "process"):
            WORKLOADS["pr-scatter"](num_workers=2, executor=executor)
            peak.append(threading.active_count())
    assert max(peak) <= bound, peak
