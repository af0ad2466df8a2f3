"""The pluggable graph-store seam (ARCHITECTURE.md §12).

A ``Graph`` must behave bit-identically whatever backs its CSR arrays:
in-memory heap arrays, an mmap store on disk, or a SharedMemory export
in a worker process.  This file pins that contract from every side:

* the CSR parity matrix — every benchmark dataset saved to an mmap
  store and reloaded, and (per shape class) streamed through the
  chunked edge-list loader, yields byte-identical ``csr_arrays()``;
* algorithm parity — PageRank / WCC / SSSP produce identical results,
  traffic, and counters over memory and mmap stores on the simulated
  and process backends (both transports), i.e. attach-by-path is
  indistinguishable from copy-into-shm;
* release — a mapped store hands back the pages a reader has copied
  (whole pages only, observable in the resident set), every other store
  ignores the call, and no run can tell: scatter / mirror PageRank through
  a failure and a restore, sim == process on every counter;
* bounded memory — process workers over a mapped store grow their
  resident set by less than the edge list, and on a hash partition keep
  no gathered copy of their rows;
* composition — apply_batch / EpochEngine run over an mmap base without
  ever writing to it (each batch builds the next graph in memory; the
  store files stay byte-identical);
* the builders — two-pass chunked CSR construction, disk generators,
  loaders, the degree partitioner, the lazy update stream, and the
  ``repro info`` / ``repro generate`` CLI over store directories.
"""

from __future__ import annotations

import json
import mmap
import os
import platform
import re
import sys
from unittest import mock

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.bench.datasets import DATASETS, EXTRA_DATASETS, load_dataset
from repro.core.channels import _edges
from repro.graph import rmat
from repro.graph.generators import erdos_renyi_to_disk, rmat_to_disk
from repro.graph.graph import VERTEX_ID, Graph
from repro.graph.io import (
    iter_update_stream,
    load_edgelist,
    load_edgelist_chunked,
    load_graph,
    load_update_stream,
    save_edgelist,
    save_update_stream,
)
from repro.graph.partition import degree_range_partition, range_partition
from repro.graph.store import (
    MemoryStore,
    MmapStore,
    SharedMemoryStore,
    build_mmap_store,
    is_mmap_store,
)
from repro.streaming import EpochEngine, WCCStream, synthesize_stream
from helpers import MOVERS, mover, rss_growth

ALL_DATASETS = sorted(DATASETS) + sorted(EXTRA_DATASETS)

#: one dataset per CSR shape class for the (slow, text-parsing) chunked
#: loader matrix: {directed, undirected} x {weighted, unweighted}
SHAPE_DATASETS = ["wikipedia", "facebook", "usa-road", "rmat24"]


def _assert_same_csr(a: Graph, b: Graph):
    ca, cb = a.csr_arrays(), b.csr_arrays()
    assert a.num_vertices == b.num_vertices
    assert a.directed == b.directed
    assert set(ca) == set(cb)
    for name in ca:
        np.testing.assert_array_equal(np.asarray(ca[name]), np.asarray(cb[name]))
    assert np.asarray(cb["indptr"]).dtype == np.int64
    assert np.asarray(cb["indices"]).dtype == VERTEX_ID


def _assert_identical_runs(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    ra, rb = a[-1], b[-1]
    assert ra.data == rb.data
    ma, mb = ra.metrics, rb.metrics
    assert ma.channel_breakdown() == mb.channel_breakdown()
    assert ma.supersteps == mb.supersteps
    assert ma.total_rounds == mb.total_rounds
    assert ma.total_net_bytes == mb.total_net_bytes
    assert ma.total_local_bytes == mb.total_local_bytes
    assert ma.total_messages == mb.total_messages


# ---------------------------------------------------------------------------
# store kinds
# ---------------------------------------------------------------------------
class TestStoreKinds:
    def test_graph_defaults_to_memory_store(self):
        g = load_dataset("wikipedia")
        assert isinstance(g.store, MemoryStore)
        assert g.store.kind == "memory"
        assert g.store.describe() is None  # nothing for a worker to attach
        fp = g.store.footprint()
        assert fp["resident_bytes"] > 0 and fp["on_disk_bytes"] == 0

    def test_mmap_store_footprint_and_descriptor(self, tmp_path):
        g = load_dataset("usa-road")
        store = MmapStore.save(g, tmp_path / "road")
        assert store.kind == "mmap"
        assert store.describe() == {"kind": "mmap", "path": str(tmp_path / "road")}
        fp = store.footprint()
        assert fp["resident_bytes"] == 0  # pages are the kernel's, not ours
        assert fp["on_disk_bytes"] >= g.indices.nbytes + g.indptr.nbytes
        assert is_mmap_store(tmp_path / "road")
        assert not is_mmap_store(tmp_path)

    def test_open_rejects_non_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MmapStore.open(tmp_path / "nothing")
        (tmp_path / "meta.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            MmapStore.open(tmp_path)

    @pytest.mark.parametrize("name", ALL_DATASETS)
    def test_save_open_round_trip_is_bit_identical(self, name, tmp_path):
        g = load_dataset(name)
        MmapStore.save(g, tmp_path / name)
        reopened = Graph.from_store(MmapStore.open(tmp_path / name))
        _assert_same_csr(g, reopened)
        assert reopened.weighted == g.weighted
        assert reopened.num_edges == g.num_edges

    def test_zero_edge_weighted_graph_round_trips(self, tmp_path):
        g = Graph(
            4,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.float64),
            directed=False,
        )
        MmapStore.save(g, tmp_path / "empty")
        back = Graph.from_store(MmapStore.open(tmp_path / "empty"))
        assert back.weighted and back.num_vertices == 4 and back.num_edges == 0


# ---------------------------------------------------------------------------
# release: a reader that has copied what it needs hands the pages back
# ---------------------------------------------------------------------------
def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


class _AdviceSpy:
    """Stands in for an ``np.memmap``'s ``_mmap``: records ``madvise``."""

    def __init__(self):
        self.calls = []

    def madvise(self, option, start, length):
        self.calls.append((option, start, length))


needs_madvise = pytest.mark.skipif(
    not hasattr(mmap, "MADV_DONTNEED"), reason="no madvise(MADV_DONTNEED) here"
)


class TestRelease:
    @staticmethod
    def _store(path, num_arcs=5000):
        indptr = np.array([0, num_arcs, num_arcs], dtype=np.int64)
        g = Graph.from_csr(2, indptr, np.arange(num_arcs, dtype=np.int64) % 2)
        return MmapStore.save(g, path)

    @staticmethod
    def _spy_on(store, name="indices"):
        """(spy, byte position of ``name``'s first element in its map)."""
        base = store._arrays[name]
        base._mmap = spy = _AdviceSpy()  # the array keeps the real map alive
        return spy, base.offset % mmap.ALLOCATIONGRANULARITY

    @needs_madvise
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_released_pages_leave_the_resident_set_and_read_back_equal(self, tmp_path):
        store = self._store(tmp_path, num_arcs=1 << 21)  # 8 MiB of int32 indices
        indices = store.arrays()["indices"]
        checksum = int(indices.sum())  # touches every page
        touched = _resident_bytes()
        store.release(indices)
        assert touched - _resident_bytes() >= indices.nbytes // 2
        assert int(indices.sum()) == checksum == 1 << 20
        np.testing.assert_array_equal(indices[:4], [0, 1, 0, 1])

    @needs_madvise
    def test_an_unaligned_view_releases_only_the_whole_pages_inside_it(self, tmp_path):
        store = self._store(tmp_path)
        spy, head = self._spy_on(store)
        assert head % mmap.PAGESIZE  # the .npy header: no element starts a page
        indices, page = store.arrays()["indices"], mmap.PAGESIZE
        size = indices.itemsize
        per_page = page // size
        view = indices[3 : 3 + 3 * per_page]  # three pages' worth, straddling four
        store.release(view)
        [(option, start, length)] = spy.calls
        assert option == mmap.MADV_DONTNEED
        assert start % page == 0 and length == 2 * page
        lo = head + 3 * size
        assert lo <= start < lo + page and start + length <= lo + view.nbytes
        # nothing when no whole page fits, or the view is not one stretch of bytes
        store.release(indices[3 : 3 + per_page])
        store.release(indices[:0])
        store.release(indices[::2])
        assert len(spy.calls) == 1
        # the whole array: everything but the partial pages at its two ends
        store.release(indices)
        assert spy.calls[1][1] == page
        assert spy.calls[1][2] == (head + indices.nbytes) // page * page - page

    @needs_madvise
    def test_heap_arrays_other_stores_and_a_closed_store_release_nothing(self, tmp_path):
        store = self._store(tmp_path)
        spies = [self._spy_on(store, name)[0] for name in ("indptr", "indices")]
        indices = store.arrays()["indices"]
        store.release(np.asarray(indices).copy())
        store.release(np.arange(10))
        heap = np.arange(10, dtype=np.int64)
        MemoryStore(2, True, np.array([0, 5, 10]), heap).release(heap)
        SharedMemoryStore(2, True, {"indices": heap}, []).release(heap)
        store.close()
        store.release(indices)
        assert [spy.calls for spy in spies] == [[], []]
        assert indices[1] == 1  # the caller's view outlives the closed store


# ---------------------------------------------------------------------------
# chunked builders and loaders
# ---------------------------------------------------------------------------
class TestChunkedLoader:
    @pytest.mark.parametrize("name", SHAPE_DATASETS)
    def test_chunked_loader_matches_eager(self, name, tmp_path):
        g = load_dataset(name)
        path = tmp_path / f"{name}.txt"
        save_edgelist(g, path)
        eager = load_edgelist(path)
        # small chunks force multi-chunk builds with uneven final chunks
        chunk = max(1, g.num_input_edges // 7)
        chunked = load_edgelist_chunked(path, tmp_path / name, chunk_edges=chunk)
        _assert_same_csr(eager, chunked)
        assert chunked.store.kind == "mmap"

    def test_gz_edgelist_loads_chunked(self, tmp_path):
        g = load_dataset("usa-road")
        path = tmp_path / "road.txt.gz"
        save_edgelist(g, path)
        chunked = load_edgelist_chunked(path, tmp_path / "road", chunk_edges=4096)
        _assert_same_csr(load_edgelist(path), chunked)

    def test_mixed_weight_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2.5\n1 2\n")
        with pytest.raises(ValueError, match="some edges have weights"):
            load_edgelist_chunked(path, tmp_path / "bad")

    def test_load_graph_dispatches_on_form(self, tmp_path):
        g = load_dataset("usa-road")
        store_dir = tmp_path / "store"
        MmapStore.save(g, store_dir)
        as_store = load_graph(store_dir)
        assert as_store.store.kind == "mmap"
        _assert_same_csr(g, as_store)
        text = tmp_path / "g.txt"
        save_edgelist(g, text)
        assert load_graph(text).store.kind == "memory"

    def test_build_rejects_negative_ids(self, tmp_path):
        def chunks():
            yield (
                np.array([0, -1], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                None,
            )

        with pytest.raises(ValueError, match="out of range"):
            build_mmap_store(tmp_path / "neg", chunks, num_vertices=4)

    def test_build_rejects_unstable_chunk_factory(self, tmp_path):
        calls = {"n": 0}

        def chunks():
            calls["n"] += 1
            src = 0 if calls["n"] == 1 else 1  # different graph on replay
            yield (
                np.array([src], dtype=np.int64),
                np.array([2], dtype=np.int64),
                None,
            )

        with pytest.raises(RuntimeError, match="replay"):
            build_mmap_store(tmp_path / "flap", chunks, num_vertices=4)


class TestDiskGenerators:
    def test_rmat_to_disk_is_deterministic(self, tmp_path):
        a = rmat_to_disk(tmp_path / "a", scale=10, edge_factor=6, seed=3)
        b = rmat_to_disk(tmp_path / "b", scale=10, edge_factor=6, seed=3)
        _assert_same_csr(a, b)
        assert a.store.kind == "mmap"
        assert a.num_vertices == 1 << 10

    def test_rmat_to_disk_chunking_is_part_of_identity(self, tmp_path):
        # per-chunk RNG streams: the same seed at a different chunk size
        # is a *different* graph — documented, so pin it
        a = rmat_to_disk(tmp_path / "a", scale=9, edge_factor=6, seed=3)
        b = rmat_to_disk(
            tmp_path / "b", scale=9, edge_factor=6, seed=3, chunk_edges=1 << 10
        )
        assert not np.array_equal(a.indices, b.indices)

    def test_rmat_to_disk_weighted_undirected(self, tmp_path):
        g = rmat_to_disk(
            tmp_path / "g", scale=9, edge_factor=4, seed=1,
            directed=False, weighted=True,
        )
        assert not g.directed and g.weighted
        assert g.weights.size == g.indptr[-1]
        assert (g.weights >= 1.0).all() and (g.weights <= 100.0).all()

    def test_erdos_renyi_to_disk_shape(self, tmp_path):
        n = 2000
        g = erdos_renyi_to_disk(tmp_path / "er", n, avg_degree=8.0, seed=5)
        assert g.num_vertices == n and g.store.kind == "mmap"
        assert 0.8 * 8.0 * n < g.num_edges < 1.2 * 8.0 * n


def _legacy_store(graph, path, dtype):
    """``graph`` saved as an older tree saved it: ``indices.npy`` in
    ``dtype``, and ``meta.json`` naming it in ``index_dtype``."""
    path.mkdir(parents=True)
    for name, arr in graph.csr_arrays().items():
        np.save(path / f"{name}.npy", arr.astype(dtype) if name == "indices" else arr)
    meta = {
        "format": "repro-csr", "version": 1, "num_vertices": graph.num_vertices,
        "num_arcs": graph.num_edges, "directed": graph.directed,
        "weighted": graph.weighted, "index_dtype": np.dtype(dtype).name,
    }  # fmt: skip
    (path / "meta.json").write_text(json.dumps(meta))
    return path


_LEGACY_RUNS = {
    "pagerank": (
        lambda g, **kw: run_pagerank(g, variant="scatter", iterations=6, mode="bulk", **kw),
        dict(directed=True),
    ),
    "sv": (lambda g, **kw: run_sv(g, variant="both", **kw), dict(directed=False)),
}


@pytest.fixture(scope="module", params=sorted(_LEGACY_RUNS))
def legacy_stores(request, tmp_path_factory):
    """(run, {dtype name: graph over a store of that width}) for one
    algorithm: today's int32 store and the int64 and uint32 stores an
    older tree wrote, of one graph."""
    run, shape = _LEGACY_RUNS[request.param]
    graph = rmat(10, edge_factor=6, seed=41, **shape)
    root = tmp_path_factory.mktemp(f"legacy-{request.param}")
    graphs = {"int32": load_graph(MmapStore.save(graph, root / "int32").path)}
    for dtype in (np.int64, np.uint32):
        name = np.dtype(dtype).name
        graphs[name] = load_graph(_legacy_store(graph, root / name, dtype))
    return run, graphs


class TestVertexIdWidth:
    """Every store this tree writes holds ``int32`` ids; a store an older
    tree wrote (``int64``, or ``uint32`` with its ``index_dtype`` meta)
    is mapped as it is on disk and runs bit-identically."""

    def test_written_stores_hold_int32_ids_and_no_index_dtype(self, tmp_path):
        g = rmat(9, edge_factor=6, seed=3)
        saved = MmapStore.save(g, tmp_path / "saved")
        built = rmat_to_disk(tmp_path / "built", scale=9, edge_factor=6, seed=3)
        for store in (saved, built.store):
            assert np.load(store.path / "indices.npy", mmap_mode="r").dtype == VERTEX_ID
            assert "index_dtype" not in json.loads((store.path / "meta.json").read_text())
        assert saved.footprint()["on_disk_bytes"] < (
            g.indptr.nbytes + g.indices.size * 8
        )  # fmt: skip

    def test_legacy_stores_are_read_in_place(self, legacy_stores):
        _, graphs = legacy_stores
        for name, graph in graphs.items():
            assert graph.indices.dtype == name
            mapped = graph.store.arrays()["indices"]
            assert isinstance(mapped, np.memmap) and np.shares_memory(graph.indices, mapped)
            assert graph.store.footprint()["resident_bytes"] == 0
            np.testing.assert_array_equal(graph.indices, graphs["int32"].indices)

    @pytest.mark.parametrize("legacy", ["int64", "uint32"])
    def test_legacy_stores_run_bit_identically(self, legacy_stores, legacy):
        run, graphs = legacy_stores
        new = run(graphs["int32"], num_workers=2)
        _assert_identical_runs(new, run(graphs[legacy], num_workers=2))
        for m in MOVERS:
            with mover(m):
                proc = run(graphs[legacy], num_workers=2, executor="process")
            _assert_identical_runs(new, proc)

    def test_more_vertices_than_int32_ids_refused(self, tmp_path):
        with pytest.raises(ValueError, match="at most 2147483648"):
            build_mmap_store(tmp_path / "s", lambda: iter(()), num_vertices=(1 << 31) + 1)


class TestMalformedStore:
    """``MmapStore.open`` refuses a store whose files disagree with their
    headers, with ``meta.json`` or with each other, naming its path; no
    check reads the arrays' content."""

    @staticmethod
    def _store(tmp_path):
        return MmapStore.save(rmat(6, edge_factor=4, seed=1), tmp_path / "s").path

    @staticmethod
    def _edit_meta(path, **fields):
        meta = json.loads((path / "meta.json").read_text())
        meta.update(fields)
        (path / "meta.json").write_text(json.dumps(meta))

    def test_truncated_npy(self, tmp_path):
        path = self._store(tmp_path)
        data = (path / "indices.npy").read_bytes()
        (path / "indices.npy").write_bytes(data[: len(data) - 12])
        with pytest.raises(ValueError, match=re.escape(f"{path / 'indices.npy'}: ") + ".*announced"):
            MmapStore.open(path)

    def test_not_an_npy_file(self, tmp_path):
        path = self._store(tmp_path)
        (path / "indptr.npy").write_bytes(b"not an array")
        with pytest.raises(ValueError, match=re.escape(f"{path / 'indptr.npy'}: not a readable")):
            MmapStore.open(path)

    def test_num_arcs_disagrees_with_indices(self, tmp_path):
        path = self._store(tmp_path)
        arcs = json.loads((path / "meta.json").read_text())["num_arcs"]
        self._edit_meta(path, num_arcs=arcs + 5)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + f".*num_arcs says {arcs + 5}"):
            MmapStore.open(path)

    def test_indptr_length_disagrees_with_num_vertices(self, tmp_path):
        path = self._store(tmp_path)
        self._edit_meta(path, num_vertices=65)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + r".*not num_vertices \+ 1 = 66"):
            MmapStore.open(path)

    def test_indptr_end_disagrees_with_indices(self, tmp_path):
        path = self._store(tmp_path)
        indptr = np.load(path / "indptr.npy")
        indptr[-1] -= 1
        np.save(path / "indptr.npy", indptr)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*indptr.npy ends at"):
            MmapStore.open(path)

    def test_indices_that_are_not_integers(self, tmp_path):
        path = self._store(tmp_path)
        indices = np.load(path / "indices.npy")
        np.save(path / "indices.npy", indices.astype(np.float64))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*holds float64, not vertex ids"):
            MmapStore.open(path)


class TestDegreePartition:
    def test_balances_arcs_without_edges(self):
        g = load_dataset("wikipedia")  # power-law: range partition skews
        for workers in (2, 4, 8):
            owner = degree_range_partition(g, workers)
            assert owner.dtype == np.uint8  # one byte a vertex up to 256 workers
            assert (np.diff(owner) >= 0).all()  # contiguous vertex ranges
            assert owner.min() >= 0 and owner.max() <= workers - 1
            arcs = np.diff(g.indptr)
            shares = np.bincount(owner, weights=arcs, minlength=workers)
            # skew bound: range_partition on this graph is far worse
            assert shares.max() <= 1.25 * arcs.sum() / workers

    def test_zero_arc_graph_falls_back_to_range(self):
        g = Graph(8, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(
            degree_range_partition(g, 4), range_partition(8, 4)
        )


# ---------------------------------------------------------------------------
# algorithm parity: memory vs mmap x sim vs process x pipe vs shm
# ---------------------------------------------------------------------------
_ALGOS = {
    "pagerank": lambda g, **kw: run_pagerank(
        g, variant="scatter", iterations=6, mode="bulk", **kw
    ),
    "wcc": lambda g, **kw: run_wcc(g, variant="basic", mode="bulk", **kw),
    "sssp": lambda g, **kw: run_sssp(g, variant="basic", mode="bulk", **kw),
}


@pytest.fixture(scope="module")
def weighted_pair(tmp_path_factory):
    mem = rmat(9, edge_factor=6, seed=31, directed=True, weighted=True)
    store_dir = tmp_path_factory.mktemp("stores") / "g"
    MmapStore.save(mem, store_dir)
    return mem, Graph.from_store(MmapStore.open(store_dir))


@pytest.mark.parametrize("algo", sorted(_ALGOS))
class TestAlgorithmParity:
    def test_sim_memory_vs_mmap(self, algo, weighted_pair):
        mem, mapped = weighted_pair
        run = _ALGOS[algo]
        _assert_identical_runs(
            run(mem, num_workers=2), run(mapped, num_workers=2)
        )

    def test_process_over_mmap_matches_sim(self, algo, transport, weighted_pair):
        """The executor attaches the store by path (no shm copy of the
        graph) and still reproduces the simulated run bit for bit."""
        mem, mapped = weighted_pair
        assert mapped.store.describe()["kind"] == "mmap"
        run = _ALGOS[algo]
        sim = run(mem, num_workers=2)
        proc = run(
            mapped, num_workers=2, executor="process"
        )
        _assert_identical_runs(sim, proc)


@pytest.fixture(scope="module")
def released_runs(tmp_path_factory):
    """Scatter and mirror PageRank over one mapped store, degree-range
    partitioned (each worker's rows are views of the map): the failure-free
    run per variant, and how often it released a block of the store."""
    store_dir = tmp_path_factory.mktemp("released") / "g"
    MmapStore.save(rmat(9, edge_factor=6, seed=17), store_dir)
    graph = load_graph(store_dir)
    owner = degree_range_partition(graph, 2)

    def run(variant, **kw):
        return run_pagerank(
            graph, variant=variant, iterations=6, mode="bulk", num_workers=2,
            partition=owner, **kw,
        )  # fmt: skip

    def counting(variant, **kw):
        """(the run's outcome, release calls it made) in this process,
        with blocks small enough that every build streams several."""
        real = graph.store.release
        with (
            mock.patch.object(_edges, "_BLOCK_EDGES", 64),
            mock.patch.object(graph.store, "release", side_effect=real) as release,
        ):
            return run(variant, **kw), release.call_count

    return run, counting, {v: counting(v) for v in ("scatter", "mirror")}


@pytest.mark.parametrize("recovery", ["rollback", "confined"])
@pytest.mark.parametrize("variant", ["scatter", "mirror"])
class TestReleasedStoreParity:
    """Handing pages back changes no bit anywhere: sim == process x
    {shm, pipe} on data, per-channel breakdown, net and checkpoint bytes,
    through a failure whose restore rebuilds from rows released before."""

    def test_recovery_rereads_released_rows_on_every_backend(
        self, released_runs, variant, recovery
    ):
        run, counting, baselines = released_runs
        base, base_releases = baselines[variant]
        assert base_releases >= 2 * 3  # two builds of several blocks each
        ft = dict(checkpoint_every=2, failures=[(1, 3)], recovery=recovery)
        sim, releases = counting(variant, **ft)
        assert releases > base_releases  # the restored channel streamed them again
        _assert_identical_runs(base, sim)
        for m in MOVERS:
            with mover(m):
                proc = run(variant, executor="process", **ft)
            _assert_identical_runs(sim, proc)
            sm, pm = sim[-1].metrics, proc[-1].metrics
            assert pm.num_failures == sm.num_failures == 1
            assert pm.checkpoint_bytes == sm.checkpoint_bytes > 0
            assert pm.recovery_bytes == sm.recovery_bytes > 0


# ---------------------------------------------------------------------------
# bounded memory: a worker over a mapped store never holds the edge list
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="rss_bytes reads /proc")
def test_process_workers_over_mmap_grow_by_less_than_the_edge_list(tmp_path):
    """The owned adjacency slice plus per-superstep message temporaries
    stay under the full edge list (16 bytes an arc; 0.66 of it on seeds
    7-9 with this test run on its own); a worker that copies the CSR
    indices out of the map reads 1.5.  Do not shrink the graph: below
    scale 16 fixed per-worker costs dominate and the bound stops holding."""
    workers = 4
    graph = rmat_to_disk(tmp_path / "g", scale=16, edge_factor=20, seed=7)
    growth = rss_growth(
        workers,
        lambda live: run_pagerank(
            graph, variant="scatter", iterations=10, mode="bulk", num_workers=workers,
            partition=degree_range_partition(graph, workers), executor="process",
            live=live,
        ),
    )  # fmt: skip
    assert max(growth.values()) < graph.num_edges * 16


#: bulk S-V ``both`` on a hash partition over an mmap store, 2 process
#: workers; prints each worker's resident growth per local edge
_SV_GROWTH = """
import ctypes, json, sys
# a fixed M_MMAP_THRESHOLD (-3): every array of 128 KiB or more gets its
# own mapping, here and in the forked workers, and leaves the resident set
# when freed
mallopt = ctypes.CDLL(None).mallopt
mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
if mallopt(-3, 128 * 1024) != 1:
    sys.exit("mallopt(M_MMAP_THRESHOLD) refused")
import numpy as np
from helpers import rss_growth
from repro.algorithms.sv import run_sv
from repro.graph.generators import rmat_to_disk
from repro.graph.partition import hash_partition

graph = rmat_to_disk(sys.argv[1], scale=16, edge_factor=16, seed=7, directed=False)
owner = hash_partition(graph.num_vertices, 2)
growth = rss_growth(2, lambda live: run_sv(
    graph, variant="both", num_workers=2, partition=owner, executor="process", live=live))
local_edges = np.bincount(owner, weights=np.diff(graph.indptr), minlength=2)
print(json.dumps([growth[w] / local_edges[w] for w in sorted(growth)]))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm") or platform.libc_ver()[0] != "glibc",
    reason="rss_bytes reads /proc; the fixed mmap threshold is glibc's mallopt",
)
def test_hash_partitioned_sv_over_mmap_keeps_no_copy_of_its_rows(tmp_path):
    """The scatter channel's build streams a hash-partitioned worker's
    rows out of the map a block at a time, and no gathered copy of them
    outlives it: each worker grows by ≈15 bytes a local edge (its 8-byte
    ``_seg_edge_src`` and per-vertex state); with the gathered
    ``LocalCSR.indices`` cached, as before, it read ≈23.

    It runs in a fresh interpreter with a fixed malloc mmap threshold: in a
    long-lived process the forked workers reuse whatever the parent's heap
    has free, and the same run read anywhere from 3 to 22."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", _SV_GROWTH, str(tmp_path / "g")],
        capture_output=True, text=True, env=env, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    assert max(json.loads(done.stdout.splitlines()[-1])) < 19


# ---------------------------------------------------------------------------
# streaming over an immutable mmap base
# ---------------------------------------------------------------------------
class TestStreamingOverMmap:
    def test_epoch_engine_runs_identically_and_leaves_base_untouched(
        self, tmp_path
    ):
        mem = rmat(8, edge_factor=4, seed=9, directed=True)
        store_dir = tmp_path / "base"
        MmapStore.save(mem, store_dir)
        mapped = Graph.from_store(MmapStore.open(store_dir))
        before = {
            p.name: p.read_bytes() for p in store_dir.iterdir() if p.is_file()
        }
        batches = synthesize_stream(
            mem, num_epochs=3, insertions_per_epoch=40,
            deletions_per_epoch=25, seed=11,
        )

        def epochs(graph):
            eng = EpochEngine(graph, WCCStream(), num_workers=2)
            return [eng.bootstrap()] + eng.run(batches)

        for s, m in zip(epochs(mem), epochs(mapped)):
            assert m.data == s.data
            assert m.refresh == s.refresh
            assert m.seeds == s.seeds and m.affected == s.affected
            sm, mm = s.result.metrics, m.result.metrics
            assert mm.channel_breakdown() == sm.channel_breakdown()
            assert mm.total_net_bytes == sm.total_net_bytes
            assert mm.total_messages == sm.total_messages

        # each batch builds the next graph in memory; the base store on
        # disk is immutable
        after = {
            p.name: p.read_bytes() for p in store_dir.iterdir() if p.is_file()
        }
        assert after == before


# ---------------------------------------------------------------------------
# the lazy update stream
# ---------------------------------------------------------------------------
class TestLazyUpdateStream:
    def _stream_file(self, tmp_path):
        g = rmat(8, edge_factor=4, seed=9, directed=True)
        batches = synthesize_stream(
            g, num_epochs=4, insertions_per_epoch=20,
            deletions_per_epoch=10, seed=3,
        )
        path = tmp_path / "updates.txt"
        save_update_stream(batches, path)
        return path

    def _assert_same_batches(self, lazy, eager):
        assert len(lazy) == len(eager)
        for lb, eb in zip(lazy, eager):
            assert lb.timestamp == eb.timestamp
            np.testing.assert_array_equal(lb.insert_src, eb.insert_src)
            np.testing.assert_array_equal(lb.insert_dst, eb.insert_dst)
            np.testing.assert_array_equal(lb.delete_src, eb.delete_src)
            np.testing.assert_array_equal(lb.delete_dst, eb.delete_dst)

    @pytest.mark.parametrize("epoch_size", [None, 7])
    def test_lazy_matches_eager(self, tmp_path, epoch_size):
        path = self._stream_file(tmp_path)
        lazy = iter_update_stream(path, epoch_size=epoch_size)
        assert not isinstance(lazy, list)  # a generator, not a loaded list
        self._assert_same_batches(
            list(lazy), load_update_stream(path, epoch_size=epoch_size)
        )

    def test_iter_is_the_lazy_loader(self, tmp_path):
        path = self._stream_file(tmp_path)
        self._assert_same_batches(
            list(iter_update_stream(path, epoch_size=5)),
            load_update_stream(path, epoch_size=5),
        )

    def test_non_contiguous_timestamps_rejected_lazily(self, tmp_path):
        path = tmp_path / "revisit.txt"
        path.write_text("0 + 0 1\n1 + 1 2\n0 + 2 3\n")
        # the eager loader merges the revisited timestamp ...
        merged = load_update_stream(path)
        assert len(merged) == 2 and merged[0].insert_src.size == 2
        # ... the lazy one cannot without buffering the file, so it refuses
        with pytest.raises(ValueError, match="reappears"):
            list(iter_update_stream(path))


# ---------------------------------------------------------------------------
# CLI over stores
# ---------------------------------------------------------------------------
class TestStoreCLI:
    def test_generate_then_info_json(self, tmp_path, capsys):
        out = tmp_path / "g"
        rc = cli_main(
            ["generate", "rmat", str(out), "--scale", "9", "--edge-factor",
             "4", "--seed", "3"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = cli_main(["info", str(out), "--json"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["store"] == "mmap"
        assert info["vertices"] == 512
        assert info["resident_mb"] == 0.0 and info["on_disk_mb"] > 0
        assert info["path"] == str(out)

    def test_info_on_dataset_name(self, capsys):
        rc = cli_main(["info", "usa-road"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "memory" in text and "VALUE" in text
        assert "usa-road" in text

    def test_run_over_store_with_degree_partition(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert cli_main(
            ["generate", "rmat", str(out), "--scale", "9", "--edge-factor",
             "4", "--seed", "3"]
        ) == 0
        capsys.readouterr()
        rc = cli_main(
            ["run", "wcc", "--graph", str(out), "--workers", "2",
             "--partition", "degree", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["supersteps"] >= 1
