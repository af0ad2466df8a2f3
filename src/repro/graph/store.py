"""Pluggable CSR storage backends.

A :class:`GraphStore` answers one question — *where do a graph's CSR
arrays live?* — so the same read-only :class:`~repro.graph.graph.Graph`
API can be served by three different homes:

``memory``
    Plain in-process ndarrays (the historical behavior, and still the
    default for every constructor).
``mmap``
    A directory on disk holding ``meta.json`` plus one ``.npy`` file per
    CSR array, opened with ``numpy`` memory-mapping.  Pages fault in on
    demand, the OS page cache is shared between every process that maps
    the same files, and nothing is ever loaded eagerly — this is how
    graphs larger than RAM run at all.
``shm``
    POSIX shared-memory segments (the process backend's export).  Only
    worker processes hold this kind; the parent keeps the original store.

The executor picks the cheapest transport per store: a graph whose store
is already ``mmap`` ships to worker processes as just a *path*
(attach-by-path — the kernel page cache makes the arrays physically
shared), while a ``memory`` graph is copied once into shared memory.

Stores are deliberately ignorant of :class:`Graph` (``graph.py`` imports
this module, not the other way around); anything that needs a graph
object takes it duck-typed.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "GraphStore",
    "MemoryStore",
    "MmapStore",
    "SharedMemoryStore",
    "attach_store",
    "build_mmap_store",
    "is_mmap_store",
    "INDEX_DTYPES",
    "META_NAME",
]

META_NAME = "meta.json"
_FORMAT = "repro-csr"
_VERSION = 1

#: on-disk dtypes accepted for ``indices.npy`` (``meta.json``'s
#: ``index_dtype`` field; absent means ``int64``).  ``uint32`` halves the
#: dominant on-disk array for graphs under 2**32 vertices; readers widen
#: back to int64 on attach so everything downstream sees one dtype.
INDEX_DTYPES = {"int64": np.int64, "uint32": np.uint32}

# (src, dst, weights-or-None) int64/int64/float64 arrays of equal length
EdgeChunk = tuple[np.ndarray, np.ndarray, "np.ndarray | None"]


class GraphStore:
    """Base class: a home for one graph's CSR arrays.

    Concrete stores expose ``kind``, ``num_vertices``, ``directed``,
    :meth:`arrays` (the live CSR views, never copies) and
    :meth:`footprint`.  :meth:`describe` returns a small picklable
    descriptor when the store can be re-attached by reference from
    another process (mmap: yes, by path; memory: no — it must be copied).
    """

    kind = "abstract"

    num_vertices: int
    directed: bool

    def arrays(self) -> dict[str, np.ndarray]:
        """``{"indptr", "indices"[, "weights"]}`` — live views, read-only."""
        raise NotImplementedError

    def describe(self) -> dict | None:
        """Picklable attach-by-reference descriptor, or ``None`` when the
        arrays can only reach another process by copy."""
        return None

    @property
    def weighted(self) -> bool:
        return "weights" in self.arrays()

    @property
    def num_arcs(self) -> int:
        return int(self.arrays()["indices"].size)

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in self.arrays().values()))

    def footprint(self) -> dict[str, int]:
        """``{"resident_bytes", "on_disk_bytes"}`` — what the arrays cost
        in this process's heap vs on disk.  mmap pages are demand-loaded
        and handed back by :meth:`release`, so they count as on-disk, not
        resident."""
        return {"resident_bytes": self.nbytes, "on_disk_bytes": 0}

    def release(self, view: np.ndarray) -> None:
        """A reader that has copied what it needs of ``view`` (one of
        :meth:`arrays`, or a contiguous slice of one) says so: a mapped
        store hands the pages back to the kernel, every other store does
        nothing.  Only residency depends on it — a released page reads the
        same the next time it is touched."""

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemoryStore(GraphStore):
    """CSR arrays on the process heap — the default store."""

    kind = "memory"

    def __init__(
        self,
        num_vertices: int,
        directed: bool,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.directed = bool(directed)
        self._arrays = {"indptr": indptr, "indices": indices}
        if weights is not None:
            self._arrays["weights"] = weights

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self._arrays)


class MmapStore(GraphStore):
    """CSR arrays in a directory of ``.npy`` files, memory-mapped.

    Layout::

        <path>/meta.json      format/version/num_vertices/num_arcs/...
        <path>/indptr.npy     int64[V+1]
        <path>/indices.npy    int64[A]
        <path>/weights.npy    float64[A]     (weighted graphs only)

    The files are opened read-only (``mmap_mode="r"``); the store never
    writes to an existing directory after :meth:`save`/``build`` finish,
    which is what lets a stream (:func:`~repro.streaming.delta.apply_batch`)
    start from an mmap-backed graph: each batch builds the next graph in memory
    and the files are never touched.
    """

    kind = "mmap"

    def __init__(self, path: Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        self.path = Path(path)
        self.meta = meta
        self.num_vertices = int(meta["num_vertices"])
        self.directed = bool(meta["directed"])
        self._arrays = arrays
        self._widened: np.ndarray | None = None  # int64 copy of narrow indices

    # -- open / save ---------------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike) -> "MmapStore":
        path = Path(path)
        meta_path = path / META_NAME
        if not meta_path.is_file():
            raise FileNotFoundError(f"{path} is not a graph store (no {META_NAME})")
        meta = json.loads(meta_path.read_text())
        if meta.get("format") != _FORMAT:
            raise ValueError(f"{path}: unknown store format {meta.get('format')!r}")
        if int(meta.get("version", 0)) > _VERSION:
            raise ValueError(
                f"{path}: store version {meta['version']} is newer than "
                f"this reader (max {_VERSION})"
            )
        index_dtype = meta.get("index_dtype", "int64")
        if index_dtype not in INDEX_DTYPES:
            raise ValueError(
                f"{path}: unknown index_dtype {index_dtype!r}; "
                f"expected one of {sorted(INDEX_DTYPES)}"
            )
        names = ["indptr", "indices"] + (["weights"] if meta["weighted"] else [])
        arrays = {name: _load_mapped(path / f"{name}.npy") for name in names}
        if arrays["indices"].dtype != INDEX_DTYPES[index_dtype]:
            raise ValueError(
                f"{path}: indices.npy dtype {arrays['indices'].dtype} does "
                f"not match meta index_dtype {index_dtype!r}"
            )
        return cls(path, meta, arrays)

    @classmethod
    def save(
        cls, graph, path: str | os.PathLike, *, index_dtype: str = "int64"
    ) -> "MmapStore":
        """Write ``graph``'s CSR arrays to ``path`` and open the result.

        ``graph`` is duck-typed: anything with ``num_vertices``,
        ``directed`` and ``csr_arrays()`` works.  ``index_dtype="uint32"``
        stores ``indices.npy`` narrow (half the disk for the dominant
        array); see :data:`INDEX_DTYPES`.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        dtype = _check_index_dtype(index_dtype, graph.num_vertices)
        csr = graph.csr_arrays()
        for name, arr in csr.items():
            np.save(path / f"{name}.npy", arr.astype(dtype) if name == "indices" else arr)
        _write_meta(
            path,
            num_vertices=graph.num_vertices,
            num_arcs=int(csr["indices"].size),
            directed=bool(graph.directed),
            weighted="weights" in csr,
            index_dtype=index_dtype,
        )
        return cls.open(path)

    # -- GraphStore API ------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        out = dict(self._arrays)
        idx = out["indices"]
        if idx.dtype != np.int64:
            # widen narrow on-disk indices exactly once; every consumer
            # (engine kernels, partitioners, exports) assumes int64
            if self._widened is None:
                self._widened = np.ascontiguousarray(idx, dtype=np.int64)
                self.release(idx)
            out["indices"] = self._widened
        return out

    def describe(self) -> dict:
        return {"kind": "mmap", "path": str(self.path)}

    def footprint(self) -> dict[str, int]:
        on_disk = sum(
            (self.path / f"{name}.npy").stat().st_size for name in self._arrays
        )
        # the mapped arrays are file-backed pages, not heap; only a
        # widened copy of narrow indices (when one was made) is resident
        resident = self._widened.nbytes if self._widened is not None else 0
        return {"resident_bytes": int(resident), "on_disk_bytes": int(on_disk)}

    def release(self, view: np.ndarray) -> None:
        """Advise away the whole pages inside ``view`` (``MADV_DONTNEED``;
        they re-fault from the page cache).  A no-op where the platform
        has no ``madvise``, and for a ``view`` that is not a contiguous
        part of a mapped array — a heap copy, the widened indices."""
        if not (hasattr(mmap, "MADV_DONTNEED") and view.flags.c_contiguous):
            return
        first = view.__array_interface__["data"][0]
        for base in self._arrays.values():
            mapped = getattr(base, "_mmap", None)  # np.memmap's own handle
            lo = first - base.__array_interface__["data"][0]
            if mapped is None or not 0 <= lo <= base.nbytes - view.nbytes:
                continue
            # madvise counts from the start of the map, a page boundary
            # that np.memmap put this far in front of the array's data
            lo += base.offset % mmap.ALLOCATIONGRANULARITY
            start = -(-lo // mmap.PAGESIZE) * mmap.PAGESIZE
            length = (lo + view.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE - start
            if length > 0:
                mapped.madvise(mmap.MADV_DONTNEED, start, length)
            return

    def close(self) -> None:
        # drop the mmap views so the underlying maps can be unmapped; the
        # files themselves are left in place
        self._arrays = {}
        self._widened = None


class SharedMemoryStore(GraphStore):
    """CSR arrays attached from POSIX shared-memory segments.

    Only ever constructed inside worker processes (the parent's
    :class:`~repro.runtime.parallel.shm.SharedArrayExport` owns the
    export side).  Holds the segment handles so the maps stay valid for
    the store's lifetime; :meth:`close` releases them.
    """

    kind = "shm"

    def __init__(
        self,
        num_vertices: int,
        directed: bool,
        arrays: dict[str, np.ndarray],
        segments: list,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.directed = bool(directed)
        self._arrays = arrays
        self._segments = segments

    @classmethod
    def attach(cls, desc: dict, *, unregister: bool = True) -> "SharedMemoryStore":
        from repro.runtime.parallel.shm import attach_array

        arrays: dict[str, np.ndarray] = {}
        segments: list = []
        for name in ("indptr", "indices", "weights"):
            spec = desc.get(name)
            if spec is None:
                continue
            arr, seg = attach_array(spec, unregister)
            arrays[name] = arr
            segments.append(seg)
        return cls(desc["num_vertices"], desc["directed"], arrays, segments)

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self._arrays)

    def footprint(self) -> dict[str, int]:
        # shared pages: resident once machine-wide, not per attaching process
        return {"resident_bytes": self.nbytes, "on_disk_bytes": 0}

    def close(self) -> None:
        self._arrays = {}
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # views still alive; segment dies with process
                pass
        self._segments = []


def is_mmap_store(path: str | os.PathLike) -> bool:
    """True when ``path`` is a directory with a store ``meta.json``."""
    return Path(path).is_dir() and (Path(path) / META_NAME).is_file()


def attach_store(desc: dict, *, unregister: bool = True) -> GraphStore:
    """Re-create a store in a worker process from its wire descriptor.

    ``{"kind": "mmap", "path": ...}`` re-opens the files (attach-by-path:
    no bytes cross the process boundary, the page cache is the share);
    ``{"kind": "shm", ...}`` maps the parent's exported segments.
    """
    kind = desc.get("kind")
    if kind == "mmap":
        return MmapStore.open(desc["path"])
    if kind == "shm":
        return SharedMemoryStore.attach(desc, unregister=unregister)
    raise ValueError(f"unknown graph store descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# two-pass chunked CSR build
# ---------------------------------------------------------------------------


def build_mmap_store(
    path: str | os.PathLike,
    chunks: Callable[[], Iterable[EdgeChunk]],
    *,
    num_vertices: int | None = None,
    directed: bool = True,
    weighted: bool = False,
    index_dtype: str = "int64",
) -> MmapStore:
    """Build an on-disk CSR store from a re-playable stream of edge chunks.

    ``chunks()`` must return a fresh iterator over ``(src, dst, weights)``
    chunks each time it is called — the build makes one counting pass and
    one (directed) or two (undirected) scatter passes, so the factory is
    invoked two or three times and must replay the *same* chunks in the
    *same* order.  Peak memory is O(V) for the degree/cursor arrays plus
    one chunk; the edge list itself is never materialized.

    Arc ordering is bit-identical to the in-memory
    :class:`~repro.graph.graph.Graph` constructor: arcs of one source
    vertex keep input order, and undirected graphs store all forward arcs
    (file order, self-loops included) followed by all backward arcs (file
    order, self-loops dropped) — which is exactly what the forward-then-
    backward scatter passes produce.

    ``index_dtype="uint32"`` writes ``indices.npy`` narrow (half the
    disk/page-cache footprint of the dominant array); the store widens
    back to int64 when attached.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if index_dtype not in INDEX_DTYPES:
        raise ValueError(
            f"index_dtype must be one of {sorted(INDEX_DTYPES)}, got {index_dtype!r}"
        )

    # -- pass 1: count out-degrees (and find V when not given) ---------
    counts = np.zeros((num_vertices or 0) + 1, dtype=np.int64)
    max_id = -1
    num_arcs = 0
    for src, dst, w in chunks():
        src, dst, w = _check_chunk(src, dst, w, weighted)
        if src.size == 0:
            continue
        if min(src.min(), dst.min()) < 0:
            raise ValueError("edge endpoints out of range")
        hi = int(max(src.max(), dst.max()))
        if num_vertices is not None and hi >= num_vertices:
            raise ValueError("edge endpoints out of range")
        max_id = max(max_id, hi)
        if hi >= counts.size:
            counts = np.concatenate(
                [counts, np.zeros(hi + 1 - counts.size, dtype=np.int64)]
            )
        counts[: hi + 1] += np.bincount(src, minlength=hi + 1)
        num_arcs += src.size
        if not directed:
            back = src != dst  # symmetrization drops self-loop duplicates
            if back.any():
                b = dst[back]
                counts[: hi + 1] += np.bincount(b, minlength=hi + 1)
                num_arcs += int(back.sum())

    n = num_vertices if num_vertices is not None else max_id + 1
    idx_np_dtype = _check_index_dtype(index_dtype, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts[:n], out=indptr[1:])
    np.save(path / "indptr.npy", indptr)

    indices_mm = _create_mapped(path / "indices.npy", idx_np_dtype, num_arcs)
    weights_mm = (
        _create_mapped(path / "weights.npy", np.float64, num_arcs) if weighted else None
    )

    # -- pass 2: scatter destinations through per-vertex cursors -------
    cursor = indptr[:-1].copy()

    def scatter(s: np.ndarray, d: np.ndarray, w: np.ndarray | None) -> None:
        if s.size == 0:
            return
        order = np.argsort(s, kind="stable")
        ss = s[order]
        uniq, start, cnt = np.unique(ss, return_index=True, return_counts=True)
        # position of each arc inside its source's run within this chunk
        offset = np.arange(ss.size, dtype=np.int64) - np.repeat(start, cnt)
        pos = cursor[ss] + offset
        # a vertex overflowing its counted slot means the factory yielded
        # different chunks in the scatter pass than in the counting pass
        if (cursor[uniq] + cnt > indptr[uniq + 1]).any():
            raise RuntimeError(
                "chunk factory did not replay identically between passes"
            )
        indices_mm[pos] = d[order]
        if weights_mm is not None:
            weights_mm[pos] = w[order]  # type: ignore[index]
        cursor[uniq] += cnt

    for src, dst, w in chunks():
        src, dst, w = _check_chunk(src, dst, w, weighted)
        scatter(src, dst, w)
    if not directed:
        # second scatter pass: backward arcs, after ALL forward arcs —
        # matching the in-memory concatenate([src, dst[~loop]]) layout
        for src, dst, w in chunks():
            src, dst, w = _check_chunk(src, dst, w, weighted)
            back = src != dst
            scatter(dst[back], src[back], None if w is None else w[back])

    if not np.array_equal(cursor, indptr[1:]):
        raise RuntimeError(
            "chunk factory did not replay identically between passes"
        )
    _flush_mapped(indices_mm)
    if weights_mm is not None:
        _flush_mapped(weights_mm)

    _write_meta(
        path,
        num_vertices=int(n),
        num_arcs=int(num_arcs),
        directed=bool(directed),
        weighted=bool(weighted),
        index_dtype=index_dtype,
    )
    return MmapStore.open(path)


def _check_index_dtype(index_dtype: str, num_vertices: int) -> np.dtype:
    """The numpy dtype for ``index_dtype``, after checking every vertex
    id actually fits in it."""
    if index_dtype not in INDEX_DTYPES:
        raise ValueError(
            f"index_dtype must be one of {sorted(INDEX_DTYPES)}, got {index_dtype!r}"
        )
    dtype = np.dtype(INDEX_DTYPES[index_dtype])
    if num_vertices > 0 and num_vertices - 1 > np.iinfo(dtype).max:
        raise ValueError(
            f"index_dtype {index_dtype!r} cannot hold vertex ids up to "
            f"{num_vertices - 1}"
        )
    return dtype


def _check_chunk(src, dst, w, weighted: bool) -> EdgeChunk:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst chunks must have equal length")
    if weighted:
        if w is None:
            raise ValueError("some edges have weights and some do not")
        w = np.asarray(w, dtype=np.float64)
        if w.shape != src.shape:
            raise ValueError("weights must match the edge list length")
    elif w is not None:
        raise ValueError("unweighted build received a weighted chunk")
    return src, dst, w


def _write_meta(path: Path, **fields) -> None:
    meta = {"format": _FORMAT, "version": _VERSION, **fields}
    (path / META_NAME).write_text(json.dumps(meta, indent=2) + "\n")


def _create_mapped(path: Path, dtype, length: int) -> np.ndarray:
    """A writable array persisted at ``path`` — memory-mapped when it has
    bytes to map (zero-length arrays cannot be mmapped; plain save)."""
    if length == 0:
        arr = np.zeros(0, dtype=dtype)
        np.save(path, arr)
        return arr
    return np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=(length,))


def _flush_mapped(arr: np.ndarray) -> None:
    if isinstance(arr, np.memmap):
        arr.flush()


def _load_mapped(path: Path) -> np.ndarray:
    """np.load with mmap, falling back to a plain load for zero-length
    arrays (an empty file cannot be mapped)."""
    try:
        return np.load(path, mmap_mode="r")
    except ValueError:
        return np.load(path)
