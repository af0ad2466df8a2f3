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
import math
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
    "META_NAME",
]

META_NAME = "meta.json"
_FORMAT = "repro-csr"
_VERSION = 1

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
        <path>/indices.npy    int32[A]       (graph.VERTEX_ID)
        <path>/weights.npy    float64[A]     (weighted graphs only)

    A store written by an older tree holds ``int64`` or ``uint32``
    ``indices`` (``meta.json``'s ``index_dtype``, which is ignored: the
    ``.npy`` header names the dtype).  It is read as it is on disk, mapped
    like any other: every consumer indexes with the ids, and NumPy
    indexes with any integer dtype.

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
        names = ["indptr", "indices"] + (["weights"] if meta["weighted"] else [])
        arrays = {name: _load_mapped(path / f"{name}.npy") for name in names}
        _check_arrays(path, meta, arrays)
        return cls(path, meta, arrays)

    @classmethod
    def save(cls, graph, path: str | os.PathLike) -> "MmapStore":
        """Write ``graph``'s CSR arrays to ``path`` and open the result.

        ``graph`` is duck-typed: anything with ``num_vertices``,
        ``directed`` and ``csr_arrays()`` works.  ``indices.npy`` is
        written as :data:`~repro.graph.graph.VERTEX_ID`, whatever the
        graph holds.
        """
        from repro.graph.graph import VERTEX_ID

        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        csr = graph.csr_arrays()
        csr["indices"] = csr["indices"].astype(VERTEX_ID, copy=False)
        for name, arr in csr.items():
            np.save(path / f"{name}.npy", arr)
        _write_meta(
            path,
            num_vertices=graph.num_vertices,
            num_arcs=int(csr["indices"].size),
            directed=bool(graph.directed),
            weighted="weights" in csr,
        )
        return cls.open(path)

    # -- GraphStore API ------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self._arrays)

    def describe(self) -> dict:
        return {"kind": "mmap", "path": str(self.path)}

    def footprint(self) -> dict[str, int]:
        on_disk = sum(
            (self.path / f"{name}.npy").stat().st_size for name in self._arrays
        )
        # the mapped arrays are file-backed pages, not heap
        return {"resident_bytes": 0, "on_disk_bytes": int(on_disk)}

    def release(self, view: np.ndarray) -> None:
        """Advise away the whole pages inside ``view`` (``MADV_DONTNEED``;
        they re-fault from the page cache).  A no-op where the platform
        has no ``madvise``, and for a ``view`` that is not a contiguous
        part of a mapped array, such as a heap copy."""
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
    backward scatter passes produce.  ``indices.npy`` is written as
    :data:`~repro.graph.graph.VERTEX_ID`.
    """
    from repro.graph.graph import MAX_VERTICES, VERTEX_ID

    if num_vertices is not None and num_vertices > MAX_VERTICES:
        raise ValueError(f"{num_vertices} vertices: a graph holds at most {MAX_VERTICES}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

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
        if hi >= (MAX_VERTICES if num_vertices is None else num_vertices):
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
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts[:n], out=indptr[1:])
    np.save(path / "indptr.npy", indptr)

    indices_mm = _create_mapped(path / "indices.npy", VERTEX_ID, num_arcs)
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
    )
    return MmapStore.open(path)


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
    """``path``'s array, memory-mapped (a zero-length one, which cannot be
    mapped, loaded plainly).  Only the header is read first: a file that
    is not an ``.npy`` array, or holds fewer bytes than its header
    announces, is a ``ValueError`` naming ``path``."""
    try:
        with open(path, "rb") as f:
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, _, dtype = np.lib.format.read_array_header_1_0(f)
            else:
                shape, _, dtype = np.lib.format.read_array_header_2_0(f)
            need = dtype.itemsize * math.prod(shape)
            have = os.fstat(f.fileno()).st_size - f.tell()
        if have < need:
            raise ValueError(f"{need} bytes of data announced, {have} present")
        return np.load(path, mmap_mode="r" if need else None)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy array ({exc})") from exc


def _check_arrays(path: Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Refuse a store whose arrays disagree with ``meta.json`` or with
    each other — by sizes, dtypes and the last ``indptr`` entry, without
    reading their content."""
    indptr, indices = arrays["indptr"], arrays["indices"]
    problems = []
    if not np.issubdtype(indices.dtype, np.integer):
        problems.append(f"indices.npy holds {indices.dtype}, not vertex ids")
    if indices.size != int(meta["num_arcs"]):
        problems.append(
            f"indices.npy holds {indices.size} arcs, meta.json num_arcs "
            f"says {meta['num_arcs']}"
        )
    if indptr.shape != (int(meta["num_vertices"]) + 1,):
        problems.append(
            f"indptr.npy has shape {indptr.shape}, not num_vertices + 1 = "
            f"{int(meta['num_vertices']) + 1}"
        )
    elif int(indptr[-1]) != indices.size:
        problems.append(
            f"indptr.npy ends at {int(indptr[-1])}, not at the "
            f"{indices.size} arcs of indices.npy"
        )
    if problems:
        raise ValueError(f"{path}: malformed store: " + "; ".join(problems))
