"""Graph input/output: edge-list text, update streams, and NPZ binary.

All text formats are transparently gzip-compressed when the path ends in
``.gz`` — both on read and write — since public edge-list/stream dumps
(SNAP, KONECT) usually ship compressed.
"""

from __future__ import annotations

import gzip
import os

import numpy as np

from repro.graph.graph import VERTEX_ID, Graph
from repro.graph.store import MmapStore, build_mmap_store, is_mmap_store

__all__ = [
    "save_edgelist",
    "load_edgelist",
    "load_edgelist_chunked",
    "load_graph",
    "save_update_stream",
    "load_update_stream",
    "iter_update_stream",
    "save_npz",
    "load_npz",
]


def _open_text(path: str | os.PathLike, mode: str):
    """Open a text file, through gzip when the suffix says so."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def save_edgelist(graph: Graph, path: str | os.PathLike) -> None:
    """Write one arc per line: ``src dst [weight]``.

    Undirected graphs are written with each edge once (the smaller endpoint
    first), mirroring the common SNAP/KONECT convention.
    """
    src, dst = graph.edge_array()
    w = graph.weights
    if not graph.directed:
        keep = src <= dst
        src, dst = src[keep], dst[keep]
        if w is not None:
            w = w[keep]
    with _open_text(path, "w") as f:
        # the weighted flag makes zero-edge weighted graphs round-trip:
        # with no edge lines to carry weights, the header is the only
        # place the information can live
        f.write(
            f"# vertices {graph.num_vertices} directed {int(graph.directed)} "
            f"weighted {int(graph.weighted)}\n"
        )
        if w is None:
            for s, d in zip(src.tolist(), dst.tolist()):
                f.write(f"{s} {d}\n")
        else:
            for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist()):
                f.write(f"{s} {d} {x}\n")


def load_edgelist(path: str | os.PathLike) -> Graph:
    """Read the format written by :func:`save_edgelist`.

    Files without the header comment are accepted; vertex count defaults to
    ``max id + 1`` and the graph is treated as directed.  The file is parsed
    as :func:`load_edgelist_chunked` parses it, in one pass.
    """
    num_vertices, directed, weighted, header_weighted = _sniff_edgelist(path)
    none = np.empty(0, dtype=np.int64)
    src, dst, weights = zip(
        (none, none, np.empty(0) if weighted else None),
        *_edgelist_chunks(path, weighted, header_weighted, 1 << 18),
    )
    s, d = np.concatenate(src), np.concatenate(dst)
    if num_vertices is None:
        num_vertices = int(max(s.max(initial=-1), d.max(initial=-1)) + 1)
    w = np.concatenate(weights) if weighted else None
    return Graph(num_vertices, s, d, weights=w, directed=directed)


def _sniff_edgelist(path: str | os.PathLike):
    """Header fields plus the weightedness of the first data line —
    everything the chunked loader must know before its first pass."""
    num_vertices: int | None = None
    directed = True
    header_weighted: bool | None = None
    first_has_weight = False
    with _open_text(path, "r") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if "vertices" in parts:
                    num_vertices = int(parts[parts.index("vertices") + 1])
                if "directed" in parts:
                    directed = bool(int(parts[parts.index("directed") + 1]))
                if "weighted" in parts:
                    header_weighted = bool(int(parts[parts.index("weighted") + 1]))
                continue
            first_has_weight = len(line.split()) > 2
            break
    weighted = header_weighted if header_weighted is not None else first_has_weight
    return num_vertices, directed, weighted, header_weighted


def _edgelist_chunks(path, weighted: bool, header_weighted, chunk_edges: int):
    """Yield ``(src, dst, weights)`` arrays of up to ``chunk_edges`` lines."""
    src: list[int] = []
    dst: list[int] = []
    w: list[float] = []

    def flush():
        out = (
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(w, dtype=np.float64) if weighted else None,
        )
        src.clear(), dst.clear(), w.clear()
        return out

    with _open_text(path, "r") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if (len(parts) > 2) != weighted:
                if header_weighted is False:
                    raise ValueError(
                        "header says unweighted but edge lines carry weights"
                    )
                raise ValueError("some edges have weights and some do not")
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
            if weighted:
                w.append(float(parts[2]))
            if len(src) >= chunk_edges:
                yield flush()
    if src:
        yield flush()


def load_edgelist_chunked(
    path: str | os.PathLike,
    out: str | os.PathLike,
    *,
    chunk_edges: int = 1 << 18,
) -> Graph:
    """Out-of-core :func:`load_edgelist`: stream the text file through the
    two-pass counting CSR build into an mmap store at ``out``.

    The edge list is never materialized — peak memory is O(V) for the
    degree array plus one ``chunk_edges``-line chunk — and the returned
    graph's arrays are memory-mapped from ``out``, so graphs much larger
    than RAM load and run.  The result is bit-identical to
    ``load_edgelist(path)``'s CSR arrays (the build replays the file once
    per pass: twice for directed graphs, three times undirected).
    """
    num_vertices, directed, weighted, header_weighted = _sniff_edgelist(path)
    store = build_mmap_store(
        out,
        lambda: _edgelist_chunks(path, weighted, header_weighted, chunk_edges),
        num_vertices=num_vertices,
        directed=directed,
        weighted=weighted,
    )
    return Graph.from_store(store)


def load_graph(path: str | os.PathLike) -> Graph:
    """Open a graph whatever its on-disk form: an mmap store directory
    (attached in place, nothing loaded), an ``.npz`` binary, or an
    edge-list text file (plain or ``.gz``)."""
    if is_mmap_store(path):
        return Graph.from_store(MmapStore.open(path))
    if str(path).endswith(".npz"):
        return load_npz(path)
    return load_edgelist(path)


def save_update_stream(batches, path: str | os.PathLike) -> None:
    """Write an edge-update stream: one ``ts op src dst [weight]`` line
    per mutation, ``op`` being ``+`` (insert) or ``-`` (delete).

    Batches without a timestamp get their position in the list.  The
    format is edge-only; batches carrying vertex mutations are rejected
    rather than silently truncated.
    """
    with _open_text(path, "w") as f:
        f.write("# update stream: ts op src dst [weight]\n")
        for pos, batch in enumerate(batches):
            if batch.add_vertices or batch.delete_vertices.size:
                raise ValueError(
                    f"batch {pos} contains vertex mutations; the update-stream "
                    "format only encodes edge insertions/deletions"
                )
            ts = batch.timestamp if batch.timestamp is not None else pos
            if batch.insert_weights is None:
                for s, d in zip(batch.insert_src.tolist(), batch.insert_dst.tolist()):
                    f.write(f"{ts} + {s} {d}\n")
            else:
                for s, d, w in zip(
                    batch.insert_src.tolist(),
                    batch.insert_dst.tolist(),
                    batch.insert_weights.tolist(),
                ):
                    f.write(f"{ts} + {s} {d} {w}\n")
            for s, d in zip(batch.delete_src.tolist(), batch.delete_dst.tolist()):
                f.write(f"{ts} - {s} {d}\n")


def _iter_stream_records(path: str | os.PathLike):
    """Parse ``ts op src dst [weight]`` lines, one record at a time."""
    with _open_text(path, "r") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (4, 5) or parts[1] not in ("+", "-"):
                raise ValueError(
                    f"{path}:{lineno}: expected 'ts op src dst [weight]', got {line!r}"
                )
            ts, op, s, d = int(parts[0]), parts[1], int(parts[2]), int(parts[3])
            w = float(parts[4]) if len(parts) == 5 else None
            if op == "-" and w is not None:
                raise ValueError(f"{path}:{lineno}: deletions must not carry weights")
            yield (ts, op, s, d, w)


def _group_to_batch(group: list, timestamp: int):
    from repro.streaming.batch import MutationBatch

    ins = [(s, d) for _, op, s, d, _ in group if op == "+"]
    ws = [w for _, op, _, _, w in group if op == "+"]
    dele = [(s, d) for _, op, s, d, _ in group if op == "-"]
    weighted = any(w is not None for w in ws)
    if weighted and not all(w is not None for w in ws):
        raise ValueError("some insertions carry weights and some do not")
    return MutationBatch.from_edges(
        insertions=ins,
        deletions=dele,
        weights=ws if weighted else None,
        timestamp=timestamp,
    )


def iter_update_stream(path: str | os.PathLike, epoch_size: int | None = None):
    """Lazily yield ``MutationBatch`` es from an update-stream file.

    The streaming twin of :func:`load_update_stream` (whose ``epoch_size``
    grouping is this one's): only one batch's
    records are in memory at a time, so arbitrarily long traces replay in
    O(epoch) memory.  Grouping matches the eager loader with one caveat:
    in timestamp mode (``epoch_size=None``) a batch is emitted when its
    timestamp's *run of consecutive records* ends, so a file that revisits
    an already-flushed timestamp raises ``ValueError`` (the eager loader
    merges such records; a lazy reader would have to buffer the whole file
    to do the same).  Files written by :func:`save_update_stream` never
    revisit timestamps.
    """
    if epoch_size is not None:
        if epoch_size < 1:
            raise ValueError("epoch_size must be >= 1")
        cur: list = []
        pos = 0
        # endpoint-set keys so reversed naming on undirected graphs also
        # forces a cut (harmless extra cut on directed graphs)
        seen_ops: dict = {}
        for rec in _iter_stream_records(path):
            key = frozenset((rec[2], rec[3]))
            opposite = "-" if rec[1] == "+" else "+"
            if len(cur) >= epoch_size or seen_ops.get(key) == opposite:
                yield _group_to_batch(cur, pos)
                pos += 1
                cur, seen_ops = [], {}
            cur.append(rec)
            seen_ops[key] = rec[1]
        if cur:
            yield _group_to_batch(cur, pos)
    else:
        cur = []
        cur_ts: int | None = None
        done_ts: set[int] = set()
        for rec in _iter_stream_records(path):
            if cur_ts is not None and rec[0] != cur_ts:
                yield _group_to_batch(cur, cur_ts)
                done_ts.add(cur_ts)
                cur = []
            if rec[0] in done_ts:
                raise ValueError(
                    f"timestamp {rec[0]} reappears after its batch was already "
                    "yielded; non-contiguous timestamps need the eager loader"
                )
            cur_ts = rec[0]
            cur.append(rec)
        if cur:
            yield _group_to_batch(cur, cur_ts)


def load_update_stream(path: str | os.PathLike, epoch_size: int | None = None):
    """Read a timestamped edge-update stream into a list of
    ``MutationBatch`` es (:func:`iter_update_stream` yields them one at a
    time).

    By default mutations sharing a timestamp form one batch (in first-seen
    timestamp order), wherever in the file they are.  ``epoch_size``
    instead re-chunks the stream into batches of *up to* that many
    mutations, in file order — how the ``stream`` CLI subcommand turns one
    long trace into fixed-size epochs.  A chunk is cut early rather than
    let one batch both insert and delete the same edge (batches are
    atomic, so that combination is ambiguous); the later mutation simply
    lands in the next epoch, preserving replay order.
    """
    if epoch_size is not None:
        return list(iter_update_stream(path, epoch_size))
    by_ts: dict[int, list] = {}
    for rec in _iter_stream_records(path):
        by_ts.setdefault(rec[0], []).append(rec)
    return [_group_to_batch(group, ts) for ts, group in by_ts.items()]


def save_npz(graph: Graph, path: str | os.PathLike) -> None:
    """Compact binary save (CSR arrays directly)."""
    payload = {
        "num_vertices": np.int64(graph.num_vertices),
        "directed": np.int64(graph.directed),
        "indptr": graph.indptr,
        "indices": graph.indices.astype(VERTEX_ID, copy=False),
    }
    if graph.weights is not None:
        payload["weights"] = graph.weights
    np.savez_compressed(path, **payload)


def load_npz(path: str | os.PathLike) -> Graph:
    with np.load(path) as data:
        n = int(data["num_vertices"])
        directed = bool(data["directed"])
        indptr = data["indptr"]
        indices = data["indices"]
        weights = data["weights"] if "weights" in data else None
    return Graph.from_csr(
        n, indptr, indices.astype(VERTEX_ID, copy=False), weights, directed
    )
