"""Inputs, references and result checks:
``prepare.py WORKLOAD PRESET SEED STORE_DIR OUT.json``.

``--seed`` reaches only the generators and partitioners here; the program
under test sees the stores they wrote.  References use numpy and the
standard library only, so a wrong answer from the engine cannot agree
with them by sharing code.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from workloads import PRESETS, WORKERS, workload


def _build_store(graph_key: str, params: dict, seed: int, out: Path):
    from repro.graph.generators import grid_road, rmat, rmat_to_disk
    from repro.graph.store import MmapStore

    if graph_key == "rmat":
        return rmat_to_disk(out, seed=seed, **params)
    if graph_key == "road":
        graph = grid_road(params["rows"], params["cols"], seed=seed, weighted=True)
    else:
        graph = rmat(seed=seed, directed=False, **params)
    MmapStore.save(graph, out)
    return graph


def _csr(graph):
    arrays = graph.csr_arrays()
    return (
        np.asarray(arrays["indptr"], dtype=np.int64),
        np.asarray(arrays["indices"], dtype=np.int64),
        arrays.get("weights"),
    )


def component_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Minimum vertex id of each vertex's (weakly) connected component,
    by hooking to the smallest neighbouring label and pointer jumping."""
    n = indptr.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    labels = np.arange(n, dtype=np.int64)
    while True:
        new = labels.copy()
        np.minimum.at(new, indices, labels[src])
        np.minimum.at(new, src, labels[indices])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def pagerank_reference(indptr, indices, iterations: int, damping: float = 0.85):
    n = indptr.size - 1
    degree = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    has_out = degree > 0
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        share = np.zeros(n)
        share[has_out] = rank[has_out] / degree[has_out]
        incoming = np.bincount(indices, weights=share[src], minlength=n)
        dead = rank[~has_out].sum() / n
        rank = (1.0 - damping) / n + damping * (incoming + dead)
    return rank


def dijkstra_reference(indptr, indices, weights, source: int) -> np.ndarray:
    ptr, adj, wts = indptr.tolist(), indices.tolist(), weights.tolist()
    dist = [float("inf")] * (len(ptr) - 1)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for k in range(ptr[v], ptr[v + 1]):
            nd = d + wts[k]
            if nd < dist[adj[k]]:
                dist[adj[k]] = nd
                heapq.heappush(heap, (nd, adj[k]))
    return np.array(dist)


def _central_source(labels: np.ndarray, rows: int, cols: int) -> int:
    """The vertex of the largest component nearest the grid centre."""
    ids, counts = np.unique(labels, return_counts=True)
    members = np.flatnonzero(labels == ids[np.argmax(counts)])
    r, c = np.divmod(members, cols)
    return int(members[np.argmin(np.abs(r - rows // 2) + np.abs(c - cols // 2))])


def _reference(w: dict, graph, params: dict) -> tuple[np.ndarray, dict]:
    indptr, indices, weights = _csr(graph)
    if w["algo"] == "pagerank":
        return pagerank_reference(indptr, indices, w["kwargs"]["iterations"]), {}
    labels = component_labels(indptr, indices)
    if w["algo"] == "sv":
        return labels, {}
    source = _central_source(labels, params["rows"], params["cols"])
    dist = dijkstra_reference(indptr, indices, weights, source)
    reachable = float(np.isfinite(dist).mean())
    if reachable < 0.9:
        raise RuntimeError(f"{w['name']}: only {reachable:.0%} of vertices reachable")
    return dist, {"source": source}


def partition_of(w: dict, graph, seed: int) -> np.ndarray:
    from repro.graph import partition

    if w["partition"] == "degree":
        return partition.degree_range_partition(graph, WORKERS)
    return partition.hash_partition(graph.num_vertices, WORKERS, seed=seed)


def _partition_stats(w: dict, graph, seed: int) -> dict:
    from repro.graph.partition import partition_quality

    owner = partition_of(w, graph, seed)
    quality = partition_quality(graph, owner)
    arcs = np.bincount(owner, weights=np.diff(graph.indptr), minlength=WORKERS)
    return {
        "edge_cut_frac": quality["edge_cut"] / max(graph.num_edges, 1),
        "arc_imbalance": float(arcs.max() / max(arcs.mean(), 1.0)),
    }


def prepare(w: dict, preset: str, seed: int, store_dir: Path) -> dict:
    """Build (or reuse) the workload's store, reference and partition
    statistics; returns what a repetition and the report need."""
    from repro.graph.io import load_graph

    params = PRESETS[preset][w["graph"]]
    home = Path(store_dir) / f"{preset}-seed{seed}" / w["graph"]
    meta_path = home / "prepared.json"
    if not meta_path.exists():
        tmp = home.with_name(f"{home.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        graph = _build_store(w["graph"], params, seed, tmp / "store")
        meta = {
            "generator": dict(params, seed=seed),
            "V": int(graph.num_vertices),
            "E": int(graph.num_edges),
            "build_s": time.perf_counter() - t0,
            "calls": {},
        }
        meta["on_disk_mb"] = sum(
            f.stat().st_size for f in (tmp / "store").iterdir()
        ) / 2**20
        (tmp / "prepared.json").write_text(json.dumps(meta))
        os.replace(tmp, home)  # publishes only a complete store
    meta = json.loads(meta_path.read_text())
    key = f"{w['algo']}-{w['partition']}"  # the two PageRank workloads share one
    if key not in meta["calls"]:
        graph = load_graph(home / "store")
        reference, extra = _reference(w, graph, params)
        ref_path = home / f"reference-{w['algo']}.npy"
        np.save(ref_path, reference)
        extra.update(_partition_stats(w, graph, seed), reference=ref_path.name)
        meta["calls"][key] = extra
        tmp_meta = meta_path.with_name(f"prepared.json.tmp{os.getpid()}")
        tmp_meta.write_text(json.dumps(meta))
        os.replace(tmp_meta, meta_path)
    mine = meta["calls"][key]
    kwargs = dict(w["kwargs"])
    if "source" in mine:
        kwargs["source"] = mine["source"]
    return {
        "workload": w["name"],
        "algo": w["algo"],
        "kwargs": kwargs,
        "partition": w["partition"],
        "partition_seed": seed,
        "workers": WORKERS,
        "executor": w["executor"],
        "store": str(home / "store"),
        "reference": str(home / mine["reference"]),
        "generator": meta["generator"],
        "V": meta["V"],
        "E": meta["E"],
        "build_s": meta["build_s"],
        "on_disk_mb": meta["on_disk_mb"],
        "edge_cut_frac": mine["edge_cut_frac"],
        "arc_imbalance": mine["arc_imbalance"],
    }


# -- the correctness gate -----------------------------------------------------


def verify(algo: str, result: np.ndarray, reference: np.ndarray) -> str | None:
    """None when ``result`` is right, else one line saying what is wrong."""
    if result.shape != reference.shape:
        return f"shape {result.shape} != {reference.shape}"
    if algo == "sv":
        wrong = int(np.count_nonzero(result != reference))
        return f"{wrong} component labels differ" if wrong else None
    finite = np.isfinite(reference)
    if not np.array_equal(np.isfinite(result), finite):
        return "unreachable (inf) vertices differ"
    if not np.allclose(result[finite], reference[finite], rtol=1e-9, atol=1e-15):
        worst = float(np.max(np.abs(result[finite] - reference[finite])))
        return f"values differ from the reference (max abs error {worst:.3e})"
    return None


if __name__ == "__main__":
    name, preset, seed, store_dir, out_path = sys.argv[1:]
    with open(out_path, "w") as f:
        json.dump(prepare(workload(name), preset, int(seed), Path(store_dir)), f)
