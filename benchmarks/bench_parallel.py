"""Simulated vs. multiprocess backend, per transport (BENCH_parallel.json).

For each workload × worker count, runs the same program on the simulated
backend (every worker sequential in one process) and on the process
backend under **both frame transports** — shared-memory ring buffers
(``shm``, the default) and OS pipes (``pipe``), two byte movers under
the same batched ``superstep`` protocol — then:

* **asserts the parity contract** — bit-identical result data, identical
  per-channel traffic breakdown, and identical superstep / byte /
  message totals, for *each* transport; a speedup can never come from
  doing different work — the script exits non-zero on any violation,
  which the CI smoke relies on;
* **reports the wall-clock ratios** — ``speedup_shm_vs_sim`` is the
  process backend's whole point, ``speedup_shm_vs_pipe`` compares the
  two byte movers (reported, not gated: each wins somewhere).  Speedups are only meaningful
  when the machine actually has cores to parallelize over, so the
  artifact records ``cpus``; on a single-CPU box the process rows
  measure protocol overhead, not parallelism, and ``speedup_valid`` is
  false (``shm_vs_pipe`` still compares the two transports' overhead
  honestly, it just can't show parallel wins);
* **records per-phase timings** — every row carries each backend's
  critical-path seconds per phase (barrier / compute / serialize /
  exchange, from :meth:`MetricsCollector.phase_totals`), so a regression
  can be localized to the phase that slowed down.  ``--phases`` prints
  the breakdown as a table.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel.py                      # 100k-vertex workloads
    PYTHONPATH=src python benchmarks/bench_parallel.py --phases             # + phase breakdown
    PYTHONPATH=src python benchmarks/bench_parallel.py --dataset tree --workers 2  # smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from _provenance import write_artifact
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.wcc import run_wcc
from repro.bench.datasets import load_dataset
from repro.bench.tables import render_rows
from repro.graph.partition import hash_partition
from repro.streaming import STREAM_ALGORITHMS, EpochEngine, synthesize_stream

WORKLOADS = {
    "pr-scatter-bulk": lambda g, **kw: run_pagerank(
        g, variant="scatter", iterations=10, mode="bulk", **kw
    ),
    "wcc-bulk": lambda g, **kw: run_wcc(g, variant="basic", mode="bulk", **kw),
}

TRANSPORTS = ("pipe", "shm")
PHASES = ("barrier", "compute", "serialize", "exchange")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _identical(a, b) -> bool:
    da, db = a[0], b[0]
    same_data = np.array_equal(da, db) if isinstance(da, np.ndarray) else da == db
    ma, mb = a[-1].metrics, b[-1].metrics
    return bool(
        same_data
        and a[-1].data == b[-1].data
        and ma.channel_breakdown() == mb.channel_breakdown()
        and ma.supersteps == mb.supersteps
        and ma.total_rounds == mb.total_rounds
        and ma.total_net_bytes == mb.total_net_bytes
        and ma.total_local_bytes == mb.total_local_bytes
        and ma.total_messages == mb.total_messages
    )


def _phase_row(result) -> dict:
    totals = result.phase_times or {}
    return {p: round(totals.get(p, 0.0), 4) for p in PHASES}


def _run_live_checked(runner, graph, workers, part, **kw):
    """Run one cell with a live segment attached and verify the plane's
    accounting: the per-worker slot counters must sum exactly to the
    final ``MetricsCollector`` totals (ARCHITECTURE.md §11)."""
    from repro.obs import LiveMetrics

    live = LiveMetrics.create(workers)
    try:
        out = runner(graph, num_workers=workers, partition=part, live=live, **kw)
        rows = live.snapshot()
        m = out[-1].metrics
        ok = (
            sum(r["net_bytes"] for r in rows) == m.total_net_bytes
            and sum(r["local_bytes"] for r in rows) == m.total_local_bytes
            and sum(r["messages"] for r in rows) == m.total_messages
            and all(r["superstep"] == m.supersteps for r in rows)
            and not any(r["stale"] for r in rows)
        )
        return out, ok
    finally:
        live.close(unlink=True)


def bench(
    dataset: str, workers_list: list[int], seed: int, live_check: bool = False
) -> list[dict]:
    graph = load_dataset(dataset)
    rows = []
    for name, runner in WORKLOADS.items():
        for workers in workers_list:
            part = hash_partition(graph.num_vertices, workers, seed=seed)

            def cell(**kw):
                if live_check:
                    return _run_live_checked(runner, graph, workers, part, **kw)
                return runner(graph, num_workers=workers, partition=part, **kw), True

            sim, live_sim = cell()
            proc_pairs = {
                t: cell(executor="process", transport=t) for t in TRANSPORTS
            }
            proc = {t: pair[0] for t, pair in proc_pairs.items()}
            live_ok = live_sim and all(ok for _, ok in proc_pairs.values())
            walls = {t: proc[t][-1].metrics.wall_time for t in TRANSPORTS}
            sim_wall = sim[-1].metrics.wall_time
            rows.append(
                {
                    "workload": name,
                    "workers": workers,
                    "supersteps": sim[-1].metrics.supersteps,
                    "net_mb": round(sim[-1].metrics.total_net_bytes / 1e6, 3),
                    "sim_wall_s": round(sim_wall, 4),
                    "pipe_wall_s": round(walls["pipe"], 4),
                    "shm_wall_s": round(walls["shm"], 4),
                    "speedup_shm_vs_sim": round(
                        sim_wall / max(walls["shm"], 1e-9), 2
                    ),
                    "speedup_shm_vs_pipe": round(
                        walls["pipe"] / max(walls["shm"], 1e-9), 2
                    ),
                    "parity_pipe": _identical(sim, proc["pipe"]),
                    "parity_shm": _identical(sim, proc["shm"]),
                    **({"live_parity": live_ok} if live_check else {}),
                    "phases": {
                        "sim": _phase_row(sim[-1]),
                        **{t: _phase_row(proc[t][-1]) for t in TRANSPORTS},
                    },
                }
            )
    return rows


def phase_table(rows: list[dict]) -> list[dict]:
    """Flatten each row's per-backend phase totals for display."""
    out = []
    for r in rows:
        for backend, totals in r["phases"].items():
            out.append(
                {
                    "workload": r["workload"],
                    "workers": r["workers"],
                    "backend": backend,
                    **totals,
                }
            )
    return out


def bench_amortization(
    dataset: str, workers: int, epochs: int, seed: int
) -> list[dict]:
    """Pool amortization: the same N-epoch update stream driven through
    ``EpochEngine(executor="process")`` twice — once reusing one
    persistent worker pool (processes spawn once, then receive each
    epoch's graph/program as control messages) and once spawning a fresh
    pool every epoch (what PR 4's single-run backend effectively did).
    Both must produce identical per-epoch data; the wall-clock ratio is
    what the persistent pool buys."""
    graph = load_dataset(dataset)
    batches = synthesize_stream(
        graph,
        num_epochs=epochs,
        insertions_per_epoch=max(1, graph.num_input_edges // 1000),
        deletions_per_epoch=max(1, graph.num_input_edges // 2000),
        seed=seed,
    )
    rows = []
    results: dict[bool, list] = {}
    for reuse in (True, False):
        engine = EpochEngine(
            graph,
            STREAM_ALGORITHMS["wcc"](),
            num_workers=workers,
            executor="process",
            pool_reuse=reuse,
        )
        t0 = time.perf_counter()
        engine.bootstrap()
        epochs_out = engine.run(batches)
        wall = time.perf_counter() - t0
        # the live pool only knows its own generation; total spawns for
        # the respawn baseline is one pool per engine run
        total_spawned = (
            engine.pool.spawn_count if reuse else workers * (len(batches) + 1)
        )
        engine.close()
        results[reuse] = [e.data for e in epochs_out]
        rows.append(
            {
                "mode": "persistent-pool" if reuse else "respawn-per-epoch",
                "workers": workers,
                "epochs": len(batches) + 1,  # bootstrap included
                "processes_spawned": total_spawned,
                "wall_s": round(wall, 4),
            }
        )
    rows[0]["amortization_speedup"] = round(
        rows[1]["wall_s"] / max(rows[0]["wall_s"], 1e-9), 2
    )
    rows[1]["amortization_speedup"] = 1.0  # the baseline, by definition
    rows[0]["identical"] = rows[1]["identical"] = results[True] == results[False]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset",
        default="bulk-100k",
        help="benchmark graph name (default: the 100k-vertex workload)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[2, 8],
        help="worker counts to compare (default: 2 8)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="hash-partition seed, so reruns measure the same distribution",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="also print the per-phase critical-path breakdown "
        "(barrier/compute/serialize/exchange) for every backend",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="attach a live-telemetry segment (repro.obs.live) to every "
        "cell and fail unless the per-worker slot counters sum exactly "
        "to the collector totals on every backend and transport",
    )
    parser.add_argument(
        "--amortize-epochs",
        type=int,
        default=6,
        metavar="N",
        help="pool-amortization mode: N streaming epochs on one persistent "
        "pool vs a fresh pool per epoch (0 disables)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_parallel.json",
        help="output JSON path (default: repo-root BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)

    cpus = _cpus()
    rows = bench(args.dataset, args.workers, args.seed, live_check=args.live)
    display_cols = [c for c in rows[0] if c != "phases"]
    print(
        render_rows(
            rows,
            title=f"sim vs process backend ({args.dataset}, {cpus} cpus)",
            cols=display_cols,
        )
    )
    if args.phases:
        breakdown = phase_table(rows)
        print(
            render_rows(
                breakdown,
                title="per-phase critical-path seconds",
                cols=list(breakdown[0]),
            )
        )
    amortization: list[dict] = []
    if args.amortize_epochs > 0:
        amortization = bench_amortization(
            args.dataset, min(args.workers), args.amortize_epochs, args.seed
        )
        print(
            render_rows(
                amortization,
                title=(
                    f"pool amortization ({args.dataset}, "
                    f"{args.amortize_epochs} epochs)"
                ),
                cols=list(amortization[0]),
            )
        )
    if cpus < 2:
        print(
            f"NOTE: only {cpus} cpu visible — the process rows measure "
            "protocol overhead, not parallel speedup (the amortization "
            "ratio is still meaningful: it compares process startup, not "
            "parallel compute)",
            file=sys.stderr,
        )

    write_artifact(
        args.out,
        rows,
        dataset=args.dataset,
        workers=args.workers,
        seed=args.seed,
        cpus=cpus,
        speedup_valid=cpus >= 2,
        transports=list(TRANSPORTS),
        amortization=amortization,
    )

    broken = [
        f"{r['workload']}@{r['workers']}:{t}"
        for r in rows
        for t in TRANSPORTS
        if not r[f"parity_{t}"]
    ]
    broken += [
        f"amortization/{r['mode']}" for r in amortization if not r["identical"]
    ]
    broken += [
        f"{r['workload']}@{r['workers']}:live"
        for r in rows
        if not r.get("live_parity", True)
    ]
    if broken:
        print(f"PARITY VIOLATION in: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
