"""Command-line interface: run any library algorithm on a dataset.

Examples::

    python -m repro run pagerank --dataset wikipedia --variant scatter
    python -m repro run pagerank --dataset bulk-100k --variant scatter --mode bulk
    python -m repro run sv --dataset twitter --variant both --workers 16
    python -m repro run wcc --graph my_edges.txt --variant prop --partition metis
    python -m repro run wcc --dataset tree --checkpoint-every 2 --fail 1:3 \\
        --recovery confined
    python -m repro run wcc --dataset tree --executor process \\
        --checkpoint-every 2 --fail 1:3 --recovery confined
    python -m repro stream pagerank --dataset stream-road --updates u.txt \\
        --epoch-size 200 --refresh incremental --executor process
    python -m repro run wcc --dataset tree --executor process --workers 2 \\
        --trace run.trace.jsonl
    python -m repro report run.trace.jsonl --chrome run.chrome.json
    python -m repro run pagerank --dataset bulk-100k --variant scatter \\
        --executor process --workers 2 --metrics-port 9109 --live-name myrun
    python -m repro top myrun            # refreshing per-worker table
    curl http://127.0.0.1:9109/metrics   # Prometheus text format, mid-run
    python -m repro generate rmat big.csr --scale 19 --edge-factor 20
    python -m repro info big.csr           # store kind, sizes, footprint
    python -m repro run pagerank --graph big.csr --variant scatter \\
        --mode bulk --executor process --workers 4 --partition degree
    python -m repro datasets
    python -m repro tables 6
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from repro.bench.datasets import DATASETS, EXTRA_DATASETS, load_dataset, table3_rows
from repro.bench.runner import CELLS
from repro.core.config import (
    EXECUTORS,
    REBALANCE_MODES,
    RECOVERY_MODES,
    RunConfig,
)
from repro.graph.io import load_graph
from repro.graph.partition import (
    degree_range_partition,
    metis_like_partition,
    range_partition,
)

__all__ = ["main"]

#: algorithm -> its channel-system variants exposed on the CLI
VARIANTS = {
    "pagerank": {
        "basic": ("pr", "channel-basic"),
        "scatter": ("pr", "channel-scatter"),
        "mirror": ("pr", "channel-mirror"),
    },
    "pj": {"basic": ("pj", "channel-basic"), "reqresp": ("pj", "channel-reqresp")},
    "wcc": {"basic": ("wcc", "channel-basic"), "prop": ("wcc", "channel-prop")},
    "sv": {
        "basic": ("sv", "channel-basic"),
        "reqresp": ("sv", "channel-reqresp"),
        "scatter": ("sv", "channel-scatter"),
        "both": ("sv", "channel-both"),
    },
    "scc": {"basic": ("scc", "channel-basic"), "prop": ("scc", "channel-prop")},
    "msf": {"basic": ("msf", "channel-basic")},
    "sssp": {"basic": ("sssp", "channel-basic"), "prop": ("sssp", "channel-prop")},
    "bfs": {"basic": ("bfs", "channel-basic")},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="channel-based vertex-centric graph processing"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # what `run` and `stream` share: the graph source, the RunConfig
    # fields both take (dest = field name; an absent flag leaves the
    # field to RunConfig's own default) and the observation flags
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--dataset",
        choices=sorted(DATASETS) + sorted(EXTRA_DATASETS),
        help="built-in dataset",
    )
    src.add_argument(
        "--graph",
        help="graph file or mmap store directory (edge list, .npz, or a "
        "directory written by `repro generate` / load_edgelist_chunked; "
        "stores are attached in place, nothing is loaded into RAM, and a "
        "stream's delta overlay composes over any of them)",
    )
    common.add_argument("--workers", dest="num_workers", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=argparse.SUPPRESS,
        help="execution backend: in-process simulation (sim, the default) "
        "or one OS process per worker over shared memory (process; a "
        "stream's epochs share one persistent pool; frames move through "
        "shared-memory rings while workers fit the cores, OS pipes beyond); "
        "results and traffic totals are bit-identical",
    )
    common.add_argument(
        "--rebalance",
        choices=REBALANCE_MODES,
        default=argparse.SUPPRESS,
        help="adaptive load rebalancing (ARCHITECTURE.md §13): `superstep` "
        "pauses at a barrier every --rebalance-every supersteps and "
        "migrates vertex ranges off straggling workers when the policy's "
        "estimated win clears its hysteresis gates; `epoch` (stream only) "
        "re-partitions between epochs from the previous epoch's phase "
        "times; results stay bit-identical",
    )
    common.add_argument(
        "--rebalance-every",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="supersteps between rebalance checks (with --rebalance "
        "superstep)",
    )
    common.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a structured JSON-lines trace (span events: [stream > "
        "epoch >] run, superstep, per-worker phase, exchange round, "
        "checkpoint, failure, recovery, rebalance); inspect with "
        "`repro report FILE`",
    )
    common.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live per-worker metrics at "
        "http://127.0.0.1:PORT/metrics (Prometheus text format) while "
        "the run is in flight (a stream's segment rolls over per epoch); "
        "0 picks a free port",
    )
    common.add_argument(
        "--live-name",
        default=None,
        metavar="NAME",
        help="publish live metrics into a shared-memory segment with "
        "this name so `repro top NAME` can watch the run (implied "
        "random name when only --metrics-port is given)",
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (a stream prints one row per epoch)",
    )

    run = sub.add_parser(
        "run", parents=[common], help="run one algorithm and print metrics"
    )
    run.add_argument("algorithm", choices=sorted(VARIANTS))
    run.add_argument("--variant", default="basic")
    run.add_argument(
        "--mode",
        choices=["scalar", "bulk"],
        default="scalar",
        help="compute path: per-vertex (scalar) or columnar (bulk)",
    )
    run.add_argument(
        "--partition",
        choices=["hash", "range", "degree", "metis"],
        default="hash",
        help="vertex partitioner (see repro.graph.partition); `degree` "
        "balances contiguous ranges by arc count using only the O(V) "
        "indptr array — the right default for skewed on-disk graphs",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=argparse.SUPPRESS,
        metavar="K",
        help="take a fault-tolerance checkpoint every K supersteps",
    )
    run.add_argument(
        "--fail",
        dest="failures",
        action="append",
        default=argparse.SUPPRESS,
        metavar="W:S",
        help="kill worker W at the end of superstep S (repeatable)",
    )
    run.add_argument(
        "--recovery",
        choices=RECOVERY_MODES,
        default=argparse.SUPPRESS,
        help="recovery mode used when --fail triggers",
    )

    stream = sub.add_parser(
        "stream",
        parents=[common],
        help="apply an update stream epoch by epoch, refreshing results",
    )
    stream.add_argument("algorithm", choices=["pagerank", "wcc", "sssp"])
    stream.add_argument(
        "--updates",
        required=True,
        help="update-stream file (ts op src dst [weight]; .gz ok)",
    )
    stream.add_argument(
        "--epoch-size",
        type=int,
        default=None,
        metavar="N",
        help="re-chunk the stream into batches of N mutations "
        "(default: group by timestamp)",
    )
    stream.add_argument(
        "--refresh",
        choices=["incremental", "full"],
        default="incremental",
        help="per-epoch refresh policy",
    )
    stream.add_argument(
        "--iterations", type=int, default=10, help="PageRank iterations"
    )
    stream.add_argument("--source", type=int, default=0, help="SSSP source")
    stream.add_argument(
        "--compact-threshold",
        type=float,
        default=0.25,
        help="overlay/base ratio that triggers delta-graph compaction",
    )

    report = sub.add_parser(
        "report",
        help="analyze a --trace file: phase breakdown, stragglers, anomalies",
    )
    report.add_argument("trace", help="JSON-lines trace written by --trace")
    report.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="also export a chrome://tracing / Perfetto timeline JSON",
    )
    report.add_argument(
        "--straggler-threshold",
        type=float,
        default=1.5,
        help="per-worker skew score at which a worker is flagged as a "
        "straggler (1.0 = perfectly balanced; default 1.5)",
    )
    report.add_argument(
        "--z-threshold",
        type=float,
        default=3.0,
        help="EWMA z-score above which a superstep is flagged anomalous",
    )
    report.add_argument("--json", action="store_true", help="machine-readable output")

    top = sub.add_parser(
        "top",
        help="attach to a run's live-metrics segment and render a "
        "refreshing per-worker table",
    )
    top.add_argument(
        "segment",
        help="live segment name (printed by runs started with "
        "--metrics-port / --live-name)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (rates are run-lifetime "
        "averages instead of refresh deltas)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period in loop mode (exit with ctrl-c)",
    )

    info = sub.add_parser(
        "info",
        help="inspect a graph: store kind, sizes, dtypes, footprint",
    )
    info.add_argument(
        "graph",
        help="built-in dataset name, mmap store directory, .npz, or "
        "edge-list file",
    )
    info.add_argument("--json", action="store_true", help="machine-readable output")

    gen = sub.add_parser(
        "generate",
        help="write a synthetic graph straight to an on-disk mmap store "
        "(chunked; peak memory stays O(V), whatever the edge count)",
    )
    gen.add_argument("kind", choices=["rmat", "erdos-renyi"])
    gen.add_argument("out", help="store directory to create")
    gen.add_argument(
        "--scale", type=int, default=20, help="rmat: 2**scale vertices"
    )
    gen.add_argument(
        "--edge-factor", type=int, default=16, help="rmat: arcs per vertex"
    )
    gen.add_argument(
        "--vertices", type=int, default=1 << 20, help="erdos-renyi: vertex count"
    )
    gen.add_argument(
        "--avg-degree", type=float, default=16.0, help="erdos-renyi: arcs per vertex"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--undirected", action="store_true")
    gen.add_argument(
        "--weighted", action="store_true", help="rmat only: uniform [1,100) weights"
    )
    gen.add_argument(
        "--index-dtype",
        choices=["int64", "uint32"],
        default="int64",
        help="on-disk dtype for indices.npy; uint32 halves the dominant "
        "array for graphs under 2**32 vertices (readers widen to int64 "
        "on attach)",
    )
    gen.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 20,
        metavar="N",
        help="arcs generated per chunk; with --seed it identifies the "
        "exact output graph",
    )

    sub.add_parser("datasets", help="print the Table III dataset inventory")

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("which", nargs="*", help="table numbers (default: all)")
    return parser


def _run_config(args) -> RunConfig:
    """The command's :class:`RunConfig`: the flags given, RunConfig's own
    defaults for the rest.  Raises ``ValueError`` on a bad combination —
    before any graph is loaded or partitioned."""
    return RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    )


def _load_graph(args):
    """The ``--dataset`` / ``--graph`` source, or ``None`` after printing
    why the file cannot be opened."""
    if args.dataset:
        return load_dataset(args.dataset)
    try:
        return load_graph(args.graph)
    except (OSError, ValueError) as exc:
        print(f"cannot open {args.graph!r}: {exc}", file=sys.stderr)
        return None


def _start_live(args, num_workers: int):
    """Bring the live telemetry plane up for a `run`/`stream` invocation.

    Returns ``(live, server, error_code)`` — ``error_code`` is not None
    when setup failed and the command should exit with it.  The "serving"
    line goes to stderr *before* the run starts (flushed), so wrappers
    can parse the URL/segment and start scraping mid-run.
    """
    if args.metrics_port is None and args.live_name is None:
        return None, None, None
    from repro.obs import LiveMetrics, MetricsHTTPServer

    try:
        live = LiveMetrics.create(num_workers, name=args.live_name)
    except FileExistsError:
        print(
            f"live segment {args.live_name!r} already exists "
            "(another run is using it, or a crashed run leaked it)",
            file=sys.stderr,
        )
        return None, None, 2
    server = None
    if args.metrics_port is not None:
        server = MetricsHTTPServer(
            live, port=args.metrics_port, labels={"workload": args.algorithm}
        )
        try:
            port = server.start()
        except (OSError, OverflowError) as exc:  # in use, or not a real port
            live.close(unlink=True)
            print(f"cannot serve --metrics-port: {exc}", file=sys.stderr)
            return None, None, 2
        print(
            f"serving live metrics at http://127.0.0.1:{port}/metrics "
            f"(segment {live.name}; watch with `repro top {live.name}`)",
            file=sys.stderr,
            flush=True,
        )
    else:
        print(
            f"publishing live metrics to segment {live.name} "
            f"(watch with `repro top {live.name}`)",
            file=sys.stderr,
            flush=True,
        )
    return live, server, None


def _cmd_run(args) -> int:
    variants = VARIANTS[args.algorithm]
    if args.variant not in variants:
        print(
            f"unknown variant {args.variant!r} for {args.algorithm}; "
            f"choose from {sorted(variants)}",
            file=sys.stderr,
        )
        return 2
    algo, program = variants[args.variant]
    if args.mode == "bulk":
        if (algo, program + "-bulk") not in CELLS:
            print(
                f"{args.algorithm} variant {args.variant!r} has no bulk port",
                file=sys.stderr,
            )
            return 2
        program += "-bulk"
    runner = CELLS[(algo, program)]
    try:
        config = _run_config(args)
    except ValueError as exc:
        print(f"bad run options: {exc}", file=sys.stderr)
        return 2
    graph = _load_graph(args)
    if graph is None:
        return 2
    workers = config.num_workers
    partition = None
    if args.partition == "metis":
        partition = metis_like_partition(graph, workers, seed=0)
    elif args.partition == "range":
        partition = range_partition(graph.num_vertices, workers)
    elif args.partition == "degree":
        partition = degree_range_partition(graph, workers)

    recorder = None
    if args.trace is not None:
        from repro.obs import TraceRecorder

        recorder = TraceRecorder(args.trace)
    live, server, code = _start_live(args, workers)
    if code is not None:
        if recorder is not None:
            recorder.close()
        return code
    try:
        out = runner(graph, partition=partition, trace=recorder, live=live, **vars(config))
    except ValueError as exc:  # options only the built engine can check
        print(f"bad run options: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
        if live is not None:
            live.close(unlink=True)
        if recorder is not None:
            recorder.close()
    result = out[-1]
    m = result.metrics
    row = {
        "algorithm": args.algorithm,
        "variant": args.variant,
        "graph": args.dataset or args.graph,
        "vertices": graph.num_vertices,
        "edges": graph.num_input_edges,
        "workers": workers,
        "partition": args.partition,
        "executor": config.executor,
        **m.summary(),
    }
    if "transport" in m.trace_attrs:  # the mover the process pool picked
        row["transport"] = m.trace_attrs["transport"]
    if result.live_alerts is not None:
        row["live_alerts"] = len(result.live_alerts)
    if args.json:
        print(json.dumps(row))
    else:
        for k, v in row.items():
            if isinstance(v, float):
                v = round(v, 6)
            print(f"{k:16s} {v}")
        if args.trace is not None:
            print(f"trace written to {args.trace} (inspect with `repro report`)")
    return 0


def _cmd_stream(args) -> int:
    from repro.graph.io import load_update_stream
    from repro.streaming import STREAM_ALGORITHMS, EpochEngine

    if args.epoch_size is not None and args.epoch_size < 1:
        print("--epoch-size must be >= 1", file=sys.stderr)
        return 2
    if args.compact_threshold <= 0:
        print("--compact-threshold must be positive", file=sys.stderr)
        return 2
    try:
        config = _run_config(args)
    except ValueError as exc:
        print(f"bad run options: {exc}", file=sys.stderr)
        return 2
    graph = _load_graph(args)
    if graph is None:
        return 2
    try:
        batches = load_update_stream(args.updates, epoch_size=args.epoch_size)
    except (OSError, ValueError) as exc:
        print(f"bad --updates stream: {exc}", file=sys.stderr)
        return 2
    if not batches:
        print("update stream is empty", file=sys.stderr)
        return 2

    params = {}
    if args.algorithm == "pagerank":
        params["iterations"] = args.iterations
    elif args.algorithm == "sssp":
        params["source"] = args.source
    algo = STREAM_ALGORITHMS[args.algorithm](**params)
    recorder = None
    if args.trace is not None:
        from repro.obs import TraceRecorder

        recorder = TraceRecorder(args.trace)
    live, server, code = _start_live(args, config.num_workers)
    if code is not None:
        if recorder is not None:
            recorder.close()
        return code
    engine = None
    try:
        # the options are validated already: what can fail from here on
        # is applying the stream
        engine = EpochEngine(
            graph,
            algo,
            refresh=args.refresh,
            compact_threshold=args.compact_threshold,
            trace=recorder,
            live=live,
            **vars(config),
        )
        engine.bootstrap()
        epochs = engine.run(batches)
    except ValueError as exc:
        print(f"stream application failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if engine is not None:
            engine.close()
        if server is not None:
            server.stop()
        if live is not None:
            live.close(unlink=True)
        if recorder is not None:
            recorder.close()

    rows = [engine.history[0].summary()] + [e.summary() for e in epochs]
    if args.json:
        for row in rows:
            print(json.dumps(row))
    else:
        for row in rows:
            print(" ".join(f"{k}={round(v, 6) if isinstance(v, float) else v}"
                           for k, v in row.items()))
    return 0


def _cmd_report(args) -> int:
    from repro.obs import TraceReport, export_chrome_trace, load_trace

    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if not events:
        print("trace is empty", file=sys.stderr)
        return 2
    report = TraceReport(events)
    if args.chrome is not None:
        export_chrome_trace(events, args.chrome)
    if args.json:
        print(
            json.dumps(
                report.as_dict(
                    straggler_threshold=args.straggler_threshold,
                    z_threshold=args.z_threshold,
                )
            )
        )
    else:
        print(
            report.render(
                straggler_threshold=args.straggler_threshold,
                z_threshold=args.z_threshold,
            )
        )
        if args.chrome is not None:
            print(f"chrome trace written to {args.chrome} (load in chrome://tracing)")
    # a structurally broken trace (unclosed spans, bad nesting) is an
    # instrumentation bug — exit non-zero so CI trace smokes catch it
    return 1 if report.problems else 0


def _cmd_top(args) -> int:
    import time as _time

    from repro.obs import LiveMetrics, format_top

    try:
        live = LiveMetrics.attach(args.segment)
    except FileNotFoundError:
        print(
            f"no live-metrics segment named {args.segment!r} — is the run "
            "still going, and was it started with --metrics-port or "
            "--live-name?",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        if args.once:
            print(format_top(live))
            return 0
        prev = prev_t = None
        while True:
            rows = live.snapshot()
            now = _time.monotonic()
            dt = None if prev_t is None else now - prev_t
            # clear + home, then one table per refresh (plain ANSI; the
            # run owns stdout semantics, repro top owns a whole terminal)
            sys.stdout.write("\x1b[2J\x1b[H")
            print(format_top(live, rows=rows, prev=prev, dt=dt), flush=True)
            prev, prev_t = rows, now
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        live.close()


def _graph_info(name: str, graph) -> dict:
    """One ``repro info`` row: where the graph lives and what it costs."""
    store = graph.store
    fp = store.footprint()
    row = {
        "graph": name,
        "store": store.kind,
        "vertices": graph.num_vertices,
        "edges": graph.num_input_edges,
        "arcs": graph.num_edges,
        "directed": graph.directed,
        "weighted": graph.weighted,
        "avg_degree": round(graph.avg_degree, 3),
        "indptr_dtype": str(graph.indptr.dtype),
        "indices_dtype": str(graph.indices.dtype),
        "resident_mb": round(fp["resident_bytes"] / 1e6, 3),
        "on_disk_mb": round(fp["on_disk_bytes"] / 1e6, 3),
    }
    if store.kind == "mmap":
        row["path"] = str(store.path)
    return row


def _cmd_info(args) -> int:
    from repro.obs import format_table

    if args.graph in DATASETS or args.graph in EXTRA_DATASETS:
        graph = load_dataset(args.graph)
    else:
        try:
            graph = load_graph(args.graph)
        except (OSError, ValueError) as exc:
            print(f"cannot open {args.graph!r}: {exc}", file=sys.stderr)
            return 2
    row = _graph_info(args.graph, graph)
    if args.json:
        print(json.dumps(row))
    else:
        # one property per line reads better than one very wide table row
        print(format_table([{"property": k, "value": v} for k, v in row.items()]))
    return 0


def _cmd_generate(args) -> int:
    from repro.graph.generators import erdos_renyi_to_disk, rmat_to_disk
    from repro.obs import format_table

    if args.chunk_edges < 1:
        print("--chunk-edges must be >= 1", file=sys.stderr)
        return 2
    if args.kind == "rmat":
        graph = rmat_to_disk(
            args.out,
            scale=args.scale,
            edge_factor=args.edge_factor,
            seed=args.seed,
            directed=not args.undirected,
            weighted=args.weighted,
            chunk_edges=args.chunk_edges,
            index_dtype=args.index_dtype,
        )
    else:
        if args.weighted:
            print("--weighted is rmat-only", file=sys.stderr)
            return 2
        graph = erdos_renyi_to_disk(
            args.out,
            args.vertices,
            args.avg_degree,
            seed=args.seed,
            directed=not args.undirected,
            chunk_edges=args.chunk_edges,
            index_dtype=args.index_dtype,
        )
    row = _graph_info(args.out, graph)
    print(format_table([{"property": k, "value": v} for k, v in row.items()]))
    return 0


def _cmd_datasets() -> int:
    rows = table3_rows()
    cols = list(rows[0])
    print("  ".join(c.ljust(12) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(12) for c in cols))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "tables":
        from repro.bench.tables import main as tables_main

        tables_main(args.which)
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
