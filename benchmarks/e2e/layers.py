"""The per-layer metrics: their names and units, and how one traced
repetition (plus its sim twin, the probes and the prepare step) fills
them in.  A value is ``None`` when its hook or probe did not run.
"""

from __future__ import annotations

import spans as sp

#: channel classes of the benchmark's three programs
CHANNEL_CLASSES = ("ScatterCombine", "CombinedMessage", "RequestRespond", "Aggregator")
PHASES = ("barrier", "compute", "serialize", "exchange")
EXECUTOR_PHASES = sp.EXECUTOR_PHASES

PROBES = {
    "runtime.parallel.superstep_floor_us": "us",
    "runtime.executor.superstep_floor_us": "us",
    "runtime.parallel.shm.ring_mb_s": "MiB/s",
    "core.combiner.accumulate_at_unique_melem_s": "Melem/s",
    "core.combiner.accumulate_at_dup_melem_s": "Melem/s",
    "core.combiner.reduceat_melem_s": "Melem/s",
    "runtime.serialization.encode_mb_s": "MiB/s",
    "runtime.serialization.decode_mb_s": "MiB/s",
}


def declared() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {
        "bench.import_s": "s",
        "bench.residual_s": "s",
        "bench.residual_frac": "ratio",
        "bench.trace_overhead_frac": "ratio",
        "graph.io.load_graph_s": "s",
        "graph.partition.partition_s": "s",
        "graph.partition.edge_cut_frac": "ratio",
        "graph.partition.arc_imbalance": "ratio",
        "graph.store.build_s": "s",
        "graph.store.on_disk_mb": "MiB",
        "core.engine.build_s": "s",
    }
    units.update({f"runtime.executor.{p}_s": "s" for p in EXECUTOR_PHASES})
    units.update(
        {
            "algorithms.gather_s": "s",
            "core.worker.run_compute_s": "s",
            "core.worker.run_compute_crit_s": "s",
            "core.worker.begin_superstep_s": "s",
            "core.worker.route_inbox_s": "s",
            "core.worker.active_vertices_total": "count",
        }
    )
    for cls in CHANNEL_CLASSES:
        units[f"core.channels.{cls}.serialize_s"] = "s"
        units[f"core.channels.{cls}.serialize_first_s"] = "s"
        units[f"core.channels.{cls}.deserialize_s"] = "s"
        units[f"core.channels.{cls}.calls"] = "count"
    units.update(
        {
            "core.program.finalize_s": "s",
            "runtime.buffers.exchange_s": "s",
            "runtime.metrics.supersteps": "count",
            "runtime.metrics.rounds": "count",
            "runtime.metrics.messages": "count",
            "runtime.metrics.local_bytes": "bytes",
            "runtime.metrics.wall_time_s": "s",
        }
    )
    units.update({f"runtime.metrics.phase.{p}_s": "s" for p in PHASES})
    for cls in CHANNEL_CLASSES:
        units[f"runtime.metrics.channel.{cls}.bytes"] = "bytes"
        units[f"runtime.metrics.channel.{cls}.messages"] = "count"
    units.update(
        {
            "runtime.parallel.driver_rss_mb": "MiB",
            "runtime.parallel.worker_rss_mb": "MiB",
        }
    )
    units.update(PROBES)
    units.update(
        {
            "runtime.checkpoint.capture_s": "s",
            "runtime.checkpoint.restore_s": "s",
            "runtime.checkpoint.bytes": "bytes",
            "obs.trace.overhead_frac": "ratio",
            "obs.live.overhead_frac": "ratio",
        }
    )
    return units


def better(unit: str) -> str:
    return "higher" if unit.endswith("/s") else "lower"


def assemble(
    prep: dict, traced: dict, twin: dict, untraced_wall: float,
    probes: dict | None, obs: dict | None,
) -> dict:
    """The per-layer metrics of one workload.  ``traced`` is its own
    traced repetition; ``twin`` is the sim-executed one that carries the
    per-worker and per-channel spans (the same object on a sim workload)."""
    own, sim = traced["spans"], twin["spans"]
    wall = traced["wall_s"]
    left_over = sp.residual(own, traced["t0"], traced["t1"])
    out = dict.fromkeys(declared())
    out.update(
        {
            "bench.import_s": sp.total(own, "bench.import"),
            "bench.residual_s": left_over,
            "bench.residual_frac": left_over / wall,
            "bench.trace_overhead_frac": wall / untraced_wall - 1.0,
            "graph.io.load_graph_s": sp.total(own, "graph.io.load_graph"),
            "graph.partition.partition_s": sp.total(own, "graph.partition.partition"),
            "graph.partition.edge_cut_frac": prep["edge_cut_frac"],
            "graph.partition.arc_imbalance": prep["arc_imbalance"],
            "graph.store.build_s": prep["build_s"],
            "graph.store.on_disk_mb": prep["on_disk_mb"],
            "core.engine.build_s": sp.total(own, "core.engine.build"),
            "algorithms.gather_s": sp.total(own, "algorithms.gather"),
            "core.worker.run_compute_s": sp.total(sim, "core.worker.run_compute"),
            "core.worker.run_compute_crit_s": sp.critical_path(sim, "core.worker.run_compute"),
            "core.worker.begin_superstep_s": sp.total(sim, "core.worker.begin_superstep"),
            "core.worker.route_inbox_s": sp.total(sim, "core.worker.route_inbox"),
            "core.worker.active_vertices_total": traced["books"]["active_vertices_total"],
            "core.program.finalize_s": sp.total(sim, "core.program.finalize"),
            "runtime.buffers.exchange_s": sp.total(sim, "runtime.buffers.exchange"),
            "runtime.metrics.supersteps": traced["exact"]["supersteps"],
            "runtime.metrics.rounds": traced["exact"]["rounds"],
            "runtime.metrics.messages": traced["exact"]["messages"],
            "runtime.metrics.local_bytes": traced["books"]["local_bytes"],
            "runtime.metrics.wall_time_s": traced["books"]["wall_time_s"],
            "runtime.parallel.driver_rss_mb": traced["driver_rss_mb"],
            # a sim run has no worker processes
            "runtime.parallel.worker_rss_mb": traced["worker_rss_mb"] or None,
        }
    )
    for phase in EXECUTOR_PHASES:
        out[f"runtime.executor.{phase}_s"] = sp.total(own, f"runtime.executor.{phase}")
    for phase in PHASES:
        out[f"runtime.metrics.phase.{phase}_s"] = traced["books"]["phases"].get(phase)

    channel_rows = sp.channel_rows(sim)
    traffic = {}
    for label, row in traced["books"]["channels"].items():
        entry = traffic.setdefault(label.split(":")[-1], {"bytes": 0, "messages": 0})
        entry["bytes"] += row["net_bytes"]
        entry["messages"] += row["messages"]
    for cls in CHANNEL_CLASSES:
        # a class the program does not use did no work: 0, not unknown
        if channel_rows:
            row = channel_rows.get(cls, {})
            for key in ("serialize_s", "serialize_first_s", "deserialize_s", "calls"):
                out[f"core.channels.{cls}.{key}"] = row.get(key, 0)
        entry = traffic.get(cls, {"bytes": 0, "messages": 0})
        out[f"runtime.metrics.channel.{cls}.bytes"] = entry["bytes"]
        out[f"runtime.metrics.channel.{cls}.messages"] = entry["messages"]

    for key, value in (twin.get("checkpoint") or {}).items():
        out[f"runtime.checkpoint.{key}"] = value
    out.update(probes or {})
    out.update(obs or {})
    return out
