import time; T0 = time.perf_counter()  # noqa: E702 - the clock starts before any import

# One repetition in a fresh Python process: ``child.py SPEC.json OUT.json``.
#
# The clock runs from T0 above until run_<algo> returns the dense result
# array; verification, counters and the span dump come after.  Only the
# pinned public surface is called (see README.md).  spec["mode"]:
#
#   timed   the only interposition is the begin_run timestamp hook
#   traced  every hook of spans.HOOKS is installed
#   touch   imports the modules and reads the store once, runs nothing
#           (fills the page cache and __pycache__ when a full warm-up
#           repetition does not fit the time budget)
#
# spec["obs"] (trace | live) passes the program's own instruments to a
# timed run, to measure what they cost.

import gc
import hashlib
import importlib
import json
import resource
import sys


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    import numpy as np

    import prepare
    import spans
    from repro.graph import io

    algo = importlib.import_module(f"repro.algorithms.{spec['algo']}")
    # the backend modules are imported lazily by the engine; the hooks need them now
    if spec["executor"] == "process":
        import repro.runtime.parallel.backend  # noqa: F401
    else:
        import repro.runtime.executor  # noqa: F401
    obs = spec.get("obs")
    if obs == "trace":
        from repro.obs.trace import TraceRecorder
    elif obs == "live":
        from repro.obs.live import LiveMetrics
    t_import = time.perf_counter()

    if spec["mode"] == "touch":
        graph = io.load_graph(spec["store"])
        touched = sum(int(np.asarray(a).sum() != 0) for a in graph.csr_arrays().values())
        _write(out_path, {"ok": True, "touched": touched})
        return

    traced = spec["mode"] == "traced"
    missing = spans.install(None if traced else spans.BEGIN_RUN)
    if spans.BEGIN_RUN in missing:
        raise SystemExit(
            f"the {spec['executor']} backend has no begin_run to hook: "
            "setup_s cannot be measured as defined"
        )
    spans.SPANS.append(["bench.import", T0, t_import, -1, None])

    kwargs = dict(spec["kwargs"])
    instrument = None
    if obs == "trace":
        instrument = kwargs["trace"] = TraceRecorder(spec["obs_path"])
    elif obs == "live":
        instrument = kwargs["live"] = LiveMetrics.create(spec["workers"])
    graph = io.load_graph(spec["store"])
    owner = prepare.partition_of(spec, graph, spec["partition_seed"])
    result_array, result = getattr(algo, f"run_{spec['algo']}")(
        graph,
        num_workers=spec["workers"],
        partition=owner,
        executor=spec["executor"],
        **kwargs,
    )
    if obs == "trace":
        instrument.close()
    elif obs == "live":
        instrument.close(unlink=True)
    T1 = time.perf_counter()

    begin_run = [s for s in spans.SPANS if s[0] == spans.BEGIN_RUN]
    if not begin_run:
        raise SystemExit("begin_run was hooked but never called")
    metrics = result.metrics
    out = {
        "ok": True,
        "t0": T0,
        "t1": T1,
        "wall_s": T1 - T0,
        "setup_s": begin_run[0][2] - T0,
        "error": prepare.verify(spec["algo"], result_array, np.load(spec["reference"])),
        "exact": {
            "net_bytes": int(metrics.total_net_bytes),
            "supersteps": int(metrics.supersteps),
            "rounds": int(metrics.total_rounds),
            "messages": int(metrics.total_messages),
            "checksum": hashlib.sha256(np.ascontiguousarray(result_array).tobytes()).hexdigest(),
        },
        "books": {
            "local_bytes": int(metrics.total_local_bytes),
            "wall_time_s": metrics.wall_time,
            "phases": metrics.phase_totals(),
            "channels": metrics.channel_breakdown(),
            "active_vertices_total": sum(r.active_vertices for r in metrics.records),
        },
    }
    if traced:
        out["missing_hooks"] = missing
        out["spans"] = spans.SPANS
        if spec["executor"] == "sim":
            out["checkpoint"] = _checkpoint_probe(spans.ENGINES[-1])
        # collecting the engine shuts its pool down, so the workers are
        # reaped and RUSAGE_CHILDREN holds the largest of them
        del result, metrics
        spans.ENGINES.clear()
        gc.collect()
        out["driver_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    _write(out_path, out)


def _checkpoint_probe(engine) -> dict:
    """Capture and restore the finished engine's state (sim only: the
    workers live in this process)."""
    from repro.runtime.checkpoint import capture_snapshot, restore_worker

    t0 = time.perf_counter()
    snapshot = capture_snapshot(engine)
    t1 = time.perf_counter()
    for w in range(engine.num_workers):
        restore_worker(engine, snapshot, w)
    t2 = time.perf_counter()
    return {"capture_s": t1 - t0, "restore_s": t2 - t1, "bytes": int(snapshot.nbytes)}


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
