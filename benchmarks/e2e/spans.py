"""Span recorder for the benchmark's child processes.

Nothing inside ``src/`` is edited: public callables are wrapped by class
or module attribute from the one table below, spans stay in memory and
the child writes them out when it exits.  A span is the list
``[name, start, end, parent, tag]``; ``parent`` is an index into the
same list (``-1`` for a top-level span) and ``tag`` carries the worker
id, or ``"<ChannelClass>/<worker id>"`` for channel calls.
"""

from __future__ import annotations

import sys
import time

SPANS: list[list] = []
ENGINES: list = []  # engines built while hooks are installed (checkpoint probe)
_STACK = [-1]

BEGIN_RUN = "runtime.executor.begin_run"


def _worker_tag(worker):
    return worker.worker_id


def _channel_tag(channel):
    return f"{type(channel).__name__}/{channel.worker.worker_id}"


#: the ExecutorBackend primitives that tile a run, driver side
EXECUTOR_PHASES = ("begin_run", "barrier_vote", "compute_phase", "exchange_phase", "collect_results")


def _backend_rows(module: str, cls: str):
    return [(module, cls, attr, f"runtime.executor.{attr}", None) for attr in EXECUTOR_PHASES]


#: (module, class or None, attribute) -> span name, tag function.  Only
#: modules the child has already imported are hooked; a module that is
#: loaded but lacks the class or attribute is reported as missing.
HOOKS = [
    ("repro.graph.io", None, "load_graph", "graph.io.load_graph", None),
    ("repro.graph.partition", None, "degree_range_partition", "graph.partition.partition", None),
    ("repro.graph.partition", None, "hash_partition", "graph.partition.partition", None),
    ("repro.core.engine", "ChannelEngine", "__init__", "core.engine.build", None),
    *_backend_rows("repro.runtime.executor", "SimBackend"),
    *_backend_rows("repro.runtime.parallel.backend", "ProcessBackend"),
    ("repro.core.worker", "Worker", "run_compute", "core.worker.run_compute", _worker_tag),
    ("repro.core.worker", "Worker", "begin_superstep", "core.worker.begin_superstep", _worker_tag),
    ("repro.core.worker", "Worker", "route_inbox", "core.worker.route_inbox", _worker_tag),
    ("repro.runtime.buffers", "BufferExchange", "exchange", "runtime.buffers.exchange", None),
    # run_<algo> binds gather by name at import, so it is hooked where it is used
    ("repro.algorithms.pagerank", None, "gather", "algorithms.gather", None),
    ("repro.algorithms.sssp", None, "gather", "algorithms.gather", None),
    ("repro.algorithms.sv", None, "gather", "algorithms.gather", None),
]


def _channels(worker):
    return worker.channels


def _program(worker):
    return [worker.program]


def _program_tag(program):
    return program.worker.worker_id


#: hooked on whatever classes the built engine's channels and programs
#: have, once ``ChannelEngine.__init__`` has returned
ENGINE_HOOKS = [
    (_channels, "serialize", "core.channels.serialize", _channel_tag),
    (_channels, "deserialize", "core.channels.deserialize", _channel_tag),
    (_program, "finalize", "core.program.finalize", _program_tag),
]


def _wrap(fn, name, tag_of=None, after=None):
    def hooked(*args, **kwargs):
        rec = [name, 0.0, 0.0, _STACK[-1], tag_of(args[0]) if tag_of else None]
        _STACK.append(len(SPANS))
        SPANS.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            _STACK.pop()
        if after is not None:
            after(args[0])
        return result

    hooked.__wrapped__ = fn
    return hooked


def _hook_method(cls, attr, name, tag_of):
    """Wrap ``attr`` on the class in ``cls``'s MRO that defines it (once)."""
    for owner in cls.__mro__:
        fn = owner.__dict__.get(attr)
        if fn is not None:
            if not hasattr(fn, "__wrapped__"):
                setattr(owner, attr, _wrap(fn, name, tag_of))
            return


def _hook_engine(engine) -> None:
    ENGINES.append(engine)
    for worker in engine.workers:
        for objects, attr, name, tag_of in ENGINE_HOOKS:
            for obj in objects(worker):
                _hook_method(type(obj), attr, name, tag_of)


def install(only: str | None = None) -> list[str]:
    """Install the table's hooks (just the rows named ``only`` when
    given); returns the span names whose hook could not be found."""
    missing = []
    for module, cls, attr, name, tag_of in HOOKS:
        if only is not None and name != only:
            continue
        owner = sys.modules.get(module)
        if owner is None:
            continue
        if cls is not None:
            owner = getattr(owner, cls, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(name)
            continue
        after = _hook_engine if name == "core.engine.build" and only is None else None
        setattr(owner, attr, _wrap(fn, name, tag_of, after))
    return missing


# -- arithmetic over a finished span list ------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def residual(spans: list[list], t0: float, t1: float) -> float:
    """The part of ``[t0, t1]`` that no top-level span covers."""
    return (t1 - t0) - sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    rows: dict[str, dict] = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return rows


def total(spans: list[list], name: str) -> float | None:
    """Summed duration of the spans called ``name`` (None when absent)."""
    durations = [end - start for n, start, end, _, _ in spans if n == name]
    return sum(durations) if durations else None


def critical_path(spans: list[list], name: str) -> float | None:
    """Sum over parent spans of the slowest tag's time under that parent:
    with one tag per worker, the time a parallel run would wait for."""
    per_parent: dict[int, dict] = {}
    for n, start, end, parent, tag in spans:
        if n == name:
            by_tag = per_parent.setdefault(parent, {})
            by_tag[tag] = by_tag.get(tag, 0.0) + end - start
    if not per_parent:
        return None
    return sum(max(by_tag.values()) for by_tag in per_parent.values())


def channel_rows(spans: list[list]) -> dict[str, dict]:
    """Per channel class: serialize/deserialize seconds, the first
    serialize call of each worker (it carries the lazy build) and calls."""
    rows: dict[str, dict] = {}
    seen = set()
    for name, start, end, _, tag in spans:
        if not name.startswith("core.channels."):
            continue
        cls = tag.split("/")[0]
        row = rows.setdefault(
            cls, {"serialize_s": 0.0, "serialize_first_s": 0.0, "deserialize_s": 0.0, "calls": 0}
        )
        if name == "core.channels.serialize":
            row["serialize_s"] += end - start
            row["calls"] += 1
            if tag not in seen:
                seen.add(tag)
                row["serialize_first_s"] += end - start
        else:
            row["deserialize_s"] += end - start
    return rows
