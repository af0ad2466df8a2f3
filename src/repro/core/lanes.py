"""Lanes: the threads one worker's scan folds on.

NumPy's ``take`` and a ufunc's ``reduceat`` release the GIL over their
inner loops, so a scan cut into runs of whole blocks folds on several
cores at once, each run into its own slice of the output.  How many lanes
a worker gets is a rule on the cores (:func:`lane_count`), never an
option: the cores of this process's affinity set, shared among the
workers that run on it at once.

The lane threads are this process's own, started on first use and kept
for its life: each waits on an inbox (a ``queue.SimpleQueue``) for the
next run to fold and answers on its outbox — nothing heavier, so the
first two-lane scan costs one thread start, not an executor's imports.
A forked child inherits the list of lanes but none of their threads —
work handed to them would wait forever — so the child forgets them at
fork and starts its own.  Each thread, the calling one included, folds
in a scratch of its own (:func:`lane_scratch`).
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["affinity_cores", "lane_count", "lane_scratch", "run_lanes"]


def affinity_cores() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lane_count(workers_at_once: int) -> int:
    """The lanes of each of ``workers_at_once`` workers running at once on
    this host: its cores shared among them, at least one."""
    return max(1, affinity_cores() // workers_at_once)


#: this process's lane threads, each an ``(inbox, outbox)`` pair; ``None``
#: until the first scan folds on two lanes
_pool: list[tuple[queue.SimpleQueue, queue.SimpleQueue]] | None = None
#: one scan hands its runs to the lanes at a time
_dispatch = threading.Lock()


def _serve(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    """A lane thread's life: run each call its inbox hands it, under the
    floating-point error handling it came with, and answer ``None`` or the
    error it raised.  The call is dropped before the answer goes out,
    since the caller may then free what the call holds."""
    while True:
        outbox.put(_answer(*inbox.get()))


def _answer(call: Callable[[], None], errstate: dict) -> BaseException | None:
    try:
        with np.errstate(**errstate):
            call()
    except BaseException as error:  # the caller re-raises it
        return error
    return None


def _threads(count: int) -> list[tuple[queue.SimpleQueue, queue.SimpleQueue]]:
    """This process's first ``count`` lane threads, started as needed."""
    global _pool
    if _pool is None:
        _pool = []
    while len(_pool) < count:
        lane = (queue.SimpleQueue(), queue.SimpleQueue())
        name = f"scan-lane-{len(_pool) + 1}"
        threading.Thread(target=_serve, args=lane, name=name, daemon=True).start()
        _pool.append(lane)
    return _pool[:count]


def _forget_threads() -> None:
    global _pool, _dispatch
    _pool, _dispatch = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads)


def run_lanes(calls: Sequence[Callable[[], None]]) -> None:
    """Run ``calls`` at once — the first on the calling thread, the rest on
    this process's lane threads, each under the caller's ``np.geterr()``
    as the first runs — and return when all have; an error any raised is
    raised here, the calling thread's first."""
    first, *rest = calls
    if not rest:
        first()
        return
    errstate = np.geterr()
    with _dispatch:
        lanes = _threads(len(rest))
        for (inbox, _), call in zip(lanes, rest):
            inbox.put((call, errstate))
        try:
            first()
        finally:
            errors = [outbox.get() for _, outbox in lanes]  # (waits for each)
    for error in errors:
        if error is not None:
            raise error


_local = threading.local()


def lane_scratch(nbytes: int) -> np.ndarray:
    """At least ``nbytes`` of the calling thread's scratch: one buffer per
    thread, so per lane, that every scan the thread folds reuses (a
    thread folds one run at a time), grown to the most it was asked for
    and kept for the thread's life."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None or scratch.size < nbytes:
        scratch = _local.scratch = np.empty(nbytes, dtype=np.uint8)
    return scratch
