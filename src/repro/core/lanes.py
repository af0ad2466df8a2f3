"""Lanes: the threads one worker's scan folds on.

NumPy's ``take`` and a ufunc's ``reduceat`` release the GIL over their
inner loops, so a scan cut into runs of whole blocks folds on several
cores at once, each run into its own slice of the output.  How many lanes
a worker gets is a rule on the cores (:func:`lane_count`), never an
option: the cores of this process's affinity set, shared among the
workers that run on it at once.

The threads are one pool per process, made on first use.  A forked
child inherits the pool object but none of its threads — work handed to
it would wait forever — so the child forgets it at fork and makes its
own.  Each thread, the calling one included, folds in a scratch of its
own (:func:`lane_scratch`).
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ThreadPoolExecutor

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


_pool: ThreadPoolExecutor | None = None
_pool_threads = 0


def _threads(count: int) -> ThreadPoolExecutor:
    """This process's lane threads, at least ``count`` of them."""
    global _pool, _pool_threads
    if _pool is None or _pool_threads < count:
        # imported here: it imports logging, which a process that never
        # folds on two lanes need not pay for
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(max_workers=count, thread_name_prefix="scan-lane")
        _pool_threads = count
    return _pool


def _forget_threads() -> None:
    global _pool, _pool_threads
    _pool, _pool_threads = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads)


def run_lanes(calls: Sequence[Callable[[], None]]) -> None:
    """Run ``calls`` at once — the first on the calling thread, the rest on
    this process's lane threads — and return when all have; an error any
    raised is raised here, the calling thread's first."""
    first, *rest = calls
    if not rest:
        first()
        return
    futures = [_threads(len(rest)).submit(call) for call in rest]
    try:
        first()
    finally:
        errors = [future.exception() for future in futures]  # (waits for each)
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
