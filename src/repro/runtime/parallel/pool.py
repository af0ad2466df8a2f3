"""Persistent worker-process pools for the process backend.

PR 4's backend spawned one process per worker per ``run()`` and tore
everything down at the end — correct, but it made every streaming epoch
pay full process-startup, shared-memory-export, and module-import cost.
A :class:`WorkerPool` keeps the worker processes alive instead:

* **spawn once** — processes are created the first time a configuration
  is loaded (so first-run program factories may be closures or locally
  defined classes: under the ``fork`` start method they reach the child
  by inheritance, never crossing a pipe);
* **reconfigure, don't respawn** — a *different* engine (a new streaming
  epoch's graph view, remapped ownership, new refresh program) is loaded
  into the live children via ``configure`` control messages carrying the
  new shared-memory specs and the program factory as pickle bytes
  (:class:`~repro.core.program.ProgramSpec` makes the streaming
  planners' dynamically parameterized programs picklable);
* **supervised failure injection** — :meth:`kill` makes a worker process
  exit hard (the real crash path: the parent sees a dead PID, not an
  error reply) and :meth:`respawn` builds a replacement on the *same*
  peer-to-peer frame pipes, which stay usable because the parent keeps
  its own handles to every pipe end open;
* **leak-free teardown** — cleanup runs via ``weakref.finalize``
  (which also fires at interpreter exit, i.e. ``atexit``): graceful
  ``stop``, then terminate stragglers, close every pipe, and unlink all
  shared-memory segments.  :meth:`shutdown` is explicit and idempotent.

The pool is deliberately engine-agnostic: it knows configurations
(graph + ownership + seeds + program factory), commands, and replies —
the superstep drive loop lives in
:class:`~repro.runtime.parallel.backend.ProcessBackend`.

Which byte mover carries the frames is not an option but a rule on the
cores (:func:`frame_mover`): shared-memory rings while every worker has
a core of its own, OS pipes once workers outnumber cores.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import weakref

import numpy as np

from repro.runtime.parallel.protocol import (
    WorkerProcessError,
    check_liveness,
    recv_supervised,
    send_msg,
)
from repro.runtime.parallel.shm import (
    DEFAULT_RING_CAPACITY,
    RingBuffer,
    SharedArrayExport,
    VoteBoard,
)
from repro.runtime.parallel.worker_proc import worker_main

__all__ = ["WorkerPool", "frame_mover", "usable_cores"]

#: exit code used for injected worker deaths (visible in the
#: WorkerProcessError message, distinguishable from real crashes)
INJECTED_EXIT_CODE = 43


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def frame_mover(num_workers: int) -> str:
    """The byte mover for a pool of ``num_workers``: ``"shm"`` rings while
    every worker has a core, ``"pipe"`` once workers outnumber cores.

    A ring reader spins before it sleeps, and a spinning reader on a
    shared core takes the time its producer needs; a pipe read blocks in
    the kernel instead.  Measured on 2 vCPUs, shm is ahead or tied at 2
    workers and pipe is ahead at 4 and 8 (ARCHITECTURE.md §9).
    """
    return "shm" if num_workers <= usable_cores() else "pipe"


def _mp_context():
    # fork keeps program factories (often closures or dynamically created
    # classes) out of pickle entirely; spawn is the portable fallback and
    # requires picklable factories
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _PoolState:
    """The pool's OS-level resources, shared with the ``weakref.finalize``
    callback (which must not reference the pool itself, or it would keep
    it alive forever)."""

    __slots__ = (
        "procs", "control", "frame_send", "frame_recv", "rings", "board", "export"
    )

    def __init__(self) -> None:
        self.procs: list = []
        self.control: list = []
        # parent-side handles of every worker<->worker frame pipe end;
        # keeping them open is what lets a respawned replacement reuse
        # the surviving peers' pipes (and why peers never see EOF)
        self.frame_send: list[dict] = []
        self.frame_recv: list[dict] = []
        # shm transport: (src, dst) -> RingBuffer, parent-owned (the
        # parent unlinks the segments at shutdown; respawned replacements
        # re-attach)
        self.rings: dict = {}
        # the barrier-vote board, one row per worker (both transports)
        self.board: VoteBoard | None = None
        self.export: SharedArrayExport | None = None


def _shutdown_state(state: _PoolState) -> None:
    """Tear a pool's processes and OS resources down (finalizer body;
    must never raise — it also runs at interpreter exit)."""
    for conn in state.control:
        try:
            send_msg(conn, {"cmd": "stop"})
        except Exception:
            pass
    for proc in state.procs:
        try:
            proc.join(timeout=0.5)
        except Exception:
            pass
    for proc in state.procs:
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        except Exception:
            pass
    conns = list(state.control)
    for row in state.frame_send + state.frame_recv:
        conns.extend(row.values())
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for segment in (*state.rings.values(), state.board):
        try:
            if segment is not None:
                segment.close(unlink=True)
        except Exception:
            pass
    if state.export is not None:
        try:
            state.export.close()
        except Exception:
            pass
    state.procs = []
    state.control = []
    state.frame_send = []
    state.frame_recv = []
    state.rings = {}
    state.board = None
    state.export = None


class WorkerPool:
    """A persistent set of ``num_workers`` worker processes.

    One pool serves one engine configuration at a time;
    :meth:`ensure` switches configurations (spawning on first use,
    reconfiguring the live children afterwards).  ``spawn_count`` counts
    every worker process ever started — the streaming tests assert it
    stays at ``num_workers`` across a whole multi-epoch run.

    :attr:`transport` is the byte mover for codec frames, chosen once by
    :func:`frame_mover`: ``"shm"`` streams them worker-to-worker through
    per-pair shared-memory ring buffers, ``"pipe"`` sends each round's
    buffer over per-pair OS pipes with a sender thread.  The protocol
    above them is one and the same —
    :class:`~repro.runtime.parallel.backend.ProcessBackend` drives both
    with the batched ``superstep`` command, barrier votes go through the
    pool's :class:`~repro.runtime.parallel.shm.VoteBoard`, and results
    are bit-identical.  A single-worker pool has no peers, hence no
    rings or pipes, and runs the same protocol.  Each ring's data area
    is ``DEFAULT_RING_CAPACITY`` bytes (frames larger than a ring stream
    through it in chunks).
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self._transport = frame_mover(num_workers)
        self._seq = 0  # superstep sequence for the vote board
        self._ctx = _mp_context()
        self._state = _PoolState()
        self._finalizer: weakref.finalize | None = None
        self._cfg: dict | None = None  # current configuration (live objects)
        self._child_cfg: dict | None = None  # its shared-memory spec form
        self._owner_view: np.ndarray | None = None  # parent view of shared owner
        self.generation: int | None = None  # engine generation currently loaded
        self._evicted: set[int] = set()  # generations replaced by a later one
        self.num_channels: int | None = None
        self.spawn_count = 0  # worker processes ever started (incl. respawns)
        self.broken = False
        self._closed = False

    @property
    def transport(self) -> str:
        """The byte mover this pool's frames travel by (``"shm"`` or
        ``"pipe"``), fixed when the pool was built."""
        return self._transport

    # -- lifecycle ---------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._state.procs)

    @property
    def closed(self) -> bool:
        return self._closed

    def ensure(self, cfg: dict, generation: int) -> None:
        """Make ``cfg`` the live configuration.

        ``cfg`` holds live objects: ``graph`` (a
        :class:`~repro.graph.graph.Graph`), ``owner`` (the partition
        array), ``seeds`` (initial active set or ``None``), and
        ``factory`` (the program factory).  ``generation`` identifies the
        engine the configuration belongs to; re-running the same engine
        on the pool is a no-op here, so live worker state survives
        between its runs (matching the simulator, where a finished
        engine's second ``run()`` sees every vertex halted).

        Loading a *different* generation evicts the current one — its
        worker state is gone for good, so a later attempt to run the
        evicted engine on this pool is refused rather than silently
        re-executed from scratch (which would diverge from the
        simulator's second-run-is-a-no-op contract).
        """
        if self._closed:
            raise WorkerProcessError("worker pool is shut down")
        if self.broken:
            raise WorkerProcessError(
                "worker pool is broken (a worker process failed); "
                "construct a new pool"
            )
        if generation in self._evicted:
            raise WorkerProcessError(
                "this engine's configuration was already replaced on the "
                "pool by a later engine, and its worker state is gone; a "
                "pool serves one engine at a time — construct a new engine "
                "(or a new pool) to run again"
            )
        if not self.started:
            self._spawn(cfg)
        elif self.generation != generation:
            self._reconfigure(cfg)
            self._evicted.add(self.generation)
        self.generation = generation

    def _share_config(self, cfg: dict) -> tuple[SharedArrayExport, dict]:
        """Export a configuration's arrays into fresh shared memory and
        build the child-side spec dict."""
        graph = cfg["graph"]
        export = SharedArrayExport()
        # attach-by-path beats copy-into-shm: a graph whose store already
        # lives on disk (mmap) ships to children as just its path — the
        # kernel page cache shares the physical pages across processes,
        # and the parent never pays a CSR-sized copy.  Everything else is
        # exported into POSIX shared memory exactly as before.
        graph_desc = graph.store.describe()
        if graph_desc is None:
            csr = graph.csr_arrays()
            graph_desc = {
                "kind": "shm",
                "num_vertices": graph.num_vertices,
                "directed": graph.directed,
                "indptr": export.share(csr["indptr"]),
                "indices": export.share(csr["indices"]),
                "weights": export.share(csr["weights"]) if "weights" in csr else None,
            }
        # the owner segment stays parent-writable: adaptive rebalancing
        # rewrites the partition in place at a quiescent barrier and every
        # child (and any later respawn, which attaches the same segment)
        # observes the migrated ownership
        owner_spec, owner_view = export.share_writable(
            np.asarray(cfg["owner"], dtype=np.int64)
        )
        self._owner_view = owner_view
        child_cfg = {
            "num_vertices": graph.num_vertices,
            "directed": graph.directed,
            "num_workers": self.num_workers,
            "graph": graph_desc,
            "owner": owner_spec,
            "seeds": cfg["seeds"],
            # see attach_array: spawned children must drop their private
            # resource tracker's claim on the parent's segments
            "unregister_shm": self._ctx.get_start_method() != "fork",
            "init_channels": False,
            # live telemetry attachment spec ({"name", "num_workers"} or
            # None); each child writes its own slot of the segment
            "live": cfg.get("live"),
        }
        return export, child_cfg

    def _spawn(self, cfg: dict) -> None:
        state = self._state
        ctx = self._ctx
        n = self.num_workers
        export, child_cfg = self._share_config(cfg)
        state.export = export
        self._cfg = cfg
        self._child_cfg = child_cfg

        # pool-lifetime, like the frame links below: sequence numbers keep
        # rising across reconfigurations, so the board is never reset
        state.board = VoteBoard.create(n)
        state.frame_send = [{} for _ in range(n)]
        state.frame_recv = [{} for _ in range(n)]
        pairs = [(src, dst) for src in range(n) for dst in range(n) if src != dst]
        for src, dst in pairs:
            if self.transport == "shm":
                # one SPSC ring per ordered worker pair; parent-owned so
                # the segments outlive any individual worker process (a
                # respawned replacement re-attaches by spec and adopts
                # the cursors)
                state.rings[(src, dst)] = RingBuffer.create(DEFAULT_RING_CAPACITY)
            else:
                # one simplex pipe per ordered worker pair; the parent
                # retains both ends of every pipe for respawn support
                r, s = ctx.Pipe(duplex=False)
                state.frame_send[src][dst] = s
                state.frame_recv[dst][src] = r

        # arm the cleanup before anything starts: a failure partway
        # through the spawn loop must still release the processes already
        # started and the exported segments
        self._finalizer = weakref.finalize(self, _shutdown_state, state)

        for w in range(n):
            state.procs.append(None)
            state.control.append(None)
            self._start_process(w, dict(child_cfg, program_factory=cfg["factory"]))

        # startup barrier: every worker attached the shared graph and
        # constructed its channel set
        counts = {self._ready(w, "startup") for w in range(n)}
        self._set_num_channels(counts)

    def _links(self, w: int) -> dict:
        """What worker ``w`` attaches for the pool's whole life: the vote
        board, and per peer the ring it produces into / consumes from
        (shm) or its ends of the frame pipes (pipe)."""
        state = self._state
        if self.transport == "shm":
            peers = [p for p in range(self.num_workers) if p != w]
            out = {dst: state.rings[(w, dst)].spec for dst in peers}
            inn = {src: state.rings[(src, w)].spec for src in peers}
        else:
            out, inn = state.frame_send[w], state.frame_recv[w]
        return {
            "transport": self.transport,
            "num_workers": self.num_workers,
            "unregister": self._ctx.get_start_method() != "fork",
            "board": state.board.spec,
            "out": out,
            "in": inn,
        }

    def _start_process(self, w: int, spawn_cfg: dict) -> None:
        state = self._state
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(w, spawn_cfg, child_conn, self._links(w)),
            daemon=True,
            name=f"repro-worker-{w}",
        )
        proc.start()
        state.procs[w] = proc
        state.control[w] = parent_conn
        self.spawn_count += 1

    def _ready(self, w: int, phase: str) -> int:
        reply = self.reply(w, phase)
        return int(reply["num_channels"])

    def _set_num_channels(self, counts: set[int]) -> None:
        # the one check that every program built the same channels: the
        # parent builds no worker of its own to compare against
        if len(counts) != 1:
            raise WorkerProcessError(
                f"worker processes constructed differing channel sets: {sorted(counts)}"
            )
        self.num_channels = counts.pop()

    def _reconfigure(self, cfg: dict) -> None:
        """Load a new engine configuration into the live children — the
        delta/remap path that replaces respawning between streaming
        epochs.  The factory must be picklable here (use
        :class:`~repro.core.program.ProgramSpec` for dynamically
        parameterized programs)."""
        try:
            factory_bytes = pickle.dumps(cfg["factory"])
        except Exception as exc:
            raise WorkerProcessError(
                "cannot ship this program factory to the persistent worker "
                "pool: it does not pickle "
                f"({type(exc).__name__}: {exc}).  Reusing a pool across "
                "engines requires a picklable factory — e.g. a module-level "
                "class or repro.core.program.ProgramSpec"
            ) from exc

        old_export = self._state.export
        export, child_cfg = self._share_config(cfg)
        self._state.export = export
        self._cfg = cfg
        self._child_cfg = child_cfg
        try:
            for w in range(self.num_workers):
                self.send(
                    w, {"cmd": "configure", "cfg": child_cfg, "factory": factory_bytes}
                )
            counts = {self._ready(w, "reconfigure") for w in range(self.num_workers)}
            self._set_num_channels(counts)
        finally:
            # on success the children confirmed the new attachments and
            # dropped the old ones; on failure the pool is poisoned and
            # the children are going away regardless — either way the
            # previous generation's segments are released here, keeping
            # pool memory flat across arbitrarily many epochs
            if old_export is not None:
                old_export.close()

    def update_owner(self, new_owner: np.ndarray) -> None:
        """Rewrite the shared ownership array in place (adaptive
        rebalancing).  Children are quiescent — blocked on their control
        pipes at a superstep barrier — when this runs, so there are no
        concurrent readers; they observe the migrated partition when the
        following ``remap`` command rebuilds their workers, and any later
        respawn attaches the same (updated) segment."""
        new_owner = np.asarray(new_owner, dtype=np.int64)
        view = self._owner_view
        if view is None or view.shape != new_owner.shape:
            raise WorkerProcessError(
                "pool has no live shared ownership array matching the plan"
            )
        view[...] = new_owner
        if self._cfg is not None:
            self._cfg = dict(self._cfg, owner=new_owner)

    # -- failure injection -------------------------------------------------
    def kill(self, w: int) -> None:
        """Make worker ``w``'s process exit hard, then await its (never
        coming) reply so the death surfaces through the *real*
        supervision path — :func:`recv_supervised` notices the dead PID
        and raises :class:`WorkerProcessError`, exactly as it would for
        an OOM-kill or segfault.  Callers injecting failures catch that
        error and proceed to recovery.  Always raises."""
        proc = self._state.procs[w]
        send_msg(self._state.control[w], {"cmd": "die", "code": INJECTED_EXIT_CODE})
        proc.join(timeout=30)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=5)
        self.reply(w, f"injected failure of worker {w}")
        raise WorkerProcessError(  # pragma: no cover - supervision guard
            f"worker process {w} replied after an injected death"
        )

    def respawn(self, w: int) -> None:
        """Start a replacement process for worker ``w`` on the same frame
        pipes (fresh control pipe, current configuration).  The
        replacement builds its worker with ``Worker.build(...,
        initialize=True)``, and its live writer starts the slot from zero;
        the caller then sends a ``restore`` with the checkpointed state
        and the slot reading to continue from."""
        try:
            self._state.control[w].close()
        except Exception:  # pragma: no cover
            pass
        spawn_cfg = dict(
            self._child_cfg,
            program_factory=self._cfg["factory"],
            init_channels=True,
        )
        self._start_process(w, spawn_cfg)
        count = self._ready(w, "respawn")
        if count != self.num_channels:  # pragma: no cover - determinism guard
            raise WorkerProcessError(
                f"respawned worker {w} constructed {count} channels, "
                f"expected {self.num_channels}"
            )

    # -- command plane -----------------------------------------------------
    def send(self, w: int, msg: dict) -> None:
        send_msg(self._state.control[w], msg)

    def reply(self, w: int, phase: str) -> dict:
        state = self._state
        return recv_supervised(
            state.control[w], w, state.procs, phase, conns=state.control
        )

    def broadcast(self, msg: dict) -> None:
        for conn in self._state.control:
            send_msg(conn, msg)

    def gather(self, phase: str) -> list[dict]:
        return [self.reply(w, phase) for w in range(self.num_workers)]

    # -- barrier plane -------------------------------------------------------
    def next_seq(self) -> int:
        """A fresh superstep sequence number for the vote board.
        Pool-owned and strictly monotonic across runs, rollback rewinds,
        reconfigurations, and respawns — the board lives as long as the
        pool, so a stale vote can never satisfy a newer wait."""
        self._seq += 1
        return self._seq

    def read_vote(self, w: int, seq: int) -> int:
        """Worker ``w``'s barrier vote for superstep ``seq``, read off
        the vote board.  Supervised: a worker dying before it votes
        raises :class:`WorkerProcessError` (with its scavenged traceback)
        instead of hanging."""
        state = self._state
        return state.board.read(
            w,
            seq,
            check=lambda: check_liveness(
                state.procs, "superstep vote", state.control
            ),
        )

    # -- teardown ----------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers and release every OS resource.  Idempotent;
        also runs automatically when the pool is garbage collected or the
        interpreter exits."""
        self._closed = True
        if self._finalizer is not None:
            self._finalizer()  # weakref.finalize: at most one invocation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = (
            "closed"
            if self._closed
            else "broken"
            if self.broken
            else "live"
            if self.started
            else "idle"
        )
        return (
            f"WorkerPool({self.num_workers} workers, {status}, "
            f"spawned={self.spawn_count})"
        )
