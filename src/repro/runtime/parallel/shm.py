"""Shared-memory primitives: array export, SPSC ring buffers, the vote board.

Three independent facilities live here:

* **Array export** (:class:`SharedArrayExport` / :func:`attach_array`) —
  the parent exports each array once (one copy into a fresh segment);
  every worker process attaches by name and gets a read-only zero-copy
  view.  The specs that travel to the children are plain
  ``(name, dtype, shape)`` tuples, so they cross the control pipes
  through the same tagged-binary codec as everything else.

* **Ring buffers** (:class:`RingBuffer`) — single-producer /
  single-consumer byte FIFOs over a ``SharedMemory`` segment, the data
  plane of the process backend's ``transport="shm"`` mode.  Codec frame
  bytes flow worker-to-worker through these rings instead of through OS
  pipes (see ARCHITECTURE.md §9).

* **Vote board** (:class:`VoteBoard`) — one ``(seq, value)`` row per
  worker in a single pool-owned segment: the barrier votes of every
  process run, on either transport.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArrayExport",
    "attach_array",
    "RingBuffer",
    "RingTimeout",
    "VoteBoard",
    "idle_wait",
    "untrack_segment",
    "DEFAULT_RING_CAPACITY",
]


def _spec(name: str, arr: np.ndarray) -> dict:
    return {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}


class SharedArrayExport:
    """Parent-side owner of a set of shared-memory arrays.

    ``share()`` copies an array into a new segment and returns its spec;
    ``close()`` releases (and by default unlinks) every segment.  The
    parent must keep this object alive for as long as children are
    attached.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def share(self, arr: np.ndarray) -> dict:
        """Copy ``arr`` into a new segment; return the spec children
        attach it by (:func:`attach_array`, read-only)."""
        arr = np.ascontiguousarray(arr)
        # zero-size segments are rejected by the OS; keep 1 byte and let
        # the spec's shape reconstruct the empty view
        seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        self._segments.append(seg)
        if arr.nbytes:
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
        return _spec(seg.name, arr)

    def close(self, unlink: bool = True) -> None:
        for seg in self._segments:
            try:
                seg.close()
                if unlink:
                    seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []


def attach_array(
    spec: dict, unregister: bool = False
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map a shared array read-only in this process.

    Returns the view *and* the segment handle; the caller must keep the
    handle alive while the view is in use and ``close()`` it afterwards
    (never ``unlink()`` — the parent owns the segment).

    ``unregister`` works around bpo-39959 for **spawned** children: their
    private resource tracker would treat the attached segment as leaked
    on exit and unlink it under the parent.  Forked children share the
    parent's tracker, where attaching is an idempotent re-register —
    unregistering there would instead erase the parent's claim, so the
    caller must pass ``unregister`` matching the start method in use.
    """
    seg = shared_memory.SharedMemory(name=spec["name"])
    if unregister:
        untrack_segment(seg)
    shape = tuple(spec["shape"])
    arr = np.ndarray(shape, dtype=np.dtype(spec["dtype"]), buffer=seg.buf)
    arr.flags.writeable = False
    return arr, seg


def untrack_segment(seg: shared_memory.SharedMemory) -> None:
    """Drop this process's private resource-tracker claim on a segment
    another process owns (bpo-39959; see :func:`attach_array`).  Shared
    by every independent attacher in the tree — spawned workers, the
    live-metrics plane (`repro.obs.live`), external `repro top`."""
    try:  # pragma: no cover - spawn-only path
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


# ---------------------------------------------------------------------------
# SPSC ring buffers (transport="shm" data plane)
# ---------------------------------------------------------------------------

#: default per-ring data capacity; big enough that a typical superstep's
#: frames to one peer fit without wrapping, small enough that an 8-worker
#: pool's 56 rings stay modest (56 MiB)
DEFAULT_RING_CAPACITY = 1 << 20

# header layout: the producer-owned and consumer-owned cursors sit on
# separate cache lines so the two processes never write the same line
_OFF_HEAD = 0  # consumer cursor (monotonic, u64) — written by the reader
_OFF_TAIL = 64  # producer cursor (monotonic, u64) — written by the writer
_HEADER_SIZE = 128

_U64 = struct.Struct("<Q")

#: spin iterations before the wait loops start sleeping
_SPIN = 200
#: ceiling for the backoff sleep (keeps peer-death detection prompt)
_MAX_SLEEP = 0.002


class RingTimeout(RuntimeError):
    """A blocking shared-memory wait exceeded its deadline (e.g. the peer
    process died and will never produce/consume another byte)."""


def idle_wait(spins: int, check=None, deadline: float | None = None, stuck=None) -> None:
    """The ``spins``-th consecutive unproductive pass of a blocking wait:
    spin through the first ``_SPIN`` passes, after that sleep with a
    linear backoff, run the liveness ``check`` (it may raise to abort the
    wait) and raise :class:`RingTimeout` with ``stuck()`` as its message
    once ``deadline`` (a ``perf_counter`` reading) has passed.  Every
    blocking wait on shared memory — ring reads and writes, vote-board
    reads, the frame transport's pump — idles through here."""
    if spins <= _SPIN:
        return
    time.sleep(min(_MAX_SLEEP, 5e-5 * (spins - _SPIN)))
    if check is not None:
        check()
    if deadline is not None and time.perf_counter() > deadline:
        raise RingTimeout(stuck())


def _deadline(timeout: float | None) -> float | None:
    return None if timeout is None else time.perf_counter() + timeout


class _Segment:
    """A mapped shared-memory segment: created (and later unlinked) by
    the pool, attached by name everywhere else."""

    __slots__ = ("_seg", "_buf")

    def __init__(self, seg: shared_memory.SharedMemory) -> None:
        self._seg = seg
        self._buf = seg.buf

    @staticmethod
    def _open(name: str, unregister: bool) -> shared_memory.SharedMemory:
        seg = shared_memory.SharedMemory(name=name)
        if unregister:
            untrack_segment(seg)
        return seg

    def close(self, unlink: bool = False) -> None:
        try:
            self._buf = None
            self._seg.close()
            if unlink:
                self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class RingBuffer(_Segment):
    """A single-producer/single-consumer byte FIFO in shared memory.

    The ring is a plain byte stream: ``write_some``/``read_some`` are the
    non-blocking primitives (move as many bytes as space/data allow) that
    the frame transport's pump interleaves across peers, and
    ``write_all``/``read_exact``/``send``/``recv`` are blocking helpers
    built on a spin-then-backoff wait (no futexes, no OS handles to
    inherit — everything lives in the segment, so a respawned replacement
    worker adopts the live cursors just by attaching).

    Cursors are monotonic u64s (data offset = cursor mod capacity), so
    "empty" (head == tail) and "exactly full" (tail - head == capacity)
    are distinct without a wasted byte.  Exactly one process may advance
    tail and exactly one may advance head.

    Blocking waits take an optional ``check`` callable, invoked
    periodically once the wait starts sleeping; it may raise to abort the
    wait (the parent raises ``WorkerProcessError`` from its process-
    liveness check, which is how a writer dying mid-frame surfaces
    instead of hanging), and a ``timeout`` in seconds after which
    :class:`RingTimeout` is raised.
    """

    __slots__ = ("capacity", "spec")

    def __init__(self, seg: shared_memory.SharedMemory, capacity: int) -> None:
        super().__init__(seg)
        self.capacity = int(capacity)
        self.spec = {"name": seg.name, "capacity": int(capacity)}

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "RingBuffer":
        if capacity < 16:
            raise ValueError("ring capacity must be at least 16 bytes")
        seg = shared_memory.SharedMemory(create=True, size=_HEADER_SIZE + capacity)
        seg.buf[:_HEADER_SIZE] = bytes(_HEADER_SIZE)
        return cls(seg, capacity)

    @classmethod
    def attach(cls, spec: dict, unregister: bool = False) -> "RingBuffer":
        return cls(cls._open(spec["name"], unregister), spec["capacity"])

    # -- cursor access ---------------------------------------------------------
    def _load(self, off: int) -> int:
        return _U64.unpack_from(self._buf, off)[0]

    def _store(self, off: int, value: int) -> None:
        _U64.pack_into(self._buf, off, value)

    @property
    def pending(self) -> int:
        """Bytes currently buffered (written but not yet consumed)."""
        return self._load(_OFF_TAIL) - self._load(_OFF_HEAD)

    # -- non-blocking primitives ----------------------------------------------
    def write_some(self, data) -> int:
        """Copy as much of ``data`` into the ring as fits; returns the
        number of bytes consumed from ``data`` (0 when full)."""
        head = self._load(_OFF_HEAD)
        tail = self._load(_OFF_TAIL)
        space = self.capacity - (tail - head)
        if space <= 0:
            return 0
        data = memoryview(data)
        n = min(space, len(data))
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        base = _HEADER_SIZE
        self._buf[base + pos : base + pos + first] = data[:first]
        if n > first:
            self._buf[base : base + (n - first)] = data[first:n]
        # publish after the payload copy: the consumer only trusts bytes
        # below tail
        self._store(_OFF_TAIL, tail + n)
        return n

    def read_some(self, max_bytes: int | None = None) -> bytes:
        """Consume up to ``max_bytes`` available bytes (b"" when empty)."""
        head = self._load(_OFF_HEAD)
        tail = self._load(_OFF_TAIL)
        avail = tail - head
        if avail <= 0:
            return b""
        n = avail if max_bytes is None else min(avail, max_bytes)
        pos = head % self.capacity
        first = min(n, self.capacity - pos)
        base = _HEADER_SIZE
        if n > first:
            out = bytes(self._buf[base + pos : base + pos + first]) + bytes(
                self._buf[base : base + (n - first)]
            )
        else:
            out = bytes(self._buf[base + pos : base + pos + n])
        self._store(_OFF_HEAD, head + n)
        return out

    # -- blocking helpers ---------------------------------------------------------
    def write_all(self, data, check=None, timeout: float | None = None) -> None:
        """Write all of ``data``, spinning/backing off while the ring is
        full.  Frames larger than the ring stream through in chunks."""
        data = memoryview(data)
        off = 0
        deadline = _deadline(timeout)
        stuck = lambda: f"ring full for {timeout}s ({len(data) - off} bytes unsent)"
        spins = 0
        while off < len(data):
            n = self.write_some(data[off:])
            if n:
                off += n
                spins = 0
                continue
            spins += 1
            idle_wait(spins, check, deadline, stuck)

    def read_exact(self, n: int, check=None, timeout: float | None = None) -> bytes:
        """Read exactly ``n`` bytes, blocking until the writer provides
        them.  ``check`` fires while waiting — this is where a reader
        notices the writer died mid-frame instead of hanging."""
        parts: list[bytes] = []
        got = 0
        deadline = _deadline(timeout)
        stuck = lambda: f"writer stalled: got {got} of {n} expected bytes"
        spins = 0
        while got < n:
            chunk = self.read_some(n - got)
            if chunk:
                parts.append(chunk)
                got += len(chunk)
                spins = 0
                continue
            spins += 1
            idle_wait(spins, check, deadline, stuck)
        return b"".join(parts)

    # -- framed messages (length-prefixed), used by tests and small payloads -------
    def send(self, payload, check=None, timeout: float | None = None) -> None:
        self.write_all(_U64.pack(len(payload)), check, timeout)
        self.write_all(payload, check, timeout)

    def recv(self, check=None, timeout: float | None = None) -> bytes:
        (length,) = _U64.unpack(self.read_exact(8, check, timeout))
        return self.read_exact(length, check, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingBuffer({self.spec['name']}, cap={self.capacity}, pending={self.pending})"


# ---------------------------------------------------------------------------
# the vote board (barrier votes, both transports)
# ---------------------------------------------------------------------------

#: bytes per worker row — one cache line, so no two workers write the same
_ROW = 64


class VoteBoard(_Segment):
    """One ``(seq, value)`` row per worker in a single shared segment.

    Every superstep each worker publishes its active-vertex count under
    the parent-issued sequence number; the parent and every peer read all
    rows and so compute the same global total without a message crossing
    any pipe.  Exactly one process writes a row (its worker), any number
    read it.  The value is stored before the sequence number, so a reader
    that sees ``seq`` sees its value; sequence numbers are pool-monotonic
    (:meth:`WorkerPool.next_seq`), so a stale row never satisfies a newer
    wait.  The pool owns the segment for its whole life: a respawned
    replacement adopts the board just by attaching.
    """

    __slots__ = ("spec",)

    def __init__(self, seg: shared_memory.SharedMemory, num_workers: int) -> None:
        super().__init__(seg)
        self.spec = {"name": seg.name, "num_workers": int(num_workers)}

    @classmethod
    def create(cls, num_workers: int) -> "VoteBoard":
        seg = shared_memory.SharedMemory(create=True, size=_ROW * num_workers)
        seg.buf[: _ROW * num_workers] = bytes(_ROW * num_workers)
        return cls(seg, num_workers)

    @classmethod
    def attach(cls, spec: dict, unregister: bool = False) -> "VoteBoard":
        return cls(cls._open(spec["name"], unregister), spec["num_workers"])

    def write(self, w: int, seq: int, value: int) -> None:
        """Publish worker ``w``'s ``value`` under ``seq`` (``w`` only)."""
        _U64.pack_into(self._buf, w * _ROW + 8, value)
        _U64.pack_into(self._buf, w * _ROW, seq)

    def peek(self, w: int) -> tuple[int, int]:
        """Worker ``w``'s current ``(seq, value)`` — non-blocking."""
        seq = _U64.unpack_from(self._buf, w * _ROW)[0]
        return seq, _U64.unpack_from(self._buf, w * _ROW + 8)[0]

    def read(self, w: int, seq: int, check=None, timeout: float | None = None) -> int:
        """Block until worker ``w``'s row reaches ``seq``; returns its value."""
        deadline = _deadline(timeout)
        stuck = lambda: f"worker {w}'s vote never reached seq {seq} (stuck at {have})"
        spins = 0
        while True:
            have, value = self.peek(w)
            if have >= seq:
                return value
            spins += 1
            idle_wait(spins, check, deadline, stuck)
