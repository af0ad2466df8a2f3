"""Live telemetry plane: in-flight shared-memory metrics (ARCHITECTURE.md §11).

PR 7's trace subsystem is strictly post-hoc — stragglers only become
visible after the run via ``repro report``.  This module makes the same
per-worker accounting readable *while* a run is in flight:

- :class:`LiveMetrics` owns one POSIX shared-memory segment with a
  fixed-slot layout: a 64-byte header, then one 128-byte slot per
  worker, then one parent-owned alert counter per worker.  Any process
  that knows the segment name can attach and take consistent snapshots
  without perturbing the run (``repro top``, the ``--metrics-port``
  HTTP exporter, external tooling).
- :class:`LiveSlotWriter` is the single-writer side of one slot.  Each
  process-backend worker publishes its own slot wait-free once per
  superstep; :class:`~repro.runtime.executor.SimBackend` publishes all
  slots from its exchange phase.  Both fold the worker's superstep
  record in through :meth:`LiveSlotWriter.add_record`, so sim and
  process segments are identical by construction.
- :class:`LiveMonitor` folds each superstep's per-worker readings into
  :class:`~repro.obs.stats.EwmaBaseline` online, flagging stragglers
  and anomalies *during* the run as "alert" trace instants and
  ``EngineResult.live_alerts`` entries.

Slot consistency uses a seqlock, the same idiom as the ring-buffer vote
slot in :mod:`repro.runtime.parallel.shm`: the writer bumps a sequence
word to odd, writes the payload, bumps it to even; a reader retries
while the sequence is odd or changed across its copy of the payload.
Writers never block and never wait for readers.
"""

from __future__ import annotations

import os
import struct
import time
from multiprocessing import shared_memory

from repro.obs.stats import EwmaBaseline
from repro.runtime.parallel.shm import untrack_segment

__all__ = [
    "LIVE_COUNTERS",
    "LIVE_GAUGES",
    "LiveMetrics",
    "LiveMonitor",
    "LiveSlotWriter",
    "read_proc_stats",
]

_MAGIC = 0x5245504C49564531  # "REPLIVE1"
# v2 appends a parent-owned per-worker migration counter region (8 bytes
# per worker) after the alert region; attach rejects other versions, so
# readers never misparse a foreign layout
_VERSION = 2

#: u64 slot fields, in payload order (cumulative unless noted; ``active``
#: is the *current* superstep's active-vertex count, not a running sum)
LIVE_COUNTERS = (
    "superstep",
    "active",
    "rounds",
    "net_bytes",
    "local_bytes",
    "messages",
)
#: f64 slot fields, in payload order after the counters
LIVE_GAUGES = (
    "barrier_seconds",
    "compute_seconds",
    "serialize_seconds",
    "exchange_seconds",
    "rss_bytes",
    "cpu_seconds",
    "updated_at",
)

# header: magic, version, num_workers, epoch (u64 each), created_at
# (f64, unix time), creator pid (u64); rest of the 64 bytes reserved
_HEADER = struct.Struct("<4QdQ")
_HEADER_SIZE = 64
# slot: seq (u64 seqlock word) then the payload; stride padded to 128
# bytes so slots never share a cache line between writers
_SEQ = struct.Struct("<Q")
_PAYLOAD = struct.Struct("<6Q7d")
_SLOT_SIZE = 128
assert _SEQ.size + _PAYLOAD.size <= _SLOT_SIZE

try:  # non-Linux fallbacks only matter for the (0, 0) /proc path below
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
    _CLK_TCK = os.sysconf("SC_CLK_TCK")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096
    _CLK_TCK = 100


def read_proc_stats() -> tuple[float, float]:
    """(resident-set bytes, cumulative user+system CPU seconds) of this
    process, sampled from ``/proc``; ``(0.0, 0.0)`` where unavailable."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            rss = int(fh.read().split()[1]) * _PAGE_SIZE
        with open("/proc/self/stat", "rb") as fh:
            # the comm field may contain spaces/parens; everything after
            # the *last* ")" is fixed-position: utime/stime land at
            # indices 11/12 of the remainder
            rest = fh.read().rsplit(b")", 1)[1].split()
        cpu = (int(rest[11]) + int(rest[12])) / _CLK_TCK
    except (OSError, IndexError, ValueError):  # pragma: no cover
        return 0.0, 0.0
    return float(rss), float(cpu)


class LiveMetrics:
    """A named shared-memory segment of per-worker telemetry slots.

    Create on the run owner with :meth:`create`; workers and external
    observers :meth:`attach` by name.  The owner should ``close`` with
    ``unlink=True`` when the run ends; attachers just ``close``.
    """

    def __init__(self, seg: shared_memory.SharedMemory, num_workers: int, owns: bool):
        self._seg = seg
        self._buf = seg.buf
        self.num_workers = int(num_workers)
        self._owns = owns

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, num_workers: int, name: str | None = None) -> "LiveMetrics":
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        # header, worker slots, alert counters, migration counters
        size = _HEADER_SIZE + _SLOT_SIZE * num_workers + 8 * num_workers + 8 * num_workers
        if name is not None:
            seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        else:
            seg = shared_memory.SharedMemory(create=True, size=size)
        seg.buf[:size] = bytes(size)
        _HEADER.pack_into(
            seg.buf, 0, _MAGIC, _VERSION, num_workers, 0, time.time(), os.getpid()
        )
        return cls(seg, num_workers, owns=True)

    @classmethod
    def attach(cls, name_or_spec, unregister: bool = True) -> "LiveMetrics":
        """Attach to an existing segment by name or by :attr:`spec`.

        ``unregister`` keeps this process's resource tracker from
        double-unlinking a segment it does not own (bpo-39959) — pass
        ``False`` only from forked children, where "unregistering"
        would erase the parent's own claim (same rule as
        :func:`repro.runtime.parallel.shm.attach_array`).
        """
        name = name_or_spec["name"] if isinstance(name_or_spec, dict) else str(name_or_spec)
        seg = shared_memory.SharedMemory(name=name)
        if unregister:
            untrack_segment(seg)
        magic, version, num_workers, _, _, _ = _HEADER.unpack_from(seg.buf, 0)
        if magic != _MAGIC or version != _VERSION:
            seg.close()
            raise ValueError(f"{name!r} is not a live metrics segment")
        return cls(seg, num_workers, owns=False)

    @property
    def name(self) -> str:
        return self._seg.name

    @property
    def spec(self) -> dict:
        """Picklable attachment handle for worker processes."""
        return {"name": self.name, "num_workers": self.num_workers}

    def close(self, unlink: bool = False) -> None:
        if self._buf is None:
            return
        self._buf = None
        self._seg.close()
        if unlink and self._owns:
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # -- reading ---------------------------------------------------------

    def _slot_off(self, worker: int) -> int:
        if not 0 <= worker < self.num_workers:
            raise IndexError(f"worker {worker} out of range")
        return _HEADER_SIZE + _SLOT_SIZE * worker

    def header(self) -> dict:
        magic, version, workers, epoch, created_at, pid = _HEADER.unpack_from(self._buf, 0)
        return {
            "version": int(version),
            "num_workers": int(workers),
            "epoch": int(epoch),
            "created_at": float(created_at),
            "pid": int(pid),
        }

    def snapshot(self, stale_after: float = 0.05) -> list[dict]:
        """One consistent reading per worker slot.

        Seqlock read: copy the payload between two reads of the sequence
        word and retry on a torn read (odd or changed sequence).  If a
        writer dies mid-publish the slot would spin forever, so after
        ``stale_after`` seconds the last copy is returned with
        ``"stale": True`` instead of raising.
        """
        out = []
        for w in range(self.num_workers):
            off = self._slot_off(w)
            deadline = time.perf_counter() + stale_after
            stale = True
            while True:
                seq = _SEQ.unpack_from(self._buf, off)[0]
                payload = bytes(self._buf[off + _SEQ.size : off + _SEQ.size + _PAYLOAD.size])
                seq2 = _SEQ.unpack_from(self._buf, off)[0]
                if seq == seq2 and seq % 2 == 0:
                    stale = False
                    break
                if time.perf_counter() >= deadline:
                    break
                time.sleep(0)  # yield to the in-flight writer
            values = _PAYLOAD.unpack(payload)
            row: dict = {"worker": w, "seq": int(seq), "stale": stale}
            row.update(zip(LIVE_COUNTERS, (int(v) for v in values[: len(LIVE_COUNTERS)])))
            row.update(zip(LIVE_GAUGES, (float(v) for v in values[len(LIVE_COUNTERS) :])))
            out.append(row)
        return out

    # -- writing ---------------------------------------------------------

    def writer(self, worker_id: int) -> "LiveSlotWriter":
        return LiveSlotWriter(self, worker_id)

    def roll_epoch(self, epoch: int) -> None:
        """Advance the header epoch (streaming: one bump per epoch).

        Slots are *not* zeroed here — each worker's writer zero-publishes
        when it is (re)configured for the new epoch, so a mid-roll reader
        never sees a slot torn between two epochs.
        """
        _HEADER.pack_into(
            self._buf, 0, _MAGIC, _VERSION, self.num_workers, int(epoch),
            self.header()["created_at"], os.getpid(),
        )

    # -- alerts (parent-owned; separate from the single-writer slots) ----

    def _alert_off(self, worker: int) -> int:
        return _HEADER_SIZE + _SLOT_SIZE * self.num_workers + 8 * worker

    def alert_counts(self) -> list[int]:
        return [
            _SEQ.unpack_from(self._buf, self._alert_off(w))[0]
            for w in range(self.num_workers)
        ]

    def bump_alert(self, worker: int) -> None:
        off = self._alert_off(int(worker))
        _SEQ.pack_into(self._buf, off, _SEQ.unpack_from(self._buf, off)[0] + 1)

    # -- migrations (parent-owned, like the alert counters) ---------------

    def _mig_off(self, worker: int) -> int:
        return _HEADER_SIZE + (_SLOT_SIZE + 8) * self.num_workers + 8 * worker

    def rebalance_counts(self) -> list[int]:
        """Per-worker count of live migrations that touched the worker
        (as source or destination of a moved range); the MIG column of
        ``repro top``."""
        return [
            _SEQ.unpack_from(self._buf, self._mig_off(w))[0]
            for w in range(self.num_workers)
        ]

    def bump_rebalance(self, worker: int) -> None:
        off = self._mig_off(int(worker))
        _SEQ.pack_into(self._buf, off, _SEQ.unpack_from(self._buf, off)[0] + 1)


class LiveSlotWriter:
    """Single-writer, seqlock-published view of one worker's slot.

    Accumulates locally (plain Python ints/floats, no shared state) and
    pushes the whole payload in one :meth:`publish` — so the shared
    segment only ever holds superstep-boundary-consistent values and the
    write path is two sequence stores plus one ``pack_into``.
    """

    def __init__(self, live: LiveMetrics, worker_id: int):
        self._live = live  # keeps the segment mapping alive
        self._off = live._slot_off(worker_id)
        self.worker_id = int(worker_id)
        self.counters = dict.fromkeys(LIVE_COUNTERS, 0)
        self.gauges = dict.fromkeys(LIVE_GAUGES, 0.0)
        self._seq = _SEQ.unpack_from(live._buf, self._off)[0]
        if self._seq % 2:  # predecessor died mid-publish; make slot readable
            self._seq += 1
        self.publish()  # zero-publish: a fresh writer means a fresh run/epoch

    def add(
        self,
        *,
        superstep: int = 0,
        active: int | None = None,
        rounds: int = 0,
        net_bytes: int = 0,
        local_bytes: int = 0,
        messages: int = 0,
        **phase_seconds: float,
    ) -> None:
        """Fold one superstep's (or one phase's) contribution in locally.

        ``phase_seconds`` keys are phase names (``barrier``, ``compute``,
        ``serialize``, ``exchange``); values accumulate into the matching
        ``*_seconds`` gauge.  Nothing is visible until :meth:`publish`.
        """
        c = self.counters
        c["superstep"] += int(superstep)
        if active is not None:
            c["active"] = int(active)
        c["rounds"] += int(rounds)
        c["net_bytes"] += int(net_bytes)
        c["local_bytes"] += int(local_bytes)
        c["messages"] += int(messages)
        for phase, seconds in phase_seconds.items():
            key = f"{phase}_seconds"
            if key not in self.gauges:
                raise ValueError(f"unknown live phase {phase!r}")
            self.gauges[key] += float(seconds)

    def add_record(self, record: dict) -> None:
        """Fold in and publish one superstep of this slot's worker, from
        its record (:attr:`Worker.books <repro.core.worker.Worker.books>`):
        the one route from a worker's books to its slot, on sim and in a
        worker process alike.  Net and local bytes split as the
        collector splits them."""
        me = self.worker_id
        local = sum(int(rnd["sent"][me]) for rnd in record["rounds"])
        total = sum(int(rnd["sent"].sum()) for rnd in record["rounds"])
        self.add(
            superstep=1,
            active=record["active"],
            rounds=len(record["rounds"]),
            net_bytes=total - local,
            local_bytes=local,
            messages=record["messages"],
            **record["phases"],
        )
        self.publish()

    def publish(self) -> None:
        """Seqlock write: odd seq -> payload -> even seq."""
        g = self.gauges
        g["rss_bytes"], g["cpu_seconds"] = read_proc_stats()
        g["updated_at"] = time.time()
        buf, off = self._live._buf, self._off
        _SEQ.pack_into(buf, off, self._seq + 1)
        _PAYLOAD.pack_into(
            buf,
            off + _SEQ.size,
            *(self.counters[k] for k in LIVE_COUNTERS),
            *(g[k] for k in LIVE_GAUGES),
        )
        self._seq += 2
        _SEQ.pack_into(buf, off, self._seq)

    # -- recovery support ---------------------------------------------------

    def rewind(self, row: dict) -> None:
        """Continue from an earlier reading of this slot (a
        :meth:`LiveMetrics.snapshot` row) and publish it: rollback
        recovery rewinds to the reading taken at the checkpoint, and a
        respawned replacement resumes from its predecessor's last one."""
        self.counters = {k: int(row[k]) for k in LIVE_COUNTERS}
        self.gauges = {k: float(row[k]) for k in LIVE_GAUGES}
        self.publish()


class LiveMonitor:
    """Online straggler/anomaly scoring over live snapshots.

    The drive loop calls :meth:`observe` once per superstep.  Each
    worker's per-superstep busy time (compute + serialize delta) is
    scored against its own :class:`EwmaBaseline` (temporal anomaly: this
    worker suddenly got slower than *its own* history) and against the
    current superstep's cross-worker mean (spatial straggler: this
    worker is slower than *its peers* right now).  Alerts become "alert"
    trace instants, ``EngineResult.live_alerts`` entries, and bumps of
    the segment's per-worker alert counters (the ALERT column of
    ``repro top``).
    """

    #: a worker's busy time this many standard deviations above its own
    #: history is an anomaly
    Z_THRESHOLD = 3.0
    #: a worker this many times its peers' mean busy time is a straggler
    STRAGGLER_THRESHOLD = 1.5
    #: ignore supersteps faster than this — sub-millisecond jitter is
    #: scheduler noise, not a straggler
    MIN_SECONDS = 1e-3

    def __init__(self, live: LiveMetrics, metrics):
        self.live = live
        self.metrics = metrics
        self.baselines = [EwmaBaseline() for _ in range(live.num_workers)]
        self._last = [0.0] * live.num_workers
        self.alerts: list[dict] = []

    def observe(self, superstep: int) -> list[dict]:
        rows = self.live.snapshot()
        totals = [r["compute_seconds"] + r["serialize_seconds"] for r in rows]
        # max() guards the rollback-recovery rewind, where cumulative
        # totals legitimately move backwards
        deltas = [max(0.0, t - last) for t, last in zip(totals, self._last)]
        self._last = totals
        n = len(deltas)
        mean = sum(deltas) / n if n else 0.0
        new = []
        for w, d in enumerate(deltas):
            z = self.baselines[w].update(d)
            if d < self.MIN_SECONDS:
                continue
            if z > self.Z_THRESHOLD:
                new.append(self._alert("anomaly", w, superstep, z, self.Z_THRESHOLD))
            elif n > 1 and mean > 0 and d / mean >= self.STRAGGLER_THRESHOLD:
                new.append(
                    self._alert(
                        "straggler", w, superstep, d / mean, self.STRAGGLER_THRESHOLD
                    )
                )
        return new

    def _alert(self, kind, worker, superstep, value, threshold) -> dict:
        alert = self.metrics.record_alert(kind, worker, superstep, value, threshold)
        self.live.bump_alert(worker)
        self.alerts.append(alert)
        return alert
