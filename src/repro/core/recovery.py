"""Failure injection and recovery for the channel engine.

Pregel-family systems answer "what happens when a worker dies mid-job?"
with checkpoint-and-rollback; this module reproduces that subsystem,
with deterministic failure injection so recovery is a benchmarkable
*scenario axis* rather than an accident:

* :class:`FailureSchedule` — "worker 3 dies at the end of superstep 7",
  given explicitly or drawn from a seeded RNG.  Failures fire exactly
  once, at superstep boundaries (the point where a real master notices a
  missed barrier).
* :class:`FrameLog` — sender-side logging of every cross-worker frame
  buffer, kept since the last checkpoint.  Only maintained in confined
  mode; its size is the price confined recovery pays during normal
  operation (accounted as ``log_bytes``).
* :func:`rollback_recovery` — the engine rewinds to the latest
  checkpoint and the whole cluster re-executes from there (Pregel's
  default).  This is the books; every backend reloads its own workers.
* :func:`confined_recovery` — only the failed workers reload; they then
  re-execute the lost supersteps locally, reading the frames survivors
  logged for them, while survivors keep their current state.  Replayed
  compute regenerates the failed workers' own frames (including
  self-delivery and frames between simultaneously failed workers), so
  recovered runs are bit-identical to failure-free ones.

Both leave the engine's metric totals exactly where a failure-free run
would: rollback restores the collector to its checkpoint-time snapshot
before re-execution re-appends, and confined replay runs against a
scratch collector.  The *cost* of recovery is charged to the separate
``recovery_bytes``/``recovery_time`` counters.

Both run under **every** execution backend, from checkpoint blobs and
the parent-side frame log alone.  Confined replay builds the failed
workers itself and returns them: the simulator keeps them, the process
backend ships their state to the respawned replacements and drops them
(see :mod:`repro.runtime.parallel.backend`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.worker import Worker
from repro.runtime.checkpoint import Snapshot, decode_state, load_worker_state
from repro.runtime.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ChannelEngine

__all__ = [
    "FailureSchedule",
    "FrameLog",
    "rollback_recovery",
    "confined_recovery",
]


class FailureSchedule:
    """Deterministic schedule of worker deaths at superstep boundaries.

    Parameters
    ----------
    failures:
        Iterable of ``(worker_id, superstep)`` pairs, or ``"W:S"``
        strings (the CLI's ``--fail`` syntax).  A failure at superstep
        ``S`` wipes that worker's in-memory state after superstep ``S``'s
        exchange completes; scheduled entries fire exactly once, so a
        rollback past the failure point does not re-kill the worker.
    """

    def __init__(self, failures: Iterable = ()) -> None:
        self._by_step: dict[int, list[int]] = {}
        for entry in failures:
            if isinstance(entry, str):
                try:
                    worker, superstep = (int(part) for part in entry.split(":"))
                except ValueError:
                    raise ValueError(
                        f"bad failure spec {entry!r}; expected 'WORKER:SUPERSTEP'"
                    ) from None
            else:
                worker, superstep = int(entry[0]), int(entry[1])
            if worker < 0:
                raise ValueError(f"invalid worker id {worker} in failure schedule")
            if superstep < 1:
                raise ValueError(
                    f"failures fire at superstep boundaries >= 1, got {superstep}"
                )
            step = self._by_step.setdefault(superstep, [])
            if worker not in step:
                step.append(worker)

    @classmethod
    def coerce(cls, spec) -> "FailureSchedule | None":
        """Accept ``None``, a schedule, or any iterable the constructor
        takes (what :class:`~repro.core.config.RunConfig` is given)."""
        if spec is None or isinstance(spec, cls):
            return spec
        return cls(spec)

    def copy(self) -> "FailureSchedule":
        """A fresh schedule with the same pending events.  The engine pops
        events from a per-run copy, so one schedule object can drive many
        runs (e.g. comparing recovery modes) without being consumed."""
        return FailureSchedule(self.pending())

    @classmethod
    def random(
        cls,
        num_workers: int,
        max_superstep: int,
        count: int = 1,
        seed: int = 0,
    ) -> "FailureSchedule":
        """A seeded random schedule: ``count`` distinct (worker,
        superstep) events with supersteps in ``[1, max_superstep]``."""
        if count > num_workers * max_superstep:
            raise ValueError(
                f"cannot draw {count} distinct failures from "
                f"{num_workers} workers x {max_superstep} supersteps"
            )
        rng = np.random.default_rng(seed)
        events: set[tuple[int, int]] = set()
        while len(events) < count:
            events.add(
                (int(rng.integers(num_workers)), int(rng.integers(1, max_superstep + 1)))
            )
        return cls(sorted(events, key=lambda e: (e[1], e[0])))

    def validate(self, num_workers: int) -> None:
        for step, workers in self._by_step.items():
            for w in workers:
                if w >= num_workers:
                    raise ValueError(
                        f"failure schedule kills worker {w} at superstep {step}, "
                        f"but the engine has only {num_workers} workers"
                    )
            if len(workers) >= num_workers:
                raise ValueError(
                    f"failure schedule kills all {num_workers} workers at "
                    f"superstep {step}; at least one must survive"
                )

    def pop(self, superstep: int) -> list[int]:
        """Workers dying at this boundary (each event fires once)."""
        return sorted(self._by_step.pop(superstep, []))

    def pending(self) -> list[tuple[int, int]]:
        return sorted(
            (w, s) for s, workers in self._by_step.items() for w in workers
        )

    def __bool__(self) -> bool:
        return bool(self._by_step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureSchedule({self.pending()})"


class FrameLog:
    """Sender-side log of cross-worker frame buffers, per superstep and
    exchange round, kept since the last checkpoint.

    Each logged round is ``(group_active, frames)`` where ``frames[src][dst]``
    is the raw buffer ``src`` shipped to ``dst`` (``b""`` on the diagonal
    and where nothing was sent).  ``group_active`` records which channel
    groups were in that round — confined replay follows this recorded
    structure instead of re-evaluating ``again()`` locally, since round
    liveness is a *global* property the failed worker cannot re-derive
    alone.
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self._steps: dict[int, list[tuple[list[bool], list[list[bytes]]]]] = {}

    def append_step(
        self, superstep: int, rounds: list[tuple[list[bool], list[list[bytes]]]]
    ) -> None:
        self._steps[superstep] = rounds

    def rounds(self, superstep: int) -> list[tuple[list[bool], list[list[bytes]]]]:
        return self._steps.get(superstep, [])

    def relog(
        self, superstep: int, round_idx: int, sender: int, out: list[bytes]
    ) -> None:
        """Replace ``sender``'s logged frames for one round with the
        replay-regenerated ones (its original log died with it; a later
        failure of another worker may need these)."""
        _active, frames = self._steps[superstep][round_idx]
        frames[sender] = [
            b"" if peer == sender else out[peer] for peer in range(self.num_workers)
        ]

    def truncate_before(self, superstep: int) -> None:
        """Drop supersteps ``<= superstep`` (a new checkpoint covers them)."""
        self._steps = {s: r for s, r in self._steps.items() if s > superstep}

    def drop_after(self, superstep: int) -> None:
        """Drop supersteps ``> superstep`` (rolled back; they will be
        re-executed and re-logged)."""
        self._steps = {s: r for s, r in self._steps.items() if s <= superstep}


# -- recovery procedures -----------------------------------------------------

def rollback_recovery(engine: "ChannelEngine") -> None:
    """Pregel-style full rollback, the books: rewind the superstep, the
    metrics records and the frame log to the latest checkpoint, and
    charge the recovery.  The caller reloads *every* worker from it."""
    snapshot: Snapshot = engine.checkpoint
    metrics = engine.metrics

    # the supersteps being discarded must be re-executed: that repeated
    # work *is* the recovery cost, charged here because re-execution
    # re-appends records the restore below just rolled back
    kept = len(snapshot.metrics_state["records"])
    recompute_time = sum(r.simulated_time for r in metrics.records[kept:])

    engine.step_num = snapshot.superstep
    metrics.restore(snapshot.metrics_state)
    if engine.frame_log is not None:
        engine.frame_log.drop_after(snapshot.superstep)

    largest = max(snapshot.worker_nbytes) if snapshot.blobs else 0
    reload_time = metrics.network.latency + largest / metrics.network.bandwidth
    metrics.record_recovery(snapshot.nbytes, reload_time + recompute_time)


def confined_recovery(engine: "ChannelEngine", failed: list[int]) -> dict[int, Worker]:
    """Confined recovery: only the failed workers reload the checkpoint
    and re-execute the lost supersteps, fed by the survivors' frame logs.

    The failed workers are built fresh here from the checkpoint and
    returned by worker id, caught up to the engine's superstep; the
    caller installs them or ships their state.  Survivors are untouched:
    their frames destined to them during replay are discarded (they
    already processed the originals), while frames the replaying workers
    send each other and themselves flow normally.  Replay runs against a
    scratch metrics collector so the engine's totals stay exactly those
    of a failure-free run; the replay's modeled cost is charged to the
    recovery counters instead.
    """
    snapshot: Snapshot = engine.checkpoint
    target_step = engine.step_num
    metrics = engine.metrics
    num_workers = engine.num_workers
    failed_set = set(failed)

    workers: dict[int, Worker] = {}
    for w in failed:
        workers[w] = Worker.build(engine, w, engine.program_factory, initialize=True)
        load_worker_state(workers[w], decode_state(snapshot.blobs[w]))
    reload_bytes = sum(snapshot.worker_nbytes[w] for w in failed)
    largest = max((snapshot.worker_nbytes[w] for w in failed), default=0)
    reload_time = metrics.network.latency + largest / metrics.network.bandwidth

    replay_net_bytes = 0
    scratch = MetricsCollector(num_workers=num_workers, network=metrics.network)
    engine.metrics = scratch
    try:
        for s in range(snapshot.superstep + 1, target_step + 1):
            scratch.start_superstep()
            # mirror the main loop's step_num choreography exactly:
            # before_superstep/begin_superstep observe the previous step
            engine.step_num = s - 1
            for worker in workers.values():
                worker.program.before_superstep()
            actives = {w: worker.begin_superstep() for w, worker in workers.items()}
            engine.step_num = s
            for w, worker in workers.items():
                t0 = time.perf_counter()
                worker.run_compute(actives[w])
                scratch.record_compute(w, time.perf_counter() - t0)
                for channel in worker.channels:
                    channel.reset_round()

            for round_idx, (group_active, frames) in enumerate(
                engine.frame_log.rounds(s)
            ):
                for w, worker in workers.items():
                    t0 = time.perf_counter()
                    worker.serialize_round(group_active)
                    # serialize can be the bulk of replay compute (the
                    # Propagation fixpoint runs here), so time it like
                    # the main loop does
                    scratch.record_compute(w, time.perf_counter() - t0)
                # capture every replaying worker's output before clearing,
                # so simultaneously failed workers can read each other's
                outs: dict[int, list[bytes]] = {}
                for w, worker in workers.items():
                    buffers = worker.buffers
                    outs[w] = [buffers.out[p].getvalue() for p in range(num_workers)]
                    for p in range(num_workers):
                        buffers.out[p].clear()
                    engine.frame_log.relog(s, round_idx, w, outs[w])

                send_bytes = np.zeros(num_workers, dtype=np.int64)
                recv_bytes = np.zeros(num_workers, dtype=np.int64)
                for w, worker in workers.items():
                    inbox = [b""] * num_workers
                    for src in range(num_workers):
                        if src == w:
                            inbox[src] = outs[w][w]
                        elif src in failed_set:
                            inbox[src] = outs[src][w]
                        else:
                            inbox[src] = frames[src][w]
                        if src != w and inbox[src]:
                            n = len(inbox[src])
                            replay_net_bytes += n
                            send_bytes[src] += n
                            recv_bytes[w] += n
                    worker.buffers.inbox = inbox
                    t0 = time.perf_counter()
                    # the recorded group_active is the round structure;
                    # the replaying worker's own again() votes are moot
                    worker.deserialize_round(group_active)
                    scratch.record_compute(w, time.perf_counter() - t0)
                scratch.record_exchange(send_bytes, recv_bytes)
            scratch.end_superstep()
    finally:
        engine.metrics = metrics
        engine.step_num = target_step

    metrics.record_recovery(
        reload_bytes + replay_net_bytes, reload_time + scratch.simulated_time
    )
    return workers
