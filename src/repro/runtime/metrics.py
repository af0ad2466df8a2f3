"""Experiment metrics: bytes, messages, supersteps, simulated time.

Every number in the reproduced tables comes from here.  The collector keeps
one :class:`SuperstepRecord` per superstep; totals are derived properties so
tests can assert conservation invariants (e.g. bytes sent == bytes
received) against the raw per-step data.

Two notions of time are tracked:

* ``wall_time`` — real elapsed time of the whole run (single process).
* ``simulated_time`` — Σ over supersteps of (max per-worker compute time +
  modeled network time of each exchange round).  This is the analogue of
  the paper's cluster runtime: compute is parallel across workers, and
  communication is charged by the cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.runtime.costmodel import NetworkModel, DEFAULT_NETWORK

__all__ = ["SuperstepRecord", "MetricsCollector"]


@dataclass
class SuperstepRecord:
    """Everything measured during one superstep."""

    superstep: int
    rounds: int = 0
    net_bytes: int = 0
    local_bytes: int = 0
    messages: int = 0
    active_vertices: int = 0
    compute_time_max: float = 0.0
    compute_time_sum: float = 0.0
    exchange_time: float = 0.0
    #: measured wall-time per phase per worker: {"barrier" | "compute" |
    #: "serialize" | "exchange": [seconds] * num_workers}.  "serialize"
    #: covers codec work in both directions (serialize + deserialize);
    #: "exchange" is pure transport (pipe swap / ring pump).  Phases a
    #: backend doesn't measure are simply absent.
    phases: dict = field(default_factory=dict)

    @property
    def simulated_time(self) -> float:
        return self.compute_time_max + self.exchange_time


@dataclass
class MetricsCollector:
    """Accumulates per-superstep metrics for one engine run."""

    num_workers: int
    network: NetworkModel = field(default_factory=lambda: DEFAULT_NETWORK)
    records: list[SuperstepRecord] = field(default_factory=list)
    #: per-channel traffic: label -> [net_bytes, local_bytes, messages]
    channel_traffic: dict = field(default_factory=dict)
    _wall_start: float = field(default=0.0, repr=False)
    wall_time: float = 0.0
    _current: SuperstepRecord | None = field(default=None, repr=False)
    _compute_per_worker: np.ndarray | None = field(default=None, repr=False)
    _phase_per_worker: dict | None = field(default=None, repr=False)

    # -- observability (ARCHITECTURE.md §10) --------------------------------
    #: optional :class:`~repro.obs.trace.TraceRecorder`; when set, every
    #: run/superstep/phase/round/checkpoint/failure/recovery this
    #: collector measures is also emitted as a structured span event.
    #: Both backends funnel their measurements through this collector,
    #: so sim and process traces are schema-identical by construction.
    trace: object | None = field(default=None, repr=False)
    #: parent span id for the run span (the streaming epoch engine nests
    #: each per-epoch run under its epoch span)
    trace_parent: int | None = field(default=None, repr=False)
    #: static attrs stamped on the run span (executor, transport, ...)
    trace_attrs: dict = field(default_factory=dict, repr=False)
    _run_span: int | None = field(default=None, repr=False)
    _step_span: int | None = field(default=None, repr=False)
    _step_t0: float = field(default=0.0, repr=False)

    # -- fault-tolerance accounting (never rolled back: real costs paid) ----
    #: serialized checkpoint bytes written across all checkpoints
    checkpoint_bytes: int = 0
    #: modeled checkpoint write time (parallel: max worker blob / bandwidth)
    checkpoint_time: float = 0.0
    num_checkpoints: int = 0
    #: cross-worker frame bytes logged for confined recovery
    log_bytes: int = 0
    #: checkpoint bytes reloaded plus logged frames replayed during recovery
    recovery_bytes: int = 0
    #: modeled recovery time (state reload + replay/re-execution)
    recovery_time: float = 0.0
    num_failures: int = 0

    # -- adaptive rebalancing (like the fault counters: migrations already
    # performed stay counted through snapshot/restore) ----------------------
    num_rebalances: int = 0
    #: vertices / arcs moved across all migrations this run
    rebalanced_vertices: int = 0
    rebalanced_arcs: int = 0
    #: modeled state-transfer time across all migrations
    rebalance_time: float = 0.0

    # -- streaming (set by the epoch engine; None outside streaming runs) ---
    #: which epoch of a streaming run this collector measured
    epoch: int | None = None
    #: refresh mode that actually ran ("incremental" | "full")
    refresh_mode: str | None = None
    #: vertices the refresh plan recomputed (0 for an empty delta)
    affected_vertices: int = 0

    # -- run lifecycle ----------------------------------------------------
    def start_run(self) -> None:
        self._wall_start = time.perf_counter()
        if self.trace is not None:
            self._run_span = self.trace.begin(
                "run",
                parent=self.trace_parent,
                workers=self.num_workers,
                **self.trace_attrs,
            )

    def end_run(self) -> None:
        self.wall_time = time.perf_counter() - self._wall_start
        if self.trace is not None and self._run_span is not None:
            self.trace.end(
                self._run_span,
                supersteps=self.supersteps,
                net_bytes=self.total_net_bytes,
                local_bytes=self.total_local_bytes,
                messages=self.total_messages,
                wall_time=round(self.wall_time, 9),
            )
            self._run_span = None

    # -- superstep lifecycle ----------------------------------------------
    def start_superstep(self, active_vertices: int = 0) -> None:
        self._current = SuperstepRecord(
            superstep=len(self.records), active_vertices=active_vertices
        )
        self._compute_per_worker = np.zeros(self.num_workers)
        self._phase_per_worker = {}
        if self.trace is not None:
            self._step_t0 = self.trace.now()
            self._step_span = self.trace.begin(
                "superstep",
                parent=self._run_span,
                superstep=self._current.superstep,
                active=int(active_vertices),
            )

    def record_compute(self, worker_id: int, seconds: float) -> None:
        assert self._compute_per_worker is not None
        self._compute_per_worker[worker_id] += seconds

    def record_phase(self, worker_id: int, phase: str, seconds: float) -> None:
        """Attribute measured wall-time to a named superstep phase (see
        :attr:`SuperstepRecord.phases`).  Purely observational — phase
        timings never feed ``simulated_time`` or any parity-checked
        counter, so backends are free to measure what they can."""
        assert self._phase_per_worker is not None
        arr = self._phase_per_worker.get(phase)
        if arr is None:
            arr = self._phase_per_worker[phase] = np.zeros(self.num_workers)
        arr[worker_id] += seconds

    def record_exchange(self, sent: np.ndarray) -> None:
        """Account one buffer-exchange round from its matrix of
        ``sent[src, dst]`` bytes; the diagonal is self-delivery, local
        rather than network traffic."""
        cur = self._current
        assert cur is not None
        own = np.diag(sent)
        send_bytes = sent.sum(axis=1) - own
        local_bytes = int(own.sum())
        cur.rounds += 1
        round_net = int(send_bytes.sum())
        cur.net_bytes += round_net
        cur.local_bytes += local_bytes
        cur.exchange_time += self.network.exchange_time(send_bytes, sent.sum(axis=0) - own)
        if self.trace is not None and self._step_span is not None:
            self.trace.instant(
                "round",
                parent=self._step_span,
                round=cur.rounds - 1,
                net_bytes=round_net,
                local_bytes=int(local_bytes),
            )

    def count_messages(self, n: int) -> None:
        assert self._current is not None
        self._current.messages += n

    def account(self, records: dict) -> None:
        """Fold the in-flight superstep's worker records
        (:attr:`Worker.books <repro.core.worker.Worker.books>`, by worker
        id) in: each worker's phase seconds, messages and per-channel
        traffic (the per-pattern breakdown the paper's analyses reason
        about), then one :meth:`record_exchange` per round over the rows
        the workers sent.  The only way a worker's counts reach a
        collector, on every backend and in confined replay."""
        for w, rec in records.items():
            phases = rec["phases"]
            self.record_compute(w, phases.get("compute", 0.0) + phases.get("serialize", 0.0))
            for phase, seconds in phases.items():
                self.record_phase(w, phase, seconds)
            self.count_messages(rec["messages"])
            for label, counts in rec["channels"].items():
                entry = self.channel_traffic.setdefault(label, [0, 0, 0])
                for i, n in enumerate(counts):
                    entry[i] += n
        num_rounds = {len(rec["rounds"]) for rec in records.values()}
        if len(num_rounds) > 1:  # pragma: no cover - protocol bug guard
            raise RuntimeError(f"workers disagree on exchange round count: {sorted(num_rounds)}")
        for r in range(num_rounds.pop() if num_rounds else 0):
            sent = np.zeros((self.num_workers, self.num_workers), dtype=np.int64)
            for w, rec in records.items():
                sent[w] = rec["rounds"][r]["sent"]
            self.record_exchange(sent)

    def channel_breakdown(self) -> dict:
        """{channel label: {"net_bytes", "local_bytes", "messages"}}."""
        return {
            label: {"net_bytes": v[0], "local_bytes": v[1], "messages": v[2]}
            for label, v in sorted(self.channel_traffic.items())
        }

    # -- fault tolerance -----------------------------------------------------
    def record_checkpoint(self, per_worker_nbytes: list[int]) -> None:
        """Account one checkpoint: workers write their blobs in parallel,
        so the modeled write time is the largest blob over the bandwidth
        (plus one barrier latency), exactly like an exchange round."""
        self.num_checkpoints += 1
        self.checkpoint_bytes += int(sum(per_worker_nbytes))
        largest = max(per_worker_nbytes) if per_worker_nbytes else 0
        self.checkpoint_time += self.network.latency + largest / self.network.bandwidth
        if self.trace is not None:
            self.trace.instant(
                "checkpoint",
                parent=self._run_span,
                superstep=len(self.records),
                nbytes=int(sum(per_worker_nbytes)),
            )

    def record_alert(self, kind, worker, superstep, value, threshold) -> dict:
        """Account one live-monitor alert (straggler/anomaly flagged *in
        flight*; see :class:`repro.obs.live.LiveMonitor`) as an "alert"
        instant under the run span, and return the alert dict that ends
        up in ``EngineResult.live_alerts``."""
        alert = {
            "kind": str(kind),
            "worker": int(worker),
            "superstep": int(superstep),
            "value": round(float(value), 4),
            "threshold": float(threshold),
        }
        if self.trace is not None:
            self.trace.instant("alert", parent=self._run_span, **alert)
        return alert

    def record_log_bytes(self, nbytes: int) -> None:
        self.log_bytes += int(nbytes)

    def record_failure(self, num_workers_lost: int) -> None:
        self.num_failures += int(num_workers_lost)
        if self.trace is not None:
            self.trace.instant(
                "failure",
                parent=self._run_span,
                superstep=len(self.records),
                workers_lost=int(num_workers_lost),
            )

    def record_recovery(self, nbytes: int, seconds: float) -> None:
        self.recovery_bytes += int(nbytes)
        self.recovery_time += seconds
        if self.trace is not None:
            self.trace.instant(
                "recovery",
                parent=self._run_span,
                superstep=len(self.records),
                nbytes=int(nbytes),
                model_seconds=round(float(seconds), 9),
            )

    # -- adaptive rebalancing ------------------------------------------------
    def record_rebalance(self, plan, trigger: str, seconds: float) -> None:
        """Account one applied :class:`~repro.runtime.rebalance.OwnershipPlan`
        as a "rebalance" instant under the run span.  ``trigger`` is
        ``"epoch"`` or ``"superstep"``; ``seconds`` is the modeled state
        transfer time (already included in the plan, passed explicitly so
        callers can substitute a measured value)."""
        self.num_rebalances += 1
        self.rebalanced_vertices += int(plan.moved_vertices)
        self.rebalanced_arcs += int(plan.moved_arcs)
        self.rebalance_time += float(seconds)
        if self.trace is not None:
            # epoch-triggered migrations are recorded before start_run():
            # nest their instant under the epoch span instead
            self.trace.instant(
                "rebalance",
                parent=self._run_span if self._run_span is not None else self.trace_parent,
                superstep=len(self.records),
                trigger=str(trigger),
                moved_vertices=int(plan.moved_vertices),
                moved_arcs=int(plan.moved_arcs),
                gain_ratio=round(float(plan.gain_ratio), 4),
                est_win_seconds=round(float(plan.est_win_seconds), 9),
                migrate_seconds=round(float(seconds), 9),
            )

    # -- streaming ----------------------------------------------------------
    def record_stream_epoch(self, epoch: int, affected: int, mode: str) -> None:
        """Tag this run as one epoch of a streaming job (the per-epoch
        counters then appear in :meth:`summary`)."""
        self.epoch = int(epoch)
        self.affected_vertices = int(affected)
        self.refresh_mode = mode

    def snapshot(self) -> dict:
        """Copy of the rollback-able bookkeeping (per-superstep records and
        the per-channel traffic).  Fault-tolerance counters are excluded on
        purpose: checkpoint/recovery costs already paid stay paid."""
        return {
            "records": [
                replace(r, phases={k: list(v) for k, v in r.phases.items()})
                for r in self.records
            ],
            "channel_traffic": {k: list(v) for k, v in self.channel_traffic.items()},
        }

    def restore(self, state: dict) -> None:
        """Roll the per-superstep bookkeeping back to a :meth:`snapshot`;
        re-executed supersteps then re-append, so a recovered run's totals
        match a failure-free run's exactly."""
        self.records = [
            replace(r, phases={k: list(v) for k, v in r.phases.items()})
            for r in state["records"]
        ]
        self.channel_traffic = {k: list(v) for k, v in state["channel_traffic"].items()}
        if self.trace is not None and self._step_span is not None:
            # the in-flight superstep is being rolled back: close its span
            # as aborted so reports exclude it (the re-execution emits a
            # fresh span with the real counters)
            self.trace.end(self._step_span, aborted=True)
            self._step_span = None
        self._current = None
        self._compute_per_worker = None
        self._phase_per_worker = None

    def end_superstep(self) -> None:
        cur = self._current
        assert cur is not None and self._compute_per_worker is not None
        cur.compute_time_max = float(np.max(self._compute_per_worker))
        cur.compute_time_sum = float(np.sum(self._compute_per_worker))
        if self._phase_per_worker:
            cur.phases = {
                k: [float(x) for x in v] for k, v in self._phase_per_worker.items()
            }
        if self.trace is not None and self._step_span is not None:
            self._emit_phase_spans(cur)
            self.trace.end(
                self._step_span,
                net_bytes=cur.net_bytes,
                local_bytes=cur.local_bytes,
                messages=cur.messages,
                rounds=cur.rounds,
                compute_max=round(cur.compute_time_max, 9),
            )
            self._step_span = None
        self.records.append(cur)
        self._current = None
        self._compute_per_worker = None
        self._phase_per_worker = None

    #: phase layout order inside a superstep (what the engine executes)
    _PHASE_ORDER = ("barrier", "compute", "serialize", "exchange")

    def _emit_phase_spans(self, cur: SuperstepRecord) -> None:
        """One complete span per worker per measured phase.  Durations
        are measured; the start offsets inside the superstep are
        synthesized by laying each worker's phases out sequentially in
        execution order (the engine accumulates per-phase totals across
        exchange rounds, so true start times don't exist)."""
        phases = cur.phases
        ordered = [p for p in self._PHASE_ORDER if p in phases] + sorted(
            set(phases) - set(self._PHASE_ORDER)
        )
        offsets = np.zeros(self.num_workers)
        for phase in ordered:
            per_worker = phases[phase]
            for w, seconds in enumerate(per_worker):
                self.trace.complete(
                    "phase",
                    seconds,
                    parent=self._step_span,
                    t=round(self._step_t0 + float(offsets[w]), 9),
                    worker=w,
                    phase=phase,
                )
            offsets += np.asarray(per_worker)

    # -- derived totals -----------------------------------------------------
    @property
    def supersteps(self) -> int:
        return len(self.records)

    @property
    def total_net_bytes(self) -> int:
        return sum(r.net_bytes for r in self.records)

    @property
    def total_local_bytes(self) -> int:
        return sum(r.local_bytes for r in self.records)

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.records)

    @property
    def total_rounds(self) -> int:
        return sum(r.rounds for r in self.records)

    @property
    def simulated_time(self) -> float:
        return sum(r.simulated_time for r in self.records)

    def phase_totals(self) -> dict:
        """Critical-path seconds per phase: Σ over supersteps of the
        slowest worker's time in that phase.  This is the number that
        explains where ``wall_time`` went (workers run a phase in
        parallel, so the max — not the sum — is what the barrier waits
        on).  Empty when no backend recorded phase timings."""
        totals: dict = {}
        for r in self.records:
            for phase, per_worker in r.phases.items():
                totals[phase] = totals.get(phase, 0.0) + max(per_worker)
        return totals

    def summary(self) -> dict:
        """Flat dict used by the bench harness to print table rows.

        Fault-tolerance counters appear only when checkpointing or
        failure injection was actually used, keeping plain runs' rows
        unchanged.
        """
        out = {
            "supersteps": self.supersteps,
            "rounds": self.total_rounds,
            "net_bytes": self.total_net_bytes,
            "local_bytes": self.total_local_bytes,
            "messages": self.total_messages,
            "simulated_time": self.simulated_time,
            "wall_time": self.wall_time,
        }
        # measured critical-path seconds per phase (phase_* keys appear
        # only when a backend recorded phase timings), so bench rows and
        # `repro run` output carry the wall-time breakdown by default
        for phase, seconds in sorted(self.phase_totals().items()):
            out[f"phase_{phase}"] = seconds
        if self.epoch is not None:
            out.update(
                epoch=self.epoch,
                refresh=self.refresh_mode,
                affected_vertices=self.affected_vertices,
            )
        if self.num_checkpoints or self.num_failures:
            out.update(
                checkpoints=self.num_checkpoints,
                checkpoint_bytes=self.checkpoint_bytes,
                checkpoint_time=self.checkpoint_time,
                log_bytes=self.log_bytes,
                failures=self.num_failures,
                recovery_bytes=self.recovery_bytes,
                recovery_time=self.recovery_time,
            )
        if self.num_rebalances:
            out.update(
                rebalances=self.num_rebalances,
                rebalanced_vertices=self.rebalanced_vertices,
                rebalanced_arcs=self.rebalanced_arcs,
                rebalance_time=self.rebalance_time,
            )
        return out
