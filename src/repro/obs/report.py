"""Turn a recorded trace into phase breakdowns, stragglers, anomalies.

This is the analysis half of the observability subsystem: it consumes
only the JSON-lines events (never a live engine), so it can run on a
trace produced yesterday, on another machine, by either backend.

:func:`validate_trace` checks the structural invariants every recorder
output must satisfy (ids increase, every ``E`` matches an open ``B``,
every opened span is closed, parents exist and nest correctly); the
trace-invariant tests and ``repro report`` both call it.

:class:`TraceReport` aggregates per-run:

* **phase breakdown** — critical-path seconds per phase (Σ over
  supersteps of the slowest worker), the same quantity as
  :meth:`~repro.runtime.metrics.MetricsCollector.phase_totals`;
* **straggler report** — per-worker skew scores from
  :func:`~repro.obs.stats.straggler_scores` over the compute+serialize
  timing matrix, with workers above a threshold flagged;
* **anomaly report** — per-superstep critical-path durations streamed
  through an :class:`~repro.obs.stats.EwmaBaseline` (z-score spikes)
  plus :func:`~repro.obs.stats.detect_drift` (sustained level shifts);
* **fault-tolerance timeline** — checkpoint / failure / recovery
  instants, in order.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.obs.stats import EwmaBaseline, detect_drift, straggler_scores

__all__ = ["validate_trace", "TraceReport"]

#: phases a worker spends superstep time in, in engine execution order
PHASE_ORDER = ("barrier", "compute", "serialize", "exchange")

#: phases where one slow worker stalls its peers at the next barrier —
#: the straggler signal (barrier/exchange are shared waits, not work)
WORKER_PHASES = ("compute", "serialize")


def validate_trace(events: list[dict]) -> list[str]:
    """Structural invariants of a well-formed trace; returns problem
    descriptions (empty = valid)."""
    problems: list[str] = []
    open_spans: dict[int, dict] = {}
    seen_ids: set[int] = set()
    last_id = 0

    for i, ev in enumerate(events):
        kind = ev.get("ev")
        if kind not in ("B", "E", "X", "I"):
            problems.append(f"event {i}: unknown ev {kind!r}")
            continue
        sid = ev.get("id")
        if kind == "E":
            if sid not in open_spans:
                problems.append(f"event {i}: E for span {sid} which is not open")
            else:
                open_spans.pop(sid)
            continue
        if sid in seen_ids:
            problems.append(f"event {i}: duplicate span id {sid}")
        if sid is not None and sid <= last_id:
            problems.append(f"event {i}: span id {sid} not increasing")
        last_id = sid if sid is not None else last_id
        seen_ids.add(sid)
        parent = ev.get("parent")
        if parent is not None and parent not in open_spans:
            problems.append(
                f"event {i}: parent {parent} of span {sid} is not an open span"
            )
        if kind == "B":
            open_spans[sid] = ev
        if kind == "X" and "dur" not in ev:
            problems.append(f"event {i}: X span {sid} has no dur")

    for sid, ev in open_spans.items():
        problems.append(f"span {sid} ({ev.get('span')}) was never closed")
    return problems


class TraceReport:
    """Aggregated view of one trace file's events."""

    def __init__(self, events: list[dict]):
        self.events = events
        self.problems = validate_trace(events)
        self._begin: dict[int, dict] = {}
        self._end: dict[int, dict] = {}
        #: B/X/I events by parent span id, in file order
        self._children: dict = defaultdict(list)
        for ev in events:
            if ev["ev"] in ("B", "X", "I"):
                self._begin[ev["id"]] = ev
                self._children[ev.get("parent")].append(ev)
            elif ev["ev"] == "E":
                self._end[ev["id"]] = ev
        #: run span ids, in file order (a streaming trace has one per epoch)
        self.run_ids = [
            ev["id"] for ev in events if ev["ev"] == "B" and ev["span"] == "run"
        ]

    # -- low-level accessors -------------------------------------------------
    def attrs(self, span_id: int) -> dict:
        """Begin-attrs merged with closing attrs (closing wins)."""
        out = dict(self._begin[span_id].get("attrs") or {})
        end = self._end.get(span_id)
        if end:
            out.update(end.get("attrs") or {})
        return out

    def children(self, span_id: int, span: str | None = None) -> list[dict]:
        return [
            ev
            for ev in self._children.get(span_id, ())
            if span is None or ev["span"] == span
        ]

    def supersteps(self, run_id: int) -> list[dict]:
        """Per-superstep summaries for one run span: merged attrs plus
        ``span_id``, wall duration, and the per-worker phase table.

        Mirrors the MetricsCollector's final records: supersteps a
        rollback abandoned mid-flight (closed ``aborted``) or that a
        crash left open (``forced_close``) are excluded, and when a
        recovery re-executed a superstep only the *last* span with that
        superstep number counts — the earlier execution's counters were
        rolled back.  The raw spans, re-executions included, remain
        reachable via :meth:`children`.
        """
        out = []
        for ev in self.children(run_id, "superstep"):
            sid = ev["id"]
            end = self._end.get(sid)
            end_attrs = (end or {}).get("attrs") or {}
            if end_attrs.get("aborted") or end_attrs.get("forced_close"):
                continue
            phases: dict[str, dict[int, float]] = defaultdict(dict)
            for ph in self.children(sid, "phase"):
                a = ph.get("attrs") or {}
                phases[a.get("phase", "?")][int(a.get("worker", 0))] = ph.get(
                    "dur", 0.0
                )
            out.append(
                {
                    "span_id": sid,
                    "wall": (end["t"] - ev["t"]) if end else None,
                    "phases": {k: dict(v) for k, v in phases.items()},
                    "round_events": self.children(sid, "round"),
                    **self.attrs(sid),
                }
            )
        # last execution wins: a rollback re-runs superstep numbers, and
        # only the final execution's counters survived in the metrics
        final: dict = {}
        for step in out:
            final[step.get("superstep", step["span_id"])] = step
        return [final[k] for k in sorted(final)]

    # -- aggregations --------------------------------------------------------
    def superstep_totals(self, run_id: int) -> dict:
        """Sums of the per-superstep byte/message attrs of one run —
        must agree exactly with the run's MetricsCollector totals."""
        steps = self.supersteps(run_id)
        return {
            "supersteps": len(steps),
            "net_bytes": sum(s.get("net_bytes", 0) for s in steps),
            "local_bytes": sum(s.get("local_bytes", 0) for s in steps),
            "messages": sum(s.get("messages", 0) for s in steps),
            "rounds": sum(s.get("rounds", len(s["round_events"])) for s in steps),
        }

    def phase_breakdown(self, run_id: int) -> dict:
        """Critical-path seconds per phase (Σ over supersteps of the
        slowest worker), like ``MetricsCollector.phase_totals``."""
        totals: dict[str, float] = {}
        for step in self.supersteps(run_id):
            for phase, per_worker in step["phases"].items():
                if per_worker:
                    totals[phase] = totals.get(phase, 0.0) + max(per_worker.values())
        return totals

    def worker_matrix(self, run_id: int, phases=WORKER_PHASES):
        """``supersteps × workers`` seconds each worker spent in the
        given phases (missing entries are 0)."""
        steps = self.supersteps(run_id)
        workers = sorted(
            {
                w
                for s in steps
                for per_worker in s["phases"].values()
                for w in per_worker
            }
        )
        m = np.zeros((len(steps), len(workers)))
        index = {w: i for i, w in enumerate(workers)}
        for si, step in enumerate(steps):
            for phase in phases:
                for w, sec in step["phases"].get(phase, {}).items():
                    m[si, index[w]] += sec
        return m, workers

    def straggler_report(self, run_id: int, threshold: float = 1.5) -> dict:
        """Per-worker skew scores over :data:`WORKER_PHASES`; workers at
        or above ``threshold`` are flagged as stragglers."""
        matrix, workers = self.worker_matrix(run_id)
        if not workers:
            return {"workers": [], "scores": [], "stragglers": [], "threshold": threshold}
        scores = straggler_scores(matrix)
        return {
            "workers": workers,
            "scores": [round(float(s), 4) for s in scores],
            "stragglers": [
                w for w, s in zip(workers, scores) if float(s) >= threshold
            ],
            "threshold": threshold,
        }

    def anomaly_report(
        self,
        run_id: int,
        z_threshold: float = 3.0,
        drift_threshold: float = 0.5,
    ) -> dict:
        """Flag per-superstep critical-path durations that spike
        (EWMA z-score) or drift (fast-vs-slow EWMA separation)."""
        steps = self.supersteps(run_id)
        durations = []
        for step in steps:
            crit = sum(
                max(per_worker.values())
                for per_worker in step["phases"].values()
                if per_worker
            )
            if crit == 0.0 and step["wall"] is not None:
                crit = step["wall"]
            durations.append(crit)
        baseline = EwmaBaseline()
        scores = [baseline.update(d) for d in durations]
        spikes = [
            {"superstep": steps[i].get("superstep", i), "zscore": round(s, 3)}
            for i, s in enumerate(scores)
            if s > z_threshold
        ]
        # longer warmup than the library default: short converging runs
        # legitimately speed up as the active set shrinks, and flagging
        # a 6-superstep run's tail as "drift" would be pure noise
        drift = detect_drift(durations, threshold=drift_threshold, warmup=8)
        return {
            "durations": durations,
            "spikes": spikes,
            "drift_supersteps": [steps[i].get("superstep", i) for i in drift],
        }

    def fault_events(self, run_id: int) -> list[dict]:
        """Checkpoint / failure / recovery instants of one run, in order."""
        return [
            {"span": ev["span"], "t": ev["t"], **(ev.get("attrs") or {})}
            for ev in self.children(run_id)
            if ev["span"] in ("checkpoint", "failure", "recovery")
        ]

    def rebalance_events(self, run_id: int) -> list[dict]:
        """"rebalance" instants affecting one run, each with a post-hoc
        ``realized_win_seconds`` next to the policy's estimate.

        Superstep-triggered instants are children of the run span; an
        epoch-triggered migration fires *before* the run starts and is
        parented to the wrapping epoch span, so both parents are
        scanned.  The realized win compares the per-superstep
        max-over-workers busy time (compute + serialize) before and
        after the migration — from this run's own supersteps for a
        superstep trigger, or the previous epoch's run versus this one
        for an epoch trigger.
        """
        events = list(self.children(run_id, "rebalance"))
        parent = self._begin[run_id].get("parent")
        pev = self._begin.get(parent) if parent is not None else None
        if pev is not None and pev.get("span") == "epoch":
            events = list(self.children(parent, "rebalance")) + events
        if not events:
            return []
        matrix, _ = self.worker_matrix(run_id)
        per_step = matrix.max(axis=1) if matrix.size else np.zeros(0)
        prev_steps = None  # previous run's per-step maxima, lazily found
        out = []
        for ev in events:
            attrs = dict(ev.get("attrs") or {})
            realized = None
            if attrs.get("trigger") == "epoch":
                if prev_steps is None:
                    ids = self.run_ids
                    at = ids.index(run_id)
                    if at > 0:
                        pm, _ = self.worker_matrix(ids[at - 1])
                        prev_steps = pm.max(axis=1) if pm.size else np.zeros(0)
                    else:
                        prev_steps = np.zeros(0)
                before, after = prev_steps, per_step
            else:
                cut = int(attrs.get("superstep", 0))
                before, after = per_step[:cut], per_step[cut:]
            if len(before) and len(after):
                realized = round(
                    float(before.mean() - after.mean()) * max(len(after), 1), 9
                )
            out.append(
                {"t": ev["t"], **attrs, "realized_win_seconds": realized}
            )
        return out

    def live_alerts(self, run_id: int) -> list[dict]:
        """"alert" instants the live monitor raised during one run."""
        return [
            {"t": ev["t"], **(ev.get("attrs") or {})}
            for ev in self.children(run_id, "alert")
        ]

    def epoch_context(self, run_id: int) -> dict:
        """Attrs of the streaming epoch span wrapping ``run_id``, ``{}``
        for non-streaming runs.

        A streaming trace nests each per-epoch run under its own epoch
        span, and the epoch labels (epoch number, batch size, refresh
        mode, affected vertices) live *there* — without this merge, a
        ``repro report --json`` over a stream>epoch trace would present
        all epochs as indistinguishable run-level aggregates.
        """
        parent = self._begin[run_id].get("parent")
        if parent is None:
            return {}
        pev = self._begin.get(parent)
        if pev is None or pev.get("span") != "epoch":
            return {}
        return self.attrs(parent)

    # -- whole-report assembly ----------------------------------------------
    def as_dict(self, straggler_threshold: float = 1.5, z_threshold: float = 3.0) -> dict:
        runs = []
        for rid in self.run_ids:
            attrs = self.attrs(rid)
            runs.append(
                {
                    "run": rid,
                    # epoch labels first, so the run's own attrs win a
                    # (never expected) key collision
                    **self.epoch_context(rid),
                    **attrs,
                    "live_alerts": self.live_alerts(rid),
                    "totals": self.superstep_totals(rid),
                    "phase_breakdown": {
                        k: round(v, 6) for k, v in self.phase_breakdown(rid).items()
                    },
                    "stragglers": self.straggler_report(rid, straggler_threshold),
                    "anomalies": {
                        k: v
                        for k, v in self.anomaly_report(
                            rid, z_threshold=z_threshold
                        ).items()
                        if k != "durations"
                    },
                    "fault_events": self.fault_events(rid),
                    "rebalance_events": self.rebalance_events(rid),
                }
            )
        return {"problems": self.problems, "runs": runs}

    def render(self, straggler_threshold: float = 1.5, z_threshold: float = 3.0) -> str:
        """Human-readable report for the ``repro report`` subcommand."""
        lines: list[str] = []
        for problem in self.problems:
            lines.append(f"WARNING: malformed trace: {problem}")
        payload = self.as_dict(straggler_threshold, z_threshold)
        for run in payload["runs"]:
            totals = run["totals"]
            head = f"run {run['run']}"
            for key in ("executor", "workers", "epoch", "refresh", "batch_size"):
                if key in run:
                    head += f"  {key}={run[key]}"
            lines.append(head)
            lines.append(
                f"  supersteps {totals['supersteps']}  rounds {totals['rounds']}  "
                f"net_bytes {totals['net_bytes']}  messages {totals['messages']}"
            )
            breakdown = run["phase_breakdown"]
            if breakdown:
                ordered = [p for p in PHASE_ORDER if p in breakdown] + sorted(
                    set(breakdown) - set(PHASE_ORDER)
                )
                lines.append(
                    "  phases (critical-path s): "
                    + "  ".join(f"{p}={breakdown[p]:.4f}" for p in ordered)
                )
            stragglers = run["stragglers"]
            if stragglers["workers"]:
                pairs = "  ".join(
                    f"w{w}={s:.2f}"
                    for w, s in zip(stragglers["workers"], stragglers["scores"])
                )
                lines.append(f"  worker skew (1.0 = balanced): {pairs}")
                if stragglers["stragglers"]:
                    flagged = ", ".join(f"worker {w}" for w in stragglers["stragglers"])
                    lines.append(
                        f"  STRAGGLERS (score >= {stragglers['threshold']}): {flagged}"
                    )
            anomalies = run["anomalies"]
            for spike in anomalies["spikes"]:
                lines.append(
                    f"  ANOMALY: superstep {spike['superstep']} critical path "
                    f"z-score {spike['zscore']}"
                )
            if anomalies["drift_supersteps"]:
                lines.append(
                    "  DRIFT: sustained timing shift at supersteps "
                    + ", ".join(str(s) for s in anomalies["drift_supersteps"])
                )
            for alert in run["live_alerts"]:
                lines.append(
                    f"  LIVE ALERT: {alert.get('kind')} worker "
                    f"{alert.get('worker')} at superstep "
                    f"{alert.get('superstep')} (value {alert.get('value')}, "
                    f"threshold {alert.get('threshold')})"
                )
            for ev in run["fault_events"]:
                detail = "  ".join(
                    f"{k}={v}" for k, v in ev.items() if k not in ("span", "t")
                )
                lines.append(f"  {ev['span']} @ t={ev['t']:.4f}s  {detail}".rstrip())
            for ev in run["rebalance_events"]:
                realized = ev.get("realized_win_seconds")
                lines.append(
                    f"  REBALANCE ({ev.get('trigger')}) at superstep "
                    f"{ev.get('superstep')}: moved {ev.get('moved_vertices')} "
                    f"vertices / {ev.get('moved_arcs')} arcs, "
                    f"gain {ev.get('gain_ratio')}x, estimated win "
                    f"{ev.get('est_win_seconds')}s, realized "
                    f"{'n/a' if realized is None else f'{realized}s'}"
                )
        return "\n".join(lines)
