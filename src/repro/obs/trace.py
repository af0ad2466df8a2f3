"""Structured run traces: JSON-lines span events with parent/child ids.

One trace file records one process's runs.  Every line is one event —
a dict with a fixed envelope plus free-form ``attrs``::

    {"ev": "B", "span": "superstep", "id": 7, "parent": 1,
     "t": 0.0123, "attrs": {"superstep": 1, "active": 96}}

``ev``
    ``"B"`` begins a span, ``"E"`` ends it (same ``id``), ``"X"`` is a
    complete span (carries ``dur``), ``"I"`` is an instant event.
``span``
    The span kind — one of :data:`SPAN_KINDS`.
``id`` / ``parent``
    Span ids are unique within a trace file and strictly increasing;
    ``parent`` nests spans (``null`` for roots).  An ``"E"`` event
    repeats its ``"B"``'s id and may add closing ``attrs`` (a
    superstep's byte/message totals are only known at its end).
``t`` / ``dur``
    Seconds on a monotonic clock relative to the recorder's creation.

The hierarchy an engine run produces (streaming runs wrap it in
``stream`` → ``epoch`` spans)::

    run
    ├─ superstep (per executed superstep, re-executions included)
    │   ├─ phase  ("X": one per worker per measured phase)
    │   └─ round  ("I": one per exchange round, with byte counts)
    ├─ checkpoint ("I")
    ├─ failure    ("I")
    └─ recovery   ("I")

The recorder is deliberately dumb: it assigns ids, timestamps, writes
lines, and tracks which spans are still open so :meth:`TraceRecorder.
close` can end them (a crashed run still yields a well-formed trace).
All semantic content comes from the instrumentation points in
:class:`~repro.runtime.metrics.MetricsCollector` and
:class:`~repro.streaming.epoch.EpochEngine`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["SPAN_KINDS", "TraceRecorder", "load_trace"]

#: every span kind a recorder may emit (closed vocabulary: the report
#: and exporter dispatch on these)
SPAN_KINDS = (
    "stream",
    "epoch",
    "run",
    "superstep",
    "phase",
    "round",
    "checkpoint",
    "alert",
    "failure",
    "recovery",
)


class TraceRecorder:
    """Appends span events to a JSON-lines file (or file-like object).

    Pass a path to let the recorder own (open/close) the file, or any
    object with a ``write(str)`` method to keep ownership.  Events are
    flushed on :meth:`close`; the recorder is not thread-safe and is
    only ever driven from the parent process — worker processes report
    their measurements through the existing reply protocol, and the
    parent attributes them.
    """

    def __init__(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
            self.path = getattr(path_or_file, "name", None)
        else:
            self.path = str(path_or_file)
            self._fh = Path(path_or_file).open("w", encoding="utf-8")
            self._owns = True
        self._t0 = time.perf_counter()
        self._next_id = 1
        #: id -> span kind, for every currently open ("B" without "E") span
        self.open_spans: dict[int, str] = {}
        self.closed = False

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this recorder was created (the trace timebase)."""
        return time.perf_counter() - self._t0

    # -- event emission ------------------------------------------------------
    def begin(self, span: str, parent: int | None = None, **attrs) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        sid = self._emit("B", span, parent, attrs)
        self.open_spans[sid] = span
        return sid

    def end(self, span_id: int, **attrs) -> None:
        """Close an open span, optionally attaching closing attrs."""
        span = self.open_spans.pop(span_id)
        self._write(
            {
                "ev": "E",
                "span": span,
                "id": span_id,
                "t": round(self.now(), 9),
                **({"attrs": attrs} if attrs else {}),
            }
        )

    def complete(
        self,
        span: str,
        dur: float,
        parent: int | None = None,
        t: float | None = None,
        **attrs,
    ) -> int:
        """A span whose begin and end are known at once (e.g. a measured
        phase); ``t`` overrides the timestamp for synthesized layouts."""
        return self._emit("X", span, parent, attrs, dur=dur, t=t)

    def instant(self, span: str, parent: int | None = None, **attrs) -> int:
        """A point event (checkpoint taken, worker failed, ...)."""
        return self._emit("I", span, parent, attrs)

    def close(self) -> None:
        """End any spans still open (innermost first — a crash mid-run
        must still leave a well-formed trace), then flush, then close the
        file if this recorder opened it.  Idempotent."""
        if self.closed:
            return
        for sid in sorted(self.open_spans, reverse=True):
            self.end(sid, forced_close=True)
        self.closed = True
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------
    def _emit(self, ev, span, parent, attrs, dur=None, t=None) -> int:
        if span not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {span!r}; expected {SPAN_KINDS}")
        sid = self._next_id
        self._next_id += 1
        event = {
            "ev": ev,
            "span": span,
            "id": sid,
            "parent": parent,
            "t": round(self.now() if t is None else t, 9),
        }
        if dur is not None:
            event["dur"] = round(float(dur), 9)
        if attrs:
            event["attrs"] = attrs
        self._write(event)
        return sid

    def _write(self, event: dict) -> None:
        if self.closed:
            raise RuntimeError("trace recorder is closed")
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")


def load_trace(path) -> list[dict]:
    """Read a JSON-lines trace back into a list of event dicts (blank
    lines skipped; raises ``ValueError`` naming the offending line on
    malformed input)."""
    events = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a trace event: {exc}") from exc
    return events
