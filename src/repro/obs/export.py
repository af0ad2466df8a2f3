"""Exporters over the live telemetry plane (ARCHITECTURE.md §11).

Three read-only views of a :class:`~repro.obs.live.LiveMetrics` segment:

- :func:`prometheus_text`: the Prometheus text exposition format
  (version 0.0.4) — ``# HELP`` / ``# TYPE`` headed families, one sample
  per worker, counters suffixed ``_total``.
- :class:`MetricsHTTPServer`: a stdlib-only ``GET /metrics`` endpoint
  (``http.server.ThreadingHTTPServer`` on a daemon thread) behind the
  ``--metrics-port`` CLI flag, so any Prometheus scraper or plain
  ``curl`` can watch a run in flight.
- :func:`format_top`: the per-worker table ``repro top`` renders.
- :func:`format_table`: the generic fixed-width table renderer behind
  ``repro info`` (and anything else that wants ``repro top``'s look
  without its hand-packed per-worker columns).

All three take fresh :meth:`~repro.obs.live.LiveMetrics.snapshot` reads;
none of them ever writes to the segment.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.live import LiveMetrics

__all__ = ["MetricsHTTPServer", "format_table", "format_top", "prometheus_text"]

_PHASES = ("barrier", "compute", "serialize", "exchange")

#: metric family -> (type, help); counters carry the ``_total`` suffix
#: required by the exposition format for cumulative series
_FAMILIES = (
    ("repro_supersteps_total", "counter", "Supersteps completed by this worker."),
    ("repro_exchange_rounds_total", "counter", "Channel exchange rounds completed."),
    ("repro_net_bytes_total", "counter", "Frame bytes sent to other workers."),
    ("repro_local_bytes_total", "counter", "Frame bytes kept worker-local."),
    ("repro_messages_total", "counter", "Channel messages sent."),
    ("repro_phase_seconds_total", "counter", "Cumulative seconds per engine phase."),
    ("repro_cpu_seconds_total", "counter", "Worker process CPU seconds (/proc)."),
    ("repro_alerts_total", "counter", "Live-monitor alerts raised for this worker."),
    ("repro_active_vertices", "gauge", "Active vertices in the current superstep."),
    ("repro_rss_bytes", "gauge", "Worker process resident set size (/proc)."),
    ("repro_last_update_timestamp_seconds", "gauge",
     "Unix time of the worker's last slot publish."),
    ("repro_slot_stale", "gauge", "1 when the last snapshot read was torn."),
    ("repro_epoch", "gauge", "Streaming epoch the segment currently describes."),
    ("repro_up", "gauge", "1 while the live segment is attached and readable."),
)


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _labels(pairs: dict) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs.items())
    return "{" + body + "}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(live: LiveMetrics, labels: dict | None = None) -> str:
    """Render one scrape of ``live`` in the text exposition format."""
    base = dict(labels or {})
    rows = live.snapshot()
    header = live.header()
    alerts = live.alert_counts()

    samples: dict[str, list[tuple[dict, object]]] = {name: [] for name, _, _ in _FAMILIES}
    for row in rows:
        wl = {**base, "worker": row["worker"]}
        samples["repro_supersteps_total"].append((wl, row["superstep"]))
        samples["repro_exchange_rounds_total"].append((wl, row["rounds"]))
        samples["repro_net_bytes_total"].append((wl, row["net_bytes"]))
        samples["repro_local_bytes_total"].append((wl, row["local_bytes"]))
        samples["repro_messages_total"].append((wl, row["messages"]))
        for phase in _PHASES:
            samples["repro_phase_seconds_total"].append(
                ({**wl, "phase": phase}, row[f"{phase}_seconds"])
            )
        samples["repro_cpu_seconds_total"].append((wl, row["cpu_seconds"]))
        samples["repro_alerts_total"].append((wl, alerts[row["worker"]]))
        samples["repro_active_vertices"].append((wl, row["active"]))
        samples["repro_rss_bytes"].append((wl, row["rss_bytes"]))
        samples["repro_last_update_timestamp_seconds"].append((wl, row["updated_at"]))
        samples["repro_slot_stale"].append((wl, row["stale"]))
    samples["repro_epoch"].append((base, header["epoch"]))
    samples["repro_up"].append((base, 1))

    lines = []
    for name, typ, help_text in _FAMILIES:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {typ}")
        for label_pairs, value in samples[name]:
            lines.append(f"{name}{_labels(label_pairs)} {_fmt(value)}")
    return "\n".join(lines) + "\n"


class MetricsHTTPServer:
    """Serve ``GET /metrics`` for a live segment on a daemon thread."""

    def __init__(
        self,
        live: LiveMetrics,
        port: int = 0,
        host: str = "127.0.0.1",
        labels: dict | None = None,
    ):
        self.live = live
        self.host = host
        self.labels = dict(labels or {})
        self._port = int(port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._port

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port
        (useful with ``port=0``, which picks a free one)."""
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served here")
                    return
                try:
                    body = prometheus_text(outer.live, outer.labels).encode("utf-8")
                except Exception as exc:  # segment closed mid-scrape
                    self.send_error(503, str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # scrapes are not run output
                pass

        self._httpd = ThreadingHTTPServer((self.host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics-http", daemon=True
        )
        self._thread.start()
        return self._port

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None


def format_table(
    rows: list[dict], columns: list[str] | None = None, title: str | None = None
) -> str:
    """Render dict rows as a fixed-width text table.

    Column order follows ``columns`` (default: first row's key order);
    numeric cells are right-aligned, everything else left-aligned, floats
    shown to 3 decimals.  The style matches :func:`format_top`'s
    upper-case headers so ``repro info`` and ``repro top`` read alike.
    """
    if not rows:
        return title or ""
    cols = columns if columns is not None else list(rows[0])

    def cell(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    grid = [[cell(r.get(c, "")) for c in cols] for r in rows]
    numeric = [
        all(isinstance(r.get(c), (int, float)) and not isinstance(r.get(c), bool)
            for r in rows)
        for c in cols
    ]
    widths = [
        max(len(c.upper()), max(len(g[i]) for g in grid)) for i, c in enumerate(cols)
    ]

    def line(parts: list[str]) -> str:
        out = []
        for i, p in enumerate(parts):
            out.append(p.rjust(widths[i]) if numeric[i] else p.ljust(widths[i]))
        return "  ".join(out).rstrip()

    lines = [] if title is None else [title]
    lines.append(line([c.upper() for c in cols]))
    lines.extend(line(g) for g in grid)
    return "\n".join(lines)


def _mb(nbytes: float) -> str:
    return f"{nbytes / 1e6:10.2f}"


def format_top(
    live: LiveMetrics,
    rows: list[dict] | None = None,
    prev: list[dict] | None = None,
    dt: float | None = None,
) -> str:
    """Render the ``repro top`` per-worker table.

    With ``prev``/``dt`` (the previous refresh's snapshot and the seconds
    since), the rate columns are true deltas; one-shot callers omit them
    and get run-lifetime averages against the segment's ``created_at``.
    """
    if rows is None:
        rows = live.snapshot()
    header = live.header()
    alerts = live.alert_counts()
    now = time.time()
    age = max(now - header["created_at"], 1e-9)

    lines = [
        f"segment {live.name}  epoch {header['epoch']}  "
        f"workers {header['num_workers']}  age {age:.1f}s",
        "  W     STEP    ACTIVE   STEP/S    NET MB  NET MB/S       MSG"
        "  PHASE barrier/compute/serialize/exchange     RSS MB    CPU S  ALERT",
    ]
    for row in rows:
        w = row["worker"]
        if prev is not None and dt is not None and dt > 0 and w < len(prev):
            step_rate = (row["superstep"] - prev[w]["superstep"]) / dt
            byte_rate = (row["net_bytes"] - prev[w]["net_bytes"]) / dt
        else:
            step_rate = row["superstep"] / age
            byte_rate = row["net_bytes"] / age
        busy = sum(row[f"{p}_seconds"] for p in _PHASES)
        if busy > 0:
            split = "/".join(
                f"{100 * row[f'{p}_seconds'] / busy:4.1f}" for p in _PHASES
            )
        else:
            split = "/".join(" 0.0" for _ in _PHASES)
        flag = " !" if row["stale"] else ""
        lines.append(
            f"{w:3d} {row['superstep']:8d} {row['active']:9d} {step_rate:8.2f} "
            f"{_mb(row['net_bytes'])} {byte_rate / 1e6:9.3f} {row['messages']:9d}"
            f"  {split:>41s} {_mb(row['rss_bytes'])} {row['cpu_seconds']:8.2f} "
            f"{alerts[w]:6d}{flag}"
        )
    return "\n".join(lines)
