"""Live telemetry plane tests (ARCHITECTURE.md §11).

The contract under test, in order of importance:

1. **Seqlock soundness** — snapshots taken while a writer is publishing
   concurrently are never torn: invariant-linked counters stay linked in
   every non-stale row, and a slot deliberately left mid-publish is
   reported ``stale`` instead of returned as garbage.
2. **Backend parity** — sim and process (both transports) publish the
   *same slot schema with the same values*: per-worker live counters sum
   exactly to the final ``MetricsCollector`` totals, and the process
   rows are bit-identical to the sim rows for the same run.
3. **Online scoring** — a planted straggler produces "alert" trace
   instants and ``EngineResult.live_alerts`` entries *for the right
   worker* while the run is in flight.
4. **Exporters** — the Prometheus exposition is well-formed line by
   line, the HTTP endpoint is scrape-able mid-run by a plain urllib
   client, and ``repro top --once`` renders a snapshot table.
"""

import re
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from helpers import line_graph
from repro.algorithms.wcc import WCCBasic, run_wcc
from repro.core import ChannelEngine
from repro.core import worker as worker_module
from repro.obs import (
    LIVE_COUNTERS,
    LIVE_GAUGES,
    LiveMetrics,
    MetricsHTTPServer,
    TraceRecorder,
    TraceReport,
    format_top,
    load_trace,
    prometheus_text,
)
from repro.obs.live import _HEADER_SIZE, _PAYLOAD, _SEQ, _SLOT_SIZE
from repro.streaming import EpochEngine, WCCStream, synthesize_stream


# ---------------------------------------------------------------------------
# segment lifecycle + slot mechanics
# ---------------------------------------------------------------------------
class TestSegment:
    def test_create_snapshot_roundtrip(self):
        live = LiveMetrics.create(3)
        try:
            w = live.writer(1)
            w.add(superstep=1, active=7, rounds=2, net_bytes=100,
                  local_bytes=40, messages=9, compute=0.5, serialize=0.25)
            w.add(superstep=1, net_bytes=28, messages=1, barrier=0.125)
            w.publish()
            rows = live.snapshot()
            assert [r["worker"] for r in rows] == [0, 1, 2]
            r = rows[1]
            assert not r["stale"]
            assert (r["superstep"], r["active"], r["rounds"]) == (2, 7, 2)
            assert (r["net_bytes"], r["local_bytes"], r["messages"]) == (128, 40, 10)
            assert r["compute_seconds"] == 0.5
            assert r["serialize_seconds"] == 0.25
            assert r["barrier_seconds"] == 0.125
            assert r["updated_at"] > 0
            # untouched slots read as published zeros, not garbage
            assert rows[0]["superstep"] == 0 and not rows[0]["stale"]
        finally:
            live.close(unlink=True)

    def test_attach_by_name_and_spec(self):
        live = LiveMetrics.create(2)
        try:
            live.writer(0).add(superstep=1, messages=5)
            by_name = LiveMetrics.attach(live.name)
            by_spec = LiveMetrics.attach(live.spec)
            try:
                assert by_name.num_workers == 2
                assert by_spec.snapshot()[0]["seq"] == live.snapshot()[0]["seq"]
            finally:
                by_name.close()
                by_spec.close()
        finally:
            live.close(unlink=True)

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=256)
        try:
            with pytest.raises(ValueError, match="not a live metrics segment"):
                LiveMetrics.attach(seg.name)
        finally:
            seg.close()
            seg.unlink()

    def test_unknown_phase_rejected(self):
        live = LiveMetrics.create(1)
        try:
            with pytest.raises(ValueError, match="unknown live phase"):
                live.writer(0).add(compute_time=1.0)
        finally:
            live.close(unlink=True)

    def test_rewind_to_a_reading(self):
        live = LiveMetrics.create(1)
        try:
            w = live.writer(0)
            w.add(superstep=1, messages=3, compute=0.5)
            w.publish()
            mark = live.snapshot()[0]  # what a checkpoint reads
            w.add(superstep=1, messages=4, compute=0.5)
            w.publish()
            assert live.snapshot()[0]["messages"] == 7
            w.rewind(mark)  # rollback recovery replays from the checkpoint
            r = live.snapshot()[0]
            assert (r["superstep"], r["messages"]) == (1, 3)
            assert r["compute_seconds"] == 0.5
            # a replacement writer zero-publishes, then resumes from the
            # reading its predecessor left behind, and keeps counting
            last = live.snapshot()[0]
            w2 = live.writer(0)
            assert live.snapshot()[0]["superstep"] == 0
            w2.rewind(last)
            w2.add(superstep=1, messages=2)
            w2.publish()
            assert (live.snapshot()[0]["superstep"], live.snapshot()[0]["messages"]) == (2, 5)
        finally:
            live.close(unlink=True)

    def test_fresh_writer_zero_publishes(self):
        live = LiveMetrics.create(1)
        try:
            w = live.writer(0)
            w.add(superstep=5, messages=100)
            w.publish()
            live.writer(0)  # a new run/epoch starts from a clean slot
            assert live.snapshot()[0]["superstep"] == 0
        finally:
            live.close(unlink=True)

    def test_alert_counters(self):
        live = LiveMetrics.create(3)
        try:
            live.bump_alert(1)
            live.bump_alert(1)
            live.bump_alert(2)
            assert live.alert_counts() == [0, 2, 1]
        finally:
            live.close(unlink=True)

    def test_roll_epoch_preserves_created_at(self):
        live = LiveMetrics.create(2)
        try:
            created = live.header()["created_at"]
            live.roll_epoch(4)
            h = live.header()
            assert h["epoch"] == 4
            assert h["created_at"] == created
        finally:
            live.close(unlink=True)


# ---------------------------------------------------------------------------
# seqlock consistency
# ---------------------------------------------------------------------------
class TestSeqlock:
    def test_snapshots_consistent_under_concurrent_writer(self):
        """Readers racing a publishing writer never observe a torn payload.

        The writer maintains ``messages == 3 * superstep`` and
        ``net_bytes == 8 * superstep`` — any snapshot mixing bytes from
        two publishes breaks the linkage.
        """
        live = LiveMetrics.create(1)
        stop = threading.Event()

        def hammer():
            w = live.writer(0)
            while not stop.is_set():
                w.add(superstep=1, messages=3, net_bytes=8)
                w.publish()

        t = threading.Thread(target=hammer)
        t.start()
        try:
            checked = 0
            deadline = time.perf_counter() + 0.5
            while time.perf_counter() < deadline:
                row = live.snapshot(stale_after=0.2)[0]
                if row["stale"]:
                    continue
                assert row["messages"] == 3 * row["superstep"]
                assert row["net_bytes"] == 8 * row["superstep"]
                checked += 1
            assert checked > 10
        finally:
            stop.set()
            t.join()
            live.close(unlink=True)

    def test_torn_slot_reported_stale(self):
        """A slot whose writer died mid-publish (odd seq) is returned with
        ``stale: True`` and the last payload, never spun on forever."""
        live = LiveMetrics.create(1)
        try:
            w = live.writer(0)
            w.add(superstep=2, messages=6)
            w.publish()
            off = _HEADER_SIZE  # worker 0's slot
            _SEQ.pack_into(live._buf, off, 7)  # fake an in-flight publish
            row = live.snapshot(stale_after=0.02)[0]
            assert row["stale"]
            assert row["messages"] == 6  # the last complete payload
            # a successor writer repairs the odd seq (crash recovery)
            live.writer(0)
            assert not live.snapshot(stale_after=0.02)[0]["stale"]
        finally:
            live.close(unlink=True)

    def test_reader_retries_through_in_flight_publish(self):
        """A reader that lands inside a slow publish retries and returns
        the *completed* payload, not the half-written one."""
        live = LiveMetrics.create(1)
        try:
            off = _HEADER_SIZE

            def slow_publish():
                # hand-rolled seqlock write with a stall in the middle
                _SEQ.pack_into(live._buf, off, 1)
                time.sleep(0.05)
                _PAYLOAD.pack_into(
                    live._buf, off + _SEQ.size, 9, 1, 0, 72, 0, 27,
                    *([0.0] * len(LIVE_GAUGES)),
                )
                _SEQ.pack_into(live._buf, off, 2)

            t = threading.Thread(target=slow_publish)
            t.start()
            time.sleep(0.01)  # land mid-publish
            row = live.snapshot(stale_after=1.0)[0]
            t.join()
            assert not row["stale"]
            assert (row["superstep"], row["net_bytes"], row["messages"]) == (9, 72, 27)
        finally:
            live.close(unlink=True)


# ---------------------------------------------------------------------------
# backend parity: sim and process publish identical slots
# ---------------------------------------------------------------------------
def _run_with_live(variant="prop", **engine_kwargs):
    graph = line_graph(16)
    live = LiveMetrics.create(2)
    try:
        _, result = run_wcc(
            graph, variant=variant, num_workers=2, live=live, **engine_kwargs
        )
        return live.snapshot(), result.metrics
    finally:
        live.close(unlink=True)


class TestBackendParity:
    def test_sim_rows_match_collector_totals(self):
        rows, metrics = _run_with_live()
        assert sum(r["net_bytes"] for r in rows) == metrics.total_net_bytes
        assert sum(r["local_bytes"] for r in rows) == metrics.total_local_bytes
        assert sum(r["messages"] for r in rows) == metrics.total_messages
        for r in rows:
            assert r["superstep"] == metrics.supersteps
            assert r["rounds"] == metrics.total_rounds
            assert r["compute_seconds"] >= 0.0

    @pytest.mark.parametrize(
        "run",
        [
            {},
            # worker 1 dies at superstep 3: rollback rewinds every slot to
            # the checkpoint's reading, confined leaves the dead worker's
            # slot where it stood — and its respawned process resumes it
            dict(variant="basic", checkpoint_every=2, failures=["1:3"]),
            dict(variant="basic", checkpoint_every=2, failures=["1:3"], recovery="confined"),
        ],
        ids=["clean", "rollback", "confined"],
    )
    def test_process_rows_bit_identical_to_sim(self, transport, run):
        sim_rows, sim_metrics = _run_with_live(**run)
        assert sim_metrics.num_failures == len(run.get("failures", []))
        assert sum(r["net_bytes"] for r in sim_rows) == sim_metrics.total_net_bytes
        proc_rows, proc_metrics = _run_with_live(
            executor="process", **run
        )
        # identical schema...
        assert {k for r in proc_rows for k in r} == {k for r in sim_rows for k in r}
        assert set(sim_rows[0]) >= set(LIVE_COUNTERS) | set(LIVE_GAUGES)
        # ...identical per-worker accounting (not just identical sums)
        for s, p in zip(sim_rows, proc_rows):
            for key in ("superstep", "rounds", "net_bytes", "local_bytes", "messages"):
                assert p[key] == s[key], key
        assert proc_metrics.total_net_bytes == sim_metrics.total_net_bytes
        assert proc_metrics.total_messages == sim_metrics.total_messages
        # process slots count exactly what the collector counted
        assert sum(r["net_bytes"] for r in proc_rows) == proc_metrics.total_net_bytes
        assert sum(r["messages"] for r in proc_rows) == proc_metrics.total_messages


# ---------------------------------------------------------------------------
# online anomaly scoring
# ---------------------------------------------------------------------------
class SleepyWCC(WCCBasic):
    """WCCBasic with worker 1 planted as a straggler: 2 ms a vertex."""

    sleep = staticmethod(time.sleep)

    def compute(self, v):
        if self.worker.worker_id == 1:
            self.sleep(0.002)
        super().compute(v)


class _StillClock:
    """A clock that moves only when slept on."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestLiveMonitor:
    def test_planted_straggler_raises_alerts(self, tmp_path, monkeypatch):
        # the workers charge compute and serialize from a clock this test
        # moves, so the planted 2 ms are the only busy time: a pause of the
        # machine (a collection, a preemption) cannot make worker 0 slow
        clock = _StillClock()
        monkeypatch.setattr(worker_module, "time", clock)
        monkeypatch.setattr(SleepyWCC, "sleep", staticmethod(clock.sleep))
        path = tmp_path / "trace.jsonl"
        graph = line_graph(16)
        live = LiveMetrics.create(2)
        try:
            with TraceRecorder(path) as rec:
                result = ChannelEngine(
                    graph, SleepyWCC, num_workers=2, trace=rec, live=live
                ).run()
            assert result.live_alerts, "planted straggler raised no alerts"
            assert all(a["worker"] == 1 for a in result.live_alerts)
            assert all(a["kind"] in ("straggler", "anomaly") for a in result.live_alerts)
            assert any(a["kind"] == "straggler" for a in result.live_alerts)
            for a in result.live_alerts:
                assert a["value"] >= a["threshold"]
            # the segment's ALERT column saw the same events
            assert live.alert_counts()[1] == len(result.live_alerts)
            assert live.alert_counts()[0] == 0
        finally:
            live.close(unlink=True)
        # ...and so did the trace, as "alert" instants under the run span
        events = load_trace(path)
        instants = [e for e in events if e.get("ev") == "I" and e["span"] == "alert"]
        assert len(instants) == len(result.live_alerts)
        assert all(e["attrs"]["worker"] == 1 for e in instants)
        # repro report surfaces them on the run entry
        report = TraceReport(events)
        entry = report.as_dict()["runs"][0]
        assert len(entry["live_alerts"]) == len(result.live_alerts)
        assert "LIVE ALERT" in report.render()

    def test_uniform_run_raises_no_alerts(self):
        rows, _ = _run_with_live()
        graph = line_graph(16)
        live = LiveMetrics.create(2)
        try:
            result = ChannelEngine(graph, WCCBasic, num_workers=2, live=live).run()
            assert result.live_alerts == []
            assert live.alert_counts() == [0, 0]
        finally:
            live.close(unlink=True)

    def test_worker_count_mismatch_rejected(self):
        live = LiveMetrics.create(4)
        try:
            with pytest.raises(ValueError, match="worker slots"):
                ChannelEngine(line_graph(8), WCCBasic, num_workers=2, live=live)
        finally:
            live.close(unlink=True)


# ---------------------------------------------------------------------------
# streaming: one segment across epochs
# ---------------------------------------------------------------------------
class TestStreamingRollover:
    def test_epoch_rollover_resets_slots(self):
        graph = line_graph(24)
        batches = synthesize_stream(graph, 2, 6, 0, seed=9)
        live = LiveMetrics.create(2)
        try:
            eng = EpochEngine(graph, WCCStream(), num_workers=2, live=live)
            eng.bootstrap()
            assert live.header()["epoch"] == 0
            boot_rows = live.snapshot()
            assert all(r["superstep"] > 0 for r in boot_rows)
            for i, batch in enumerate(batches):
                eng.run_epoch(batch)
                assert live.header()["epoch"] == i + 1
                rows = live.snapshot()
                m = eng.latest.result.metrics
                # slots restarted: they describe only the latest epoch
                for r in rows:
                    assert r["superstep"] == m.supersteps
                assert sum(r["net_bytes"] for r in rows) == m.total_net_bytes
                assert sum(r["messages"] for r in rows) == m.total_messages
            eng.close()
        finally:
            live.close(unlink=True)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
def _synthetic_segment():
    live = LiveMetrics.create(2)
    w0 = live.writer(0)
    w0.add(superstep=3, active=5, rounds=4, net_bytes=4096, local_bytes=512,
           messages=41, barrier=0.1, compute=1.5, serialize=0.25, exchange=0.4)
    w0.publish()
    w1 = live.writer(1)
    w1.add(superstep=3, active=2, rounds=4, net_bytes=1024, local_bytes=128,
           messages=17, compute=0.75)
    w1.publish()
    live.bump_alert(1)
    return live


_SAMPLE_RE = re.compile(
    r'^[a-z_][a-z0-9_]*(\{[a-z_][a-z0-9_]*="[^"]*"(,[a-z_][a-z0-9_]*="[^"]*")*\})? '
    r"-?[0-9][0-9a-z+.e-]*$"
)


class TestPrometheusText:
    def test_exposition_well_formed_line_by_line(self):
        live = _synthetic_segment()
        try:
            text = prometheus_text(live, labels={"workload": "wcc"})
        finally:
            live.close(unlink=True)
        assert text.endswith("\n")
        lines = text.splitlines()
        seen_help, seen_type = set(), {}
        current = None
        for line in lines:
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert name not in seen_help, "duplicate HELP"
                seen_help.add(name)
                current = name
            elif line.startswith("# TYPE "):
                _, _, name, typ = line.split()
                assert name == current, "TYPE must follow its HELP"
                assert typ in ("counter", "gauge")
                seen_type[name] = typ
            else:
                assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
                name = re.split(r"[{ ]", line, maxsplit=1)[0]
                assert name == current, "sample outside its family block"
        # every family has both headers; counters carry the _total suffix
        assert seen_help == set(seen_type)
        for name, typ in seen_type.items():
            assert name.endswith("_total") == (typ == "counter"), name

    def test_exposition_values_match_snapshot(self):
        live = _synthetic_segment()
        try:
            text = prometheus_text(live, labels={"workload": "wcc"})
        finally:
            live.close(unlink=True)
        assert 'repro_supersteps_total{workload="wcc",worker="0"} 3' in text
        assert 'repro_net_bytes_total{workload="wcc",worker="0"} 4096' in text
        assert 'repro_net_bytes_total{workload="wcc",worker="1"} 1024' in text
        assert 'repro_messages_total{workload="wcc",worker="1"} 17' in text
        assert 'repro_alerts_total{workload="wcc",worker="1"} 1' in text
        assert ('repro_phase_seconds_total{workload="wcc",worker="0",phase="compute"}'
                " 1.5") in text
        assert 'repro_active_vertices{workload="wcc",worker="0"} 5' in text
        assert 'repro_up{workload="wcc"} 1' in text
        assert 'repro_epoch{workload="wcc"} 0' in text

    def test_label_escaping(self):
        live = LiveMetrics.create(1)
        try:
            text = prometheus_text(live, labels={"job": 'a"b\\c\nd'})
        finally:
            live.close(unlink=True)
        assert '{job="a\\"b\\\\c\\nd",worker="0"}' in text


class TestHTTPEndpoint:
    def test_scrape_mid_run_by_external_client(self):
        """An in-flight run is scrape-able over plain HTTP: the slow
        planted program keeps the run alive while urllib reads /metrics."""
        graph = line_graph(16)
        live = LiveMetrics.create(2)
        server = MetricsHTTPServer(live, port=0, labels={"workload": "wcc"})
        port = server.start()
        scraped = {}

        def scrape_until_live():
            url = f"http://127.0.0.1:{port}/metrics"
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    body = resp.read().decode()
                    if re.search(r'repro_supersteps_total\{[^}]*\} [1-9]', body):
                        scraped["body"] = body
                        scraped["content_type"] = resp.headers["Content-Type"]
                        return
                time.sleep(0.005)

        t = threading.Thread(target=scrape_until_live)
        try:
            t.start()
            result = ChannelEngine(graph, SleepyWCC, num_workers=2, live=live).run()
            t.join(timeout=10)
            assert "body" in scraped, "never scraped a live superstep mid-run"
            assert scraped["content_type"] == "text/plain; version=0.0.4; charset=utf-8"
            assert "repro_up" in scraped["body"]
            # the mid-run reading is a prefix of the final accounting
            m = re.search(
                r'repro_supersteps_total\{[^}]*worker="0"\} (\d+)', scraped["body"]
            )
            assert 1 <= int(m.group(1)) <= result.metrics.supersteps
        finally:
            t.join(timeout=10)
            server.stop()
            live.close(unlink=True)

    def test_404_off_path_and_503_after_close(self):
        live = _synthetic_segment()
        server = MetricsHTTPServer(live, port=0)
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/other", timeout=5)
            assert err.value.code == 404
            live.close(unlink=True)  # segment vanishes under the server
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=5)
            assert err.value.code == 503
        finally:
            server.stop()


class TestTop:
    def test_format_top_renders_rows(self):
        live = _synthetic_segment()
        try:
            out = format_top(live)
            lines = out.splitlines()
            assert lines[0].startswith(f"segment {live.name}  epoch 0  workers 2")
            assert "STEP" in lines[1] and "ALERT" in lines[1]
            assert len(lines) == 4  # header + columns + one row per worker
            w0 = lines[2].split()
            assert w0[0] == "0" and w0[1] == "3"  # worker, superstep
            assert w0[6] == "41"  # messages
            # rate columns switch to true deltas when prev/dt are given
            prev = live.snapshot()
            w = live.writer(0)
            w.counters.update(superstep=5, net_bytes=8192)
            w.publish()
            delta = format_top(live, prev=prev, dt=2.0).splitlines()[2]
            assert float(delta.split()[3]) == pytest.approx(1.0)  # 2 steps / 2 s
        finally:
            live.close(unlink=True)

    def test_cli_top_once(self, capsys):
        from repro.__main__ import main

        live = _synthetic_segment()
        try:
            assert main(["top", live.name, "--once"]) == 0
            out = capsys.readouterr().out
            assert f"segment {live.name}" in out
            assert out.count("\n") >= 4
        finally:
            live.close(unlink=True)

    def test_cli_top_missing_segment(self, capsys):
        from repro.__main__ import main

        assert main(["top", "no-such-segment-xyz", "--once"]) == 2
        assert "no live-metrics segment" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro report: per-epoch context (satellite of this PR)
# ---------------------------------------------------------------------------
class TestReportEpochContext:
    def test_stream_runs_keep_epoch_context(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        graph = line_graph(24)
        batches = synthesize_stream(graph, 2, 6, 0, seed=9)
        with TraceRecorder(path) as rec:
            eng = EpochEngine(graph, WCCStream(), num_workers=2, trace=rec)
            eng.bootstrap()
            for batch in batches:
                eng.run_epoch(batch)
            eng.close()
        report = TraceReport(load_trace(path))
        runs = report.as_dict()["runs"]
        assert len(runs) == 3  # bootstrap + 2 epochs, not collapsed
        assert [r["epoch"] for r in runs] == [0, 1, 2]
        for r in runs[1:]:
            assert r["batch_size"] == 6
            assert "refresh" in r
        rendered = report.render()
        assert "epoch=1" in rendered or "epoch 1" in rendered
