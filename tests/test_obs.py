"""The observability subsystem: traces, streaming stats, reports.

The contracts under test:

* a trace is **well-formed** for every execution path — sim, process,
  failure+recovery, streaming epochs: every opened span is closed, ids
  strictly increase, supersteps nest under their run span;
* a trace is **exact** where it overlaps the metrics: per-superstep
  ``net_bytes`` / ``messages`` attrs sum to precisely the run's
  ``MetricsCollector`` totals on both backends (these are integer
  counters — no tolerance);
* the **analysis** layer finds what it claims to find: an artificially
  delayed worker is flagged as a straggler, a spiked superstep as an
  anomaly, a sustained level shift as drift;
* the **CLI** round-trips: ``repro run --trace`` writes a file that
  ``repro report`` reads, renders, and exports to Chrome trace format.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.wcc import WCCBasic, run_wcc
from repro.core.engine import ChannelEngine
from repro.graph import rmat
from repro.obs import (
    EwmaBaseline,
    TraceRecorder,
    TraceReport,
    chrome_trace_events,
    detect_drift,
    ewma,
    export_chrome_trace,
    load_trace,
    straggler_scores,
    validate_trace,
)
from repro.streaming import EpochEngine, PageRankStream
from repro.streaming.updates import synthesize_stream

from helpers import line_graph

_GRAPH = rmat(7, edge_factor=4, seed=5, directed=False)


def _traced_wcc(tmp_path, name, **engine_kwargs):
    """Run WCC with a trace attached; returns (events, EngineResult)."""
    path = tmp_path / f"{name}.jsonl"
    with TraceRecorder(path) as rec:
        _, result = run_wcc(_GRAPH, mode="bulk", trace=rec, **engine_kwargs)
    return load_trace(path), result


# ---------------------------------------------------------------------------
# the recorder itself
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(path) as rec:
            run = rec.begin("run", workers=2)
            step = rec.begin("superstep", parent=run, superstep=1)
            rec.complete("phase", 0.25, parent=step, worker=0, phase="compute")
            rec.instant("round", parent=step, net_bytes=64)
            rec.end(step, messages=3)
            rec.end(run)
        events = load_trace(path)
        assert [e["ev"] for e in events] == ["B", "B", "X", "I", "E", "E"]
        assert events[2]["dur"] == 0.25
        assert events[4]["attrs"] == {"messages": 3}
        assert validate_trace(events) == []

    def test_ids_strictly_increase(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(path) as rec:
            ids = [rec.instant("checkpoint") for _ in range(5)]
        assert ids == sorted(ids) and len(set(ids)) == 5

    def test_close_force_ends_open_spans_innermost_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = TraceRecorder(path)
        run = rec.begin("run")
        rec.begin("superstep", parent=run)
        rec.close()
        rec.close()  # idempotent
        events = load_trace(path)
        ends = [e for e in events if e["ev"] == "E"]
        assert [e["span"] for e in ends] == ["superstep", "run"]
        assert all(e["attrs"]["forced_close"] for e in ends)
        assert validate_trace(events) == []

    def test_unknown_span_kind_rejected(self, tmp_path):
        with TraceRecorder(tmp_path / "t.jsonl") as rec:
            with pytest.raises(ValueError, match="unknown span kind"):
                rec.begin("nonsense")

    def test_write_after_close_raises(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.jsonl")
        rec.close()
        with pytest.raises(RuntimeError, match="closed"):
            rec.instant("checkpoint")

    def test_load_trace_names_bad_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"I","span":"run","id":1,"t":0}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_validate_catches_malformed_traces(self):
        assert validate_trace(
            [{"ev": "E", "span": "run", "id": 1, "t": 0.0}]
        )  # E without B
        assert validate_trace(
            [{"ev": "B", "span": "run", "id": 1, "parent": None, "t": 0.0}]
        )  # never closed
        assert validate_trace(
            [
                {"ev": "B", "span": "run", "id": 2, "parent": None, "t": 0.0},
                {"ev": "B", "span": "superstep", "id": 1, "parent": 2, "t": 0.0},
            ]
        )  # ids not increasing


# ---------------------------------------------------------------------------
# streaming statistics
# ---------------------------------------------------------------------------
class TestStats:
    def test_ewma_seeds_on_first_value(self):
        out = ewma([10, 10, 10], alpha=0.3)
        assert out == [10.0, 10.0, 10.0]
        assert ewma([0, 10], alpha=0.5) == [0.0, 5.0]

    def test_detect_drift_on_level_shift_only(self):
        flat = [1.0] * 30
        assert detect_drift(flat) == []
        shifted = [1.0] * 15 + [3.0] * 15
        flagged = detect_drift(shifted)
        assert flagged and all(i >= 15 for i in flagged)

    def test_ewma_baseline_scores_spike_not_warmup(self):
        base = EwmaBaseline()
        series = [1.0, 1.02, 0.98, 1.01, 0.99, 50.0]
        scores = [base.update(v) for v in series]
        assert scores[:3] == [0.0, 0.0, 0.0]  # warmup
        assert scores[-1] > 3.0

    def test_ewma_baseline_flat_series_never_flags(self):
        # zero spread means no z-score (a flat series can't be anomalous
        # against itself); real timing series always jitter, so this only bites synthetic data
        base = EwmaBaseline()
        assert [base.update(1.0) for _ in range(6)] == [0.0] * 6
        assert base.update(50.0) == 0.0

    def test_straggler_scores(self):
        # worker 1 runs 3x the peer on every superstep
        matrix = np.array([[1.0, 3.0]] * 5)
        scores = straggler_scores(matrix)
        assert scores[1] > 1.4 > scores[0]
        # no timing signal at all -> no skew claimed
        assert straggler_scores(np.zeros((4, 3))).tolist() == [1.0, 1.0, 1.0]

    def test_straggler_scores_all_zero_is_ones(self):
        np.testing.assert_array_equal(straggler_scores(np.zeros((5, 4))), np.ones(4))

    def test_straggler_scores_single_worker_is_one(self):
        scores = straggler_scores(np.array([[3.0], [5.0]]))
        np.testing.assert_allclose(scores, [1.0])

    def test_straggler_scores_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            straggler_scores(np.ones(4))

    def test_straggler_scores_skips_silent_supersteps(self):
        # the all-zero row carries no signal and must not dilute the skew
        m = np.array([[0.0, 0.0], [3.0, 1.0]])
        np.testing.assert_allclose(straggler_scores(m), [1.5, 0.5])


# ---------------------------------------------------------------------------
# trace invariants over real engine runs (satellite: both backends emit
# the same schema, so every test here parametrizes over executors)
# ---------------------------------------------------------------------------
_EXECUTORS = ("sim", "process")


class TestEngineTraces:
    @pytest.mark.parametrize("executor", _EXECUTORS)
    def test_trace_well_formed_and_nested(self, tmp_path, executor):
        events, _ = _traced_wcc(
            tmp_path, f"wf-{executor}", num_workers=2, executor=executor
        )
        assert validate_trace(events) == []
        report = TraceReport(events)
        assert len(report.run_ids) == 1
        run_id = report.run_ids[0]
        # every superstep span is a direct child of the run span
        steps = [
            e for e in events if e["ev"] == "B" and e["span"] == "superstep"
        ]
        assert steps and all(e["parent"] == run_id for e in steps)

    @pytest.mark.parametrize("executor", _EXECUTORS)
    def test_superstep_attrs_sum_exactly_to_metrics(self, tmp_path, executor):
        """Acceptance: per-superstep net_bytes/messages recorded in the
        trace sum to *exactly* the MetricsCollector totals."""
        events, result = _traced_wcc(
            tmp_path, f"sum-{executor}", num_workers=2, executor=executor
        )
        m = result.metrics
        totals = TraceReport(events).superstep_totals(
            TraceReport(events).run_ids[0]
        )
        assert totals["supersteps"] == m.supersteps
        assert totals["net_bytes"] == m.total_net_bytes
        assert totals["local_bytes"] == m.total_local_bytes
        assert totals["messages"] == m.total_messages

    @pytest.mark.parametrize("executor", _EXECUTORS)
    def test_phase_set_uniform_across_backends(self, tmp_path, executor):
        """Satellite: the sim backend records the same phase vocabulary
        as the process backend, so traces are schema-identical."""
        events, result = _traced_wcc(
            tmp_path, f"ph-{executor}", num_workers=2, executor=executor
        )
        phase_names = {
            e["attrs"]["phase"]
            for e in events
            if e["ev"] == "X" and e["span"] == "phase"
        }
        assert phase_names == {"barrier", "compute", "serialize", "exchange"}
        assert phase_names == set(result.metrics.phase_totals())

    @pytest.mark.parametrize("executor", _EXECUTORS)
    def test_phase_breakdown_matches_metrics(self, tmp_path, executor):
        events, result = _traced_wcc(
            tmp_path, f"bd-{executor}", num_workers=2, executor=executor
        )
        report = TraceReport(events)
        breakdown = report.phase_breakdown(report.run_ids[0])
        for phase, seconds in result.metrics.phase_totals().items():
            # trace durations are rounded to 1ns on write
            assert breakdown[phase] == pytest.approx(seconds, abs=1e-8)

    def test_recovered_run_records_failure_and_recovery(self, tmp_path):
        """Satellite: a run that loses worker 1 at superstep 3 and rolls
        back still yields a well-formed trace carrying the checkpoint /
        failure / recovery instants in causal order."""
        events, result = _traced_wcc(
            tmp_path,
            "recovery",
            num_workers=2,
            checkpoint_every=2,
            failures=[(1, 3)],
            recovery="rollback",
        )
        assert validate_trace(events) == []
        report = TraceReport(events)
        faults = report.fault_events(report.run_ids[0])
        kinds = [f["span"] for f in faults]
        assert "checkpoint" in kinds and "failure" in kinds and "recovery" in kinds
        assert kinds.index("failure") < kinds.index("recovery")
        assert [f["t"] for f in faults] == sorted(f["t"] for f in faults)
        # re-executed supersteps appear as extra superstep spans, and the
        # byte totals still reconcile with the metrics (which also count
        # the replayed work)
        totals = report.superstep_totals(report.run_ids[0])
        assert totals["supersteps"] == result.metrics.supersteps
        assert totals["net_bytes"] == result.metrics.total_net_bytes

    def test_summary_surfaces_phase_totals(self):
        """Satellite: summary() carries phase_* keys when phases were
        recorded, and omits them when they weren't."""
        _, result = run_wcc(_GRAPH, mode="bulk", num_workers=2)
        summary = result.metrics.summary()
        for phase in ("barrier", "compute", "serialize", "exchange"):
            assert summary[f"phase_{phase}"] > 0.0
        from repro.runtime.metrics import MetricsCollector

        empty = MetricsCollector(num_workers=2)
        assert not [k for k in empty.summary() if k.startswith("phase_")]


# ---------------------------------------------------------------------------
# streaming epochs
# ---------------------------------------------------------------------------
class _CountedEvents(list):
    """A trace's events that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_report_reads_the_events_a_fixed_number_of_times(tmp_path):
    """Assembling a report passes over the events as often for 30
    supersteps as for 3: a span's children are looked up, not scanned."""
    passes = {}
    for iterations in (3, 30):
        path = tmp_path / f"pr{iterations}.jsonl"
        with TraceRecorder(path) as rec:
            _, result = run_pagerank(_GRAPH, iterations=iterations, num_workers=2, trace=rec)
        events = _CountedEvents(load_trace(path))
        report = TraceReport(events)
        assert report.as_dict()["runs"][0]["totals"]["supersteps"] == result.supersteps
        passes[iterations] = events.passes
    assert passes[3] == passes[30], passes


class TestStreamingTraces:
    def test_epochs_nest_under_one_stream_span(self, tmp_path):
        graph = rmat(7, edge_factor=4, seed=9, directed=True)
        batches = synthesize_stream(
            graph, num_epochs=2, insertions_per_epoch=30, deletions_per_epoch=10, seed=3
        )
        path = tmp_path / "stream.jsonl"
        with TraceRecorder(path) as rec:
            engine = EpochEngine(
                graph, PageRankStream(iterations=4), num_workers=2, trace=rec
            )
            engine.bootstrap()
            engine.run(batches)
            engine.close()
        events = load_trace(path)
        assert validate_trace(events) == []
        streams = [e for e in events if e["ev"] == "B" and e["span"] == "stream"]
        assert len(streams) == 1
        report = TraceReport(events)
        epochs = report.children(streams[0]["id"], "epoch")
        assert len(epochs) == 3  # bootstrap + 2 batches
        assert len(report.run_ids) == 3
        # every run span hangs off an epoch span
        epoch_ids = {e["id"] for e in epochs}
        for rid in report.run_ids:
            assert report._begin[rid]["parent"] in epoch_ids


# ---------------------------------------------------------------------------
# straggler + anomaly detection on real runs
# ---------------------------------------------------------------------------
class _SleepyWCC(WCCBasic):
    """WCC whose worker 1 dawdles in compute — the planted straggler."""

    def compute(self, v):
        if self.worker.worker_id == 1:
            time.sleep(0.002)
        super().compute(v)


class TestDetection:
    def test_delayed_worker_flagged_as_straggler(self, tmp_path, capsys):
        """Acceptance: an artificially delayed worker is flagged by the
        straggler report, end to end through the CLI."""
        path = tmp_path / "straggler.jsonl"
        with TraceRecorder(path) as rec:
            ChannelEngine(
                line_graph(16), _SleepyWCC, num_workers=2, trace=rec
            ).run()
        report = TraceReport(load_trace(path))
        flagged = report.straggler_report(report.run_ids[0], threshold=1.5)
        assert flagged["stragglers"] == [1]
        assert flagged["scores"][1] > 1.5 > flagged["scores"][0]

        assert cli_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "STRAGGLERS" in out and "worker 1" in out

    def test_spiked_superstep_flagged_as_anomaly(self, tmp_path):
        run_spans = []
        path = tmp_path / "spike.jsonl"
        with TraceRecorder(path) as rec:
            run = rec.begin("run", workers=1)
            for step in range(12):
                sid = rec.begin("superstep", parent=run, superstep=step + 1)
                # steady ~10ms with natural jitter, one 500ms spike
                dur = 0.5 if step == 9 else 0.01 + 0.0005 * (step % 3)
                rec.complete(
                    "phase", dur, parent=sid, worker=0, phase="compute"
                )
                rec.end(sid, net_bytes=0, local_bytes=0, messages=0, rounds=1)
            rec.end(run)
            run_spans.append(run)
        report = TraceReport(load_trace(path))
        anomalies = report.anomaly_report(run_spans[0])
        assert [s["superstep"] for s in anomalies["spikes"]] == [10]


# ---------------------------------------------------------------------------
# chrome exporter
# ---------------------------------------------------------------------------
class TestChromeExport:
    def test_export_layout(self, tmp_path):
        events, _ = _traced_wcc(tmp_path, "chrome", num_workers=2)
        out = tmp_path / "chrome.json"
        payload = export_chrome_trace(events, out)
        assert json.loads(out.read_text()) == payload
        traced = payload["traceEvents"]
        # named tracks: the engine plus one per worker
        names = {
            (e["tid"], e["args"]["name"])
            for e in traced
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {(0, "engine"), (1, "worker 0"), (2, "worker 1")}
        # B/E balance on the structural track
        assert sum(e["ph"] == "B" for e in traced) == sum(
            e["ph"] == "E" for e in traced
        )
        # phase spans land on their worker's track with µs durations
        phases = [e for e in traced if e["ph"] == "X" and e["cat"] == "phase"]
        assert phases and all(e["tid"] in (1, 2) for e in phases)
        assert all(e["dur"] >= 0 for e in phases)

    def test_superstep_names_carry_number(self, tmp_path):
        events, _ = _traced_wcc(tmp_path, "names", num_workers=2)
        traced = chrome_trace_events(events)
        begins = [
            e["name"] for e in traced if e["ph"] == "B" and e["cat"] == "superstep"
        ]
        # superstep numbering in traces is 0-based (SuperstepRecord.superstep)
        assert begins[0] == "superstep 0"


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------
class TestCli:
    def test_run_trace_report_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        chrome = tmp_path / "chrome.json"
        assert (
            cli_main(
                [
                    "run",
                    "wcc",
                    "--dataset",
                    "tree",
                    "--workers",
                    "2",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace written" in out and "phase_compute" in out
        assert validate_trace(load_trace(trace)) == []

        assert cli_main(["report", str(trace), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "supersteps" in out and "phases (critical-path s)" in out
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_report_json_output(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        cli_main(
            ["run", "wcc", "--dataset", "tree", "--workers", "2", "--trace", str(trace), "--json"]
        )
        row = json.loads(capsys.readouterr().out)
        assert cli_main(["report", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problems"] == []
        assert payload["runs"][0]["totals"]["supersteps"] > 0
        # sim has no frame plane: neither artifact names a mover
        assert "transport" not in row and "transport" not in payload["runs"][0]

    def test_artifacts_name_the_mover_that_ran(self, tmp_path, capsys, transport):
        # the `--json` row and the report read the pool's mover off the
        # run span
        trace = tmp_path / "run.jsonl"
        argv = ["run", "wcc", "--dataset", "tree", "--workers", "2", "--executor", "process"]
        assert cli_main([*argv, "--trace", str(trace), "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert cli_main(["report", str(trace), "--json"]) == 0
        [run] = json.loads(capsys.readouterr().out)["runs"]
        assert row["transport"] == run["transport"] == transport

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        assert cli_main(["report", str(bad)]) == 2
        assert "not a trace event" in capsys.readouterr().err

    def test_report_fails_on_malformed_trace(self, tmp_path, capsys):
        # valid JSON lines, broken structure: the run span never ends
        bad = tmp_path / "unclosed.jsonl"
        bad.write_text('{"ev":"B","span":"run","id":1,"parent":null,"t":0.0}\n')
        assert cli_main(["report", str(bad)]) == 1
        assert "never closed" in capsys.readouterr().out

    def test_stream_trace(self, tmp_path, capsys):
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import save_edgelist, save_update_stream

        g = erdos_renyi(200, 3.0, seed=21, directed=True)
        gpath = tmp_path / "g.txt"
        save_edgelist(g, gpath)
        upath = tmp_path / "u.txt"
        save_update_stream(synthesize_stream(g, 2, 5, 5, seed=22), upath)
        trace = tmp_path / "stream.jsonl"
        assert (
            cli_main(
                [
                    "stream",
                    "wcc",
                    "--graph",
                    str(gpath),
                    "--updates",
                    str(upath),
                    "--workers",
                    "2",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        events = load_trace(trace)
        assert validate_trace(events) == []
        streams = [e for e in events if e["ev"] == "B" and e["span"] == "stream"]
        assert len(streams) == 1
        assert len(TraceReport(events).run_ids) == 3  # bootstrap + 2 epochs
