"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/e2e``.

Not part of tier-1 (its ``testpaths`` is ``tests``): these check the
harness's own arithmetic and that the ``--smoke`` preset still prints
exactly what BENCHMARK.json declares.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import harness
import layers
import spans

HERE = Path(__file__).resolve().parent


def test_stats_median_min_max():
    s = harness.stats([3.0, 1.0, 2.0, 10.0])
    assert (s["median"], s["min"], s["max"], s["n"]) == (2.5, 1.0, 10.0, 4)
    assert harness.stats([4.0])["median"] == 4.0


#: [name, start, end, parent, tag]: a 10 s window with two top-level
#: spans; "run" has two children, one of which has a child of its own
NESTED = [
    ["import", 0.0, 1.0, -1, None],
    ["run", 1.5, 9.0, -1, None],
    ["compute", 2.0, 5.0, 1, 0],
    ["kernel", 2.5, 4.5, 2, 0],
    ["compute", 5.0, 6.0, 1, 1],
]


def test_span_self_times_and_residual():
    assert spans.self_times(NESTED) == [1.0, 3.5, 1.0, 2.0, 1.0]
    # the window minus its top-level spans: 10 - (1 + 7.5)
    assert spans.residual(NESTED, 0.0, 10.0) == pytest.approx(1.5)
    rows = spans.table(NESTED)
    assert rows["compute"] == {"calls": 2, "total_s": 4.0, "self_s": 2.0}
    # self times and the residual tile the window exactly
    assert sum(r["self_s"] for r in rows.values()) + 1.5 == pytest.approx(10.0)
    assert spans.total(NESTED, "compute") == 4.0
    assert spans.total(NESTED, "absent") is None
    # both computes share a parent: the slower tag (3 s) sets the pace
    assert spans.critical_path(NESTED, "compute") == 3.0


def test_channel_rows_first_call_per_worker():
    rows = spans.channel_rows(
        [
            ["core.channels.serialize", 0.0, 2.0, -1, "ScatterCombine/0"],
            ["core.channels.serialize", 2.0, 3.0, -1, "ScatterCombine/1"],
            ["core.channels.serialize", 3.0, 3.5, -1, "ScatterCombine/0"],
            ["core.channels.deserialize", 4.0, 4.25, -1, "ScatterCombine/0"],
        ]
    )
    assert rows == {
        "ScatterCombine": {
            "serialize_s": 3.5, "serialize_first_s": 3.0, "deserialize_s": 0.25, "calls": 3,
        }
    }


def _side(samples):
    return harness.stats(list(samples))


def test_compare_verdicts():
    tight = _side([10.0, 10.1, 10.2, 10.1, 10.0])
    assert compare.verdict(tight, _side([10.3, 10.4, 10.5, 10.4, 10.3]), "lower", 0.10) == "ok"
    assert compare.verdict(tight, _side([12.0, 12.1, 12.2, 12.1, 12.0]), "lower", 0.10) == "worse"
    # the same numbers are an improvement when higher is better
    assert compare.verdict(tight, _side([12.0, 12.1, 12.2, 12.1, 12.0]), "higher", 0.10) == "ok"
    assert compare.verdict(_side([12.0, 12.1, 12.2]), tight, "higher", 0.10) == "worse"
    # spread wider than the bound and overlapping ranges: the medians cannot tell
    noisy = _side([8.0, 9.5, 10.0, 11.5, 13.0])
    assert compare.verdict(tight, noisy, "lower", 0.10) == "unresolved"
    # wide spread but every run of B is slower than every run of A: still worse
    assert compare.verdict(tight, _side([14.0, 16.0, 18.0, 20.0, 22.0]), "lower", 0.10) == "worse"


def test_end_to_end_counts_drift_and_failures():
    exact = {"net_bytes": 8, "supersteps": 2, "rounds": 2, "messages": 1, "checksum": "aa"}
    rep = {"ok": True, "wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 100.0, "exact": exact}
    drifted = dict(rep, exact=dict(exact, net_bytes=9))
    e2e = harness.end_to_end({"E": 1000}, [rep, dict(rep, wall_s=4.0), drifted,
                                           {"ok": False, "error": "timed out"}])
    assert (e2e["ops_attempted"], e2e["ops_failed"], e2e["failed_frac"]) == (4, 2, 0.5)
    assert e2e["wall_s"]["n"] == 2 and e2e["edges_per_s"]["median"] == 375.0
    assert len(e2e["errors"]) == 2


def test_smoke_run_prints_what_the_manifest_declares(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, HERE / "run.py", "--smoke", "--reps", "2",
         "--store-dir", tmp_path / "stores", "--out", out],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - t0 < 30

    manifest = json.loads(compare.MANIFEST.read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    printed = {name: set() for name in workloads}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in printed and parts[1] != "span":
            printed[parts[0]].add(parts[1])
    declared = {m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    assert {m["name"] for m in manifest["per_layer"]} == set(layers.declared())
    for name in workloads:
        # failed_frac is printed but cannot be declared: a metric there is never 0
        assert printed[name] - {"failed_frac"} == declared, name

    result = json.loads(out.read_text())
    assert result["info"]["preset"] == "smoke" and result["info"]["seed"] == 7
    for name in workloads:
        entry = result["workloads"][name]
        assert entry["errors"] == [] and entry["end_to_end"]["failed_frac"] == 0
        # two repetitions were kept, so their exact counts repeated
        assert entry["end_to_end"]["wall_s"]["n"] == 2
        assert entry["per_layer"]["bench.residual_frac"] < 0.05
