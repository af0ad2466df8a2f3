"""The benchmark regression gate and provenance guard.

``benchmarks/check_regression.py`` is what CI runs between a fresh
``BENCH_*.json`` and the committed baseline of the same kind; these
tests pin its contract: parity failures always gate, wall-time only
gates when both artifacts measured real parallelism, and a dirty-tree
artifact is never acceptable.  The gate covers all five artifact kinds
(parallel / bulk / recovery / scale / streaming), and every committed baseline
at the repo root must self-gate clean while failing on a perturbed
parity field.  ``benchmarks/_provenance.py`` is the producer-side half
of the same guarantee.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_DIR = _REPO_ROOT / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _BENCH_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # dataclasses resolve types via sys.modules
    spec.loader.exec_module(mod)
    return mod


check_regression = _load("check_regression")
_provenance = _load("_provenance")


def _artifact(**overrides) -> dict:
    base = {
        "dataset": "bulk-100k",
        "workers": [2, 8],
        "seed": 0,
        "cpus": 2,
        "speedup_valid": True,
        "git": "abc1234",
        "rows": [
            {
                "workload": "pr-scatter-bulk",
                "workers": 2,
                "supersteps": 11,
                "net_mb": 2.64,
                "sim_wall_s": 0.05,
                "pipe_wall_s": 0.15,
                "shm_wall_s": 0.08,
                "speedup_shm_vs_sim": 0.62,
                "speedup_shm_vs_pipe": 1.87,
                "parity_pipe": True,
                "parity_shm": True,
            },
            {
                "workload": "wcc-bulk",
                "workers": 8,
                "supersteps": 25,
                "net_mb": 8.913,
                "sim_wall_s": 0.17,
                "pipe_wall_s": 0.40,
                "shm_wall_s": 0.30,
                "speedup_shm_vs_sim": 0.57,
                "speedup_shm_vs_pipe": 1.33,
                "parity_pipe": True,
                "parity_shm": True,
            },
        ],
        "amortization": [
            {"mode": "persistent-pool", "identical": True},
            {"mode": "respawn-per-epoch", "identical": True},
        ],
    }
    base.update(overrides)
    return base


class TestCheckRegression:
    def test_identical_artifacts_pass(self):
        art = _artifact()
        assert check_regression.check(art, copy.deepcopy(art)) == []

    def test_parity_failure_always_gates(self):
        fresh = _artifact(speedup_valid=False)  # even with no cores
        fresh["rows"][0]["parity_shm"] = False
        base = _artifact(speedup_valid=False)
        failures = check_regression.check(fresh, base)
        assert any("broke sim parity" in f for f in failures)

    def test_changed_work_gates(self):
        fresh = _artifact()
        fresh["rows"][1]["supersteps"] = 99
        failures = check_regression.check(fresh, _artifact())
        assert any("supersteps changed" in f for f in failures)

    def test_dirty_tree_gates(self):
        fresh = _artifact(dirty_tree=True, git="abc1234-dirty")
        failures = check_regression.check(fresh, _artifact())
        assert any("dirty tree" in f for f in failures)

    def test_wall_time_regression_gates_when_valid(self):
        fresh = _artifact()
        fresh["rows"][0]["shm_wall_s"] = 10.0
        failures = check_regression.check(fresh, _artifact(), tolerance=1.5)
        assert any("shm_wall_s regressed" in f for f in failures)

    def test_wall_time_skipped_without_real_cores(self):
        # the same 125x blowup is NOT a failure when either side ran on
        # one CPU — those walls measure protocol overhead, not speed
        for side in ("fresh", "baseline"):
            fresh, base = _artifact(), _artifact()
            fresh["rows"][0]["shm_wall_s"] = 10.0
            (fresh if side == "fresh" else base)["speedup_valid"] = False
            failures = check_regression.check(fresh, base)
            assert not any("regressed" in f for f in failures)

    def test_subset_smoke_checks_only_shared_rows(self):
        # CI smoke runs --workers 2 against a committed [2, 8] baseline:
        # only the 2-worker row is compared, and that's a pass
        fresh = _artifact(workers=[2])
        fresh["rows"] = [fresh["rows"][0]]
        assert check_regression.check(fresh, _artifact()) == []

    def test_different_dataset_is_incomparable(self):
        failures = check_regression.check(_artifact(dataset="tree"), _artifact())
        assert any("not comparable" in f for f in failures)

    def test_cli_round_trip(self, tmp_path, capsys):
        good = tmp_path / "fresh.json"
        good.write_text(json.dumps(_artifact()))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_artifact()))
        assert check_regression.main([str(good), "--baseline", str(base)]) == 0
        bad = _artifact()
        bad["rows"][0]["parity_pipe"] = False
        good.write_text(json.dumps(bad))
        assert check_regression.main([str(good), "--baseline", str(base)]) == 1
        assert "REGRESSION" in capsys.readouterr().err


def _bulk_artifact() -> dict:
    return {
        "dataset": "bulk-100k",
        "workers": 8,
        "seed": 0,
        "git": "abc1234",
        "rows": [
            {
                "algorithm": "pr-basic",
                "dataset": "bulk-100k",
                "scalar_wall_s": 3.54,
                "bulk_wall_s": 0.46,
                "speedup": 7.63,
                "supersteps": 6,
                "traffic_identical": True,
            },
            {
                "algorithm": "wcc",
                "dataset": "bulk-100k",
                "scalar_wall_s": 2.1,
                "bulk_wall_s": 0.31,
                "speedup": 6.8,
                "supersteps": 25,
                "traffic_identical": True,
            },
        ],
    }


def _recovery_artifact() -> dict:
    return {
        "dataset": "facebook",
        "workers": 8,
        "checkpoint_every": 2,
        "git": "abc1234",
        "rows": [
            {
                "workload": "bfs-bulk",
                "mode": "checkpoint-only",
                "fail_at": None,
                "supersteps": 7,
                "checkpoint_bytes": 634208,
                "log_bytes": 0,
                "recovery_bytes": 0,
                "recovery_time": 0.0,
                "identical": True,
            },
            {
                "workload": "bfs-bulk",
                "mode": "checkpoint+log",
                "fail_at": 3,
                "supersteps": 7,
                "checkpoint_bytes": 634208,
                "log_bytes": 120_000,
                "recovery_bytes": 90_000,
                "recovery_time": 0.02,
                "identical": True,
            },
        ],
    }


def _scale_artifact() -> dict:
    return {
        "edge_factor": 20,
        "seed": 7,
        "iterations": 10,
        "workers": 4,
        "chunk_edges": 1 << 20,
        "cpus": 1,
        "speedup_valid": False,
        "git": "abc1234",
        "rows": [
            {
                "workload": "pr-scatter-bulk",
                "workers": 4,
                "scale": 16,
                "vertices": 65536,
                "arcs": 1310065,
                "edgelist_mb": 20.961,
                "store_mb": 11.005,
                "supersteps": 11,
                "net_mb": 10.544,
                "build_wall_s": 0.71,
                "sim_wall_s": 0.32,
                "run_wall_s": 1.49,
                "peak_rss_mb": 108.7,
                "peak_rss_growth_mb": 10.113,
                "rss_growth_ratio": 0.48,
                "rss_ok": True,
                "rss_samples": 4,
                "parity": True,
            },
            {
                "workload": "pr-scatter-bulk",
                "workers": 4,
                "scale": 19,
                "vertices": 524288,
                "arcs": 10484537,
                "edgelist_mb": 167.753,
                "store_mb": 88.071,
                "supersteps": 11,
                "net_mb": 72.721,
                "build_wall_s": 6.16,
                "sim_wall_s": 4.85,
                "run_wall_s": 15.35,
                "peak_rss_mb": 544.1,
                "peak_rss_growth_mb": 34.533,
                "rss_growth_ratio": 0.21,
                "rss_ok": True,
                "rss_samples": 4,
                "parity": True,
            },
        ],
    }


def _streaming_artifact() -> dict:
    return {
        "dataset": "stream-road",
        "workers": 8,
        "epochs": 3,
        "seed": 0,
        "git": "abc1234",
        "rows": [
            {
                "algorithm": "pagerank",
                "delta_frac": 0.0001,
                "batch_edges": 1,
                "epochs": 3,
                "inc_supersteps": 11.0,
                "cold_supersteps": 11.0,
                "inc_wall_s": 0.027,
                "cold_wall_s": 0.056,
                "inc_mb": 0.0375,
                "cold_mb": 2.7386,
                "byte_ratio": 0.014,
                "identical": True,
            },
            {
                "algorithm": "wcc",
                "delta_frac": 0.01,
                "batch_edges": 120,
                "epochs": 3,
                "inc_supersteps": 4.0,
                "cold_supersteps": 9.0,
                "inc_wall_s": 0.01,
                "cold_wall_s": 0.04,
                "inc_mb": 0.4,
                "cold_mb": 1.9,
                "byte_ratio": 0.21,
                "identical": True,
            },
        ],
    }


_KIND_FIXTURES = {
    "parallel": _artifact,
    "bulk": _bulk_artifact,
    "recovery": _recovery_artifact,
    "scale": _scale_artifact,
    "streaming": _streaming_artifact,
}

#: per kind: (a parity field to flip, an exact-work field to perturb)
_KIND_FIELDS = {
    "parallel": ("parity_shm", "net_mb"),
    "bulk": ("traffic_identical", "supersteps"),
    "recovery": ("identical", "recovery_bytes"),
    "scale": ("rss_ok", "arcs"),
    "streaming": ("identical", "byte_ratio"),
}


class TestMultiKindGate:
    """The generalized gate: same contract for every artifact kind."""

    @pytest.mark.parametrize("kind", sorted(_KIND_FIXTURES))
    def test_kind_detection(self, kind):
        art = _KIND_FIXTURES[kind]()
        assert check_regression.detect_kind(art) == kind

    def test_kind_detection_falls_back_to_filename(self):
        empty = {"rows": []}
        assert (
            check_regression.detect_kind(empty, "BENCH_streaming_smoke.json")
            == "streaming"
        )
        with pytest.raises(SystemExit, match="cannot detect"):
            check_regression.detect_kind(empty, "results.json")

    @pytest.mark.parametrize("kind", sorted(_KIND_FIXTURES))
    def test_identical_artifacts_pass(self, kind):
        art = _KIND_FIXTURES[kind]()
        assert check_regression.check(art, copy.deepcopy(art)) == []

    @pytest.mark.parametrize("kind", sorted(_KIND_FIXTURES))
    def test_perturbed_parity_field_gates(self, kind):
        parity_field, _ = _KIND_FIELDS[kind]
        fresh = _KIND_FIXTURES[kind]()
        fresh["rows"][0][parity_field] = False
        failures = check_regression.check(fresh, _KIND_FIXTURES[kind]())
        assert any("parity" in f or "diverged" in f for f in failures)

    @pytest.mark.parametrize("kind", sorted(_KIND_FIXTURES))
    def test_changed_work_field_gates(self, kind):
        _, exact_field = _KIND_FIELDS[kind]
        fresh = _KIND_FIXTURES[kind]()
        fresh["rows"][0][exact_field] = 424242
        failures = check_regression.check(fresh, _KIND_FIXTURES[kind]())
        assert any(f"{exact_field} changed" in f for f in failures)

    def test_walls_never_gated_without_speedup_valid(self):
        # bulk/recovery/streaming artifacts don't record speedup_valid,
        # so even a 100x wall blowup is not a regression — those numbers
        # are informational on whatever machine produced them
        fresh = _bulk_artifact()
        fresh["rows"][0]["bulk_wall_s"] = 100.0
        assert check_regression.check(fresh, _bulk_artifact()) == []

    def test_dirty_baseline_fails_only_when_clean_required(self):
        fresh = _streaming_artifact()
        base = _streaming_artifact()
        base["git"] = "abc1234-dirty"
        assert check_regression.check(fresh, base, require_clean=False) == []
        failures = check_regression.check(fresh, base, require_clean=True)
        assert any("dirty tree" in f for f in failures)

    def test_recovery_rows_keyed_by_failure_point(self):
        # same workload+mode at a different fail_at is a *different* row,
        # not a comparison target
        fresh = _recovery_artifact()
        fresh["rows"][1]["fail_at"] = 5
        fresh["rows"][1]["recovery_bytes"] = 999  # would gate if compared
        failures = check_regression.check(fresh, _recovery_artifact())
        assert failures == []

    @pytest.mark.parametrize("kind", sorted(_KIND_FIXTURES))
    def test_committed_baseline_self_gates(self, kind):
        """Acceptance: every committed BENCH_*.json passes against itself
        and fails once a parity field is synthetically perturbed."""
        path = _REPO_ROOT / f"BENCH_{kind}.json"
        payload = json.loads(path.read_text())
        assert check_regression.detect_kind(payload, path) == kind
        assert (
            check_regression.check(
                payload, copy.deepcopy(payload), require_clean=False
            )
            == []
        )
        parity_field, _ = _KIND_FIELDS[kind]
        perturbed = copy.deepcopy(payload)
        perturbed["rows"][0][parity_field] = False
        failures = check_regression.check(
            perturbed, payload, require_clean=False
        )
        assert failures, f"perturbed {parity_field} must gate for {path.name}"

    @pytest.mark.parametrize("kind", sorted(_KIND_FIXTURES))
    def test_committed_baseline_is_clean(self, kind):
        """CI runs the gate with REPRO_BENCH_REQUIRE_CLEAN=1, so every
        committed artifact must come from a clean tree."""
        payload = json.loads((_REPO_ROOT / f"BENCH_{kind}.json").read_text())
        assert not payload.get("dirty_tree")
        assert not str(payload.get("git", "")).endswith("-dirty")

    def test_cli_uses_default_baseline_for_kind(self, capsys):
        # self-gating a committed artifact: fresh path IS the baseline
        path = _REPO_ROOT / "BENCH_streaming.json"
        assert check_regression.main([str(path)]) == 0
        assert "streaming artifact" in capsys.readouterr().out


class TestProvenance:
    def test_clean_tree_writes_plain_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_provenance, "git_describe", lambda: "abc1234")
        out = tmp_path / "BENCH_x.json"
        _provenance.write_artifact(out, [{"a": 1}], cpus=2)
        payload = json.loads(out.read_text())
        assert payload["git"] == "abc1234"
        assert "dirty_tree" not in payload

    def test_dirty_tree_is_flagged_loudly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_provenance, "git_describe", lambda: "abc1234-dirty")
        out = tmp_path / "BENCH_x.json"
        _provenance.write_artifact(out, [{"a": 1}])
        assert json.loads(out.read_text())["dirty_tree"] is True
        assert "WARNING" in capsys.readouterr().err

    def test_dirty_tree_refused_when_required_clean(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_provenance, "git_describe", lambda: "abc1234-dirty")
        monkeypatch.setenv("REPRO_BENCH_REQUIRE_CLEAN", "1")
        out = tmp_path / "BENCH_x.json"
        with pytest.raises(SystemExit, match="refusing to write"):
            _provenance.write_artifact(out, [{"a": 1}])
        assert not out.exists()
