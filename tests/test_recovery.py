"""Fault-tolerance acceptance tests.

The contract under test: a run with an injected worker failure and
either recovery mode yields ``result.data`` and total message/byte
counters **bit-identical** to the failure-free run — for every
algorithm with a bulk port (PageRank basic/scatter/mirror, WCC, BFS,
SSSP, S-V scatter/both), for scalar-only multi-phase SCC, and for Propagation-channel
variants — across 2 and 8 workers.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.algorithms.msf import run_msf
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.algorithms.scc import run_scc
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import ChannelEngine, FailureSchedule
from repro.graph import random_tree, rmat
from helpers import line_graph
from test_checkpoint import _Prog

_DIRECTED = rmat(7, edge_factor=4, seed=5, directed=True)
_UNDIRECTED = rmat(7, edge_factor=3, seed=6, directed=False)
_WEIGHTED = rmat(6, edge_factor=4, seed=7, directed=False, weighted=True)
_TREE = random_tree(1 << 9, seed=9)

#: name -> (runner(**engine_kwargs), failure superstep).  Failure
#: supersteps sit off the checkpoint grid (checkpoint_every=2) so
#: recovery always replays at least one superstep; the Propagation
#: variants terminate after 2 supersteps, hence the superstep-1 kills.
WORKLOADS = {
    # all six bulk ports
    "pr-basic-bulk": (
        lambda **kw: run_pagerank(
            _DIRECTED, variant="basic", iterations=6, mode="bulk", **kw
        ),
        3,
    ),
    "pr-scatter-bulk": (
        lambda **kw: run_pagerank(
            _DIRECTED, variant="scatter", iterations=6, mode="bulk", **kw
        ),
        3,
    ),
    "pr-mirror-bulk": (
        lambda **kw: run_pagerank(
            _DIRECTED, variant="mirror", iterations=6, mode="bulk", **kw
        ),
        3,
    ),
    "wcc-bulk": (
        lambda **kw: run_wcc(_UNDIRECTED, variant="basic", mode="bulk", **kw),
        3,
    ),
    "bfs-bulk": (
        lambda **kw: run_bfs(_DIRECTED, variant="basic", mode="bulk", **kw),
        2,
    ),
    "sssp-bulk": (
        lambda **kw: run_sssp(_DIRECTED, variant="basic", mode="bulk", **kw),
        2,
    ),
    # bulk S-V: the scatter channel snapshots a named adjacency (as the
    # two bulk pr-scatter / pr-mirror programs above do), alone and
    # composed with RequestRespond
    "sv-scatter-bulk": (lambda **kw: run_sv(_UNDIRECTED, variant="scatter", **kw), 5),
    "sv-both-bulk": (lambda **kw: run_sv(_UNDIRECTED, variant="both", **kw), 5),
    # scalar-only: the multi-phase SCC and MSF state machines, and the
    # RequestRespond conversation channel ...
    "scc-basic": (lambda **kw: run_scc(_DIRECTED, variant="basic", **kw), 5),
    "msf": (lambda **kw: run_msf(_WEIGHTED, **kw), 5),
    "pj-reqresp": (
        lambda **kw: run_pointer_jumping(_TREE, variant="reqresp", **kw),
        3,
    ),
    # ... and Propagation-channel variants (fixpoint inside one superstep)
    "wcc-prop": (lambda **kw: run_wcc(_UNDIRECTED, variant="prop", **kw), 1),
    "sssp-prop": (lambda **kw: run_sssp(_DIRECTED, variant="prop", **kw), 1),
    "scc-prop": (lambda **kw: run_scc(_DIRECTED, variant="prop", **kw), 3),
}

_baselines = {}


def _baseline(name, workers):
    key = (name, workers)
    if key not in _baselines:
        runner, _ = WORKLOADS[name]
        _baselines[key] = runner(num_workers=workers)
    return _baselines[key]


def _assert_identical(base, recovered):
    base_data, base_res = base[0], base[-1]
    rec_data, rec_res = recovered[0], recovered[-1]
    if isinstance(base_data, np.ndarray):
        np.testing.assert_array_equal(base_data, rec_data)
    else:
        assert base_data == rec_data
    assert base_res.data == rec_res.data
    bm, rm = base_res.metrics, rec_res.metrics
    assert rm.total_messages == bm.total_messages
    assert rm.total_net_bytes == bm.total_net_bytes
    assert rm.total_local_bytes == bm.total_local_bytes
    assert rm.supersteps == bm.supersteps
    assert rm.channel_breakdown() == bm.channel_breakdown()


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("mode", ["rollback", "confined"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recovered_run_is_bit_identical(name, mode, workers):
    runner, fail_at = WORKLOADS[name]
    base = _baseline(name, workers)
    assert base[-1].supersteps >= fail_at, "failure must actually fire"
    recovered = runner(
        num_workers=workers,
        checkpoint_every=2,
        failures=[(1, fail_at)],
        recovery=mode,
    )
    m = recovered[-1].metrics
    assert m.num_failures == 1
    assert m.num_checkpoints >= 1
    assert m.checkpoint_bytes > 0
    assert m.recovery_bytes > 0
    assert m.recovery_time > 0
    _assert_identical(base, recovered)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checkpoint_only_run_is_bit_identical(name):
    """Periodic checkpoints with no failure: one snapshot at superstep 0
    and one every ``checkpoint_every`` supersteps, nothing recovered, and
    the run is the failure-free run."""
    runner, _ = WORKLOADS[name]
    base = _baseline(name, 2)
    out = runner(num_workers=2, checkpoint_every=2)
    m = out[-1].metrics
    assert m.num_failures == 0
    assert m.num_checkpoints == 1 + base[-1].supersteps // 2
    assert m.checkpoint_bytes > 0
    assert m.recovery_bytes == 0
    _assert_identical(base, out)


@pytest.mark.parametrize("mode", ["rollback", "confined"])
@pytest.mark.parametrize("fail_at", range(1, 8))
@pytest.mark.parametrize("name", ["pr-scatter-bulk", "sv-both-bulk"])
def test_failure_at_any_superstep_recovers(name, fail_at, mode):
    """Sweep the failure point: on and off the checkpoint grid, first
    superstep to last (pr-scatter-bulk runs 7), both modes match."""
    runner, _ = WORKLOADS[name]
    base = _baseline(name, 2)
    assert base[-1].supersteps >= fail_at, "failure must actually fire"
    out = runner(
        num_workers=2,
        checkpoint_every=2,
        failures=[(1, fail_at)],
        recovery=mode,
    )
    m = out[-1].metrics
    assert m.num_failures == 1
    assert m.recovery_bytes > 0
    _assert_identical(base, out)


class TestFailureModesAndEdges:
    def test_failure_without_periodic_checkpoints(self):
        """Only the superstep-0 checkpoint exists: recovery rolls all the
        way back to the initial state and still matches."""
        base = _baseline("wcc-bulk", 2)
        for mode in ("rollback", "confined"):
            out = run_wcc(
                _UNDIRECTED,
                variant="basic",
                mode="bulk",
                num_workers=2,
                failures=[(1, 3)],
                recovery=mode,
            )
            assert out[-1].metrics.num_checkpoints == 1
            _assert_identical(base, out)

    def test_failure_on_checkpoint_boundary(self):
        """Dying right after a checkpoint recovers with zero replay."""
        base = _baseline("pr-scatter-bulk", 2)
        out = run_pagerank(
            _DIRECTED,
            variant="scatter",
            iterations=6,
            mode="bulk",
            num_workers=2,
            checkpoint_every=2,
            failures=[(0, 4)],
            recovery="confined",
        )
        _assert_identical(base, out)

    def test_simultaneous_failures(self):
        """Two workers die at once; confined replay regenerates the
        frames they exchange with each other."""
        base = _baseline("wcc-bulk", 8)
        for mode in ("rollback", "confined"):
            out = run_wcc(
                _UNDIRECTED,
                variant="basic",
                mode="bulk",
                num_workers=8,
                checkpoint_every=2,
                failures=[(2, 3), (5, 3)],
                recovery=mode,
            )
            assert out[-1].metrics.num_failures == 2
            _assert_identical(base, out)

    def test_repeated_failures(self):
        base = _baseline("pr-basic-bulk", 8)
        out = run_pagerank(
            _DIRECTED,
            variant="basic",
            iterations=6,
            mode="bulk",
            num_workers=8,
            checkpoint_every=2,
            failures=[(1, 3), (4, 5), (1, 7)],
            recovery="confined",
        )
        assert out[-1].metrics.num_failures == 3
        _assert_identical(base, out)

    def test_log_bytes_only_in_confined_mode(self):
        kw = dict(
            variant="basic", mode="bulk", num_workers=4, checkpoint_every=2
        )
        _, rb = run_wcc(_UNDIRECTED, failures=[(1, 3)], recovery="rollback", **kw)
        _, cf = run_wcc(_UNDIRECTED, failures=[(1, 3)], recovery="confined", **kw)
        assert rb.metrics.log_bytes == 0
        assert cf.metrics.log_bytes > 0
        # the confined advantage: far less data moved to recover
        assert cf.metrics.recovery_bytes < rb.metrics.recovery_bytes

    def test_checkpoint_only_run_matches_and_counts(self):
        base = _baseline("sssp-bulk", 2)
        out = run_sssp(
            _DIRECTED, variant="basic", mode="bulk", num_workers=2, checkpoint_every=3
        )
        m = out[-1].metrics
        expected = 1 + base[-1].supersteps // 3  # initial + periodic
        assert m.num_checkpoints == expected
        assert m.checkpoint_bytes > 0 and m.checkpoint_time > 0
        assert "checkpoint_bytes" in m.summary()
        _assert_identical(base, out)


class TestFailureSchedule:
    def test_parse_strings_and_pairs(self):
        s = FailureSchedule(["3:7", (1, 2), (2, 7)])
        assert s.pending() == [(1, 2), (2, 7), (3, 7)]

    def test_pop_fires_once(self):
        s = FailureSchedule([(1, 2)])
        assert s.pop(2) == [1]
        assert s.pop(2) == []
        assert not s

    def test_random_is_deterministic_and_sized(self):
        a = FailureSchedule.random(8, max_superstep=10, count=3, seed=42)
        b = FailureSchedule.random(8, max_superstep=10, count=3, seed=42)
        assert a.pending() == b.pending()
        assert len(a.pending()) == 3
        assert all(0 <= w < 8 and 1 <= s <= 10 for w, s in a.pending())

    def test_schedule_is_reusable_across_runs(self):
        """run() pops from a per-run copy, so one schedule object drives
        several runs; both must actually fire the failure."""
        schedule = FailureSchedule([(1, 3)])
        for mode in ("rollback", "confined"):
            out = run_wcc(
                _UNDIRECTED,
                variant="basic",
                mode="bulk",
                num_workers=2,
                checkpoint_every=2,
                failures=schedule,
                recovery=mode,
            )
            assert out[-1].metrics.num_failures == 1
        assert schedule.pending() == [(1, 3)]

    def test_random_rejects_impossible_count(self):
        with pytest.raises(ValueError, match="distinct failures"):
            FailureSchedule.random(1, max_superstep=1, count=3)

    def test_rejects_superstep_zero(self):
        with pytest.raises(ValueError, match="boundaries"):
            FailureSchedule([(0, 0)])

    def test_validate_worker_range(self):
        with pytest.raises(ValueError, match="only 2 workers"):
            FailureSchedule([(5, 1)]).validate(2)

    def test_validate_total_loss(self):
        with pytest.raises(ValueError, match="at least one must survive"):
            FailureSchedule([(0, 1), (1, 1)]).validate(2)


class TestEngineConfig:
    def test_bad_recovery_mode(self):
        with pytest.raises(ValueError, match="recovery"):
            ChannelEngine(line_graph(4), _Prog, num_workers=2, recovery="optimistic")

    def test_bad_checkpoint_interval(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            ChannelEngine(line_graph(4), _Prog, num_workers=2, checkpoint_every=0)

    def test_plain_runs_report_no_ft_keys(self):
        result = ChannelEngine(line_graph(4), _Prog, num_workers=2).run()
        assert "checkpoint_bytes" not in result.metrics.summary()

    def test_unfired_failure_warns(self):
        """A scheduled failure past termination must not pass silently."""
        engine = ChannelEngine(line_graph(4), _Prog, num_workers=2, failures=[(1, 50)])
        with pytest.warns(RuntimeWarning, match="never fired"):
            result = engine.run()
        assert result.metrics.num_failures == 0


class TestCLIRecovery:
    def test_cli_fail_and_recover(self, capsys):
        import json

        from repro.__main__ import main as cli_main

        base_rc = cli_main(
            ["run", "wcc", "--dataset", "facebook", "--workers", "4", "--json"]
        )
        base = json.loads(capsys.readouterr().out)
        assert base_rc == 0
        rc = cli_main(
            [
                "run",
                "wcc",
                "--dataset",
                "facebook",
                "--workers",
                "4",
                "--checkpoint-every",
                "2",
                "--fail",
                "1:3",
                "--recovery",
                "confined",
                "--json",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["failures"] == 1
        assert out["checkpoint_bytes"] > 0
        assert out["messages"] == base["messages"]
        assert out["net_bytes"] == base["net_bytes"]

    def test_cli_partitioned_alias_is_rejected(self, capsys):
        """The deprecated ``--partitioned`` alias is gone; ``--partition
        metis`` is the one spelling."""
        from repro.__main__ import main as cli_main

        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "wcc", "--dataset", "facebook", "--partitioned"])
        assert exc.value.code == 2
        assert "--partitioned" in capsys.readouterr().err

    def test_cli_partition_choices(self, capsys):
        import json

        from repro.__main__ import main as cli_main

        results = {}
        for part in ("hash", "range", "metis"):
            rc = cli_main(
                [
                    "run",
                    "wcc",
                    "--dataset",
                    "facebook",
                    "--variant",
                    "prop",
                    "--workers",
                    "4",
                    "--partition",
                    part,
                    "--json",
                ]
            )
            assert rc == 0
            results[part] = json.loads(capsys.readouterr().out)
            assert results[part]["partition"] == part
        # different partitioners really were used: traffic differs, and
        # the locality partition cuts fewer bytes than random assignment
        assert results["metis"]["net_bytes"] < results["hash"]["net_bytes"]
