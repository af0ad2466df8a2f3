"""Adaptive load rebalancing (ARCHITECTURE.md §13).

Pins the tentpole claims of :mod:`repro.runtime.rebalance`:

* the policy — deterministic plans, hysteresis (cooldown, skew
  threshold, min gain), degenerate inputs (no supersteps, one worker,
  all-zero timings) never migrate, and the greedy balancer's output is
  its own fixed point;
* migration correctness — the parity matrix {PageRank-scatter,
  PageRank-mirror, WCC, SSSP, bulk S-V scatter} × {sim,
  process×{shm,pipe}} × {2, 8} workers
  (the scatter programs register their edges by adjacency, so a
  migration hands each new owner a direction, not edge rows): a fired
  superstep-trigger migration reproduces the rebalance-off run's data
  (bit-identical for MIN-combiner workloads, allclose for PageRank,
  whose aggregator regroups float partials), and every backend produces
  bit-identical data *and* counters for the same migrated run;
* the epoch trigger — planted skew fires within two epochs of a
  streaming run, with per-epoch results identical to rebalance-off;
* the observability hooks — "rebalance" trace instants, metrics
  counters, live-plane migration counts, and report rendering;
* the satellite edge cases — :func:`~repro.obs.stats.straggler_scores`
  and :func:`~repro.graph.partition.partition_quality` on degenerate
  inputs.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.core import Channel, MirroredScatter
from repro.graph import rmat
from repro.graph.graph import Graph
from repro.graph.partition import partition_quality
from repro.obs import TraceRecorder
from repro.obs.stats import straggler_scores
from repro.runtime.rebalance import (
    MigrationContext,
    RebalancePolicy,
    phase_matrix,
)
from repro.streaming import EpochEngine, WCCStream, synthesize_stream

WORKERS = [2, 8]

_DIRECTED = rmat(7, edge_factor=8, seed=5, directed=True)
_WEIGHTED = rmat(7, edge_factor=8, seed=6, directed=True, weighted=True)
_UNDIRECTED = rmat(7, edge_factor=4, seed=7, directed=False)

WORKLOADS = {
    "pr-scatter": (
        _DIRECTED,
        lambda g, **kw: run_pagerank(
            g, variant="scatter", iterations=8, mode="bulk", **kw
        ),
    ),
    # MirroredScatter: the mirror tables are re-derived under the new owners
    "pr-mirror": (
        _DIRECTED,
        lambda g, **kw: run_pagerank(
            g, variant="mirror", iterations=8, mode="bulk", **kw
        ),
    ),
    "wcc": (_DIRECTED, lambda g, **kw: run_wcc(g, variant="basic", mode="bulk", **kw)),
    "sssp": (_WEIGHTED, lambda g, **kw: run_sssp(g, variant="basic", mode="bulk", **kw)),
    # bulk S-V over a ScatterCombine that names its adjacency
    "sv-scatter": (_UNDIRECTED, lambda g, **kw: run_sv(g, variant="scatter", **kw)),
}

#: a migration regroups the dangling-mass aggregator's per-worker float
#: partials, so PageRank matches to rounding, not bit-for-bit
FLOAT_TOLERANT = {"pr-scatter", "pr-mirror"}


def planted_skew(num_vertices: int, num_workers: int) -> np.ndarray:
    """Contiguous equal-vertex ranges: worker 0 gets the RMAT hubs."""
    return np.minimum(
        np.arange(num_vertices) * num_workers // num_vertices, num_workers - 1
    ).astype(np.int64)


def skew_matrix(num_workers: int, supersteps: int = 4) -> np.ndarray:
    """A timing matrix with worker 0 at 2x the mean — clears the default
    1.2 skew threshold."""
    return np.tile(np.linspace(2.0, 1.0, num_workers), (supersteps, 1))


def force_plan(owner: np.ndarray, indptr: np.ndarray, num_workers: int):
    """The plan a maximally-skew-observing policy emits (threshold 0)."""
    policy = RebalancePolicy(num_workers=num_workers, cooldown=0)
    policy.skew_threshold = 0.0
    return policy.propose(owner, indptr, skew_matrix(num_workers))


def balanced_partition(graph, num_workers: int) -> np.ndarray:
    """The balancer's own fixed point for ``graph``: the no-false-fire
    control (hash and degree-range partitions of small RMAT graphs carry
    genuine residual imbalance, so firing there is correct)."""
    skew = planted_skew(graph.num_vertices, num_workers)
    plan = force_plan(skew, graph.indptr, num_workers)
    return np.asarray(plan.new_owner, dtype=np.int64) if plan is not None else skew


# ---------------------------------------------------------------------------
# policy unit tests
# ---------------------------------------------------------------------------
class TestRebalancePolicy:
    def test_plan_is_deterministic(self):
        g = _DIRECTED
        skew = planted_skew(g.num_vertices, 4)
        plans = [force_plan(skew, g.indptr, 4) for _ in range(2)]
        assert plans[0] is not None
        np.testing.assert_array_equal(plans[0].new_owner, plans[1].new_owner)
        assert plans[0].moves == plans[1].moves
        assert plans[0].summary() == plans[1].summary()

    def test_plan_never_increases_max_load(self):
        g = _DIRECTED
        plan = force_plan(planted_skew(g.num_vertices, 4), g.indptr, 4)
        assert plan.max_load_after <= plan.max_load_before
        assert plan.gain_ratio >= 1.0
        assert plan.moved_vertices > 0 and plan.moved_arcs > 0

    def test_planted_skew_gain_clears_acceptance_bar(self):
        """The ISSUE's planted-skew claim: cost-model gain >= 1.3x."""
        g = rmat(8, edge_factor=8, seed=7, directed=True)
        plan = force_plan(planted_skew(g.num_vertices, 4), g.indptr, 4)
        assert plan is not None and plan.gain_ratio >= 1.3

    def test_plan_output_is_a_fixed_point(self):
        """Re-proposing on a plan's own ownership finds nothing to move —
        the hysteresis anchor the no-false-fire tests rely on."""
        g = _DIRECTED
        for workers in WORKERS:
            skew = planted_skew(g.num_vertices, workers)
            plan = force_plan(skew, g.indptr, workers)
            assert plan is not None
            again = force_plan(plan.new_owner, g.indptr, workers)
            assert again is None

    def test_cooldown_suppresses_next_proposal(self):
        g = _DIRECTED
        skew = planted_skew(g.num_vertices, 4)
        policy = RebalancePolicy(num_workers=4, cooldown=1)
        policy.skew_threshold = 0.0
        matrix = skew_matrix(4)
        assert policy.propose(skew, g.indptr, matrix) is not None
        assert policy.propose(skew, g.indptr, matrix) is None  # cooling down
        assert policy.propose(skew, g.indptr, matrix) is not None

    def test_measured_skew_fires_at_the_default_threshold(self):
        """The measured-phase-time path, gates as shipped: worker 0 at 2x
        the mean over 4 supersteps migrates, 1.1x does not."""
        g = _DIRECTED
        skew = planted_skew(g.num_vertices, 4)
        plan = RebalancePolicy(num_workers=4).propose(skew, g.indptr, skew_matrix(4))
        assert plan is not None and plan.scores.max() >= 1.2
        mild = np.tile([1.1, 1.0, 1.0, 0.9], (4, 1))
        assert RebalancePolicy(num_workers=4).propose(skew, g.indptr, mild) is None

    def test_balanced_timings_never_fire(self):
        """Observed-skew gate: all-equal worker timings stay put even on a
        structurally imbalanced partition."""
        g = _DIRECTED
        skew = planted_skew(g.num_vertices, 4)
        policy = RebalancePolicy(num_workers=4)
        assert policy.propose(skew, g.indptr, np.ones((6, 4))) is None

    def test_min_gain_gate(self):
        """A near-balanced partition with observed skew still declines when
        the structural gain is under ``min_gain``."""
        g = _DIRECTED
        owner = balanced_partition(g, 4)
        policy = RebalancePolicy(num_workers=4, min_gain=1.1)
        assert policy.propose(owner, g.indptr, skew_matrix(4)) is None

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((0, 4)),  # no observed supersteps
            np.ones((1, 4)) * 5.0,  # one superstep < min_supersteps
            np.zeros((6, 4)),  # all-zero durations: no straggler evidence
        ],
        ids=["empty", "one-superstep", "all-zero"],
    )
    def test_degenerate_matrices_never_migrate(self, matrix):
        g = _DIRECTED
        skew = planted_skew(g.num_vertices, 4)
        policy = RebalancePolicy(num_workers=4)
        assert policy.propose(skew, g.indptr, matrix) is None

    def test_single_worker_never_migrates(self):
        g = _DIRECTED
        owner = np.zeros(g.num_vertices, dtype=np.int64)
        policy = RebalancePolicy(num_workers=1, cooldown=0)
        policy.skew_threshold = 0.0
        assert policy.propose(owner, g.indptr, np.ones((4, 1)) * 3.0) is None


# ---------------------------------------------------------------------------
# phase_matrix + MigrationContext plumbing
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_phase_matrix_empty_run(self):
        metrics = SimpleNamespace(records=[], num_workers=3)
        m = phase_matrix(metrics)
        assert m.shape == (0, 3)
        np.testing.assert_array_equal(straggler_scores(m), np.ones(3))

    def test_phase_matrix_sums_work_phases_and_windows(self):
        recs = [
            SimpleNamespace(phases={"compute": [1.0, 2.0], "serialize": [0.5, 0.5]}),
            SimpleNamespace(phases={"compute": [3.0, 1.0]}),
        ]
        metrics = SimpleNamespace(records=recs, num_workers=2)
        np.testing.assert_allclose(
            phase_matrix(metrics), [[1.5, 2.5], [3.0, 1.0]]
        )
        np.testing.assert_allclose(phase_matrix(metrics, window=1), [[3.0, 1.0]])

    def test_migration_context_round_trip(self):
        old = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        new = np.array([0, 2, 1, 0, 2, 1], dtype=np.int64)
        ctx = MigrationContext(old, new, 3)
        per_worker = [np.flatnonzero(old == w) * 10 for w in range(3)]
        glob = ctx.gather(per_worker)
        np.testing.assert_array_equal(glob, np.arange(6) * 10)
        scattered = ctx.scatter(glob)
        for w in range(3):
            np.testing.assert_array_equal(scattered[w], ctx.new_locals[w] * 10)

    def test_migration_context_route_and_localize(self):
        old = np.zeros(6, dtype=np.int64)
        new = np.array([0, 1, 1, 0, 1, 0], dtype=np.int64)
        ctx = MigrationContext(old, new, 2)
        gids = np.array([5, 1, 3], dtype=np.int64)
        routed = {w: g for w, g, _ in ctx.route(gids)}
        np.testing.assert_array_equal(routed[0], [5, 3])
        np.testing.assert_array_equal(routed[1], [1])
        np.testing.assert_array_equal(ctx.localize(1, [1, 4]), [0, 2])

    def test_migration_context_shape_mismatch(self):
        with pytest.raises(ValueError):
            MigrationContext(np.zeros(4, dtype=np.int64), np.zeros(5, dtype=np.int64), 2)


# ---------------------------------------------------------------------------
# the parity matrix: superstep-trigger migrations across backends
# ---------------------------------------------------------------------------
def _run(name, *, workers, partition, executor=None, transport=None, **kw):
    graph, runner = WORKLOADS[name]
    if executor is not None:
        kw["executor"] = executor
    if transport is not None:
        kw["transport"] = transport
    return runner(graph, num_workers=workers, partition=partition.copy(), **kw)


def _assert_same_run(a, b):
    """Bit-identical everything (same config, different backend)."""
    np.testing.assert_array_equal(a[0], b[0])
    ra, rb = a[-1], b[-1]
    assert ra.data == rb.data
    ma, mb = ra.metrics, rb.metrics
    assert ma.channel_breakdown() == mb.channel_breakdown()
    assert ma.supersteps == mb.supersteps
    assert ma.total_net_bytes == mb.total_net_bytes
    assert ma.total_messages == mb.total_messages
    assert ma.num_rebalances == mb.num_rebalances
    assert ma.rebalanced_vertices == mb.rebalanced_vertices
    assert ma.rebalanced_arcs == mb.rebalanced_arcs


def _test_policy(workers: int) -> RebalancePolicy:
    """skew_threshold=0 removes the *measured-timing* gate, making the
    fire superstep a pure function of cadence + structure — that is what
    lets these tests demand bit-identity across backends (with the
    default 1.2 threshold the firing step can drift with wall-clock
    noise; that path is exercised by
    ``test_measured_skew_fires_at_the_default_threshold`` and the epoch
    tests below, which assert firing, not bit-equal fire steps)."""
    return RebalancePolicy(
        num_workers=workers, min_supersteps=2, skew_threshold=0.0
    )


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_superstep_migration_parity(name, workers):
    """Planted skew fires on every backend; data matches rebalance-off,
    and sim / process-shm / process-pipe are bit-identical to each other
    (data, traffic, and migration counters)."""
    graph, _ = WORKLOADS[name]
    skew = planted_skew(graph.num_vertices, workers)
    off = _run(name, workers=workers, partition=skew)

    reb_kw = dict(
        rebalance="superstep",
        rebalance_every=2,
        rebalance_policy=_test_policy(workers),
    )
    sim = _run(name, workers=workers, partition=skew, **reb_kw)
    m = sim[-1].metrics
    assert m.num_rebalances > 0, "planted skew must trigger a migration"
    assert m.rebalanced_vertices > 0 and m.rebalanced_arcs > 0
    assert m.supersteps == off[-1].metrics.supersteps

    if name in FLOAT_TOLERANT:
        np.testing.assert_allclose(sim[0], off[0], rtol=1e-9, atol=1e-12)
    else:
        np.testing.assert_array_equal(sim[0], off[0])
        assert sim[-1].data == off[-1].data

    for transport in ("shm", "pipe"):
        reb_kw["rebalance_policy"] = _test_policy(workers)
        proc = _run(
            name,
            workers=workers,
            partition=skew,
            executor="process",
            transport=transport,
            **reb_kw,
        )
        _assert_same_run(sim, proc)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_balanced_partition_never_migrates(name, workers):
    """Hysteresis end-to-end: on the balancer's fixed-point partition the
    armed engine is byte-for-byte the unarmed engine."""
    graph, _ = WORKLOADS[name]
    part = balanced_partition(graph, workers)
    off = _run(name, workers=workers, partition=part)
    reb = _run(
        name,
        workers=workers,
        partition=part,
        rebalance="superstep",
        rebalance_every=2,
        rebalance_policy=_test_policy(workers),
    )
    assert reb[-1].metrics.num_rebalances == 0
    _assert_same_run(off, reb)


def test_migration_records_trace_instants_and_summary():
    graph, _ = WORKLOADS["wcc"]
    skew = planted_skew(graph.num_vertices, 4)
    buf = io.StringIO()
    with TraceRecorder(buf) as rec:
        out = _run(
            "wcc",
            workers=4,
            partition=skew,
            rebalance="superstep",
            rebalance_every=2,
            rebalance_policy=_test_policy(4),
            trace=rec,
        )
    m = out[-1].metrics
    events = [
        json.loads(line)
        for line in buf.getvalue().splitlines()
        if json.loads(line).get("span") == "rebalance"
    ]
    assert len(events) == m.num_rebalances > 0
    attrs = events[0]["attrs"]
    assert attrs["trigger"] == "superstep"
    assert attrs["moved_vertices"] > 0 and attrs["moved_arcs"] > 0
    assert attrs["gain_ratio"] > 1.0
    summary = m.summary()
    assert summary["rebalances"] == m.num_rebalances
    assert summary["rebalanced_vertices"] == m.rebalanced_vertices
    assert summary["rebalanced_arcs"] == m.rebalanced_arcs


def test_unmigratable_channel_is_rejected_at_engine_build(monkeypatch):
    """A channel that inherits the raising ``Channel.migrate_states`` used
    to fail only when the first migration fired, supersteps into the run;
    the armed engine refuses to build.  Every built-in channel migrates, so
    MirroredScatter is handed the raising ``Channel.migrate_states`` here."""
    monkeypatch.setattr(MirroredScatter, "migrate_states", Channel.migrate_states)
    graph, _ = WORKLOADS["pr-scatter"]
    with pytest.raises(ValueError, match="MirroredScatter does not implement migrate"):
        run_pagerank(graph, variant="mirror", num_workers=2, rebalance="superstep")
    # the process parent holds no workers; it builds one to vet the
    # channels, and refuses before any child spawns
    spawned = []
    monkeypatch.setattr(
        "repro.runtime.parallel.pool.WorkerPool._spawn",
        lambda pool, cfg: spawned.append(pool),
    )
    with pytest.raises(ValueError, match="MirroredScatter does not implement migrate"):
        run_pagerank(
            graph, variant="mirror", num_workers=2, rebalance="superstep", executor="process"
        )
    assert spawned == []
    # unarmed, the same program runs
    assert run_pagerank(graph, variant="mirror", num_workers=2, iterations=2)[-1].supersteps


def test_sv_over_request_respond_refuses_to_migrate_mid_run():
    """S-V ``both`` is not in the matrix: ``RequestRespond`` keeps its
    response cache until the next superstep that asks, so after superstep
    1 of S-V it is never empty at a boundary, and its ``migrate_states``
    refuses (by name) rather than guess who asked for what."""
    with pytest.raises(RuntimeError, match="RequestRespond on worker 0 holds cached"):
        run_sv(
            _UNDIRECTED,
            variant="both",
            num_workers=2,
            partition=planted_skew(_UNDIRECTED.num_vertices, 2),
            rebalance="superstep",
            rebalance_every=2,
            rebalance_policy=_test_policy(2),
        )


def test_cli_rejects_unmigratable_channel_as_bad_options(capsys, monkeypatch):
    from repro.__main__ import main as cli_main

    monkeypatch.setattr(MirroredScatter, "migrate_states", Channel.migrate_states)

    rc = cli_main(
        ["run", "pagerank", "--dataset", "wikipedia", "--variant", "mirror",
         "--rebalance", "superstep"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad run options" in err and "MirroredScatter" in err


# ---------------------------------------------------------------------------
# epoch trigger over a mutation stream
# ---------------------------------------------------------------------------
_EPOCH_GRAPH = rmat(8, edge_factor=8, seed=7, directed=True)


def _run_epochs(graph, batches, workers, partition, **kw):
    eng = EpochEngine(
        graph, WCCStream(), num_workers=workers, partition=partition.copy(), **kw
    )
    try:
        eng.bootstrap()
        eng.run(batches)
    finally:
        eng.close()
    return eng


class _ArcWorkPolicy(RebalancePolicy):
    """Scores workers by the arcs they own instead of by measured seconds,
    one row per observed superstep.  On a shared box wall-clock phase
    times of a 256-vertex graph track the scheduler, not the planted skew
    (four worker processes on two cores, or one busy neighbour of the
    simulator); every other gate of the policy (superstep count,
    threshold, gain, cooldown) still runs on the real run.  The measured
    path keeps ``TestRebalancePolicy``'s synthetic matrices."""

    def propose(self, owner, indptr, matrix):
        arcs = np.bincount(
            owner, weights=np.diff(indptr), minlength=self.num_workers
        )
        return super().propose(owner, indptr, np.tile(arcs, (len(matrix), 1)))


@pytest.mark.parametrize("executor", ["sim", "process"])
def test_epoch_trigger_fires_within_two_epochs(executor):
    """Planted skew over a 3-epoch stream migrates at an epoch boundary no
    later than epoch 2, with per-epoch data identical to rebalance-off.
    Both cells judge owned arcs (see :class:`_ArcWorkPolicy`)."""
    workers = 4
    skew = planted_skew(_EPOCH_GRAPH.num_vertices, workers)
    batches = synthesize_stream(_EPOCH_GRAPH, 3, 64, 16, seed=7)

    off = _run_epochs(_EPOCH_GRAPH, batches, workers, skew, executor=executor)
    reb = _run_epochs(
        _EPOCH_GRAPH,
        batches,
        workers,
        skew,
        executor=executor,
        rebalance="epoch",
        rebalance_policy=_ArcWorkPolicy(num_workers=workers, min_supersteps=2),
    )
    fired = [
        e.epoch for e in reb.history if e.result.metrics.num_rebalances > 0
    ]
    assert fired and fired[0] <= 2
    assert not np.array_equal(reb.owner, skew), "ownership must actually change"
    for a, b in zip(off.history, reb.history):
        assert a.result.data == b.result.data


def test_epoch_trigger_noop_on_balanced_partition():
    workers = 4
    part = balanced_partition(_EPOCH_GRAPH, workers)
    batches = synthesize_stream(_EPOCH_GRAPH, 2, 64, 16, seed=7)
    reb = _run_epochs(
        _EPOCH_GRAPH,
        batches,
        workers,
        part,
        rebalance="epoch",
        rebalance_policy=RebalancePolicy(num_workers=workers, min_supersteps=2),
    )
    assert sum(e.result.metrics.num_rebalances for e in reb.history) == 0
    np.testing.assert_array_equal(reb.owner, part)


# ---------------------------------------------------------------------------
# satellite: stats + partition_quality degenerate inputs
# ---------------------------------------------------------------------------
class TestStatsEdgeCases:
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

    def test_partition_quality_single_worker(self):
        g = rmat(5, edge_factor=4, seed=1, directed=True)
        q = partition_quality(g, np.zeros(g.num_vertices, dtype=np.int64))
        assert q["internal_fraction"] == 1.0
        assert q["edge_cut"] == 0
        assert q["imbalance"] == 1.0

    def test_partition_quality_zero_edge_graph(self):
        g = Graph(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        q = partition_quality(g, np.array([0, 0, 1, 1], dtype=np.int64))
        assert q["internal_fraction"] == 1.0
        assert q["edge_cut"] == 0
