"""The Pregel+ baseline on both executors.

Its message layer is channels that ``Worker.superstep`` drives, so the
baseline runs wherever a channel program runs: every mode of every
runner gives the simulator's data and counters on the process backend,
over both frame movers, and a run that loses a worker and recovers ends
where the failure-free run does.
"""

from __future__ import annotations

import pytest

from repro.graph import random_tree, rmat
from repro.pregel_algorithms import (
    run_pagerank_pregel,
    run_pointer_jumping_pregel,
    run_sv_pregel,
    run_wcc_pregel,
)

_DIRECTED = rmat(7, edge_factor=4, seed=5, directed=True)
_UNDIRECTED = rmat(7, edge_factor=3, seed=6, directed=False)
_TREE = random_tree(120, seed=3)

#: every mode each runner offers; ghost mode with hubs on both workers
CASES = {
    "pr-basic": lambda **kw: run_pagerank_pregel(_DIRECTED, mode="basic", iterations=6, **kw),
    "pr-ghost": lambda **kw: run_pagerank_pregel(
        _DIRECTED, mode="ghost", iterations=6, ghost_threshold=8, **kw
    ),
    "pj-basic": lambda **kw: run_pointer_jumping_pregel(_TREE, mode="basic", **kw),
    "pj-reqresp": lambda **kw: run_pointer_jumping_pregel(_TREE, mode="reqresp", **kw),
    "sv-basic": lambda **kw: run_sv_pregel(_UNDIRECTED, mode="basic", **kw),
    "sv-reqresp": lambda **kw: run_sv_pregel(_UNDIRECTED, mode="reqresp", **kw),
    "wcc-basic": lambda **kw: run_wcc_pregel(_UNDIRECTED, **kw),
}


def _counters(result) -> dict:
    m = result.metrics
    return {
        "data": dict(result.data),
        "net_bytes": m.total_net_bytes,
        "messages": m.total_messages,
        "supersteps": m.supersteps,
        "rounds": m.total_rounds,
    }


_sim = {}


def _sim_run(name):
    if name not in _sim:
        _sim[name] = _counters(CASES[name](num_workers=2)[-1])
    return _sim[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_process_backend_matches_sim(name, transport):
    proc = CASES[name](num_workers=2, executor="process")[-1]
    assert _counters(proc) == _sim_run(name)


def test_ghost_mode_ships_ghosts():
    """The ghost cells above run mirrors, not a basic run under another
    name: fewer bytes, the same ranks up to the order of the sums."""
    ghost, basic = _sim_run("pr-ghost"), _sim_run("pr-basic")
    assert ghost["net_bytes"] < basic["net_bytes"]
    assert ghost["data"] == pytest.approx(basic["data"], rel=1e-12)


@pytest.mark.parametrize("recovery", ["rollback", "confined"])
@pytest.mark.parametrize("executor", ["sim", "process"])
def test_recovery_ends_where_the_failure_free_run_does(executor, recovery):
    """Worker 1 dies after superstep 5 of S-V reqresp.  The superstep-4
    checkpoint holds the responses and per-vertex message lists in flight
    into superstep 5; from it every worker (rollback), or worker 1 alone
    replaying its peers' logged frames (confined), resumes, and the run
    ends as if nothing had happened."""
    result = CASES["sv-reqresp"](
        num_workers=2,
        executor=executor,
        checkpoint_every=4,
        failures=[(1, 5)],
        recovery=recovery,
    )[-1]
    assert result.metrics.num_failures == 1
    assert _counters(result) == _sim_run("sv-reqresp")
