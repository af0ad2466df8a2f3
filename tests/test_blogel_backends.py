"""The Blogel baseline on both executors.

A block program is a bulk program over one ``DirectMessage``, so the
baseline runs wherever a channel program runs: Blogel WCC gives the
simulator's data and counters on the process backend, over both frame
movers; and a run that loses a worker and recovers ends where the
failure-free run does.
"""

from __future__ import annotations

import pytest

from repro.blogel import run_wcc_blogel
from repro.graph import rmat

_DIRECTED = rmat(7, edge_factor=4, seed=5, directed=True)


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


def _sim_run() -> dict:
    if not _sim:
        _sim.update(_counters(run_wcc_blogel(_DIRECTED, num_workers=2)[-1]))
    return _sim


def test_the_run_crosses_workers():
    """The cases below compare runs that exchange labels, over more than
    one superstep, not two idle ones."""
    sim = _sim_run()
    assert sim["messages"] > 0 and sim["supersteps"] > 2


def test_process_backend_matches_sim(transport):
    proc = run_wcc_blogel(_DIRECTED, num_workers=2, executor="process")[-1]
    assert _counters(proc) == _sim_run()


@pytest.mark.parametrize("recovery", ["rollback", "confined"])
@pytest.mark.parametrize("executor", ["sim", "process"])
def test_recovery_ends_where_the_failure_free_run_does(executor, recovery):
    """Worker 1 dies after superstep 3.  From the superstep-2 checkpoint
    (the labels, the halt flags and the labels in flight) every worker
    (rollback), or worker 1 alone replaying its peers' logged frames
    (confined), resumes, and the run ends as if nothing had happened."""
    result = run_wcc_blogel(
        _DIRECTED,
        num_workers=2,
        executor=executor,
        checkpoint_every=2,
        failures=[(1, 3)],
        recovery=recovery,
    )[-1]
    assert result.metrics.num_failures == 1
    assert _counters(result) == _sim_run()
