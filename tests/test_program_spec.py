"""A configured program is data: every parametrized or variant-tabled
runner, and every Pregel+ runner, hands the engine a factory that
pickles, so a persistent pool can load it for a second run.

Each runner runs twice on one ``WorkerPool(2)``.  The first call forks
the pool's processes (the factory reaches them by inheritance); the
second reconfigures the live processes, which ships the factory as
pickle bytes, and must give the simulator's data and counters.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms._common import run_engine
from repro.algorithms.pagerank import PageRankScatterBulk
from repro.core import ChannelEngine, ProgramSpec
from repro.graph import random_tree, rmat
from repro.programs import PROGRAMS, cells, factory, runner
from repro.runtime.checkpoint import capture_snapshot
from repro.runtime.parallel import WorkerPool

_DIRECTED = rmat(7, edge_factor=4, seed=41)
_UNDIRECTED = rmat(7, edge_factor=3, seed=42, directed=False)
_WEIGHTED = rmat(7, edge_factor=3, seed=43, directed=False, weighted=True)
_TREE = random_tree(128, seed=44)  # pointer jumping needs a forest

#: (algorithm, cell) -> (graph, the run parameters the row's runner takes)
CASES = {
    ("pagerank", "channel-basic"): (_DIRECTED, {"iterations": 5}),
    ("pagerank", "channel-scatter-bulk"): (_DIRECTED, {"iterations": 5}),
    **{
        ("sv", f"channel-{variant}-bulk"): (_UNDIRECTED, {})
        for variant in PROGRAMS["sv"]["channel"].variants
    },
    ("sssp", "channel-basic"): (_DIRECTED, {"source": 3}),
    ("bfs", "channel-basic-bulk"): (_DIRECTED, {"source": 3}),
    ("lpa", "channel-basic"): (_UNDIRECTED, {"rounds": 3}),
    ("mis", "channel-basic"): (_UNDIRECTED, {"seed": 7}),
    ("sssp", "pregel-basic"): (_DIRECTED, {"source": 3}),
    ("pagerank", "pregel-ghost"): (_DIRECTED, {"iterations": 5, "ghost_threshold": 8}),
    ("wcc", "pregel-basic"): (_UNDIRECTED, {}),
    ("scc", "pregel-basic"): (_DIRECTED, {}),
    ("msf", "pregel-basic"): (_WEIGHTED, {}),
    ("pj", "pregel-reqresp"): (_TREE, {}),
    ("sv", "pregel-reqresp"): (_UNDIRECTED, {}),
}


def _fingerprint(out) -> tuple:
    """A runner's outputs and its result's counters, comparable with ``==``."""
    *values, result = out
    m = result.metrics
    return (
        [v.tobytes() if isinstance(v, np.ndarray) else v for v in values],
        m.total_net_bytes,
        m.total_messages,
        m.supersteps,
    )


@pytest.mark.parametrize("algorithm, cell", sorted(CASES), ids=[f"{a}-{c}" for a, c in sorted(CASES)])
def test_second_run_on_one_pool_matches_sim(algorithm, cell):
    graph, params = CASES[algorithm, cell]
    run = runner(algorithm, *cells(algorithm)[cell])
    pool = WorkerPool(2)
    try:
        run(graph, num_workers=2, executor="process", pool=pool, **params)
        second = run(graph, num_workers=2, executor="process", pool=pool, **params)
        assert pool.spawn_count == 2  # reconfigured, not respawned
    finally:
        pool.shutdown()
    assert _fingerprint(second) == _fingerprint(run(graph, num_workers=2, **params))


@pytest.mark.parametrize("algorithm", sorted(PROGRAMS))
def test_every_row_resolves_and_its_factory_pickles(algorithm):
    """Each lazy name of the table names a runner and a factory, and each
    factory crosses to a worker process as pickle bytes."""
    for system, variant, path in cells(algorithm).values():
        assert callable(runner(algorithm, system, variant, path))
        made = factory(algorithm, system, variant, path)
        assert factory(algorithm, system, variant, path) is made  # resolved once
        clone = pickle.loads(pickle.dumps(made))
        if isinstance(made, ProgramSpec):
            assert (clone.base, clone.attrs) == (made.base, made.attrs)
        else:
            assert clone is made


def _sim(program):
    result = run_engine(_DIRECTED, program, num_workers=2, checkpoint_every=2)
    m = result.metrics
    return result.data.array.tobytes(), m.total_net_bytes, m.total_messages, m.checkpoint_bytes


def test_an_unpickled_spec_runs_as_its_original():
    spec = ProgramSpec(PageRankScatterBulk, {"iterations": 4})
    clone = pickle.loads(pickle.dumps(spec))
    assert (clone.base, clone.attrs, clone.name) == (spec.base, spec.attrs, spec.name)
    assert _sim(clone) == _sim(spec)


def test_a_runs_workers_share_one_class_and_no_checkpoint_holds_its_parameters():
    spec = ProgramSpec(PageRankScatterBulk, {"iterations": 4})
    engine = ChannelEngine(_DIRECTED, spec, num_workers=3)
    engine.run()
    (cls,) = {type(worker.program) for worker in engine.workers}
    assert issubclass(cls, PageRankScatterBulk) and cls.iterations == 4
    assert all("iterations" not in worker.program.state_dict() for worker in engine.workers)
    plain = ChannelEngine(_DIRECTED, PageRankScatterBulk, num_workers=3)
    plain.run()
    assert capture_snapshot(engine).nbytes == capture_snapshot(plain).nbytes
