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
from repro.algorithms.bfs import run_bfs
from repro.algorithms.lpa import run_lpa
from repro.algorithms.mis import run_mis
from repro.algorithms.pagerank import PageRankScatterBulk, run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.sv import SV_VARIANTS, run_sv
from repro.core import ChannelEngine, ProgramSpec
from repro.graph import random_tree, rmat
from repro.pregel_algorithms import (
    run_msf_pregel,
    run_pagerank_pregel,
    run_pointer_jumping_pregel,
    run_scc_pregel,
    run_sssp_pregel,
    run_sv_pregel,
    run_wcc_pregel,
)
from repro.runtime.checkpoint import capture_snapshot
from repro.runtime.parallel import WorkerPool

_DIRECTED = rmat(7, edge_factor=4, seed=41)
_UNDIRECTED = rmat(7, edge_factor=3, seed=42, directed=False)
_WEIGHTED = rmat(7, edge_factor=3, seed=43, directed=False, weighted=True)
_TREE = random_tree(128, seed=44)  # pointer jumping needs a forest

CASES = {
    "pagerank": lambda **kw: run_pagerank(_DIRECTED, iterations=5, **kw),
    "pagerank-scatter-bulk": lambda **kw: run_pagerank(
        _DIRECTED, variant="scatter", mode="bulk", iterations=5, **kw
    ),
    **{
        f"sv-{variant}": lambda variant=variant, **kw: run_sv(_UNDIRECTED, variant=variant, **kw)
        for variant in SV_VARIANTS
    },
    "sssp": lambda **kw: run_sssp(_DIRECTED, source=3, **kw),
    "bfs": lambda **kw: run_bfs(_DIRECTED, source=3, mode="bulk", **kw),
    "lpa": lambda **kw: run_lpa(_UNDIRECTED, rounds=3, **kw),
    "mis": lambda **kw: run_mis(_UNDIRECTED, seed=7, **kw),
    "sssp-pregel": lambda **kw: run_sssp_pregel(_DIRECTED, source=3, **kw),
    "pagerank-pregel": lambda **kw: run_pagerank_pregel(
        _DIRECTED, mode="ghost", iterations=5, ghost_threshold=8, **kw
    ),
    "wcc-pregel": lambda **kw: run_wcc_pregel(_UNDIRECTED, **kw),
    "scc-pregel": lambda **kw: run_scc_pregel(_DIRECTED, **kw),
    "msf-pregel": lambda **kw: run_msf_pregel(_WEIGHTED, **kw),
    "pj-pregel": lambda **kw: run_pointer_jumping_pregel(_TREE, mode="reqresp", **kw),
    "sv-pregel": lambda **kw: run_sv_pregel(_UNDIRECTED, mode="reqresp", **kw),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_second_run_on_one_pool_matches_sim(name):
    run = CASES[name]
    pool = WorkerPool(2)
    try:
        run(num_workers=2, executor="process", pool=pool)
        second = run(num_workers=2, executor="process", pool=pool)
        assert pool.spawn_count == 2  # reconfigured, not respawned
    finally:
        pool.shutdown()
    assert _fingerprint(second) == _fingerprint(run(num_workers=2))


def _sim(factory):
    result = run_engine(_DIRECTED, factory, num_workers=2, checkpoint_every=2)
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
