"""One vertex-id width: every id a run holds or sends is a
``graph.VERTEX_ID`` (``int32``), and narrowing the ids changed no result.

The pins below were measured on the tree whose channels, workers and S-V
state widened ids to ``int64``: each row's output digest (SHA-256 of its
arrays' bytes, first 16 hex digits) and its ``(net_bytes, messages,
supersteps, rounds)`` — the ``net_bytes`` since re-measured where ids
cross the wire as wide as the graph's V needs (digests, messages,
supersteps and rounds unchanged).  The scale-16 rows run with ``RuntimeWarning``
raised as an error: ids there pass 2**16, where a product of two ids no
longer fits an ``int32``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import ChannelEngine
from repro.graph import random_tree, rmat
from repro.graph.graph import VERTEX_ID
from repro.programs import cells, runner

_DIRECTED = rmat(7, edge_factor=4, seed=41)
_UNDIRECTED = rmat(7, edge_factor=3, seed=42, directed=False)
_WEIGHTED = rmat(7, edge_factor=3, seed=43, directed=False, weighted=True)
_TREE = random_tree(128, seed=44)  # pointer jumping needs a forest

#: algorithm -> (graph, the run parameters its runners take)
INPUTS = {
    "pagerank": (_DIRECTED, {"iterations": 5}),
    "pj": (_TREE, {}),
    "wcc": (_UNDIRECTED, {}),
    "sv": (_UNDIRECTED, {}),
    "scc": (_DIRECTED, {}),
    "msf": (_WEIGHTED, {}),
    "sssp": (_DIRECTED, {"source": 3}),
    "bfs": (_DIRECTED, {"source": 3}),
    "kcore": (_UNDIRECTED, {}),
    "lpa": (_UNDIRECTED, {"rounds": 3}),
    "mis": (_UNDIRECTED, {"seed": 7}),
    "triangles": (_UNDIRECTED, {}),
}

#: every row of repro.programs at 2 workers
ROWS = {
    ('pagerank', 'channel-basic'): ('a2828653741f5677', 10217, 1117, 6, 12),
    ('pagerank', 'channel-basic-bulk'): ('a2828653741f5677', 10217, 1117, 6, 12),
    ('pagerank', 'channel-scatter'): ('820e57c65665d0c4', 2664, 372, 6, 12),
    ('pagerank', 'channel-scatter-bulk'): ('820e57c65665d0c4', 2664, 372, 6, 12),
    ('pagerank', 'channel-mirror'): ('820e57c65665d0c4', 3166, 372, 6, 12),
    ('pagerank', 'channel-mirror-bulk'): ('820e57c65665d0c4', 3166, 372, 6, 12),
    ('pagerank', 'pregel-basic'): ('a2828653741f5677', 10217, 1117, 6, 12),
    ('pagerank', 'pregel-ghost'): ('b6d6d6976d2cc56b', 7822, 842, 6, 12),
    ('pj', 'channel-basic'): ('5f70bf18a0860070', 896, 392, 11, 11),
    ('pj', 'channel-reqresp'): ('5f70bf18a0860070', 258, 146, 6, 11),
    ('pj', 'channel-reqresp-bulk'): ('5f70bf18a0860070', 258, 146, 6, 11),
    ('pj', 'pregel-basic'): ('5f70bf18a0860070', 896, 392, 11, 11),
    ('pj', 'pregel-reqresp'): ('5f70bf18a0860070', 331, 146, 6, 11),
    ('wcc', 'channel-basic'): ('0fe108103805a2ff', 1082, 509, 5, 5),
    ('wcc', 'channel-basic-bulk'): ('0fe108103805a2ff', 1082, 509, 5, 5),
    ('wcc', 'channel-prop'): ('0fe108103805a2ff', 272, 116, 2, 4),
    ('wcc', 'pregel-basic'): ('0fe108103805a2ff', 1082, 509, 5, 5),
    ('wcc', 'blogel-basic'): ('0fe108103805a2ff', 197, 116, 4, 4),
    ('sv', 'channel-basic'): ('0fe108103805a2ff', 3128, 1254, 17, 34),
    ('sv', 'channel-basic-bulk'): ('0fe108103805a2ff', 3128, 1254, 17, 34),
    ('sv', 'channel-reqresp'): ('0fe108103805a2ff', 2528, 1026, 13, 26),
    ('sv', 'channel-reqresp-bulk'): ('0fe108103805a2ff', 2528, 1026, 13, 26),
    ('sv', 'channel-scatter'): ('0fe108103805a2ff', 1409, 574, 17, 34),
    ('sv', 'channel-scatter-bulk'): ('0fe108103805a2ff', 1409, 574, 17, 34),
    ('sv', 'channel-both'): ('0fe108103805a2ff', 809, 346, 13, 26),
    ('sv', 'channel-both-bulk'): ('0fe108103805a2ff', 809, 346, 13, 26),
    ('sv', 'pregel-basic'): ('0fe108103805a2ff', 11628, 1254, 17, 34),
    ('sv', 'pregel-reqresp'): ('0fe108103805a2ff', 9432, 1026, 13, 26),
    ('scc', 'channel-basic'): ('7503c2bbe13051d0', 7401, 1381, 8, 16),
    ('scc', 'channel-prop'): ('7503c2bbe13051d0', 3533, 671, 3, 7),
    ('scc', 'pregel-basic'): ('7503c2bbe13051d0', 12605, 1365, 8, 16),
    ('msf', 'channel-basic'): ('3ca118021b7d9a8a', 9948, 1292, 28, 56),
    ('msf', 'pregel-basic'): ('3ca118021b7d9a8a', 27188, 1292, 28, 56),
    ('sssp', 'channel-basic'): ('09985c4c2aef020a', 1945, 209, 6, 6),
    ('sssp', 'channel-basic-bulk'): ('09985c4c2aef020a', 1945, 209, 6, 6),
    ('sssp', 'channel-prop'): ('09985c4c2aef020a', 833, 89, 2, 5),
    ('sssp', 'pregel-basic'): ('09985c4c2aef020a', 1945, 209, 6, 6),
    ('bfs', 'channel-basic'): ('5cd726a831d4b312', 1945, 209, 6, 6),
    ('bfs', 'channel-basic-bulk'): ('5cd726a831d4b312', 1945, 209, 6, 6),
    ('bfs', 'channel-prop'): ('5cd726a831d4b312', 833, 89, 2, 5),
    ('kcore', 'channel-basic'): ('5cf46ed1a5685899', 7212, 788, 9, 9),
    ('lpa', 'channel-basic'): ('6da24dec94aba9db', 3678, 726, 4, 4),
    ('mis', 'channel-basic'): ('73f301700ecc06ce', 3058, 358, 7, 7),
    ('triangles', 'channel-basic'): ('bba58959c32abe68', 5722, 1128, 3, 6),
}

#: bulk rows on a scale-16 graph (and a 2**16-vertex forest) at 2 workers
BIG = {
    ('sv', 'channel-both-bulk'): ('8e22c110dcea0fd2', 217651, 142467, 16, 32),
    ('sv', 'channel-basic-bulk'): ('8e22c110dcea0fd2', 8205254, 1367435, 21, 42),
    ('sv', 'channel-reqresp-bulk'): ('8e22c110dcea0fd2', 7442740, 1244357, 16, 32),
    ('bfs', 'channel-basic-bulk'): ('8953ae016a56c5d8', 2719148, 247188, 7, 7),
    ('wcc', 'channel-basic-bulk'): ('8e22c110dcea0fd2', 3594314, 599039, 7, 7),
    ('pj', 'channel-reqresp-bulk'): ('07854d2fef297a06', 251114, 83646, 7, 13),
    ('pagerank', 'channel-scatter-bulk'): ('0518f18cfa3a6ce3', 448997, 80612, 4, 8),
}


def _fingerprint(out) -> tuple:
    *values, result = out
    digest = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    m = result.metrics
    return digest.hexdigest()[:16], m.total_net_bytes, m.total_messages, m.supersteps, m.total_rounds


def _id_arrays(snapshot: dict):
    """The arrays of vertex ids in a channel snapshot: a static edge
    set's destinations, RequestRespond's asked and answered ids, the
    sender and combined ids a peer announced, Propagation's pending
    destinations."""
    for key in ("edge_dst", "resp_keys"):
        if key in snapshot:
            yield snapshot[key]
    yield from snapshot.get("asked", ())
    for entry in snapshot.get("patterns", {}).values():
        if len(entry) == 3:  # (sender ids, destination count, combined ids)
            yield entry[0]
            yield entry[2]
    for dsts, _ in snapshot.get("pending", ()):
        yield dsts


@pytest.mark.parametrize("algorithm, cell", sorted(ROWS), ids=[f"{a}-{c}" for a, c in sorted(ROWS)])
def test_every_row_holds_ids_as_vertex_ids_and_runs_as_before(monkeypatch, algorithm, cell):
    engines = []
    real = ChannelEngine.run

    def run(self, *args, **kwargs):
        engines.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ChannelEngine, "run", run)
    graph, params = INPUTS[algorithm]
    out = runner(algorithm, *cells(algorithm)[cell])(graph, num_workers=2, **params)
    assert _fingerprint(out) == ROWS[algorithm, cell]
    workers = [worker for engine in engines for worker in engine.workers]
    assert workers
    for worker in workers:
        assert worker.local_ids.dtype == VERTEX_ID
        for channel in worker.channels:
            for ids in _id_arrays(channel.snapshot()):
                assert ids.dtype == VERTEX_ID, (type(channel).__name__, ids.dtype)


@pytest.fixture(scope="module")
def big_inputs():
    return rmat(16, edge_factor=4, seed=11, directed=False), random_tree(1 << 16, seed=12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algorithm, cell", sorted(BIG), ids=[f"{a}-{c}" for a, c in sorted(BIG)])
def test_ids_past_two_to_the_sixteen_run_as_before(big_inputs, algorithm, cell):
    graph, tree = big_inputs
    params = {"pagerank": {"iterations": 3}, "bfs": {"source": 3}}.get(algorithm, {})
    out = runner(algorithm, *cells(algorithm)[cell])(
        tree if algorithm == "pj" else graph, num_workers=2, **params
    )
    assert _fingerprint(out) == BIG[algorithm, cell]
