"""Cross-system agreement battery: every system that implements an
algorithm must produce identical results on a gallery of graph shapes.

This is the strongest integration check in the suite — it exercises the
channel engine, the Pregel+ baseline, Blogel, and the Palgol compiler on
the same inputs, through their public runners.
"""

import numpy as np
import pytest

from repro.algorithms import (
    run_pagerank,
    run_pointer_jumping,
    run_sssp,
    run_sv,
    run_wcc,
)
from repro.algorithms.scc import run_scc
from repro.blogel import run_wcc_blogel
from repro.graph import chain, erdos_renyi, grid_road, random_tree, rmat, star
from repro.graph.graph import Graph
from repro.palgol import run_palgol, sv_spec, wcc_spec
from repro.pregel_algorithms import (
    run_pagerank_pregel,
    run_pointer_jumping_pregel,
    run_scc_pregel,
    run_sssp_pregel,
    run_sv_pregel,
    run_wcc_pregel,
)

UNDIRECTED_GALLERY = [
    ("power-law", lambda: rmat(7, edge_factor=2, seed=1, directed=False)),
    ("dense", lambda: erdos_renyi(80, avg_degree=10, seed=2, directed=False)),
    ("mesh", lambda: grid_road(8, 9, seed=3, weighted=False)),
    ("hub", lambda: star(40, center=7)),
    ("sparse+isolated", lambda: Graph.from_edges(30, [(0, 1), (5, 6), (6, 7)], directed=False)),
]

DIRECTED_GALLERY = [
    ("power-law", lambda: rmat(7, edge_factor=3, seed=4, directed=True)),
    ("dag", lambda: Graph.from_edges(12, [(i, j) for i in range(12) for j in range(i + 1, min(i + 3, 12))], directed=True)),
    ("cycle", lambda: Graph.from_edges(15, [(i, (i + 1) % 15) for i in range(15)], directed=True)),
]


@pytest.mark.parametrize("name,make", UNDIRECTED_GALLERY, ids=[g[0] for g in UNDIRECTED_GALLERY])
def test_components_five_ways(name, make):
    """S-V (all variants), WCC (both variants), Pregel+, Blogel, and the
    Palgol compiler all agree on connected components."""
    g = make()
    ref, _ = run_sv(g, variant="basic", num_workers=3)
    for result in [
        run_sv(g, variant="both", num_workers=3)[0],
        run_wcc(g, variant="basic", num_workers=3)[0],
        run_wcc(g, variant="prop", num_workers=3)[0],
        run_sv_pregel(g, variant="reqresp", num_workers=3)[0],
        run_wcc_pregel(g, num_workers=3)[0],
        run_wcc_blogel(g, num_workers=3)[0],
        run_palgol(sv_spec(), g, optimize=True, num_workers=3)[0]["D"],
        run_palgol(wcc_spec(), g, optimize=False, num_workers=3)[0]["label"],
    ]:
        np.testing.assert_array_equal(result, ref)


@pytest.mark.parametrize("name,make", DIRECTED_GALLERY, ids=[g[0] for g in DIRECTED_GALLERY])
def test_scc_three_ways(name, make):
    g = make()
    ref, _ = run_scc(g, variant="basic", num_workers=3)
    np.testing.assert_array_equal(run_scc(g, variant="prop", num_workers=3)[0], ref)
    np.testing.assert_array_equal(run_scc_pregel(g, num_workers=3)[0], ref)


@pytest.mark.parametrize(
    "make",
    [lambda: random_tree(150, seed=8), lambda: chain(90)],
    ids=["tree", "chain"],
)
def test_pointer_jumping_four_ways(make):
    g = make()
    ref, _ = run_pointer_jumping(g, variant="basic", num_workers=3)
    for result in [
        run_pointer_jumping(g, variant="reqresp", num_workers=3)[0],
        run_pointer_jumping_pregel(g, variant="basic", num_workers=3)[0],
        run_pointer_jumping_pregel(g, variant="reqresp", num_workers=3)[0],
    ]:
        np.testing.assert_array_equal(result, ref)


def test_pagerank_four_ways():
    g = rmat(7, edge_factor=4, seed=9, directed=True)
    ref, _ = run_pagerank(g, variant="basic", iterations=8, num_workers=3)
    for result in [
        run_pagerank(g, variant="scatter", iterations=8, num_workers=3)[0],
        run_pagerank(g, variant="mirror", iterations=8, num_workers=3)[0],
        run_pagerank_pregel(g, variant="basic", iterations=8, num_workers=3)[0],
        run_pagerank_pregel(g, variant="ghost", iterations=8, num_workers=3)[0],
    ]:
        np.testing.assert_allclose(result, ref, atol=1e-13)


def test_sssp_three_ways():
    g = grid_road(9, 10, seed=5)
    src = int(g.out_degrees.argmax())
    ref, _ = run_sssp(g, source=src, variant="basic", num_workers=3)
    for result in [
        run_sssp(g, source=src, variant="prop", num_workers=3)[0],
        run_sssp_pregel(g, source=src, num_workers=3)[0],
    ]:
        finite = np.isfinite(ref)
        np.testing.assert_allclose(result[finite], ref[finite], atol=1e-9)
        assert np.all(np.isinf(result[~finite]))


@pytest.mark.parametrize("workers", [1, 2, 5, 9])
def test_worker_count_never_changes_results(workers):
    """One partition-independence sweep over the headline algorithm."""
    g = rmat(7, edge_factor=2, seed=6, directed=False)
    ref, _ = run_sv(g, variant="both", num_workers=3)
    got, _ = run_sv(g, variant="both", num_workers=workers)
    np.testing.assert_array_equal(got, ref)
