"""Property-based tests: algorithm results on random graphs match
serial oracles, across systems and worker counts."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.pointer_jumping import run_pointer_jumping
from repro.algorithms.scc import run_scc
from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.blogel import run_wcc_blogel
from repro.graph.graph import Graph
from helpers import nx_components, nx_scc, pagerank_oracle

slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def undirected_graphs(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    edges = [(u, v) for u, v in edges if u != v]
    return Graph.from_edges(n, edges, directed=False)


@st.composite
def directed_graphs(draw, max_n=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return Graph.from_edges(n, edges, directed=True)


@st.composite
def forests(draw, max_n=60):
    """Random parent-pointer forests (for pointer jumping)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        if draw(st.booleans()):
            parent = draw(st.integers(min_value=0, max_value=v - 1))
            edges.append((v, parent))
    return Graph.from_edges(n, edges, directed=True)


@slow
@given(g=undirected_graphs(), workers=st.integers(min_value=1, max_value=5))
def test_sv_matches_union_find(g, workers):
    labels, _ = run_sv(g, variant="both", num_workers=workers)
    np.testing.assert_array_equal(labels, nx_components(g))


@slow
@given(g=undirected_graphs(), variant=st.sampled_from(["basic", "prop"]))
def test_wcc_matches_oracle(g, variant):
    labels, _ = run_wcc(g, variant=variant, num_workers=3)
    np.testing.assert_array_equal(labels, nx_components(g))


@slow
@given(
    data=st.data(),
    directed=st.booleans(),
    workers=st.integers(min_value=1, max_value=8),
)
def test_blogel_wcc_matches_oracle_and_prop(data, directed, workers):
    """A wrong baseline silently invalidates a Table V row: Blogel's block
    fixpoint gives the components on any partition, empty blocks too."""
    g = data.draw(directed_graphs() if directed else undirected_graphs())
    n = g.num_vertices
    partition = np.array(
        data.draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)), dtype=np.int64
    )
    labels, _ = run_wcc_blogel(g, num_workers=workers, partition=partition)
    np.testing.assert_array_equal(labels, nx_components(g))
    prop, _ = run_wcc(g, variant="prop", num_workers=workers, partition=partition)
    np.testing.assert_array_equal(labels, prop)


@slow
@given(g=directed_graphs(), variant=st.sampled_from(["basic", "prop"]))
def test_scc_matches_oracle(g, variant):
    labels, _ = run_scc(g, variant=variant, num_workers=3)
    np.testing.assert_array_equal(labels, nx_scc(g))


@slow
@given(g=forests(), variant=st.sampled_from(["basic", "reqresp"]))
def test_pointer_jumping_finds_roots(g, variant):
    roots, _ = run_pointer_jumping(g, variant=variant, num_workers=3)
    expected = np.zeros(g.num_vertices, dtype=np.int64)
    for v in range(g.num_vertices):
        u = v
        while g.out_degree(u):
            u = int(g.neighbors(u)[0])
        expected[v] = u
    np.testing.assert_array_equal(roots, expected)


@slow
@given(g=directed_graphs(max_n=20), workers=st.integers(min_value=1, max_value=4))
def test_pagerank_worker_count_invariance(g, workers):
    """The partition must never change the numbers (BSP determinism)."""
    r1, _ = run_pagerank(g, variant="basic", iterations=5, num_workers=1)
    rk, _ = run_pagerank(g, variant="basic", iterations=5, num_workers=workers)
    np.testing.assert_allclose(r1, rk, atol=1e-12)


@slow
@given(g=directed_graphs(max_n=20))
def test_pagerank_matches_dense_oracle(g):
    ranks, _ = run_pagerank(g, variant="scatter", iterations=6, num_workers=3)
    np.testing.assert_allclose(ranks, pagerank_oracle(g, 6), atol=1e-12)


@slow
@given(g=undirected_graphs(max_n=30), workers=st.integers(min_value=1, max_value=5))
def test_sv_worker_count_invariance(g, workers):
    l1, _ = run_sv(g, variant="basic", num_workers=1)
    lk, _ = run_sv(g, variant="basic", num_workers=workers)
    np.testing.assert_array_equal(l1, lk)


@slow
@given(g=undirected_graphs(max_n=30))
def test_sv_variants_agree(g):
    results = [run_sv(g, variant=v, num_workers=3)[0] for v in ("basic", "both")]
    np.testing.assert_array_equal(results[0], results[1])
