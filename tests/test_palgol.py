"""Tests for the Palgol-lite DSL and compiler (the paper's future-work
pipeline: declarative specs -> channel programs with automatic channel
selection)."""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.sv import run_sv
from repro.core import MIN_ID
from repro.core.combiner import MIN_I64, SUM_F64, SUM_I64
from repro.graph import chain, random_tree, rmat
from repro.graph.graph import Graph
from repro.palgol import (
    Add,
    Assign,
    CompileError,
    Const,
    Deg,
    Div,
    Eq,
    Field,
    FirstNeighbor,
    If,
    Let,
    Lt,
    Mul,
    NeighborReduce,
    PalgolSpec,
    RemoteRead,
    RemoteUpdate,
    Sub,
    Var,
    VertexId,
    compile_palgol,
    pagerank_spec,
    pointer_jumping_spec,
    run_palgol,
    sv_spec,
    wcc_spec,
)
from repro.palgol.compiler import PalgolProgram
from repro.runtime.parallel import WorkerPool
from helpers import nx_components, line_graph


def sink_free_pagerank(g, iterations):
    """Dense power iteration whose dead ends leak their mass."""
    n = g.num_vertices
    deg = g.out_degrees
    M = np.zeros((n, n))
    for v in range(n):
        if deg[v]:
            np.add.at(M[:, v], g.neighbors(v), 1.0 / deg[v])
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        r = 0.15 / n + 0.85 * (M @ r)
    return r


@pytest.fixture(scope="module")
def social():
    return rmat(7, edge_factor=2, seed=5, directed=False)


class TestSVSpec:
    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "basic"])
    def test_matches_components(self, social, optimize):
        fields, _ = run_palgol(sv_spec(), social, optimize=optimize, num_workers=4)
        np.testing.assert_array_equal(fields["D"], nx_components(social))

    def test_matches_handwritten_sv(self, social):
        fields, _ = run_palgol(sv_spec(), social, optimize=True, num_workers=4)
        labels, _ = run_sv(social, variant="both", num_workers=4)
        np.testing.assert_array_equal(fields["D"], labels)

    def test_optimizer_reduces_traffic_and_supersteps(self, social):
        part = np.arange(social.num_vertices) % 4
        _, opt = run_palgol(
            sv_spec(), social, optimize=True, num_workers=4, partition=part
        )
        _, basic = run_palgol(
            sv_spec(), social, optimize=False, num_workers=4, partition=part
        )
        assert opt.metrics.total_net_bytes < basic.metrics.total_net_bytes
        assert opt.supersteps < basic.supersteps  # no reply phase

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("optimize, variant", [(True, "both"), (False, "basic")])
    def test_sends_what_the_handwritten_program_sends(self, workers, optimize, variant):
        """Compiled S-V holds its ids as ids, so it sends, channel by
        channel, what the hand-written variant it equals sends."""
        graph = rmat(9, edge_factor=4, seed=2, directed=False)
        fields, compiled = run_palgol(sv_spec(), graph, optimize=optimize, num_workers=workers)
        labels, written = run_sv(graph, variant=variant, num_workers=workers)
        np.testing.assert_array_equal(fields["D"], labels)
        traffic = []
        for metrics in (compiled.metrics, written.metrics):
            per_kind = Counter()
            for label, counts in metrics.channel_breakdown().items():
                kind = label.split(":", 1)[1]  # channels register in another order
                per_kind[kind, "net_bytes"] += counts["net_bytes"]
                per_kind[kind, "messages"] += counts["messages"]
            traffic.append((dict(per_kind), metrics.supersteps, metrics.total_rounds))
        assert traffic[0] == traffic[1]

    def test_channel_selection(self):
        from repro.core import CombinedMessage, RequestRespond, ScatterCombine

        program_cls = compile_palgol(sv_spec(), optimize=True)
        from repro.core import ChannelEngine

        engine = ChannelEngine(line_graph(4), program_cls, num_workers=1)
        prog = engine.workers[0].program
        assert isinstance(prog.reduce_ch[0], ScatterCombine)
        assert isinstance(prog.read_ch[0], RequestRespond)
        assert isinstance(prog.update_ch[0], CombinedMessage)

    def test_basic_mode_uses_standard_channels_only(self):
        from repro.core import ChannelEngine, CombinedMessage, DirectMessage

        program_cls = compile_palgol(sv_spec(), optimize=False)
        engine = ChannelEngine(line_graph(4), program_cls, num_workers=1)
        prog = engine.workers[0].program
        assert isinstance(prog.reduce_ch[0], CombinedMessage)
        assert isinstance(prog.read_ch[0], tuple)
        assert all(isinstance(c, DirectMessage) for c in prog.read_ch[0])


class TestOtherSpecs:
    @pytest.mark.parametrize("optimize", [True, False])
    def test_wcc(self, social, optimize):
        fields, _ = run_palgol(wcc_spec(), social, optimize=optimize, num_workers=4)
        np.testing.assert_array_equal(fields["label"], nx_components(social))

    @pytest.mark.parametrize("optimize", [True, False])
    def test_pointer_jumping_tree(self, optimize):
        t = random_tree(200, seed=7)
        fields, _ = run_palgol(
            pointer_jumping_spec(), t, optimize=optimize, num_workers=4
        )
        assert (fields["D"] == 0).all()

    def test_pointer_jumping_chain_logarithmic(self):
        c = chain(128)
        fields, res = run_palgol(pointer_jumping_spec(), c, optimize=True, num_workers=4)
        assert (fields["D"] == 0).all()
        # reqresp round = 2 supersteps; pointer doubling -> O(log n) rounds
        assert res.supersteps <= 2 * 9

    def test_pagerank_matches_sink_free_reference(self):
        """``rank`` is inferred ``float64``."""
        g = rmat(7, edge_factor=6, seed=3)
        fields, _ = run_palgol(pagerank_spec(iterations=8), g, optimize=True, num_workers=4)
        np.testing.assert_allclose(fields["rank"], sink_free_pagerank(g, 8), atol=1e-12)

    def test_pagerank_fixed_iterations(self):
        g = rmat(6, edge_factor=4, seed=1)
        _, res = run_palgol(pagerank_spec(iterations=5), g, num_workers=2)
        # 2 supersteps per round (send, body) x 5 rounds + terminating step
        assert res.supersteps == 11


class TestFieldTypes:
    """A field's codec follows the values it is given; nothing defaults a
    float field to ``int64`` (PageRank's ``1/N`` truncated to 0 when one did)."""

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (pagerank_spec(5), {"rank": np.float64}),
            (sv_spec(), {"D": np.int32}),
            (wcc_spec(), {"label": np.int32}),
            (pointer_jumping_spec(), {"D": np.int32}),
        ],
        ids=["pagerank", "sv", "wcc", "pj"],
    )
    def test_library_specs(self, spec, expected):
        codecs = compile_palgol(spec).attrs["codecs"]
        assert {name: codec.dtype.type for name, codec in codecs.items()} == expected

    def test_pagerank_without_codecs_is_not_all_zeros(self):
        fields, _ = run_palgol(pagerank_spec(5), rmat(10, edge_factor=8, seed=7), num_workers=2)
        assert fields["rank"].dtype == np.float64 and (fields["rank"] > 0).all()

    def test_a_float_reaches_a_field_through_a_variable_and_another_field(self):
        spec = PalgolSpec(
            fields={"a": Const(0.5), "b": VertexId(), "c": Const(0)},
            body=[
                Let("t", Mul(Field("a"), Const(2))),
                Assign("b", Add(Var("t"), Field("b"))),
                Assign("c", Sub(Field("c"), Const(1))),
            ],
        )
        with pytest.raises(CompileError, match="field 'b'"):
            compile_palgol(spec)
        spec = PalgolSpec(
            fields={"a": Const(0.5), "b": Field("a"), "c": Const(0)},
            body=[Assign("b", Mul(Field("b"), Const(2)))],
        )
        codecs = compile_palgol(spec).attrs["codecs"]
        assert [codecs[name].dtype.type for name in "abc"] == [np.float64, np.float64, np.int64]

    def test_ids_stay_ids_only_through_id_valued_operations(self):
        """An id field is ``INT32``; arithmetic on ids, or a fold in a
        64-bit combiner, makes an ``INT64`` field, evaluated without
        wrapping (a product of two ids past 2**16 overflows int32)."""
        spec = PalgolSpec(
            fields={"id": VertexId(), "sq": Mul(VertexId(), VertexId()), "m": VertexId()},
            iterate=1,
            body=[
                Let("t", NeighborReduce(MIN_I64, Field("id"))),
                If(Lt(Var("t"), Field("m")), then=[Assign("m", Var("t"))]),
            ],
        )
        codecs = compile_palgol(spec).attrs["codecs"]
        assert {name: c.dtype.type for name, c in codecs.items()} == {
            "id": np.int32, "sq": np.int64, "m": np.int64
        }
        graph = Graph.from_edges(70_000, np.array([[0, 69_999]]), directed=False)
        fields, _ = run_palgol(spec, graph, num_workers=2)
        assert fields["sq"][69_999] == 69_999**2

    def test_a_min_id_fold_of_values_that_are_not_ids_is_a_compile_error(self):
        """``MIN_ID`` sends its values at the graph's id width: a degree
        past V would cross as another id."""
        spec = PalgolSpec(
            fields={"x": Deg()}, iterate=1, body=[Assign("x", NeighborReduce(MIN_ID, Field("x")))]
        )
        with pytest.raises(CompileError, match="min_id folds ids; Field.* is not one"):
            compile_palgol(spec)

    def test_int_and_float_values_of_one_field_are_a_compile_error(self):
        spec = PalgolSpec(fields={"x": VertexId()}, body=[Assign("x", Div(Field("x"), Const(2)))])
        with pytest.raises(CompileError, match="field 'x' is given both int and float"):
            compile_palgol(spec)


class TestCompiledProgramIsAValue:
    def test_it_pickles_with_its_spec_and_analysis(self):
        program = compile_palgol(sv_spec())
        clone = pickle.loads(pickle.dumps(program))
        assert clone.base is PalgolProgram and clone.name == "Palgol_sv"
        analysis = clone.attrs["analysis"]
        assert analysis.spec is clone.attrs["spec"]
        # the hoisted nodes are the unpickled spec's own (values are keyed by identity)
        gp, t, _ = clone.attrs["spec"].body
        assert analysis.reads == [gp.value] and analysis.reads[0] is gp.value
        assert analysis.reduces[0] is t.value

    def test_twice_on_one_pool_matches_sim(self):
        graph = rmat(8, edge_factor=4, seed=2, directed=False)
        sim = run_palgol(sv_spec(), graph, num_workers=2)[0]["D"]
        pool = WorkerPool(2)
        try:
            for _ in range(2):
                got = run_palgol(sv_spec(), graph, num_workers=2, executor="process", pool=pool)
                assert got[0]["D"].tobytes() == sim.tobytes()
            assert pool.spawn_count == 2
        finally:
            pool.shutdown()


class TestCompileErrors:
    def test_nested_communication_rejected(self):
        bad = PalgolSpec(
            fields={"x": VertexId()},
            body=[Let("a", NeighborReduce(MIN_I64, RemoteRead("x", at=Field("x"))))],
        )
        with pytest.raises(CompileError, match="nest"):
            compile_palgol(bad)

    def test_let_var_in_read_target_rejected(self):
        bad = PalgolSpec(
            fields={"x": VertexId()},
            body=[Let("a", Const(1)), Let("b", RemoteRead("x", at=Var("a")))],
        )
        with pytest.raises(CompileError, match="own state"):
            compile_palgol(bad)

    def test_unknown_field_read_rejected(self):
        bad = PalgolSpec(
            fields={"x": VertexId()},
            body=[Let("a", RemoteRead("y", at=Field("x")))],
        )
        with pytest.raises(CompileError, match="unknown field"):
            compile_palgol(bad)

    def test_unknown_field_assign_rejected(self):
        bad = PalgolSpec(fields={"x": VertexId()}, body=[Assign("y", Const(1))])
        with pytest.raises(CompileError, match="unknown field"):
            compile_palgol(bad)

    @pytest.mark.parametrize("iterate", ["forever", -1, 2.5, True, None], ids=repr)
    def test_bad_iterate_rejected(self, iterate):
        """Not 0 rounds for ``-1`` nor 1 for ``True``: a ValueError naming ``iterate``."""
        with pytest.raises(ValueError, match="iterate"):
            PalgolSpec(fields={}, body=[], iterate=iterate)

    def test_a_numpy_iterate_is_a_count(self):
        body = [Assign("x", Add(Field("x"), Const(1)))]
        spec = PalgolSpec(fields={"x": Const(0)}, body=body, iterate=np.int64(2))
        assert spec.iterate == 2 and type(spec.iterate) is int
        assert run_palgol(spec, line_graph(3), num_workers=2)[0]["x"].tolist() == [2, 2, 2]

    def test_variable_bound_in_one_branch_and_read_after_rejected(self):
        bad = PalgolSpec(
            fields={"x": VertexId()},
            body=[If(Lt(Field("x"), Const(2)), then=[Let("y", Const(1))]), Assign("x", Var("y"))],
        )
        with pytest.raises(CompileError, match="variable 'y' .* only one branch"):
            compile_palgol(bad)

    def test_unbound_variable_rejected(self):
        bad = PalgolSpec(fields={"x": VertexId()}, body=[Assign("x", Var("nope"))])
        with pytest.raises(CompileError, match="variable 'nope' .* no Let"):
            compile_palgol(bad)

    def test_field_initializer_reads_own_state_only(self):
        bad = PalgolSpec(fields={"x": NeighborReduce(MIN_I64, VertexId())}, body=[])
        with pytest.raises(CompileError, match="initializer of field 'x'"):
            compile_palgol(bad)

    def test_unknown_field_remote_update_rejected(self):
        bad = PalgolSpec(
            fields={"x": VertexId()},
            body=[RemoteUpdate("y", at=Const(0), value=Const(1), combiner=MIN_I64)],
        )
        with pytest.raises(CompileError, match="unknown field 'y'"):
            compile_palgol(bad)


class TestSmallPrograms:
    def test_pure_local_program(self):
        """No communication at all: one phase per round."""
        spec = PalgolSpec(
            name="double",
            fields={"x": VertexId()},
            iterate=3,
            body=[Assign("x", Add(Field("x"), Const(1)))],
        )
        fields, res = run_palgol(spec, line_graph(4), num_workers=2)
        assert fields["x"].tolist() == [3, 4, 5, 6]
        assert res.supersteps == 4  # 3 rounds + terminating step

    def test_degree_sum(self):
        """Sum of neighbor degrees via NeighborReduce(SUM)."""
        spec = PalgolSpec(
            name="degsum",
            fields={"s": Const(0)},
            iterate=1,
            body=[Assign("s", NeighborReduce(SUM_I64, Deg()))],
        )
        g = line_graph(4)  # degrees 1,2,2,1
        fields, _ = run_palgol(spec, g, num_workers=2)
        assert fields["s"].tolist() == [2, 3, 3, 2]

    def test_remote_update_folds_with_combiner(self):
        """Everyone min-updates vertex 0 with its own id + 10."""
        spec = PalgolSpec(
            name="minupd",
            fields={"m": Const(10**6)},
            iterate=1,
            body=[
                RemoteUpdate(
                    "m", at=Const(0), value=Add(VertexId(), Const(10)), combiner=MIN_I64
                )
            ],
        )
        fields, _ = run_palgol(spec, line_graph(5), num_workers=2)
        assert fields["m"][0] == 10
        assert (fields["m"][1:] == 10**6).all()

    def test_first_neighbor_expr(self):
        spec = PalgolSpec(
            name="fn",
            fields={"p": FirstNeighbor()},
            iterate=1,
            body=[],
        )
        t = chain(4)
        fields, _ = run_palgol(spec, t, num_workers=2)
        assert fields["p"].tolist() == [0, 0, 1, 2]

    def test_a_variable_bound_in_both_branches_is_merged(self):
        spec = PalgolSpec(
            name="merge",
            fields={"x": VertexId()},
            iterate=1,
            body=[
                If(
                    Lt(Field("x"), Const(2)),
                    then=[Let("y", Const(10))],
                    els=[Let("y", Mul(Field("x"), Const(2)))],
                ),
                Assign("x", Add(Var("y"), Const(1))),
            ],
        )
        fields, _ = run_palgol(spec, line_graph(5), num_workers=2)
        assert fields["x"].tolist() == [11, 11, 5, 7, 9]

    def test_an_equal_value_is_not_a_change(self):
        """``-0.0`` never overwrites ``0.0`` and counts as no change: the
        fixpoint is reached in the first round."""
        spec = PalgolSpec(
            name="negzero",
            fields={"f": Const(0.0)},
            body=[Assign("f", Mul(Const(-1.0), Field("f")))],
        )
        fields, res = run_palgol(spec, line_graph(4), num_workers=2)
        assert not np.signbit(fields["f"]).any()
        assert res.supersteps == 2

    def test_fixpoint_of_pure_local_converges(self):
        """x := min(x, 5) reaches fixpoint in two rounds."""
        spec = PalgolSpec(
            name="clamp",
            fields={"x": VertexId()},
            iterate="fixpoint",
            body=[
                If(Lt(Const(5), Field("x")), then=[Assign("x", Const(5))]),
            ],
        )
        fields, res = run_palgol(spec, line_graph(10), num_workers=2)
        assert (fields["x"] == np.minimum(np.arange(10), 5)).all()


# (net_bytes, messages, supersteps, rounds) per library spec, optimize and
# worker count; hash partitioning.  Messages, supersteps and rounds are
# those the per-vertex interpreter this evaluator replaced measured; the
# bytes of the id-valued specs (S-V, WCC, pointer jumping) are those of
# their ids as ids, int32 on the wire
PINNED = {
    ('sv', True): [(0, 0, 13, 26), (2093, 1338, 13, 26), (15064, 5311, 13, 26)],
    ('sv', False): [(0, 0, 17, 34), (29720, 7292, 17, 34), (58796, 13199, 17, 34)],
    ('wcc', True): [(0, 0, 9, 18), (1666, 1222, 9, 18), (12121, 4918, 9, 18)],
    ('wcc', False): [(0, 0, 9, 18), (25344, 6266, 9, 18), (48096, 11198, 9, 18)],
    ('pj', True): [(0, 0, 11, 22), (1204, 384, 11, 22), (7232, 1194, 11, 22)],
    ('pj', False): [(0, 0, 16, 32), (6368, 1464, 16, 32), (16600, 2806, 16, 32)],
    ('pagerank', True): [(0, 0, 11, 11), (3910, 635, 11, 11), (16834, 2095, 11, 11)],
    ('pagerank', False): [(0, 0, 11, 11), (20980, 2090, 11, 11), (39190, 3695, 11, 11)],
}


def _library_case(name):
    undirected = rmat(9, edge_factor=4, seed=2, directed=False)
    return {
        "sv": lambda: (sv_spec(), undirected),
        "wcc": lambda: (wcc_spec(), undirected),
        "pj": lambda: (pointer_jumping_spec(), random_tree(300, seed=7)),
        "pagerank": lambda: (pagerank_spec(5), rmat(8, edge_factor=4, seed=3)),
    }[name]()


class TestPinnedTraffic:
    @pytest.mark.parametrize(
        "name, optimize", list(PINNED), ids=[f"{n}-{'opt' if o else 'basic'}" for n, o in PINNED]
    )
    def test_counters_match_the_pinned_table(self, name, optimize):
        spec, graph = _library_case(name)
        got = []
        for workers in (1, 2, 8):
            _, res = run_palgol(spec, graph, optimize=optimize, num_workers=workers)
            m = res.metrics
            got.append((m.total_net_bytes, m.total_messages, m.supersteps, m.total_rounds))
        assert got == PINNED[name, optimize]


@st.composite
def _undirected_graphs(draw):
    n = draw(st.integers(1, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    return Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), directed=False)


class TestAgainstReferences:
    @settings(max_examples=25, deadline=None)
    @given(_undirected_graphs(), st.sampled_from([1, 2, 3, 5]), st.booleans())
    def test_components_match_run_sv_and_networkx(self, graph, workers, optimize):
        expected = nx_components(graph)
        np.testing.assert_array_equal(run_sv(graph, variant="both", num_workers=workers)[0], expected)
        for spec, field in ((sv_spec(), "D"), (wcc_spec(), "label")):
            fields, _ = run_palgol(spec, graph, optimize=optimize, num_workers=workers)
            np.testing.assert_array_equal(fields[field], expected)

    @settings(max_examples=25, deadline=None)
    @given(_undirected_graphs(), st.sampled_from([1, 2, 3, 5]), st.booleans())
    def test_pagerank_matches_the_sink_free_reference(self, graph, workers, optimize):
        fields, _ = run_palgol(pagerank_spec(6), graph, optimize=optimize, num_workers=workers)
        np.testing.assert_allclose(fields["rank"], sink_free_pagerank(graph, 6), atol=1e-12)


class TestRecovery:
    """A compiled program checkpoints like any other: its channel lists
    are the worker's to snapshot, the rest of its state is arrays."""

    @pytest.mark.parametrize("recovery", ["rollback", "confined"])
    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "basic"])
    @pytest.mark.parametrize("name", ["sv", "pagerank", "pj"])
    def test_a_failed_run_ends_as_its_clean_run(self, name, optimize, recovery):
        spec, graph = _library_case(name)
        kw = dict(optimize=optimize, num_workers=2, checkpoint_every=3)
        clean_fields, clean = run_palgol(spec, graph, **kw)
        fields, failed = run_palgol(spec, graph, failures=[(1, 5)], recovery=recovery, **kw)
        assert failed.metrics.num_failures == 1 and failed.metrics.recovery_bytes > 0
        for field, values in clean_fields.items():
            assert fields[field].tobytes() == values.tobytes()
        assert failed.total_net_bytes == clean.total_net_bytes
        assert failed.total_messages == clean.total_messages
        assert failed.supersteps == clean.supersteps
