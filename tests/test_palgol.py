"""Tests for the Palgol-lite DSL and compiler (the paper's future-work
pipeline: declarative specs -> channel programs with automatic channel
selection)."""

import pickle

import numpy as np
import pytest

from repro.algorithms.sv import run_sv
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
from repro.runtime.serialization import FLOAT64
from helpers import nx_components, line_graph


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
        """No ``codecs=``: ``rank`` is inferred ``float64``."""
        g = rmat(7, edge_factor=6, seed=3)
        fields, _ = run_palgol(pagerank_spec(iterations=8), g, optimize=True, num_workers=4)
        n = g.num_vertices
        deg = g.out_degrees
        M = np.zeros((n, n))
        for v in range(n):
            if deg[v]:
                np.add.at(M[:, v], g.neighbors(v), 1.0 / deg[v])
        r = np.full(n, 1.0 / n)
        for _ in range(8):
            r = 0.15 / n + 0.85 * (M @ r)
        np.testing.assert_allclose(fields["rank"], r, atol=1e-12)

    def test_pagerank_fixed_iterations(self):
        g = rmat(6, edge_factor=4, seed=1)
        _, res = run_palgol(
            pagerank_spec(iterations=5),
            g,
            num_workers=2,
            codecs={"rank": FLOAT64},
        )
        # 2 supersteps per round (send, body) x 5 rounds + terminating step
        assert res.supersteps == 11


class TestFieldTypes:
    """A field's codec follows the values it is given; nothing defaults a
    float field to ``int64`` (PageRank's ``1/N`` truncated to 0 when one did)."""

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (pagerank_spec(5), {"rank": np.float64}),
            (sv_spec(), {"D": np.int64}),
            (wcc_spec(), {"label": np.int64}),
            (pointer_jumping_spec(), {"D": np.int64}),
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

    def test_int_and_float_values_of_one_field_are_a_compile_error(self):
        spec = PalgolSpec(fields={"x": VertexId()}, body=[Assign("x", Div(Field("x"), Const(2)))])
        with pytest.raises(CompileError, match="field 'x' is given both int and float"):
            compile_palgol(spec)
        # ... unless the caller names its codec
        codecs = compile_palgol(spec, codecs={"x": FLOAT64}).attrs["codecs"]
        assert codecs["x"] is FLOAT64


class TestCompiledProgramIsAValue:
    def test_it_pickles_with_its_spec_and_analysis(self):
        program = compile_palgol(sv_spec())
        clone = pickle.loads(pickle.dumps(program))
        assert clone.base is PalgolProgram and clone.name == "Palgol_sv"
        analysis = clone.attrs["analysis"]
        assert analysis.spec is clone.attrs["spec"]
        # the node lookup is redone against the unpickled nodes
        assert analysis.index == {id(node): k for k, node in enumerate(analysis.reduces)} | {
            id(node): k for k, node in enumerate(analysis.reads)
        }

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

    def test_bad_iterate_rejected(self):
        with pytest.raises(ValueError):
            PalgolSpec(fields={}, body=[], iterate="forever")


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
