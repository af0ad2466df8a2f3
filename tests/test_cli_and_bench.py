"""Tests for the CLI (`python -m repro`) and the bench harness."""

import json

import numpy as np
import pytest

import repro.algorithms
import repro.blogel
import repro.pregel_algorithms
from repro.__main__ import main as cli_main
from repro.bench import tables
from repro.bench.datasets import DATASETS, load_dataset, table3_rows
from repro.bench.runner import run_cell
from repro.bench.tables import render_rows
from repro.graph.io import save_edgelist
from repro.programs import PROGRAMS, cells
from helpers import two_triangles


class TestDatasets:
    def test_registry_covers_table3(self):
        assert set(DATASETS) == {
            "wikipedia",
            "webuk",
            "facebook",
            "twitter",
            "tree",
            "chain",
            "usa-road",
            "rmat24",
        }

    def test_loading_is_cached(self):
        a = load_dataset("facebook")
        b = load_dataset("facebook")
        assert a is b

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("orkut")

    def test_table3_rows_shape(self):
        rows = table3_rows()
        assert len(rows) == 8
        for row in rows:
            assert row["|V|"] > 0 and row["|E|"] > 0
            assert row["avg_deg"] > 0

    def test_type_properties_hold(self):
        assert load_dataset("wikipedia").directed
        assert not load_dataset("facebook").directed
        assert load_dataset("usa-road").weighted
        assert load_dataset("rmat24").weighted
        # the dense/sparse contrast Table VI relies on
        assert load_dataset("twitter").avg_degree > 4 * load_dataset("facebook").avg_degree


class TestRunner:
    def test_every_public_runner_is_a_row(self):
        """The program table lists every public ``run_*`` of the three
        systems, so every runner is a cell and (for the channel system) a
        ``repro run`` choice."""
        listed = {
            entry.runner.partition(":")[2]
            for systems in PROGRAMS.values()
            for entry in systems.values()
        }
        public = {
            *(name for name in repro.algorithms.__all__ if name.startswith("run_")),
            *repro.pregel_algorithms.__all__,
            repro.blogel.run_wcc_blogel.__name__,
        }
        assert listed == public

    def test_sv_and_pj_ports_are_rows_beside_pinned_scalar_cells(self):
        for variant in PROGRAMS["sv"]["channel"].variants:
            assert cells("sv")[f"channel-{variant}-bulk"] == ("channel", variant, "bulk")
            assert cells("sv")[f"channel-{variant}"] == ("channel", variant, "scalar")
        assert cells("pj")["channel-reqresp-bulk"] == ("channel", "reqresp", "bulk")
        # the Table VI cells (pinned to the per-vertex listing) and the
        # ports report the same counters
        counters = ("message_mb", "messages", "supersteps", "rounds")
        scalar = run_cell("sv", "channel-both", "facebook", num_workers=4)
        bulk = run_cell("sv", "channel-both-bulk", "facebook", num_workers=4)
        assert [scalar[k] for k in counters] == [bulk[k] for k in counters]

    def test_the_tables_name_only_rows(self, monkeypatch):
        """Every cell ``table4()``–``table7()`` runs is a row of the table:
        a misspelt cell fails here, not in the full ``repro tables``."""
        named = []
        monkeypatch.setattr(tables, "run_cell", lambda a, p, *args, **kw: named.append((a, p)))
        for table in (
            tables.table4,
            tables.table5_scatter,
            tables.table5_reqresp,
            tables.table5_prop,
            tables.table6,
            tables.table7,
        ):
            table()
        assert len(named) == 24 + 8 + 8 + 8 + 10 + 6
        assert [(a, p) for a, p in named if a not in PROGRAMS or p not in cells(a)] == []

    @pytest.mark.parametrize(
        "algorithm, program, refused",
        [
            ("pr", "channel-basic", "algorithm 'pr'"),
            ("bogus", "channel-basic", "algorithm 'bogus'"),
            ("pagerank", "channel-bogus", "program 'channel-bogus'"),
            ("msf", "channel-basic-bulk", "program 'channel-basic-bulk'"),
        ],
        ids=["pr", "bogus", "channel-bogus", "msf-bulk"],
    )
    def test_run_cell_refuses_an_unknown_cell_by_name(self, algorithm, program, refused):
        """Not a bare ``KeyError`` of the tuple: one ValueError naming the
        argument, before any dataset is loaded."""
        with pytest.raises(ValueError, match=f"unknown {refused}"):
            run_cell(algorithm, program, "no-such-dataset")

    def test_run_cell_row_schema(self):
        row = run_cell("wcc", "channel-prop", "facebook", num_workers=4)
        for key in (
            "algorithm",
            "program",
            "dataset",
            "runtime",
            "message_mb",
            "messages",
            "supersteps",
            "rounds",
            "wall_s",
        ):
            assert key in row
        assert row["dataset"] == "facebook"
        assert row["runtime"] > 0

    def test_partitioned_flag_marks_dataset(self):
        row = run_cell("wcc", "channel-prop", "facebook", partitioned=True, num_workers=4)
        assert row["dataset"].endswith("(P)")


class TestRenderRows:
    def test_renders_all_columns(self):
        row = run_cell("wcc", "channel-prop", "facebook", num_workers=4)
        text = render_rows([row], title="T")
        assert "T" in text and "facebook" in text and "message_mb" in text

    def test_empty(self):
        assert "(no rows)" in render_rows([], title="X")


class TestCLI:
    def test_run_json(self, capsys):
        rc = cli_main(
            ["run", "wcc", "--dataset", "facebook", "--variant", "prop", "--json"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["algorithm"] == "wcc"
        assert out["supersteps"] >= 1

    def test_run_plain_output(self, capsys):
        rc = cli_main(["run", "pj", "--dataset", "chain", "--variant", "reqresp"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "supersteps" in text and "net_bytes" in text

    def test_run_partitioned(self, capsys):
        rc = cli_main(
            ["run", "wcc", "--dataset", "facebook", "--variant", "prop", "--partition", "metis"]
        )
        assert rc == 0

    def test_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        save_edgelist(two_triangles(), path)
        rc = cli_main(["run", "sv", "--graph", str(path), "--variant", "both", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vertices"] == 6

    @pytest.mark.parametrize(
        "cell", [("sv", "both", "facebook"), ("pj", "reqresp", "tree")], ids=["sv", "pj"]
    )
    def test_mode_bulk_matches_mode_scalar(self, cell, capsys):
        algo, variant, dataset = cell
        rows = {}
        for mode in ("scalar", "bulk"):
            argv = ["run", algo, "--dataset", dataset, "--variant", variant]
            assert cli_main(argv + ["--workers", "4", "--mode", mode, "--json"]) == 0
            rows[mode] = json.loads(capsys.readouterr().out)
        for key in ("supersteps", "rounds", "net_bytes", "local_bytes", "messages"):
            assert rows["bulk"][key] == rows["scalar"][key], key

    def test_mode_bulk_without_a_port_exits_2(self, capsys):
        rc = cli_main(["run", "msf", "--dataset", "usa-road", "--mode", "bulk"])
        assert rc == 2
        assert "no 'bulk' port" in capsys.readouterr().err

    def test_bad_variant(self, capsys):
        rc = cli_main(["run", "msf", "--dataset", "usa-road", "--variant", "prop"])
        assert rc == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_datasets_listing(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "wikipedia" in out and "avg_deg" in out

    def test_requires_graph_source(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "wcc"])


class TestStreamCLI:
    @pytest.fixture
    def stream_file(self, tmp_path):
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import save_edgelist, save_update_stream
        from repro.streaming import synthesize_stream

        g = erdos_renyi(200, 3.0, seed=21, directed=True)
        gpath = tmp_path / "g.txt"
        save_edgelist(g, gpath)
        upath = tmp_path / "u.txt"
        save_update_stream(synthesize_stream(g, 2, 5, 5, seed=22), upath)
        return str(gpath), str(upath)

    def test_stream_json_rows(self, stream_file, capsys):
        gpath, upath = stream_file
        rc = cli_main(
            [
                "stream", "wcc", "--graph", gpath, "--updates", upath,
                "--workers", "2", "--json",
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 3  # bootstrap + 2 epochs
        assert rows[0]["refresh"] == "full" and rows[0]["epoch"] == 0
        # every batch of this stream deletes, so WCC refreshes cold
        assert all(r["refresh"] == "full" for r in rows)
        assert all("affected_vertices" in r for r in rows)

    def test_stream_epoch_size_rechunks(self, stream_file, capsys):
        gpath, upath = stream_file
        rc = cli_main(
            [
                "stream", "pagerank", "--graph", gpath, "--updates", upath,
                "--epoch-size", "4", "--iterations", "3", "--workers", "2",
                "--json",
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 1 + 5  # 20 mutations in chunks of 4
        assert all(r["batch_size"] == 4 for r in rows[1:])

    def test_stream_process_executor_matches_sim(self, stream_file, capsys):
        gpath, upath = stream_file
        rows = {}
        for executor in ("sim", "process"):
            rc = cli_main(
                [
                    "stream", "wcc", "--graph", gpath, "--updates", upath,
                    "--workers", "2", "--executor", executor, "--json",
                ]
            )
            assert rc == 0
            rows[executor] = [
                json.loads(line) for line in capsys.readouterr().out.splitlines()
            ]
        for sim_row, proc_row in zip(rows["sim"], rows["process"]):
            for key in ("supersteps", "rounds", "net_bytes", "local_bytes",
                        "messages", "epoch", "refresh", "batch_size", "seeds"):
                assert proc_row[key] == sim_row[key], key

    def test_stream_sssp_weighted_deletion_only_timestamp(self, tmp_path, capsys):
        # timestamp 1 holds only '-' lines, so its batch has no weights;
        # the weighted stream-road graph must take it
        from repro.graph.io import load_update_stream

        g = load_dataset("stream-road")
        src, dst = g.edge_array()
        src, dst = src[src < dst], dst[src < dst]  # one arc per edge
        upath = tmp_path / "u.txt"
        upath.write_text(
            f"0 + 0 {g.num_vertices - 1} 2.5\n"
            f"1 - {src[7]} {dst[7]}\n"
            f"1 - {src[90]} {dst[90]}\n"
        )
        batches = load_update_stream(upath)
        assert [b.insert_weights is None for b in batches] == [False, True]
        rc = cli_main(
            [
                "stream", "sssp", "--dataset", "stream-road", "--updates",
                str(upath), "--workers", "2", "--json",
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["batch_size"] for r in rows] == [0, 1, 2]

    def test_run_process_executor_with_recovery(self, capsys):
        rc = cli_main(
            [
                "run", "wcc", "--dataset", "facebook", "--workers", "4",
                "--executor", "process", "--checkpoint-every", "2",
                "--fail", "1:3", "--recovery", "confined", "--json",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["executor"] == "process"
        assert out["failures"] == 1 and out["checkpoint_bytes"] > 0

    def test_stream_bad_updates_file(self, stream_file, tmp_path, capsys):
        gpath, _ = stream_file
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        rc = cli_main(
            ["stream", "wcc", "--graph", gpath, "--updates", str(bad)]
        )
        assert rc == 2
        assert "bad --updates" in capsys.readouterr().err

    def test_stream_deleting_missing_edge_fails_cleanly(self, stream_file, tmp_path, capsys):
        gpath, _ = stream_file
        upd = tmp_path / "missing.txt"
        upd.write_text("0 - 0 199\n0 - 199 0\n")
        rc = cli_main(
            ["stream", "wcc", "--graph", gpath, "--updates", upd.as_posix()]
        )
        assert rc in (1, 0)  # 1 unless that edge happens to exist
        if rc == 1:
            assert "stream application failed" in capsys.readouterr().err
