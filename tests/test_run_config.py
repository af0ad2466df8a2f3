"""Run options are declared and validated once, in :class:`RunConfig`.

One table of invalid option sets is asserted on every surface that takes
them: ``RunConfig`` itself, both engines, and both CLI commands (exit 2
with the same message, before any graph is loaded or partitioned).
"""

from __future__ import annotations

import pytest

from helpers import line_graph
from repro.__main__ import main as cli_main
from repro.algorithms.wcc import WCCBasicBulk
from repro.core import ChannelEngine, RunConfig
from repro.runtime.costmodel import NetworkModel
from repro.streaming import EpochEngine, WCCStream

#: (options, message, CLI flags, CLI message): the CLI message differs
#: only where argparse's ``choices`` (the config's domain constants)
#: refuse the value before RunConfig sees it
INVALID = [
    pytest.param(
        dict(num_workers=0),
        "need at least one worker",
        ["--workers", "0"],
        "need at least one worker",
        id="no-workers",
    ),
    pytest.param(
        dict(executor="threads"),
        "executor must be one of",
        ["--executor", "threads"],
        "invalid choice",
        id="executor",
    ),
    pytest.param(
        dict(recovery="optimistic"),
        "recovery must be one of",
        ["--recovery", "optimistic"],
        "invalid choice",
        id="recovery",
    ),
    pytest.param(
        dict(checkpoint_every=0),
        "checkpoint_every must be >= 1",
        ["--checkpoint-every", "0"],
        "checkpoint_every must be >= 1",
        id="checkpoint-every",
    ),
    pytest.param(
        dict(num_workers=2, failures=["7:3"]),
        "kills worker 7 at superstep 3, but the engine has only 2 workers",
        ["--workers", "2", "--fail", "7:3"],
        "kills worker 7 at superstep 3, but the engine has only 2 workers",
        id="fail-unknown-worker",
    ),
    pytest.param(
        dict(num_workers=2, failures=[(0, 1), (1, 1)]),
        "at least one must survive",
        ["--workers", "2", "--fail", "0:1", "--fail", "1:1"],
        "at least one must survive",
        id="fail-everyone",
    ),
    pytest.param(
        dict(failures=["x"]),
        "bad failure spec",
        ["--fail", "x"],
        "bad failure spec",
        id="fail-spec",
    ),
]

#: flags only `repro run` declares (a stream takes no fault tolerance)
_RUN_ONLY = {"--checkpoint-every", "--fail", "--recovery"}
STREAM_INVALID = [p for p in INVALID if not _RUN_ONLY & set(p.values[2])]


def _cli(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse refused the flags
        code = exc.code
    return code, capsys.readouterr().err


@pytest.fixture
def updates(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("0 + 0 1\n")
    return str(path)


@pytest.mark.parametrize("options, message, flags, cli_message", INVALID)
class TestInvalidOptions:
    def test_run_config(self, options, message, flags, cli_message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**options)

    def test_channel_engine(self, options, message, flags, cli_message):
        with pytest.raises(ValueError, match=message):
            ChannelEngine(line_graph(4), WCCBasicBulk, **options)

    def test_epoch_engine(self, options, message, flags, cli_message):
        with pytest.raises(ValueError, match=message):
            EpochEngine(line_graph(4), WCCStream(), **options)

    def test_repro_run(self, options, message, flags, cli_message, capsys):
        # --partition metis: the partitioner must never see a bad config
        argv = ["run", "wcc", "--dataset", "tree", "--partition", "metis", *flags]
        code, err = _cli(argv, capsys)
        assert code == 2
        assert cli_message in err


@pytest.mark.parametrize("options, message, flags, cli_message", STREAM_INVALID)
def test_repro_stream(options, message, flags, cli_message, updates, capsys):
    argv = ["stream", "wcc", "--dataset", "tree", "--updates", updates, *flags]
    code, err = _cli(argv, capsys)
    assert code == 2
    assert cli_message in err


def test_one_config_round_trips_through_both_engines():
    config = RunConfig(
        num_workers=2,
        executor="process",
        network=NetworkModel(latency=2e-3),
    )
    assert RunConfig(**vars(config)) == config
    # neither engine spawns a worker process before it runs
    assert ChannelEngine(line_graph(4), WCCBasicBulk, **vars(config)).config == config
    assert EpochEngine(line_graph(4), WCCStream(), **vars(config)).config == config


@pytest.mark.parametrize(
    "surface",
    [
        RunConfig,
        lambda **kw: ChannelEngine(line_graph(4), WCCBasicBulk, **kw),
        lambda **kw: EpochEngine(line_graph(4), WCCStream(), **kw),
    ],
    ids=["run-config", "channel-engine", "epoch-engine"],
)
def test_the_byte_mover_is_not_an_option(surface):
    """The process executor's frame mover is the worker pool's rule on the
    cores: no config field, engine keyword or CLI flag takes it."""
    with pytest.raises(TypeError, match="transport"):
        surface(executor="process", transport="pipe")


@pytest.mark.parametrize("command", ["run", "stream"])
def test_the_byte_mover_is_not_a_flag(command, updates, capsys):
    argv = [command, "wcc", "--dataset", "tree"]
    if command == "stream":
        argv += ["--updates", updates]
    code, err = _cli([*argv, "--executor", "process", "--transport", "pipe"], capsys)
    assert code == 2
    assert "unrecognized arguments: --transport pipe" in err


@pytest.mark.parametrize(
    "surface",
    [
        RunConfig,
        lambda **kw: ChannelEngine(line_graph(4), WCCBasicBulk, **kw),
        lambda **kw: EpochEngine(line_graph(4), WCCStream(), **kw),
    ],
    ids=["run-config", "channel-engine", "epoch-engine"],
)
def test_placement_is_not_an_option(surface):
    """Ownership is fixed for a run: the partition is the only placement,
    and no config field or engine keyword moves a vertex mid-run."""
    for name, value in (("rebalance", "superstep"), ("rebalance_every", 2),
                        ("rebalance_policy", object())):
        with pytest.raises(TypeError, match=name):
            surface(num_workers=2, **{name: value})


@pytest.mark.parametrize("command", ["run", "stream"])
def test_placement_is_not_a_flag(command, updates, capsys):
    argv = [command, "wcc", "--dataset", "tree"]
    if command == "stream":
        argv += ["--updates", updates]
    code, err = _cli([*argv, "--rebalance", "superstep"], capsys)
    assert code == 2
    assert "unrecognized arguments: --rebalance superstep" in err


def test_compaction_is_not_an_option():
    """A stream keeps one CSR graph, rebuilt by every batch: no overlay
    is left to compact, so no engine keyword sets when."""
    with pytest.raises(TypeError, match="compact_threshold"):
        EpochEngine(line_graph(4), WCCStream(), num_workers=2, compact_threshold=0.25)


def test_compaction_is_not_a_flag(updates, capsys):
    argv = ["stream", "wcc", "--dataset", "tree", "--updates", updates]
    code, err = _cli([*argv, "--compact-threshold", "0.5"], capsys)
    assert code == 2
    assert "unrecognized arguments: --compact-threshold 0.5" in err


@pytest.mark.parametrize(
    "options", [dict(checkpoint_every=2), dict(failures=[(1, 3)]), dict(recovery="confined")]
)
def test_epoch_engine_refuses_fault_tolerance(options):
    with pytest.raises(ValueError, match="no fault-tolerance options"):
        EpochEngine(line_graph(4), WCCStream(), num_workers=2, **options)


def test_run_takes_only_max_supersteps():
    engine = ChannelEngine(line_graph(4), WCCBasicBulk, num_workers=2)
    with pytest.raises(TypeError):
        engine.run(checkpoint_every=2)
