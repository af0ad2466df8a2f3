"""Run options, declared and validated once.

:class:`RunConfig` holds every *value* option of a run.  Both engines —
:class:`~repro.core.engine.ChannelEngine` and the streaming
:class:`~repro.streaming.epoch.EpochEngine` — take these names as
keywords and build one ``RunConfig`` from them; both CLI commands build
one from their flags before any graph is loaded or partitioned.  A bad
combination is therefore refused here and nowhere else.  A built config
is handed on by keyword expansion::

    config = RunConfig(num_workers=4, executor="process")
    ChannelEngine(graph, Program, partition=owner, **vars(config))

Resources — a partition array, a seed set, a worker pool, a trace
recorder, a live segment, a rebalance policy — are not options: they
stay plain keywords of the engine that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.recovery import FailureSchedule
from repro.runtime.costmodel import DEFAULT_NETWORK, NetworkModel

__all__ = [
    "EXECUTORS",
    "REBALANCE_MODES",
    "RECOVERY_MODES",
    "RunConfig",
]

#: execution backends (ARCHITECTURE.md §8)
EXECUTORS = ("sim", "process")

#: recovery modes (:mod:`repro.core.recovery`)
RECOVERY_MODES = ("rollback", "confined")

#: adaptive-rebalancing triggers (:mod:`repro.runtime.rebalance`)
REBALANCE_MODES = ("off", "epoch", "superstep")


@dataclass(frozen=True)
class RunConfig:
    """The value options of one run; construction is validation.

    Every field's domain is checked in :meth:`__post_init__`, which
    raises ``ValueError`` with a user-facing message.  ``failures`` is
    normalized on the way: it is coerced into a
    :class:`~repro.core.recovery.FailureSchedule` checked against
    ``num_workers``.  The process executor's byte mover is not a field:
    each worker pool derives it from the cores
    (:func:`~repro.runtime.parallel.pool.frame_mover`).
    """

    #: number of workers (the paper used an 8-node cluster)
    num_workers: int = 8
    #: ``"sim"`` runs every worker sequentially in-process with modeled
    #: parallelism; ``"process"`` runs each worker as a real OS process
    #: (:mod:`repro.runtime.parallel`).  Result data, per-channel
    #: traffic and byte/message totals are bit-identical, and every
    #: feature — checkpoints, injected failures, both recovery modes,
    #: rebalancing, streaming — runs on both
    executor: str = "sim"
    #: cost model for the simulated interconnect
    network: NetworkModel = DEFAULT_NETWORK
    #: take a checkpoint every ``k`` supersteps (plus one before the
    #: first superstep); ``None`` disables periodic checkpoints, though
    #: the superstep-0 one is still taken whenever ``failures`` is set
    checkpoint_every: int | None = None
    #: injected worker deaths: a :class:`~repro.core.recovery.FailureSchedule`
    #: or anything its constructor takes, e.g. ``[(3, 7)]`` or
    #: ``["3:7"]`` (worker 3 dies at the end of superstep 7)
    failures: FailureSchedule | None = None
    #: ``"rollback"`` (every worker reloads the latest checkpoint and
    #: re-executes) or ``"confined"`` (only the failed worker reloads and
    #: replays from the survivors' logged frames)
    recovery: str = "rollback"
    #: adaptive rebalancing (ARCHITECTURE.md §13): ``"superstep"``
    #: migrates vertex ownership mid-run at a superstep barrier;
    #: ``"epoch"`` re-partitions between streaming epochs (EpochEngine
    #: only); ``"off"`` disables both
    rebalance: str = "off"
    #: superstep cadence of the ``"superstep"`` trigger
    rebalance_every: int = 16

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_MODES}, got {self.recovery!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.rebalance not in REBALANCE_MODES:
            raise ValueError(
                f"rebalance must be one of {REBALANCE_MODES}, got {self.rebalance!r}"
            )
        if self.rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        failures = FailureSchedule.coerce(self.failures)
        if failures is not None:
            failures.validate(self.num_workers)
        object.__setattr__(self, "failures", failures)
