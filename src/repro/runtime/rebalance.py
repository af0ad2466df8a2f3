"""Adaptive load rebalancing: straggler-driven vertex migration.

The cost model makes load imbalance the dominant wall-time term — one
exchange round costs the *max* over workers
(:mod:`repro.runtime.costmodel`), so a single skewed partition drags
every superstep.  This module closes the telemetry loop:

* :func:`phase_matrix` turns a run's per-superstep, per-worker phase
  timings (:class:`~repro.runtime.metrics.MetricsCollector`) into the
  ``supersteps x workers`` matrix
  :func:`~repro.obs.stats.straggler_scores` expects;
* :class:`RebalancePolicy` watches that matrix, and when the observed
  skew and the structural arc imbalance both clear its thresholds, emits
  an :class:`OwnershipPlan` that moves **contiguous vertex ranges**
  (weighted by ``indptr`` arc counts, the same balancing currency as
  :func:`~repro.graph.partition.degree_range_partition`) from overloaded
  to underloaded workers — with hysteresis (minimum estimated win,
  cooldown) so it never thrashes;
* :class:`MigrationContext` + :func:`remap_worker_states` re-key live
  worker state (program arrays, halted/woken flags, per-channel
  snapshots in the checkpoint capture format) from the old ownership to
  the new one, so a run can migrate at a superstep barrier and resume
  with bit-identical results.

Everything here is deterministic: the same owner/indptr/matrix inputs
produce the same plan on every backend, which is what makes the
sim/process parity guarantees extend to migrated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.costmodel import DEFAULT_NETWORK, NetworkModel

__all__ = [
    "MigrationContext",
    "OwnershipPlan",
    "RebalancePolicy",
    "phase_matrix",
    "remap_worker_states",
]

#: phases that measure per-worker *work* (exchange time is shared/maxed
#: by construction, barrier time measures waiting, not load)
WORK_PHASES = ("compute", "serialize")


def phase_matrix(metrics, phases=WORK_PHASES, window: int | None = None) -> np.ndarray:
    """Per-superstep, per-worker seconds spent in ``phases``, summed.

    Returns a float array of shape ``(supersteps, num_workers)`` — the
    exact input :func:`~repro.obs.stats.straggler_scores` wants.  With
    ``window`` only the most recent supersteps are used.  A run with no
    finished supersteps yields shape ``(0, num_workers)``, which scores
    to all-ones (no straggler evidence — the policy declines).
    """
    records = metrics.records
    if window is not None:
        records = records[-int(window) :]
    n = metrics.num_workers
    if not records:
        return np.zeros((0, n), dtype=np.float64)
    rows = np.zeros((len(records), n), dtype=np.float64)
    for i, rec in enumerate(records):
        for phase in phases:
            vals = rec.phases.get(phase)
            if vals is not None:
                rows[i] += np.asarray(vals, dtype=np.float64)
    return rows


@dataclass(frozen=True)
class OwnershipPlan:
    """A concrete migration: the new partition plus its bookkeeping.

    ``moves`` lists ``(start, stop, src, dst)`` half-open vertex-id
    ranges; every vertex in ``[start, stop)`` leaves ``src`` for
    ``dst``.  Loads are in arc-weight units (``arcs + 1`` per vertex);
    the time estimates come from the policy's cost model.
    """

    new_owner: np.ndarray
    moves: tuple
    moved_vertices: int
    moved_arcs: int
    max_load_before: int
    max_load_after: int
    gain_ratio: float
    scores: np.ndarray
    est_win_seconds: float  # per remaining superstep, cost-model estimate
    migrate_seconds: float  # one-off state-shipping cost estimate

    def summary(self) -> dict:
        return {
            "moves": len(self.moves),
            "moved_vertices": int(self.moved_vertices),
            "moved_arcs": int(self.moved_arcs),
            "max_load_before": int(self.max_load_before),
            "max_load_after": int(self.max_load_after),
            "gain_ratio": float(self.gain_ratio),
            "est_win_seconds": float(self.est_win_seconds),
            "migrate_seconds": float(self.migrate_seconds),
        }


@dataclass
class RebalancePolicy:
    """Decides *whether* and *how* to migrate, with hysteresis.

    :meth:`propose` fires only when every gate passes:

    1. not cooling down from a previous migration (``cooldown``);
    2. at least ``min_supersteps`` observed supersteps (degenerate
       inputs — empty runs, one-superstep runs — never migrate);
    3. the observed straggler score clears ``skew_threshold``
       (all-zero phase matrices score to ones and never fire);
    4. the greedy range balancer finds moves whose structural
       ``max_load_before / max_load_after`` clears ``min_gain``.

    The balancer works on the same currency as
    :func:`~repro.graph.partition.degree_range_partition` — per-vertex
    weight ``arcs + 1`` — and moves only contiguous runs of the current
    ownership, so migrated partitions stay range-shaped where they
    started range-shaped.  The proposal is a pure function of
    ``(owner, indptr, matrix)`` plus the cooldown counter, making
    migration sequences reproducible across backends.
    """

    num_workers: int
    skew_threshold: float = 1.2
    min_gain: float = 1.1
    cooldown: int = 1
    window: int = 8
    min_supersteps: int = 2
    state_bytes_per_vertex: int = 64
    network: NetworkModel = DEFAULT_NETWORK
    _cooldown_left: int = field(default=0, init=False, repr=False)

    def propose(
        self, owner: np.ndarray, indptr: np.ndarray, matrix: np.ndarray
    ) -> OwnershipPlan | None:
        """Return a migration plan, or ``None`` to leave ownership alone."""
        # deferred: the obs package pulls in the live plane, which reaches
        # back into runtime.parallel — importing it at module scope would
        # close an import cycle through the executor
        from repro.obs.stats import straggler_scores

        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return None
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < self.min_supersteps:
            return None
        scores = straggler_scores(matrix)
        if scores.size == 0 or float(scores.max()) < self.skew_threshold:
            return None

        owner = np.asarray(owner, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        arcs = np.diff(indptr)
        weights = arcs + 1  # +1: isolated vertices still carry state
        new_owner, moves, max_before, max_after = self._balance(owner, weights)
        if not moves:
            return None
        gain_ratio = max_before / max_after if max_after > 0 else 1.0
        if gain_ratio < self.min_gain:
            return None

        changed = new_owner != owner
        moved_vertices = int(changed.sum())
        moved_arcs = int(arcs[changed].sum())
        # per-arc-weight seconds, averaged over the observed window: the
        # matrix row sum is total work per superstep across all workers
        total_weight = int(weights.sum())
        per_weight = float(matrix.mean(axis=0).sum()) / total_weight
        est_win = per_weight * (max_before - max_after)
        # one-off migration cost: each worker ships/receives the state
        # of the vertices it loses/gains, modeled like an exchange round
        send = np.zeros(self.num_workers, dtype=np.int64)
        recv = np.zeros(self.num_workers, dtype=np.int64)
        np.add.at(send, owner[changed], self.state_bytes_per_vertex)
        np.add.at(recv, new_owner[changed], self.state_bytes_per_vertex)
        migrate_seconds = self.network.exchange_time(send, recv)

        self._cooldown_left = self.cooldown
        return OwnershipPlan(
            new_owner=new_owner,
            moves=tuple(moves),
            moved_vertices=moved_vertices,
            moved_arcs=moved_arcs,
            max_load_before=int(max_before),
            max_load_after=int(max_after),
            gain_ratio=float(gain_ratio),
            scores=scores,
            est_win_seconds=float(est_win),
            migrate_seconds=float(migrate_seconds),
        )

    # -- the balancer --------------------------------------------------------
    def _balance(self, owner: np.ndarray, weights: np.ndarray):
        """Greedy suffix-shedding over contiguous ownership runs.

        Overloaded workers (load above the all-worker mean) shed
        suffixes of their contiguous vertex runs to the currently most
        underloaded worker, sized by the run's reversed cumulative
        weights so no recipient is pushed past the mean.  The max load
        never increases (every transfer lands below the old max), and
        every iteration either moves at least one vertex or stops, so
        the loop terminates.  Fully deterministic.
        """
        n = owner.size
        num = self.num_workers
        loads = np.zeros(num, dtype=np.int64)
        if n:
            np.add.at(loads, owner, weights.astype(np.int64, copy=False))
        total = int(loads.sum())
        new_owner = owner.copy()
        moves: list[tuple[int, int, int, int]] = []
        max_before = int(loads.max()) if num else 0
        if total == 0 or num < 2:
            return new_owner, moves, max_before, max_before

        target = total / num
        # contiguous runs of the *current* ownership
        bounds = np.flatnonzero(np.diff(owner)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        runs_of: list[list[tuple[int, int]]] = [[] for _ in range(num)]
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            runs_of[int(owner[lo])].append((lo, hi))

        worker_ids = np.arange(num)
        order = sorted(range(num), key=lambda w: (-int(loads[w]), w))
        for src in order:
            if loads[src] <= target:
                continue
            for lo, hi in reversed(runs_of[src]):
                while hi > lo and loads[src] > target:
                    masked = np.where(worker_ids == src, np.iinfo(np.int64).max, loads)
                    dst = int(np.argmin(masked))
                    if loads[dst] >= target:
                        break  # nobody left with room
                    excess = float(loads[src]) - target
                    room = target - float(loads[dst])
                    amount = min(excess, room)
                    avail = np.cumsum(weights[lo:hi][::-1])
                    take = int(np.searchsorted(avail, amount, side="right"))
                    if take == 0:
                        # the boundary vertex alone overshoots the room;
                        # still safe iff it fits inside src's excess
                        # (then dst lands strictly below the old max)
                        if float(avail[0]) <= excess:
                            take = 1
                        else:
                            break
                    moved = int(avail[take - 1])
                    cut = hi - take
                    new_owner[cut:hi] = dst
                    loads[src] -= moved
                    loads[dst] += moved
                    moves.append((cut, hi, src, dst))
                    hi = cut
                if loads[src] <= target:
                    break
        return new_owner, moves, max_before, int(loads.max())


class MigrationContext:
    """Index bookkeeping for re-keying worker state across an ownership
    change.

    ``old_locals[w]`` / ``new_locals[w]`` are each worker's sorted
    global vertex ids before / after the migration — exactly the
    ``np.flatnonzero(owner == w)`` order :class:`~repro.core.worker.Worker`
    uses for its local arrays, so gather/scatter by these index sets is
    the complete per-vertex remap.
    """

    def __init__(
        self, old_owner: np.ndarray, new_owner: np.ndarray, num_workers: int
    ) -> None:
        self.old_owner = np.asarray(old_owner, dtype=np.int64)
        self.new_owner = np.asarray(new_owner, dtype=np.int64)
        if self.old_owner.shape != self.new_owner.shape:
            raise ValueError("old and new ownership must cover the same vertices")
        self.num_vertices = int(self.old_owner.size)
        self.num_workers = int(num_workers)
        self.old_locals = [
            np.flatnonzero(self.old_owner == w) for w in range(self.num_workers)
        ]
        self.new_locals = [
            np.flatnonzero(self.new_owner == w) for w in range(self.num_workers)
        ]

    # -- per-vertex arrays ---------------------------------------------------
    def gather(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Stitch per-old-worker local arrays into one global array."""
        first = np.asarray(arrays[0])
        glob = np.zeros((self.num_vertices,) + first.shape[1:], dtype=first.dtype)
        for w, arr in enumerate(arrays):
            glob[self.old_locals[w]] = arr
        return glob

    def scatter(self, glob: np.ndarray) -> list[np.ndarray]:
        """Slice a global array into per-new-worker local arrays."""
        return [glob[self.new_locals[w]].copy() for w in range(self.num_workers)]

    def remap_vertex_arrays(self, arrays: list[np.ndarray]) -> list[np.ndarray]:
        return self.scatter(self.gather(arrays))

    def remap_keys(self, states: list[dict], keys) -> list[dict]:
        """Per new worker, ``{key: remapped per-vertex array}`` for the
        per-vertex arrays stored under ``keys`` in every old worker's
        state dict."""
        cols = [self.remap_vertex_arrays([s[key] for s in states]) for key in keys]
        return [
            {key: col[w] for key, col in zip(keys, cols)}
            for w in range(self.num_workers)
        ]

    # -- row-keyed payloads (edges, message inboxes) -------------------------
    def route(self, gids: np.ndarray, *payloads: np.ndarray):
        """Split rows by the new owner of ``gids``, preserving order.

        Yields ``(w, gids_w, payloads_w)`` for every worker (empty
        selections included) — the migration analogue of the exchange
        phase's per-peer buffers.
        """
        gids = np.asarray(gids, dtype=np.int64)
        dest = self.new_owner[gids] if gids.size else np.empty(0, dtype=np.int64)
        for w in range(self.num_workers):
            mask = dest == w
            yield w, gids[mask], tuple(np.asarray(p)[mask] for p in payloads)

    def localize(self, w: int, gids: np.ndarray) -> np.ndarray:
        """Global ids -> worker ``w``'s new local ids (gids must be owned
        by ``w`` under the new partition)."""
        return np.searchsorted(self.new_locals[w], np.asarray(gids, dtype=np.int64))


def remap_worker_states(states: list[dict], ctx: MigrationContext, channels) -> list[dict]:
    """Re-key captured worker states (checkpoint capture format) from the
    old ownership to the new one.

    ``states[w]`` is ``capture_worker_state(worker_w)`` under the *old*
    partition; the return value is loadable via ``load_worker_state``
    into workers rebuilt under the *new* partition.  Program-state keys
    are treated as per-vertex exactly when every worker holds an ndarray
    whose leading dimension equals its old local-vertex count; anything
    else passes through per worker unchanged (scalars, per-worker
    scratch).  Channel snapshots dispatch to each channel's
    ``migrate_states``.
    """
    num = ctx.num_workers
    old_counts = [ctx.old_locals[w].size for w in range(num)]
    out: list[dict] = [{"program": {}, "flags": {}, "channels": []} for _ in range(num)]

    for key in states[0]["program"]:
        vals = [s["program"][key] for s in states]
        per_vertex = all(
            isinstance(v, np.ndarray) and v.ndim >= 1 and v.shape[0] == old_counts[w]
            for w, v in enumerate(vals)
        )
        if per_vertex:
            remapped = ctx.remap_vertex_arrays(vals)
            for w in range(num):
                out[w]["program"][key] = remapped[w]
        else:
            for w in range(num):
                out[w]["program"][key] = vals[w]

    flags = ctx.remap_keys([s["flags"] for s in states], ("halted", "woken"))
    for w in range(num):
        out[w]["flags"] = flags[w]

    for cid, channel in enumerate(channels):
        migrated = channel.migrate_states([s["channels"][cid] for s in states], ctx)
        for w in range(num):
            out[w]["channels"].append(migrated[w])
    return out
