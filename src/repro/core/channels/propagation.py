"""``Propagation``: accelerated label propagation (Fig. 7).

A simplified GAS model for propagation-based algorithms (connected
components, reachability labels, SSSP relaxation): each vertex holds a
value, and an update to a vertex is folded into its out-neighbors with a
commutative, *idempotent* combiner (min/max-style selection).  Instead of
one neighbor hop per superstep, every worker drives the propagation to a
**local fixpoint** between buffer exchanges, and the channel keeps
requesting exchange rounds until no worker has pending remote updates —
the whole propagation converges inside a single superstep, like a
Blogel block program but without user-written block code.

The combiner must be a selection operation (``h(a, a) == a``); this is the
class of computations the paper targets with this channel.  An optional
vectorized ``edge_fn(weights, values) -> contributions`` generalizes to
weighted relaxations (SSSP's ``dist + w``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.channel import Channel
from repro.core.channels._edges import StaticEdges
from repro.core.channels._records import emit_records, receive_records
from repro.core.combiner import Combiner
from repro.core.vertex import Vertex
from repro.core.worker import Worker
from repro.util import csr_group, expand_ranges, group_starts

__all__ = ["Propagation"]


class Propagation(StaticEdges, Channel):
    """Propagate values to a global fixpoint within one superstep.

    Its edges are a :class:`StaticEdges` set with one more column, the
    weight ``edge_fn`` sees.

    Parameters
    ----------
    worker:
        Owning worker.
    combiner:
        Idempotent selection combiner (e.g. ``MIN_I64``); must carry a
        ufunc — the local fixpoint is fully vectorized.  One that is not a
        selection on a probe of its identity and a few small values
        (``ufunc(x, x) != x``, as a sum) is refused.
    edge_fn:
        Optional vectorized ``(edge_weights, source_values) ->
        contributions``.  Default propagates the source value unchanged.
    """

    _EDGE_COLUMNS = {**StaticEdges._EDGE_COLUMNS, "edge_w": np.float64}

    def __init__(
        self,
        worker: Worker,
        combiner: Combiner,
        edge_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        Channel.__init__(self, worker)
        self._init_edges()
        if combiner.ufunc is None:
            raise ValueError("Propagation requires a combiner with a NumPy ufunc")
        if not combiner.is_selection:
            raise ValueError(
                f"Propagation requires a selection combiner (h(a, a) == a); "
                f"{combiner.name} is not one"
            )
        self.combiner = combiner
        self.edge_fn = edge_fn
        self.value_codec = combiner.codec
        n = worker.num_local
        self._values = np.full(n, combiner.identity, dtype=combiner.codec.dtype)
        self._dirty: list[int] = []
        # local CSR, built lazily from the edge set
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        self._edst_global = np.empty(0, dtype=np.int64)
        self._edst_local = np.empty(0, dtype=np.int64)  # -1 when remote
        self._eweight = np.empty(0, dtype=np.float64)
        # pending remote contributions (flat, combined lazily per peer)
        self._pending_np: list[tuple[np.ndarray, np.ndarray]] = []

    # -- setup ------------------------------------------------------------
    def add_edge(self, v: Vertex, dst: int, weight: float = 1.0) -> None:
        """Register a propagation edge ``v -> dst``."""
        self.add_edges(v, (dst,), (weight,))

    def add_edges(self, v: Vertex, dsts: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Register ``v -> dsts[i]`` with weight ``weights[i]`` (1.0 when
        omitted); a weight list of another length is a ``ValueError``."""
        dsts = np.asarray(dsts).tolist()
        if weights is None:
            weights = [1.0] * len(dsts)
        else:
            weights = np.asarray(weights, dtype=np.float64).tolist()
        if len(weights) != len(dsts):
            raise ValueError(
                f"{self!r}: {len(weights)} weights for {len(dsts)} edges of vertex {v.id}"
            )
        src, dst, w = self._edges.rows
        src.extend([v.local] * len(dsts))
        dst.extend(dsts)
        w.extend(weights)
        self._built = False

    def set_value(self, v: Vertex, value) -> None:
        """Seed ``v``'s value; it becomes a propagation source this
        superstep."""
        self._values[v.local] = value
        self._dirty.append(v.local)

    def get_value(self, v: Vertex):
        """The converged value of ``v`` (valid once propagation finished,
        i.e. from the next superstep on)."""
        return self._values[v.local]

    def reset(self) -> None:
        """Clear edges and values for reuse in a later phase.

        Extension over the paper's API: multi-phase algorithms (e.g.
        Min-Label SCC) re-run propagation on a shrinking subgraph each
        iteration, which needs the channel to be re-seedable.
        """
        self._init_edges()
        self._values[:] = self.combiner.identity
        self._dirty = []
        self._pending_np = []

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            **self._edges_snapshot(),
            "values": self._values.copy(),
            "dirty": list(self._dirty),
            "pending": [(d.copy(), v.copy()) for d, v in self._pending_np],
        }

    def restore(self, state: dict) -> None:
        self._edges_restore(state)
        self._values[...] = state["values"]
        self._dirty = list(state["dirty"])
        self._pending_np = [(d, v) for d, v in state["pending"]]

    # -- structure -----------------------------------------------------------
    def _build(self) -> None:
        src, dst, w = self._checked_edges()
        self._indptr, order = csr_group(src, self.worker.num_local)
        dst = dst[order]
        self._edst_global = dst
        self._edst_local = self.worker.local_index(dst)
        self._eweight = w[order]
        self._built = True

    # -- the local fixpoint (vectorized frontier relaxation) -------------------
    def _local_fixpoint(self, frontier: np.ndarray) -> None:
        values = self._values
        indptr = self._indptr
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            eidx = expand_ranges(indptr[frontier], counts)
            if eidx.size == 0:
                return
            contrib = values[np.repeat(frontier, counts)]
            if self.edge_fn is not None:
                contrib = np.asarray(
                    self.edge_fn(self._eweight[eidx], contrib),
                    dtype=self.value_codec.dtype,
                )
            tgt_local = self._edst_local[eidx]
            remote = tgt_local < 0
            if remote.any():
                self._pending_np.append(
                    (self._edst_global[eidx[remote]], contrib[remote])
                )
            lmask = ~remote
            if not lmask.any():
                return
            frontier = self._apply(*self._fold_by_key(tgt_local[lmask], contrib[lmask]))
            if frontier.size:
                self.worker.activate_local_bulk(frontier)

    def _apply(self, local: np.ndarray, contrib: np.ndarray) -> np.ndarray:
        """Fold ``contrib[i]`` into the value of (distinct) ``local[i]``;
        returns the local indices whose value changed."""
        old = self._values[local]
        new = self.combiner.ufunc(old, contrib)
        changed = new != old
        self._values[local[changed]] = new[changed]
        return local[changed]

    def _fold_by_key(self, keys: np.ndarray, vals: np.ndarray):
        """``(unique keys, combined value per key)``."""
        order = np.argsort(keys, kind="stable")
        uniq, starts = group_starts(keys[order])
        return uniq, self.combiner.ufunc.reduceat(vals[order], starts)

    # -- round protocol -----------------------------------------------------
    def serialize(self) -> None:
        if self.round == 0:
            if not self._built:
                self._build()
            if self._dirty:
                frontier = np.unique(np.asarray(self._dirty, dtype=np.int64))
                self._dirty = []
                self._local_fixpoint(frontier)
        if not self._pending_np:
            return
        # pending remote contributions, combined per unique destination
        uniq, folded = self._fold_by_key(
            np.concatenate([d for d, _ in self._pending_np]),
            np.concatenate([v for _, v in self._pending_np]),
        )
        self._pending_np = []
        owners = self.worker.owner[uniq]
        emit_records(
            self,
            (
                (peer, uniq[owners == peer], folded[owners == peer])
                for peer in range(self.num_workers)
            ),
        )

    def deserialize(self, payloads: list[tuple[int, memoryview]]) -> None:
        self.round += 1
        changed_all = [self._apply(*receive_records(self, src, p)) for src, p in payloads]
        if changed_all:
            frontier = np.unique(np.concatenate(changed_all))
            self.worker.activate_local_bulk(frontier)
            self._local_fixpoint(frontier)

    def again(self) -> bool:
        return bool(self._pending_np)
