"""User-facing program base class.

A :class:`VertexProgram` plays the role of the paper's ``Worker`` subclass
(e.g. ``PageRankWorker`` in Fig. 1): its constructor creates the channels,
``compute`` holds the per-vertex logic.  One instance is created per worker
by the engine, so instance attributes are per-worker state (the idiomatic
place for NumPy state arrays indexed by ``v.local``).

Differences from the paper's C++ API, by design:

* channel methods that refer to "the current vertex" take the
  :class:`~repro.core.vertex.Vertex` handle explicitly — explicit data flow
  is both more Pythonic and directly testable;
* per-vertex state lives in program-owned arrays rather than a
  ``value()`` struct, per the NumPy idiom of keeping hot state columnar.

Two compute paths exist (see ARCHITECTURE.md for when to use which):

* :class:`VertexProgram` — ``compute(v)`` is called once per active vertex.
* :class:`BulkVertexProgram` — ``compute_bulk(active)`` is called once per
  worker per superstep with the whole active set as a NumPy index array.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.vertex import Vertex
    from repro.core.worker import Worker

#: state value types the generic ``state_dict`` captures besides arrays
_SCALAR_STATE = (bool, int, float, str, bytes, np.bool_, np.integer, np.floating)

__all__ = ["VertexProgram", "BulkVertexProgram", "ProgramSpec", "VertexResults"]


class VertexResults(Mapping):
    """Read-only ``{global vertex id: value}`` kept as the two parallel
    arrays it came from.

    Results stay arrays from ``finalize`` to the caller: workers' parts
    are concatenated (:meth:`merged`), a process worker ships the two
    arrays, and :func:`repro.algorithms._common.gather` scatters
    ``array`` by ``ids``.  Read as a mapping, it builds — once, on first
    use — the ``dict`` the arrays stand for: keys and values plain Python
    ``int``/``float``/``bool`` as ``ndarray.tolist()`` converts them, in
    array order, a later duplicate id replacing an earlier one.
    """

    __slots__ = ("ids", "array", "_dict")

    def __init__(self, ids: np.ndarray, array: np.ndarray) -> None:
        self.ids = ids
        self.array = array
        self._dict: dict | None = None

    @staticmethod
    def merged(parts: Iterable[Mapping]) -> Mapping:
        """The workers' ``finalize`` outputs as one mapping, later parts
        replacing earlier ones key by key: still arrays (copies, detached
        from program state) when every part is, else a plain ``dict``."""
        parts = list(parts)
        if (
            parts
            and all(isinstance(part, VertexResults) for part in parts)
            and len({part.array.dtype for part in parts}) == 1
        ):
            return VertexResults(
                np.concatenate([part.ids for part in parts]),
                np.concatenate([part.array for part in parts]),
            )
        data: dict = {}
        for part in parts:
            data.update(part.items())
        return data

    def _mapping(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(self.ids.tolist(), self.array.tolist()))
        return self._dict

    def __getitem__(self, key):
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self._mapping())

    # the dict's own views: the Mapping mixins would index once per element
    def keys(self):
        return self._mapping().keys()

    def values(self):
        return self._mapping().values()

    def items(self):
        return self._mapping().items()

    def __repr__(self) -> str:
        return f"VertexResults({self._mapping()!r})"


class ProgramSpec:
    """A parametrized program factory as *data*: an importable base class
    and the class attributes its programs carry.

    ``ProgramSpec(PageRankBasic, {"iterations": 10})(worker)`` builds
    that worker's program from a subclass of ``PageRankBasic`` whose
    ``iterations`` is 10.  The subclass is built once, on the spec's
    first call, and serves every worker after it, so the workers of one
    run share one program class.  Parameters stay class attributes: the
    generic :meth:`VertexProgram.state_dict` captures instance state
    only, so no checkpoint holds them.

    A spec pickles as ``(base, attrs, name)`` — the base by reference (it
    must be importable), the attributes by value — and a process that
    unpickles it builds the subclass there, once.  That is what lets a
    persistent worker pool load another run's program over its control
    pipe (:meth:`repro.runtime.parallel.pool.WorkerPool.ensure`).
    Every worker of a process sees the same attribute objects (each
    process its own copy, as with any cross-process state).
    """

    __slots__ = ("base", "attrs", "name", "_cls")

    def __init__(self, base: type, attrs: dict | None = None, name: str | None = None):
        self.base = base
        self.attrs = dict(attrs) if attrs else {}
        self.name = name or base.__name__
        self._cls: type | None = None

    def __call__(self, worker: "Worker"):
        if self._cls is None:
            self._cls = type(self.name, (self.base,), self.attrs)
        return self._cls(worker)

    def __reduce__(self):
        return ProgramSpec, (self.base, self.attrs, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProgramSpec({self.base.__module__}.{self.base.__qualname__}, "
            f"attrs={sorted(self.attrs)})"
        )


def _holds_channels(value) -> bool:
    """A channel, or a non-empty list/tuple of them (nested)."""
    from repro.core.channel import Channel

    if isinstance(value, (list, tuple)):
        return bool(value) and all(map(_holds_channels, value))
    return isinstance(value, Channel)


def _capturable(value) -> bool:
    if value is None or isinstance(value, (np.ndarray,) + _SCALAR_STATE):
        return True
    if isinstance(value, (list, tuple)):
        return all(_capturable(v) for v in value)
    if isinstance(value, dict):
        return all(_capturable(k) and _capturable(v) for k, v in value.items())
    return False


class VertexProgram:
    """Base class for channel-based vertex programs.

    The engine calls :meth:`compute` once per active vertex per superstep;
    see ARCHITECTURE.md for the layer map and the columnar alternative,
    :class:`BulkVertexProgram`.
    """

    #: dispatch flag read by :meth:`Worker.run_compute`
    is_bulk = False

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker

    # -- the algorithm ---------------------------------------------------
    def compute(self, v: "Vertex") -> None:
        raise NotImplementedError

    def before_superstep(self) -> None:
        """Called once per worker before every superstep, *including* ones
        where this worker has no active vertices.

        Multi-phase algorithms (Min-Label SCC, Boruvka MSF) use this as a
        distributed phase controller: every worker advances the same state
        machine from globally consistent inputs (aggregator results), and
        may wake vertices for the upcoming phase via
        ``self.worker.activate_local_bulk``.
        """

    def finalize(self) -> Mapping:
        """Called once after termination; return this worker's outputs
        (merged across workers into :class:`EngineResult.data`, see
        :meth:`VertexResults.merged`).  Keys are global vertex ids or
        named aggregates."""
        return {}

    def vertex_results(self, values: np.ndarray) -> VertexResults:
        """``{global id: values[local index]}`` over this worker's
        vertices, in local order — the usual :meth:`finalize` body.  The
        mapping holds ``values`` itself, not a copy."""
        return VertexResults(self.worker.local_ids, values)

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        """This worker's per-program state, for checkpointing.

        The default captures every instance attribute that is a NumPy
        array, a scalar (including str/bytes), ``None``, or a
        list/tuple/dict of those — which covers all in-tree programs,
        scalar and bulk alike, since per-vertex state lives in
        program-owned arrays.  Channels checkpoint themselves (the engine
        calls each channel's ``snapshot()`` separately) and the worker
        handle is re-bound on restore, so both are skipped here, as is a
        list or tuple of channels.

        Raises ``TypeError`` on any other attribute type rather than
        silently dropping state — programs holding exotic state must
        override this (and :meth:`load_state_dict`).
        """
        state = {}
        for name, value in vars(self).items():
            if name == "worker" or _holds_channels(value):
                continue
            if not _capturable(value):
                raise TypeError(
                    f"{type(self).__name__}.{name} ({type(value).__name__}) "
                    "is not checkpointable by the generic state_dict(); "
                    "override state_dict()/load_state_dict()"
                )
            state[name] = value.copy() if isinstance(value, np.ndarray) else value
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the attributes captured by :meth:`state_dict`.

        Same-shape arrays are copied **in place** so anything that
        aliased the old array (a channel ``respond_fn_bulk`` closure, a
        cached view) keeps seeing the restored state.
        """
        for name, value in state.items():
            current = getattr(self, name, None)
            if (
                isinstance(current, np.ndarray)
                and isinstance(value, np.ndarray)
                and current.shape == value.shape
                and current.dtype == value.dtype
            ):
                current[...] = value
            else:
                setattr(self, name, value.copy() if isinstance(value, np.ndarray) else value)

    # -- context helpers (mirror the paper's Worker API) --------------------
    @property
    def step_num(self) -> int:
        """1-based superstep number (the paper's ``step_num()``)."""
        return self.worker.step_num

    @property
    def num_vertices(self) -> int:
        """Total vertices in the graph (the paper's ``get_vnum()``)."""
        return self.worker.graph.num_vertices

    @property
    def num_local(self) -> int:
        """Vertices owned by this worker."""
        return self.worker.num_local


class BulkVertexProgram(VertexProgram):
    """Base class for columnar (whole-active-set) vertex programs.

    Instead of one ``compute(v)`` call per active vertex, the worker makes
    a single :meth:`compute_bulk` call per superstep, passing the sorted
    local indices of the active set.  Implementations operate on
    program-owned NumPy state arrays and the channels' array APIs
    (``set_messages``, ``send_messages``, ``get_messages``,
    ``add_edges_bulk`` / ``add_adjacency``, ``Aggregator.add_bulk``), plus
    the worker's vectorized control surface (``halt_bulk``,
    ``activate_local_bulk``, ``local_adjacency``).  ARCHITECTURE.md
    documents the porting recipe and the FP-ordering rules that keep bulk
    output bit-identical to the scalar original.
    """

    is_bulk = True

    def compute_bulk(self, active: "np.ndarray") -> None:
        """Run one superstep over the whole active set (sorted local
        indices).  Called exactly once per worker per superstep with a
        non-empty frontier."""
        raise NotImplementedError

    def compute(self, v: "Vertex") -> None:  # pragma: no cover - guard
        raise TypeError(
            f"{type(self).__name__} is a bulk program; the engine calls "
            "compute_bulk(active), never per-vertex compute()"
        )
