"""The Palgol-lite → channel-program compiler.

Compilation has three parts:

1. **Pattern analysis** — walk the body and collect every
   :class:`NeighborReduce`, :class:`RemoteRead`, and
   :class:`RemoteUpdate`.  Communication expressions are *hoisted*: they
   are issued unconditionally at the start of each round (exactly like
   the hand-written S-V, where every vertex requests its grandparent
   every round even though only one branch uses it).
2. **Channel selection** — each pattern gets a channel.  With
   ``optimize=True`` the compiler makes the Section III-C choices
   (ScatterCombine / RequestRespond); with ``optimize=False`` it emits
   standard channels only, which costs an extra reply superstep per
   round when remote reads are present.
3. **Phase scheduling** — a round becomes 2–4 supersteps:
   ``send`` (issue reads + scatter reduces) → [``reply``, basic mode
   only] → ``body`` (evaluate statements) → [``apply``, only when remote
   updates exist].  Fixpoint iteration counts field changes through an
   Aggregator; fixed iteration just runs N rounds.

Restrictions (checked at compile time): communication expressions may
not appear inside other communication expressions, and their operands
(and field initializers) may only read the *current vertex's* own state
(no ``Let`` variables); a variable is read only where every path binds
it; a field is given values of one type, which sets its codec.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, run_engine
from repro.core import (
    Aggregator,
    BulkVertexProgram,
    CombinedMessage,
    DirectMessage,
    RequestRespond,
    ScatterCombine,
    SUM_I64,
    ProgramSpec,
)
from repro.palgol.ast import (
    Add,
    Assign,
    Const,
    Deg,
    Div,
    Eq,
    Expr,
    Field,
    FirstNeighbor,
    If,
    Let,
    Lt,
    Mul,
    NeighborReduce,
    NumVertices,
    PalgolSpec,
    RemoteRead,
    RemoteUpdate,
    Stmt,
    Sub,
    Var,
    VertexId,
)
from repro.runtime.serialization import Codec, FLOAT64, INT32, INT64
from repro.util import expand_ranges

__all__ = ["compile_palgol", "run_palgol", "CompileError"]

#: the binary nodes, each one ufunc over the rows
_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.true_divide, Eq: np.equal, Lt: np.less}


class CompileError(ValueError):
    """A spec violates the Palgol-lite restrictions."""


# -- analysis ---------------------------------------------------------------
def _walk_expr(expr: Expr):
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)


def _walk_stmts(stmts):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk_stmts(stmt.then)
            yield from _walk_stmts(stmt.els)


def _stmt_exprs(stmt: Stmt) -> tuple[Expr, ...]:
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, RemoteUpdate):
        return (stmt.at, stmt.value)
    return (stmt.value,)  # Let, Assign


def _check_sender_local(expr: Expr, what: str) -> None:
    for node in _walk_expr(expr):
        if isinstance(node, (NeighborReduce, RemoteRead)):
            raise CompileError(f"{what} may not nest communication expressions")
        if isinstance(node, Var):
            raise CompileError(f"{what} may only read the vertex's own state, not Let variables")


def _check_scopes(stmts, bound: frozenset, partial: frozenset) -> tuple[frozenset, frozenset]:
    """Refuse a ``Var`` read where some path has not bound it; returns the
    names bound on every path after ``stmts`` and those bound on some."""
    for stmt in stmts:
        for expr in _stmt_exprs(stmt):
            for node in _walk_expr(expr):
                if isinstance(node, Var) and node.name not in bound:
                    where = "only one branch of an If" if node.name in partial else "no Let before it"
                    raise CompileError(f"variable {node.name!r} is read but bound in {where}")
        if isinstance(stmt, Let):
            bound, partial = bound | {stmt.name}, partial - {stmt.name}
        elif isinstance(stmt, If):
            then, then_partial = _check_scopes(stmt.then, bound, partial)
            els, els_partial = _check_scopes(stmt.els, bound, partial)
            bound, partial = then & els, (then | els | then_partial | els_partial) - (then & els)
    return bound, partial


class _Analysis:
    """The communication expressions of ``spec``, each hoisted once.  The
    program keys their values by node identity, which no pickle keeps, so
    an analysis pickles as its spec and is redone where it lands (one
    pickle of the two keeps their nodes shared)."""

    def __init__(self, spec: PalgolSpec):
        self.spec = spec
        self.reduces: list[NeighborReduce] = []
        self.reads: list[RemoteRead] = []
        self.updates: list[RemoteUpdate] = []
        seen: set[int] = set()
        for name, init in spec.fields.items():
            _check_sender_local(init, f"the initializer of field {name!r}")
        for stmt in _walk_stmts(spec.body):
            if isinstance(stmt, (Assign, RemoteUpdate)) and stmt.field not in spec.fields:
                raise CompileError(f"{type(stmt).__name__} to unknown field {stmt.field!r}")
            if isinstance(stmt, RemoteUpdate):
                if stmt not in self.updates:
                    self.updates.append(stmt)
                _check_sender_local(stmt.at, "RemoteUpdate.at")
            for expr in _stmt_exprs(stmt):
                for node in _walk_expr(expr):
                    if not isinstance(node, (NeighborReduce, RemoteRead)) or id(node) in seen:
                        continue
                    seen.add(id(node))
                    if isinstance(node, NeighborReduce):
                        self.reduces.append(node)
                        _check_sender_local(node.value, "NeighborReduce.value")
                    else:
                        self.reads.append(node)
                        _check_sender_local(node.at, "RemoteRead.at")
                        if node.field not in spec.fields:
                            raise CompileError(f"RemoteRead of unknown field {node.field!r}")
        _check_scopes(spec.body, frozenset(), frozenset())

    def __reduce__(self):
        return _Analysis, (self.spec,)


def _field_codecs(spec: PalgolSpec) -> dict[str, Codec]:
    """Each field's codec, inferred from its initial value and every value
    assigned to it.  A ``Div``, a float ``Const`` or a float reduction
    makes a value ``float64``; arithmetic with one float operand is float;
    ids, degrees, counts and comparisons are ``int64``.  A field given
    both is a ``CompileError`` naming it; one nothing decides is
    ``int64``."""
    lets: dict[str, list[Expr]] = {}
    sources = {name: [init] for name, init in spec.fields.items()}
    for stmt in _walk_stmts(spec.body):
        if isinstance(stmt, Let):
            lets.setdefault(stmt.name, []).append(stmt.value)
        elif isinstance(stmt, (Assign, RemoteUpdate)):
            sources[stmt.field].append(stmt.value)
    kinds: dict[str, bool] = {}

    def is_float(expr: Expr, binding: frozenset = frozenset()) -> bool | None:
        """Whether ``expr`` is a float, or ``None`` while that waits on a
        field not yet decided (``binding``: the variables being read)."""
        if isinstance(expr, Const):
            return isinstance(expr.value, float)
        if isinstance(expr, Div):
            return True
        if isinstance(expr, (Field, RemoteRead)):
            return kinds.get(expr.name if isinstance(expr, Field) else expr.field)
        if isinstance(expr, NeighborReduce):
            return expr.combiner.codec.dtype.kind == "f"
        if isinstance(expr, Var):
            if expr.name in binding:
                return None
            return _promote(is_float(e, binding | {expr.name}) for e in lets.get(expr.name, ()))
        if isinstance(expr, (Add, Sub, Mul)):
            return _promote(is_float(e, binding) for e in (expr.left, expr.right))
        return False  # ids, degrees, |V|, comparisons

    changed = True
    while changed:  # a field's type may wait on another's
        changed = False
        for name, exprs in sources.items():
            found = {is_float(e) for e in exprs} - {None}
            if len(found) > 1:
                raise CompileError(f"field {name!r} is given both int and float values")
            if found and kinds.get(name) is None:
                kinds[name] = found.pop()
                changed = True
    return {name: FLOAT64 if kinds.get(name) else INT64 for name in spec.fields}


def _promote(kinds) -> bool | None:
    """Arithmetic's type: float where any operand is, int where all are
    ints, ``None`` while an operand waits."""
    kinds = list(kinds)
    if True in kinds:
        return True
    return None if None in kinds or not kinds else False


def compile_palgol(spec: PalgolSpec, optimize: bool = True) -> ProgramSpec:
    """Compile a spec into a program factory: a :class:`ProgramSpec` of
    :class:`PalgolProgram`, which pickles (spec and all) to a worker
    process.  Each field's codec (its in-memory array and its remote-read
    responses) is inferred from the values it is given
    (:func:`_field_codecs`)."""
    analysis = _Analysis(spec)
    # phase layout for one round
    phases: list[str] = []
    if analysis.reduces or analysis.reads:
        phases.append("send")
    if analysis.reads and not optimize:
        phases.append("reply")
    phases.append("body")
    if analysis.updates:
        phases.append("apply")
    attrs = {
        "spec": spec,
        "analysis": analysis,
        "optimize": optimize,
        "codecs": _field_codecs(spec),
        "phases": tuple(phases),
    }
    return ProgramSpec(PalgolProgram, attrs, name=f"Palgol_{spec.name}")


def _rows(value, rows: np.ndarray) -> np.ndarray:
    """An expression's value (an array over ``rows`` or one scalar for
    all of them) as an array over ``rows``."""
    return np.broadcast_to(value, rows.shape)


def _merge(mask: np.ndarray, then, els) -> np.ndarray:
    """One variable's values after an ``If``: ``then``'s where ``mask``
    holds, ``els``'s elsewhere."""
    out = np.empty(mask.size, dtype=np.result_type(then, els))
    out[mask], out[~mask] = then, els
    return out


class PalgolProgram(BulkVertexProgram):
    """A compiled spec: each phase evaluates every expression once, over
    the active rows as NumPy arrays (ARCHITECTURE.md §4, Palgol-lite).
    Its class attributes, which :func:`compile_palgol` binds: the
    ``spec``, its ``analysis``, whether to ``optimize`` the channels, each
    field's ``codecs``, and the ``phases`` of one round."""

    spec: PalgolSpec
    analysis: _Analysis
    optimize: bool
    codecs: dict[str, Codec]
    phases: tuple[str, ...]

    def __init__(self, worker):
        super().__init__(worker)
        analysis, optimize, codecs = self.analysis, self.optimize, self.codecs
        n = worker.num_local
        self.fields = {name: np.zeros(n, dtype=codec.dtype) for name, codec in codecs.items()}
        #: this worker's field changes not yet handed to ``agg``
        self.changes = 0

        # channels per pattern
        reduce = ScatterCombine if optimize else CombinedMessage
        self.reduce_ch = [reduce(worker, node.combiner) for node in analysis.reduces]
        for ch in self.reduce_ch if optimize else ():
            ch.add_adjacency("out")
        # basic mode with a reply phase: reduce results arrive one phase early
        self.stash = [
            np.zeros(n, dtype=node.combiner.codec.dtype)
            for node in analysis.reduces
            if analysis.reads and not optimize
        ]
        self.read_ch = []
        for node in analysis.reads:
            codec = codecs[node.field]
            if optimize:
                respond = lambda idx, f=node.field: self.fields[f][idx]  # noqa: E731
                self.read_ch.append(RequestRespond(worker, None, codec, respond_fn_bulk=respond))
            else:
                requests = DirectMessage(worker, value_codec=INT32)
                self.read_ch.append((requests, DirectMessage(worker, value_codec=codec)))
        self.update_ch = [CombinedMessage(worker, node.combiner) for node in analysis.updates]
        self.agg = Aggregator(worker, SUM_I64) if self.spec.iterate == "fixpoint" else None

    # -- expressions ------------------------------------------------------
    def _eval(self, expr: Expr, rows: np.ndarray, env: dict):
        """``expr`` over local ``rows``: an array aligned with them, or one
        scalar for all.  ``env``, aligned likewise, holds the ``Let``
        variables by name and the hoisted results by node identity."""
        ufunc = _BINARY.get(type(expr))
        if ufunc is not None:
            return ufunc(self._eval(expr.left, rows, env), self._eval(expr.right, rows, env))
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return env[expr.name]
        if isinstance(expr, Field):
            return self.fields[expr.name][rows]
        if isinstance(expr, VertexId):
            return self.worker.local_ids[rows]
        if isinstance(expr, NumVertices):
            return self.num_vertices
        adj = self.worker.local_adjacency("out")
        if isinstance(expr, Deg):
            return adj.degrees[rows]
        if isinstance(expr, FirstNeighbor):  # its own id when it has none
            first = self.worker.local_ids[rows]
            has = adj.degrees[rows] > 0
            first[has] = adj.indices[adj.indptr[rows[has]]]
            return first
        return env[id(expr)]  # a hoisted NeighborReduce / RemoteRead

    # -- statements ----------------------------------------------------------
    def _exec(self, stmts, rows: np.ndarray, env: dict, sends: list) -> None:
        for stmt in stmts:
            if isinstance(stmt, Let):
                env[stmt.name] = self._eval(stmt.value, rows, env)
            elif isinstance(stmt, Assign):
                self._write(stmt.field, rows, _rows(self._eval(stmt.value, rows, env), rows))
            elif isinstance(stmt, If):
                mask = _rows(self._eval(stmt.cond, rows, env), rows).astype(bool)
                scopes = []
                for sel, body in ((mask, stmt.then), (~mask, stmt.els)):
                    inherited = {k: v[sel] if np.ndim(v) else v for k, v in env.items()}
                    scope = dict(inherited)
                    self._exec(body, rows[sel], scope, sends)
                    scopes.append((inherited, scope))
                (then_in, then), (els_in, els) = scopes
                # a variable (re)bound in either branch and known in both is merged back
                for name in then.keys() & els.keys():
                    if then[name] is not then_in.get(name) or els[name] is not els_in.get(name):
                        env[name] = _merge(mask, then[name], els[name])
            else:  # RemoteUpdate
                at, value = (_rows(self._eval(e, rows, env), rows) for e in (stmt.at, stmt.value))
                sends[self.analysis.updates.index(stmt)].append((rows, at, value))

    # -- phases -----------------------------------------------------------------
    def _send(self, active: np.ndarray) -> None:
        adj = self.worker.local_adjacency("out")
        senders = active[adj.degrees[active] > 0]  # vertices without edges scatter nothing
        for node, ch in zip(self.analysis.reduces, self.reduce_ch):
            if not senders.size:
                break
            value = _rows(self._eval(node.value, senders, {}), senders)
            if self.optimize:
                ch.set_messages(senders, value)
            else:
                ch.send_messages(adj.gather(senders), np.repeat(value, adj.degrees[senders]))
        for node, ch in zip(self.analysis.reads, self.read_ch):
            at = _rows(self._eval(node.at, active, {}), active)
            if self.optimize:
                ch.add_requests(active, at)
            else:
                ch[0].send_messages(at, self.worker.local_ids[active])

    def _reply(self, active: np.ndarray) -> None:
        """Basic mode: serve the read requests; stash the reduce arrivals."""
        for node, (requests, replies) in zip(self.analysis.reads, self.read_ch):
            indptr, requesters = requests.get_messages()
            counts = np.diff(indptr)[active]
            replies.send_messages(
                requesters[expand_ranges(indptr[active], counts)],
                np.repeat(self.fields[node.field][active], counts),
            )
        for stash, ch in zip(self.stash, self.reduce_ch):
            stash[active] = ch.get_messages()[0][active]

    def _body(self, active: np.ndarray) -> None:
        env: dict = {}
        for k, (node, ch) in enumerate(zip(self.analysis.reduces, self.reduce_ch)):
            env[id(node)] = (self.stash[k] if self.stash else ch.get_messages()[0])[active]
        for node, ch in zip(self.analysis.reads, self.read_ch):
            if self.optimize:  # the read's target is unchanged since the send phase
                env[id(node)] = ch.get_responds(_rows(self._eval(node.at, active, {}), active))
            else:
                indptr, replies = ch[1].get_messages()
                env[id(node)] = replies[indptr[active]]
        sends: list[list] = [[] for _ in self.update_ch]
        self._exec(self.spec.body, active, env, sends)
        for ch, parts in zip(self.update_ch, sends):
            if parts:  # equal statements in two branches share a channel
                rows, at, value = (np.concatenate(column) for column in zip(*parts))
                # in ascending local index, each vertex's in statement order
                order = np.argsort(rows, kind="stable")
                ch.send_messages(at[order], value[order])
        if not self.update_ch:
            self._count_changes()

    def _apply(self, active: np.ndarray) -> None:
        for node, ch in zip(self.analysis.updates, self.update_ch):
            incoming, arrived = ch.get_messages()
            rows = active[arrived[active]]
            folded = self.fields[node.field][rows]
            node.combiner.accumulate_at(folded, np.arange(rows.size), incoming[rows])
            self._write(node.field, rows, folded)
        self._count_changes()

    def _write(self, field: str, rows: np.ndarray, new: np.ndarray) -> None:
        """``field[rows] = new`` where they differ, each a change (so
        ``-0.0`` never overwrites ``0.0``)."""
        arr = self.fields[field]
        differs = new != arr[rows]
        arr[rows[differs]] = new[differs]
        self.changes += int(np.count_nonzero(differs))

    def _count_changes(self) -> None:
        if self.agg is not None:
            self.agg.add(self.changes)
        self.changes = 0

    def _finished(self, round_no: int) -> bool:
        if self.agg is not None:
            return round_no > 1 and self.agg.result() == 0
        return round_no > self.spec.iterate

    def compute_bulk(self, active: np.ndarray) -> None:
        step = self.step_num
        if step == 1:
            for name, init in self.spec.fields.items():
                self.fields[name][active] = self._eval(init, active, {})
        phase = (step - 1) % len(self.phases)
        # a round boundary decides termination before anything else
        if phase == 0 and self._finished((step - 1) // len(self.phases) + 1):
            self.worker.halt_bulk(active)
            return
        getattr(self, f"_{self.phases[phase]}")(active)

    def finalize(self):
        table = np.empty(self.num_local, dtype=_record(self.codecs))
        for name, arr in self.fields.items():
            table[name] = arr
        return self.vertex_results(table)


def _record(codecs: dict[str, Codec]) -> np.dtype:
    """One vertex's fields as one structured value."""
    return np.dtype([(name, codec.dtype) for name, codec in codecs.items()])


def run_palgol(spec: PalgolSpec, graph, optimize: bool = True, **engine_kwargs):
    """Compile and run a spec; returns ``({field: array}, EngineResult)``."""
    program = compile_palgol(spec, optimize=optimize)
    result = run_engine(graph, program, **engine_kwargs)
    table = gather(result, graph.num_vertices, dtype=_record(program.attrs["codecs"]))
    return {name: table[name].copy() for name in table.dtype.names}, result
