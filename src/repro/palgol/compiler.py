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
may only read the *current vertex's* own state (no ``Let`` variables);
a field is given values of one type, which sets its codec.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import run_engine
from repro.core import (
    Aggregator,
    CombinedMessage,
    DirectMessage,
    RequestRespond,
    ScatterCombine,
    SUM_I64,
    ProgramSpec,
    Vertex,
    VertexProgram,
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

__all__ = ["compile_palgol", "run_palgol", "CompileError"]


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


def _stmt_exprs(stmt: Stmt):
    if isinstance(stmt, Let):
        yield stmt.value
    elif isinstance(stmt, Assign):
        yield stmt.value
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, RemoteUpdate):
        yield stmt.at
        yield stmt.value


def _check_sender_local(expr: Expr, what: str) -> None:
    for node in _walk_expr(expr):
        if isinstance(node, (NeighborReduce, RemoteRead)):
            raise CompileError(f"{what} may not nest communication expressions")
        if isinstance(node, Var):
            raise CompileError(
                f"{what} may only read the vertex's own state, not Let variables"
            )


class _Analysis:
    """The communication expressions of ``spec``, each hoisted once.  The
    lookup is by node identity, which no pickle keeps, so an analysis
    pickles as its spec and is redone where it lands (one pickle of the
    two keeps their nodes shared)."""

    def __init__(self, spec: PalgolSpec):
        self.spec = spec
        self.reduces: list[NeighborReduce] = []
        self.reads: list[RemoteRead] = []
        self.updates: list[RemoteUpdate] = []
        seen: dict[int, int] = {}
        for stmt in _walk_stmts(spec.body):
            if isinstance(stmt, RemoteUpdate):
                if stmt not in self.updates:
                    self.updates.append(stmt)
                _check_sender_local(stmt.at, "RemoteUpdate.at")
            for expr in _stmt_exprs(stmt):
                for node in _walk_expr(expr):
                    if isinstance(node, NeighborReduce):
                        if id(node) not in seen:
                            seen[id(node)] = len(self.reduces)
                            self.reduces.append(node)
                            _check_sender_local(node.value, "NeighborReduce.value")
                    elif isinstance(node, RemoteRead):
                        if id(node) not in seen:
                            seen[id(node)] = len(self.reads)
                            self.reads.append(node)
                            _check_sender_local(node.at, "RemoteRead.at")
                            if node.field not in spec.fields:
                                raise CompileError(
                                    f"RemoteRead of unknown field {node.field!r}"
                                )
        for stmt in _walk_stmts(spec.body):
            if isinstance(stmt, Assign) and stmt.field not in spec.fields:
                raise CompileError(f"Assign to unknown field {stmt.field!r}")
        self.index = seen

    def __reduce__(self):
        return _Analysis, (self.spec,)


def _field_codecs(spec: PalgolSpec, codecs: dict[str, Codec]) -> dict[str, Codec]:
    """Each field's codec: ``codecs``'s where it names one, else inferred
    from its initial value and every value assigned to it.  A ``Div``, a
    float ``Const`` or a float reduction makes a value ``float64``;
    arithmetic with one float operand is float; ids, degrees, counts and
    comparisons are ``int64``.  A field given both is a ``CompileError``
    naming it; one nothing decides is ``int64``."""
    lets: dict[str, list[Expr]] = {}
    sources = {name: [init] for name, init in spec.fields.items()}
    for stmt in _walk_stmts(spec.body):
        if isinstance(stmt, Let):
            lets.setdefault(stmt.name, []).append(stmt.value)
        elif isinstance(stmt, (Assign, RemoteUpdate)) and stmt.field in sources:
            sources[stmt.field].append(stmt.value)
    kinds = {name: codec.dtype.kind == "f" for name, codec in codecs.items()}

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
            if name in codecs:
                continue
            found = {is_float(e) for e in exprs} - {None}
            if len(found) > 1:
                raise CompileError(f"field {name!r} is given both int and float values")
            if found and kinds.get(name) is None:
                kinds[name] = found.pop()
                changed = True
    return {name: codecs.get(name) or (FLOAT64 if kinds.get(name) else INT64) for name in spec.fields}


def _promote(kinds) -> bool | None:
    """Arithmetic's type: float where any operand is, int where all are
    ints, ``None`` while an operand waits."""
    kinds = list(kinds)
    if True in kinds:
        return True
    return None if None in kinds or not kinds else False


def compile_palgol(
    spec: PalgolSpec,
    optimize: bool = True,
    codecs: dict[str, Codec] | None = None,
) -> ProgramSpec:
    """Compile a spec into a program factory: a :class:`ProgramSpec` of
    :class:`PalgolProgram`, which pickles (spec and all) to a worker
    process.

    Each field's codec (its in-memory array and its remote-read
    responses) is inferred from the values it is given
    (:func:`_field_codecs`); ``codecs`` maps field names to codecs that
    override the inference.
    """
    analysis = _Analysis(spec)
    codecs = _field_codecs(spec, dict(codecs or {}))
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
        "codecs": codecs,
        "phases": tuple(phases),
    }
    return ProgramSpec(PalgolProgram, attrs, name=f"Palgol_{spec.name}")


class PalgolProgram(VertexProgram):
    """A compiled spec, run one vertex at a time.  Its class attributes,
    which :func:`compile_palgol` binds: the ``spec``, its ``analysis``,
    whether to ``optimize`` the channels, each field's ``codecs``, and the
    ``phases`` of one round."""

    spec: PalgolSpec
    analysis: _Analysis
    optimize: bool
    codecs: dict[str, Codec]
    phases: tuple[str, ...]

    def __init__(self, worker):
        super().__init__(worker)
        spec, analysis, optimize, codecs = self.spec, self.analysis, self.optimize, self.codecs
        fixpoint = spec.iterate == "fixpoint"
        n = worker.num_local
        self.fields = {
            name: np.zeros(n, dtype=codecs[name].dtype) for name in spec.fields
        }
        self.changed = np.zeros(n, dtype=np.int64) if fixpoint else None

        # channels per pattern
        self.reduce_ch = []
        for node in analysis.reduces:
            if optimize:
                self.reduce_ch.append(ScatterCombine(worker, node.combiner))
            else:
                self.reduce_ch.append(CombinedMessage(worker, node.combiner))
        # stash for basic mode: reduce results arrive one phase early
        self._reduce_stash = [
            np.zeros(n, dtype=node.combiner.codec.dtype)
            for node in analysis.reduces
        ]
        self.read_ch = []
        self._read_targets = [
            np.zeros(n, dtype=np.int64) for _ in analysis.reads
        ]
        for node in analysis.reads:
            fld = node.field
            if optimize:
                self.read_ch.append(
                    RequestRespond(
                        worker,
                        respond_fn=lambda v, f=fld: self.fields[f][v.local],
                        codec=codecs[fld],
                        respond_fn_bulk=lambda idx, f=fld: self.fields[f][idx],
                    )
                )
            else:
                self.read_ch.append(
                    (
                        DirectMessage(worker, value_codec=INT32),  # requests
                        DirectMessage(worker, value_codec=codecs[fld]),  # replies
                    )
                )
        self._read_results = [
            np.zeros(n, dtype=codecs[node.field].dtype) for node in analysis.reads
        ]
        self.update_ch = [
            CombinedMessage(worker, node.combiner) for node in analysis.updates
        ]
        self.agg = Aggregator(worker, SUM_I64) if fixpoint else None

    # -- expression evaluation ---------------------------------------
    def _eval(self, expr, v: Vertex, env: dict):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return env[expr.name]
        if isinstance(expr, Field):
            return self.fields[expr.name][v.local]
        if isinstance(expr, VertexId):
            return v.id
        if isinstance(expr, Deg):
            return v.out_degree
        if isinstance(expr, FirstNeighbor):
            nb = v.edges
            return int(nb[0]) if nb.size else v.id
        if isinstance(expr, NumVertices):
            return self.num_vertices
        if isinstance(expr, Add):
            return self._eval(expr.left, v, env) + self._eval(expr.right, v, env)
        if isinstance(expr, Sub):
            return self._eval(expr.left, v, env) - self._eval(expr.right, v, env)
        if isinstance(expr, Mul):
            return self._eval(expr.left, v, env) * self._eval(expr.right, v, env)
        if isinstance(expr, Div):
            return self._eval(expr.left, v, env) / self._eval(expr.right, v, env)
        if isinstance(expr, Eq):
            return self._eval(expr.left, v, env) == self._eval(expr.right, v, env)
        if isinstance(expr, Lt):
            return self._eval(expr.left, v, env) < self._eval(expr.right, v, env)
        if isinstance(expr, NeighborReduce):
            k = self.analysis.index[id(expr)]
            if self.optimize or not self.analysis.reads:
                return self.reduce_ch[k].get_message(v)
            return self._reduce_stash[k][v.local]
        if isinstance(expr, RemoteRead):
            return self._read_results[self.analysis.index[id(expr)]][v.local]
        raise CompileError(f"cannot evaluate {type(expr).__name__}")

    # -- statement execution ------------------------------------------
    def _exec(self, stmts, v: Vertex, env: dict) -> None:
        i = v.local
        for stmt in stmts:
            if isinstance(stmt, Let):
                env[stmt.name] = self._eval(stmt.value, v, env)
            elif isinstance(stmt, Assign):
                new = self._eval(stmt.value, v, env)
                arr = self.fields[stmt.field]
                if new != arr[i]:
                    arr[i] = new
                    if self.changed is not None:
                        self.changed[i] += 1
            elif isinstance(stmt, If):
                if self._eval(stmt.cond, v, env):
                    self._exec(stmt.then, v, env)
                else:
                    self._exec(stmt.els, v, env)
            elif isinstance(stmt, RemoteUpdate):
                k = self.analysis.updates.index(stmt)
                target = int(self._eval(stmt.at, v, env))
                value = self._eval(stmt.value, v, env)
                self.update_ch[k].send_message(target, value)
            else:  # pragma: no cover - defensive
                raise CompileError(f"unknown statement {type(stmt).__name__}")

    # -- phase bodies -----------------------------------------------------
    def _phase_send(self, v: Vertex) -> None:
        env: dict = {}
        if v.out_degree:  # vertices without edges scatter nothing
            for k, node in enumerate(self.analysis.reduces):
                value = self._eval(node.value, v, env)
                ch = self.reduce_ch[k]
                if self.optimize:
                    if self.step_num == 1:
                        ch.add_edges(v, v.edges)
                    ch.set_message(v, value)
                else:
                    send = ch.send_message
                    for e in v.edges:
                        send(int(e), value)
        for k, node in enumerate(self.analysis.reads):
            target = int(self._eval(node.at, v, env))
            self._read_targets[k][v.local] = target
            if self.optimize:
                self.read_ch[k].add_request(v, target)
            else:
                self.read_ch[k][0].send_message(target, v.id)

    def _phase_reply(self, v: Vertex) -> None:
        # basic mode: serve read requests; stash reduce arrivals
        for k, node in enumerate(self.analysis.reads):
            req_ch, rep_ch = self.read_ch[k]
            value = self.fields[node.field][v.local]
            for requester in req_ch.get_iterator(v):
                rep_ch.send_message(int(requester), value)
        for k in range(len(self.analysis.reduces)):
            self._reduce_stash[k][v.local] = self.reduce_ch[k].get_message(v)

    def _phase_body(self, v: Vertex) -> None:
        i = v.local
        for k in range(len(self.analysis.reads)):
            if self.optimize:
                target = int(self._read_targets[k][i])
                self._read_results[k][i] = self.read_ch[k].get_respond(target)
            else:
                replies = self.read_ch[k][1].get_iterator(v)
                self._read_results[k][i] = replies[0]
        self._exec(self.spec.body, v, {})

    def _phase_apply(self, v: Vertex) -> None:
        i = v.local
        delta = 0
        for k, node in enumerate(self.analysis.updates):
            arr = self.fields[node.field]
            incoming = self.update_ch[k].get_message(v)
            if self.update_ch[k].has_message(v):
                folded = node.combiner.combine(arr[i], incoming)
                if folded != arr[i]:
                    arr[i] = folded
                    delta += 1
        if self.changed is not None:
            self.agg.add(int(self.changed[i]) + delta)
            self.changed[i] = 0

    # -- the superstep dispatcher ---------------------------------------------
    def compute(self, v: Vertex) -> None:
        step = self.step_num
        if step == 1:
            # field initialization
            env: dict = {}
            for name, init in self.spec.fields.items():
                self.fields[name][v.local] = self._eval(init, v, env)
        phase_idx = (step - 1) % len(self.phases)
        phase = self.phases[phase_idx]
        round_no = (step - 1) // len(self.phases) + 1
        if phase_idx == 0:
            # round boundary: decide termination before doing anything
            fixpoint = self.spec.iterate == "fixpoint"
            if fixpoint and round_no > 1 and self.agg.result() == 0:
                v.vote_to_halt()
                return
            if not fixpoint and round_no > self.spec.iterate:
                v.vote_to_halt()
                return
        if phase == "send":
            self._phase_send(v)
        elif phase == "reply":
            self._phase_reply(v)
        elif phase == "body":
            self._phase_body(v)
            if not self.analysis.updates and self.changed is not None:
                self.agg.add(int(self.changed[v.local]))
                self.changed[v.local] = 0
        elif phase == "apply":
            self._phase_apply(v)

    def finalize(self) -> dict:
        out: dict = {}
        for i, g in enumerate(self.worker.local_ids):
            out[int(g)] = {
                name: arr[i].item() for name, arr in self.fields.items()
            }
        return out


def run_palgol(
    spec: PalgolSpec,
    graph,
    optimize: bool = True,
    codecs: dict[str, Codec] | None = None,
    **engine_kwargs,
):
    """Compile and run a spec; returns ``({field: array}, EngineResult)``."""
    program = compile_palgol(spec, optimize=optimize, codecs=codecs)
    result = run_engine(graph, program, **engine_kwargs)
    fields = {
        name: np.zeros(graph.num_vertices, dtype=codec.dtype)
        for name, codec in program.attrs["codecs"].items()
    }
    for vid, values in result.data.items():
        for name, val in values.items():
            fields[name][vid] = val
    return fields, result
