"""The Palgol-lite abstract syntax.

A spec is per-vertex fields plus a loop body of statements.  Expressions
are pure; the three *communication expressions/statements* are the ones
the compiler maps to channels:

* :class:`NeighborReduce` — ``minimum [ D[e] | e <- Nbr[u] ]`` —
  every vertex contributes a value along all its edges, each vertex
  reads the reduction of what arrived;
* :class:`RemoteRead` — ``D[D[u]]`` — read a field of another vertex
  (the request-respond conversation);
* :class:`RemoteUpdate` — ``remote D[D[u]] <?= t`` — combine a value
  into another vertex's field.

The mirror of the paper's S-V listing (Section III-C) in this AST is in
:func:`repro.palgol.library.sv_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.combiner import Combiner
from repro.util import check_count

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Field",
    "VertexId",
    "Deg",
    "FirstNeighbor",
    "NumVertices",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Eq",
    "Lt",
    "NeighborReduce",
    "RemoteRead",
    "Stmt",
    "Let",
    "Assign",
    "If",
    "RemoteUpdate",
    "PalgolSpec",
]


# -- expressions ----------------------------------------------------------
class Expr:
    """Base class for pure (and communication) expressions."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Const(Expr):
    value: object


@dataclass(frozen=True)
class Var(Expr):
    """A value bound earlier in the body by :class:`Let`."""

    name: str


@dataclass(frozen=True)
class Field(Expr):
    """The current vertex's own field, e.g. ``D[u]``."""

    name: str


@dataclass(frozen=True)
class VertexId(Expr):
    """``u`` — the current vertex's id."""


@dataclass(frozen=True)
class Deg(Expr):
    """The current vertex's out-degree."""


@dataclass(frozen=True)
class FirstNeighbor(Expr):
    """The current vertex's first out-neighbor (its own id when it has
    none) — the parent-pointer convention of rooted-forest inputs."""


@dataclass(frozen=True)
class NumVertices(Expr):
    """``|V|``."""


@dataclass(frozen=True)
class _BinOp(Expr):
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


class Add(_BinOp):
    pass


class Sub(_BinOp):
    pass


class Mul(_BinOp):
    pass


class Div(_BinOp):
    pass


class Eq(_BinOp):
    pass


class Lt(_BinOp):
    pass


@dataclass(frozen=True)
class NeighborReduce(Expr):
    """``reduce [ value | e <- Nbr[u] ]`` — a static neighborhood
    exchange: every vertex scatters ``value`` (an expression over its own
    state) along all its edges; the expression evaluates to the
    ``combiner``-reduction of everything that arrived at this vertex.

    ``value`` may only reference the *sender's* state (fields, id,
    degree, constants) — the compiler serializes it to the wire.
    """

    combiner: Combiner
    value: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.value,)


@dataclass(frozen=True)
class RemoteRead(Expr):
    """``field[at]`` — read another vertex's field; ``at`` is an
    expression over the current vertex's state naming the target."""

    field: str
    at: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.at,)


# -- statements --------------------------------------------------------------
class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Let(Stmt):
    """Bind ``name`` to an expression for the rest of the body."""

    name: str
    value: Expr


@dataclass(frozen=True)
class Assign(Stmt):
    """``field := value`` on the current vertex.  Counts as a change for
    fixpoint detection when the value differs."""

    field: str
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...] = ()
    els: tuple[Stmt, ...] = ()

    def __init__(self, cond: Expr, then=(), els=()):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", tuple(then))
        object.__setattr__(self, "els", tuple(els))


@dataclass(frozen=True)
class RemoteUpdate(Stmt):
    """``remote field[at] <combiner= value`` — fold ``value`` into
    another vertex's field; applied at the end of the round.  Counts as a
    change for fixpoint detection when it modifies the target."""

    field: str
    at: Expr
    value: Expr
    combiner: Combiner


# -- the program ----------------------------------------------------------------
@dataclass(frozen=True)
class PalgolSpec:
    """A complete Palgol-lite program.

    Attributes
    ----------
    fields:
        name -> init expression (evaluated per vertex in the first
        superstep; may use VertexId/Deg/NumVertices/Const only).
    body:
        The loop body (a tuple of statements).
    iterate:
        ``"fixpoint"`` (the paper's ``until fix[...]``) or a non-negative
        int (NumPy's too) for a fixed number of rounds.
    name:
        Used for the generated program class.
    """

    fields: dict
    body: tuple
    iterate: object = "fixpoint"
    name: str = "palgol"

    def __init__(self, fields, body, iterate="fixpoint", name="palgol"):
        object.__setattr__(self, "fields", dict(fields))
        object.__setattr__(self, "body", tuple(body))
        if iterate != "fixpoint":
            iterate = check_count("iterate", iterate)
        object.__setattr__(self, "iterate", iterate)
        object.__setattr__(self, "name", name)
