"""Palgol-lite: a declarative layer that compiles to channel programs.

The paper's conclusion names its future work: *"we are going to study
the compilation from a high-level declarative domain-specific language
Palgol [34] to our system."*  This package is a working miniature of that
pipeline: algorithm specifications written as a small expression AST
(:mod:`repro.palgol.ast`) are compiled into program factories — a
:class:`~repro.core.program.ProgramSpec` of the one
:class:`~repro.palgol.compiler.PalgolProgram`, which pickles to a worker
process (:mod:`repro.palgol.compiler`) — with the compiler choosing
channels the way Section III-C describes a human would.  The compiled
program is a bulk program: each phase evaluates every expression once,
over the worker's active vertices as NumPy arrays, and ``run_palgol``
returns one array per field.

====================================  =================================
pattern in the spec                    channel chosen (optimize=True)
====================================  =================================
``NeighborReduce`` (static)            ScatterCombine
``RemoteRead`` (``D[D[u]]`` style)     RequestRespond
``RemoteUpdate`` with a combiner       CombinedMessage(combiner)
fixpoint/loop control                  Aggregator
====================================  =================================

With ``optimize=False`` the same spec compiles to standard channels only
(CombinedMessage + DirectMessage), which makes the optimizer's effect
measurable on identical semantics.

:mod:`repro.palgol.library` holds specs for S-V (the paper's Palgol
listing, Section III-C), hash-min WCC, pointer jumping, and PageRank.
"""

from repro.palgol.ast import (
    Add,
    Const,
    Deg,
    Div,
    Eq,
    Field,
    FirstNeighbor,
    Lt,
    Mul,
    NeighborReduce,
    NumVertices,
    RemoteRead,
    Sub,
    Var,
    VertexId,
    Assign,
    If,
    Let,
    RemoteUpdate,
    PalgolSpec,
)
from repro.palgol.compiler import compile_palgol, run_palgol, CompileError
from repro.palgol.library import (
    pagerank_spec,
    pointer_jumping_spec,
    sv_spec,
    wcc_spec,
)

__all__ = [
    "Add",
    "Const",
    "Deg",
    "Div",
    "Eq",
    "Field",
    "FirstNeighbor",
    "Lt",
    "Mul",
    "NeighborReduce",
    "NumVertices",
    "RemoteRead",
    "Sub",
    "Var",
    "VertexId",
    "Assign",
    "If",
    "Let",
    "RemoteUpdate",
    "PalgolSpec",
    "compile_palgol",
    "run_palgol",
    "CompileError",
    "pagerank_spec",
    "pointer_jumping_spec",
    "sv_spec",
    "wcc_spec",
]
