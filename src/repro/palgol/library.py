"""Palgol-lite specs for the paper's algorithms.

``sv_spec`` is a line-for-line transcription of the paper's Section III-C
Palgol listing; the others cover the remaining pattern combinations the
compiler supports.
"""

from __future__ import annotations

from repro.core import MIN_ID
from repro.core.combiner import SUM_F64
from repro.palgol.ast import (
    Add,
    Assign,
    Const,
    Deg,
    Div,
    Eq,
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
    Var,
    VertexId,
)

__all__ = ["sv_spec", "wcc_spec", "pointer_jumping_spec", "pagerank_spec"]


def sv_spec() -> PalgolSpec:
    """The paper's S-V listing::

        do
          for u in V
            if (D[D[u]] == D[u])
              let t = minimum [ D[e] | e <- Nbr[u] ]
              if (t < D[u]) remote D[D[u]] <?= t
            else
              D[u] := D[D[u]]
        until fix[D]

    All three communication patterns appear: the compiler picks
    RequestRespond for ``D[D[u]]``, ScatterCombine for the neighborhood
    minimum, and a min-combined message channel for the remote update.
    """
    grandparent = RemoteRead("D", at=Field("D"))
    t = NeighborReduce(MIN_ID, Field("D"))
    return PalgolSpec(
        name="sv",
        fields={"D": VertexId()},
        iterate="fixpoint",
        body=[
            Let("gp", grandparent),
            Let("t", t),
            If(
                Eq(Var("gp"), Field("D")),
                then=[
                    If(
                        Lt(Var("t"), Field("D")),
                        then=[
                            RemoteUpdate(
                                "D", at=Field("D"), value=Var("t"), combiner=MIN_ID
                            )
                        ],
                    )
                ],
                els=[Assign("D", Var("gp"))],
            ),
        ],
    )


def wcc_spec() -> PalgolSpec:
    """Hash-min connected components: one NeighborReduce per round."""
    t = NeighborReduce(MIN_ID, Field("label"))
    return PalgolSpec(
        name="wcc",
        fields={"label": VertexId()},
        iterate="fixpoint",
        body=[
            Let("m", t),
            If(Lt(Var("m"), Field("label")), then=[Assign("label", Var("m"))]),
        ],
    )


def pointer_jumping_spec() -> PalgolSpec:
    """``D[u] := D[D[u]]`` until fixpoint — a bare RemoteRead.

    The input convention matches :mod:`repro.algorithms.pointer_jumping`:
    a vertex's first out-edge points at its parent; roots have none.
    """
    return PalgolSpec(
        name="pj",
        fields={"D": FirstNeighbor()},
        iterate="fixpoint",
        body=[
            Let("gp", RemoteRead("D", at=Field("D"))),
            Assign("D", Var("gp")),
        ],
    )


def pagerank_spec(iterations: int = 30) -> PalgolSpec:
    """PageRank without the dead-end sink (the compiler's fixed-iteration
    mode; dangling mass handling needs a global reduce, which Palgol-lite
    does not model — use graphs whose every vertex has out-degree > 0,
    or compare against the sink-free reference)."""
    share_sum = NeighborReduce(SUM_F64, Div(Field("rank"), Deg()))
    return PalgolSpec(
        name="pagerank",
        fields={"rank": Div(Const(1.0), NumVertices())},
        iterate=iterations,
        body=[
            Assign(
                "rank",
                Add(
                    Div(Const(0.15), NumVertices()),
                    Mul(Const(0.85), share_sum),
                ),
            ),
        ],
    )
