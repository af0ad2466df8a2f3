"""Channel-based implementations of the paper's six evaluation algorithms
(plus SSSP), each in the variants the experiments need.

Every module exposes program classes and a ``run_*`` helper returning
``(values, EngineResult)`` where ``values`` is a dense per-vertex array.
"""

from repro.algorithms.pagerank import (
    run_pagerank,
    PageRankBasic,
    PageRankScatter,
    PageRankBasicBulk,
    PageRankScatterBulk,
)
from repro.algorithms.pointer_jumping import (
    run_pointer_jumping,
    PointerJumpingBasic,
    PointerJumpingReqResp,
    PointerJumpingReqRespBulk,
)
from repro.algorithms.wcc import run_wcc, WCCBasic, WCCBasicBulk, WCCPropagation
from repro.algorithms.sssp import run_sssp, SSSPBasic, SSSPBasicBulk, SSSPPropagation
from repro.algorithms.sv import run_sv, make_sv_program
from repro.algorithms.scc import run_scc, SCCBasic, SCCPropagation
from repro.algorithms.msf import run_msf, MSFBasic
from repro.algorithms.bfs import run_bfs, BFSBasic, BFSBasicBulk, BFSPropagation
from repro.algorithms.triangles import run_triangles, TriangleCounting
from repro.algorithms.kcore import run_kcore, KCore
from repro.algorithms.mis import run_mis, LubyMIS
from repro.algorithms.lpa import run_lpa, LabelPropagation

__all__ = [
    "run_pagerank",
    "PageRankBasic",
    "PageRankScatter",
    "PageRankBasicBulk",
    "PageRankScatterBulk",
    "run_pointer_jumping",
    "PointerJumpingBasic",
    "PointerJumpingReqResp",
    "PointerJumpingReqRespBulk",
    "run_wcc",
    "WCCBasic",
    "WCCBasicBulk",
    "WCCPropagation",
    "run_sssp",
    "SSSPBasic",
    "SSSPBasicBulk",
    "SSSPPropagation",
    "run_sv",
    "make_sv_program",
    "run_scc",
    "SCCBasic",
    "SCCPropagation",
    "run_msf",
    "MSFBasic",
    "run_bfs",
    "BFSBasic",
    "BFSBasicBulk",
    "BFSPropagation",
    "run_triangles",
    "TriangleCounting",
    "run_kcore",
    "KCore",
    "run_mis",
    "LubyMIS",
    "run_lpa",
    "LabelPropagation",
]
