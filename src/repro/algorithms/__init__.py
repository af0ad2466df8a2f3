"""Channel-based implementations of the paper's six evaluation algorithms
(plus SSSP), each in the variants the experiments need.

Every module exposes program classes and a ``run_*`` helper returning
``(values, EngineResult)`` where ``values`` is a dense per-vertex array.

The names below resolve on first use (PEP 562), so running one algorithm
imports one module, not all twelve.
"""

import importlib

#: module -> the names it contributes to this package
_EXPORTS = {
    "pagerank": (
        "run_pagerank",
        "PageRankBasic",
        "PageRankScatter",
        "PageRankBasicBulk",
        "PageRankScatterBulk",
    ),
    "pointer_jumping": (
        "run_pointer_jumping",
        "PointerJumpingBasic",
        "PointerJumpingReqResp",
        "PointerJumpingReqRespBulk",
    ),
    "wcc": ("run_wcc", "WCCBasic", "WCCBasicBulk", "WCCPropagation"),
    "sssp": ("run_sssp", "SSSPBasic", "SSSPBasicBulk", "SSSPPropagation"),
    "sv": ("run_sv",),
    "scc": ("run_scc", "SCCBasic", "SCCPropagation"),
    "msf": ("run_msf", "MSFBasic"),
    "bfs": ("run_bfs", "BFSBasic", "BFSBasicBulk", "BFSPropagation"),
    "triangles": ("run_triangles", "TriangleCounting"),
    "kcore": ("run_kcore", "KCore"),
    "mis": ("run_mis", "LubyMIS"),
    "lpa": ("run_lpa", "LabelPropagation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # next lookup is a plain attribute
    return value


def __dir__():
    return sorted({*globals(), *__all__})
