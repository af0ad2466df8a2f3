"""The program table: which (algorithm, system, variant, compute path)
programs exist, written once.

    algorithm -> system -> Entry(runner, {variant: {path: factory}})

A system is ``channel`` (:mod:`repro.algorithms`), ``pregel`` (the
Pregel+ baseline, whose variant is the :func:`~repro.pregel.pregel_plus`
message layer) or ``blogel``; a path is ``scalar`` or ``bulk``.  Each
runner is a ``"module:attribute"`` string and each factory an attribute
of the runner's module (S-V's compositions: ``(base, flags)``, bound as a
:class:`~repro.core.ProgramSpec`), resolved on first use, so running one
algorithm imports one algorithm's module.  Every public ``run_*`` takes
its factory from :func:`factory`; ``run_cell`` and ``repro run`` read
:func:`cells` and :func:`runner`.
"""

from __future__ import annotations

import importlib
from functools import cache, partial
from typing import Callable, NamedTuple

from repro.core.program import ProgramSpec
from repro.util import check_choice

__all__ = ["PATHS", "PROGRAMS", "Entry", "cells", "factory", "runner"]

#: the compute paths, as a runner's ``mode=`` names them
PATHS = ("scalar", "bulk")


class Entry(NamedTuple):
    """One system's programs for one algorithm."""

    runner: str  #: "module:attribute" of the public run_* function
    variants: dict  #: {variant: {path: factory named in the runner's module}}


def _sv(use_reqresp: bool, use_scatter: bool) -> dict:
    flags = {"use_reqresp": use_reqresp, "use_scatter": use_scatter}
    return {"scalar": ("_SVBase", flags), "bulk": ("_SVBulk", flags)}


def _one(runner: str, program: str) -> Entry:
    """An entry with one variant, ``basic``, and only the scalar path."""
    return Entry(runner, {"basic": {"scalar": program}})


PROGRAMS = {
    "pagerank": {
        "channel": Entry("repro.algorithms.pagerank:run_pagerank", {
            "basic": {"scalar": "PageRankBasic", "bulk": "PageRankBasicBulk"},
            "scatter": {"scalar": "PageRankScatter", "bulk": "PageRankScatterBulk"},
            "mirror": {"scalar": "PageRankMirrored", "bulk": "PageRankMirroredBulk"},
        }),
        "pregel": Entry("repro.pregel_algorithms.pagerank:run_pagerank_pregel", {
            "basic": {"scalar": "PageRankPregel"},
            "ghost": {"scalar": "PageRankPregel"},
        }),
    },
    "pj": {
        "channel": Entry("repro.algorithms.pointer_jumping:run_pointer_jumping", {
            "basic": {"scalar": "PointerJumpingBasic"},
            "reqresp": {"scalar": "PointerJumpingReqResp", "bulk": "PointerJumpingReqRespBulk"},
        }),
        "pregel": Entry("repro.pregel_algorithms.pointer_jumping:run_pointer_jumping_pregel", {
            "basic": {"scalar": "PJPregelBasic"},
            "reqresp": {"scalar": "PJPregelReqResp"},
        }),
    },
    "wcc": {
        "channel": Entry("repro.algorithms.wcc:run_wcc", {
            "basic": {"scalar": "WCCBasic", "bulk": "WCCBasicBulk"},
            "prop": {"scalar": "WCCPropagation"},
        }),
        "pregel": _one("repro.pregel_algorithms.wcc:run_wcc_pregel", "WCCPregel"),
        "blogel": _one("repro.blogel.wcc:run_wcc_blogel", "BlogelWCC"),
    },
    "sv": {
        "channel": Entry("repro.algorithms.sv:run_sv", {
            "basic": _sv(False, False),
            "reqresp": _sv(True, False),
            "scatter": _sv(False, True),
            "both": _sv(True, True),
        }),
        "pregel": Entry("repro.pregel_algorithms.sv:run_sv_pregel", {
            "basic": {"scalar": "SVPregelBasic"},
            "reqresp": {"scalar": "SVPregelReqResp"},
        }),
    },
    "scc": {
        "channel": Entry("repro.algorithms.scc:run_scc", {
            "basic": {"scalar": "SCCBasic"},
            "prop": {"scalar": "SCCPropagation"},
        }),
        "pregel": _one("repro.pregel_algorithms.scc:run_scc_pregel", "SCCPregel"),
    },
    "msf": {
        "channel": _one("repro.algorithms.msf:run_msf", "MSFBasic"),
        "pregel": _one("repro.pregel_algorithms.msf:run_msf_pregel", "MSFPregel"),
    },
    "sssp": {
        "channel": Entry("repro.algorithms.sssp:run_sssp", {
            "basic": {"scalar": "SSSPBasic", "bulk": "SSSPBasicBulk"},
            "prop": {"scalar": "SSSPPropagation"},
        }),
        "pregel": _one("repro.pregel_algorithms.sssp:run_sssp_pregel", "SSSPPregel"),
    },
    "bfs": {
        "channel": Entry("repro.algorithms.bfs:run_bfs", {
            "basic": {"scalar": "BFSBasic", "bulk": "BFSBasicBulk"},
            "prop": {"scalar": "BFSPropagation"},
        }),
    },
    "kcore": {"channel": _one("repro.algorithms.kcore:run_kcore", "KCore")},
    "lpa": {"channel": _one("repro.algorithms.lpa:run_lpa", "LabelPropagation")},
    "mis": {"channel": _one("repro.algorithms.mis:run_mis", "LubyMIS")},
    "triangles": {"channel": _one("repro.algorithms.triangles:run_triangles", "TriangleCounting")},
}


def _entry(algorithm: str, system: str, variant: str, path: str) -> Entry:
    """The entry holding row ``(variant, path)``, or one ``ValueError``
    naming the argument as a runner calls it (``mode`` for the path)."""
    entry = check_choice("system", system, check_choice("algorithm", algorithm, PROGRAMS))
    paths = check_choice("variant", variant, entry.variants)
    check_choice("mode", path, dict.fromkeys(PATHS))
    if path not in paths:
        raise ValueError(f"variant {variant!r} has no {path!r} port; have {sorted(paths)}")
    return entry


def _attribute(module: str, name: str):
    return getattr(importlib.import_module(module), name)


@cache
def _factory(algorithm: str, system: str, variant: str, path: str):
    entry = PROGRAMS[algorithm][system]
    module = entry.runner.partition(":")[0]
    named = entry.variants[variant][path]
    if isinstance(named, str):
        return _attribute(module, named)
    base, flags = named
    return ProgramSpec(_attribute(module, base), flags)


def factory(algorithm: str, system: str = "channel", variant: str = "basic", path: str = "scalar"):
    """One row's program factory: a class, or a
    :class:`~repro.core.ProgramSpec` that pickles.  Resolved once, so every
    run of a row builds the same class."""
    _entry(algorithm, system, variant, path)
    return _factory(algorithm, system, variant, path)


def runner(
    algorithm: str, system: str = "channel", variant: str = "basic", path: str = "scalar"
) -> Callable:
    """One row's public runner, with ``variant=`` bound where its entry
    lists more than one variant and ``mode=`` where the entry has a bulk
    path, so no runner is handed a keyword it does not take."""
    entry = _entry(algorithm, system, variant, path)
    keywords = {}
    if len(entry.variants) > 1:
        keywords["variant"] = variant
    if any("bulk" in paths for paths in entry.variants.values()):
        keywords["mode"] = path
    return partial(_attribute(*entry.runner.split(":")), **keywords)


def cells(algorithm: str) -> dict[str, tuple[str, str, str]]:
    """``{cell: (system, variant, path)}`` over one algorithm's rows; a cell
    is named ``{system}-{variant}``, plus ``-bulk`` for the bulk path."""
    return {
        f"{system}-{variant}" + ("-bulk" if path == "bulk" else ""): (system, variant, path)
        for system, entry in check_choice("algorithm", algorithm, PROGRAMS).items()
        for variant, paths in entry.variants.items()
        for path in paths
    }
