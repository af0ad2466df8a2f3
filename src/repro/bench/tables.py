"""Row-for-row regenerators for the paper's result tables (IV–VII).

Each ``tableN()`` returns the same rows the paper reports (same programs,
same datasets, scaled inputs).  ``render_rows`` pretty-prints them;
``python -m repro tables [N ...]`` regenerates them, and README.md
("Tests and benchmarks") lists the benchmarks that assert their shapes.
"""

from __future__ import annotations

import sys

from repro.bench.runner import run_cell

__all__ = [
    "table4",
    "table5_scatter",
    "table5_reqresp",
    "table5_prop",
    "table6",
    "table7",
    "render_rows",
]


def table4(num_workers: int = 8) -> list[dict]:
    """Table IV: basic implementations, Pregel+ vs channel system."""
    cells = [
        ("pagerank", "pregel-basic", "webuk", False),
        ("pagerank", "channel-basic", "webuk", False),
        ("pagerank", "pregel-basic", "wikipedia", False),
        ("pagerank", "channel-basic", "wikipedia", False),
        ("wcc", "pregel-basic", "wikipedia", False),
        ("wcc", "channel-basic", "wikipedia", False),
        ("wcc", "pregel-basic", "wikipedia", True),
        ("wcc", "channel-basic", "wikipedia", True),
        ("pj", "pregel-basic", "chain", False),
        ("pj", "channel-basic", "chain", False),
        ("pj", "pregel-basic", "tree", False),
        ("pj", "channel-basic", "tree", False),
        ("sv", "pregel-basic", "facebook", False),
        ("sv", "channel-basic", "facebook", False),
        ("sv", "pregel-basic", "twitter", False),
        ("sv", "channel-basic", "twitter", False),
        ("msf", "pregel-basic", "usa-road", False),
        ("msf", "channel-basic", "usa-road", False),
        ("msf", "pregel-basic", "rmat24", False),
        ("msf", "channel-basic", "rmat24", False),
        ("scc", "pregel-basic", "wikipedia", False),
        ("scc", "channel-basic", "wikipedia", False),
        ("scc", "pregel-basic", "wikipedia", True),
        ("scc", "channel-basic", "wikipedia", True),
    ]
    return [run_cell(a, p, d, part, num_workers) for a, p, d, part in cells]


def table5_scatter(num_workers: int = 8) -> list[dict]:
    """Table V (top): the scatter-combine channel on PageRank.  Its
    ``channel-scatter`` rows let a peer fold some destinations from their
    senders' values (see :data:`TABLE5_SCATTER_NOTE`): fewer bytes than
    the paper's channel, the same values and messages."""
    rows = []
    for dataset in ("wikipedia", "webuk"):
        for program in (
            "pregel-basic",
            "pregel-ghost",
            "channel-basic",
            "channel-scatter",
        ):
            kwargs = {"ghost_threshold": 16} if program == "pregel-ghost" else {}
            rows.append(run_cell("pagerank", program, dataset, False, num_workers, **kwargs))
    return rows


#: the caption note under Table V (top)
TABLE5_SCATTER_NOTE = (
    "channel-scatter chooses per destination which end folds it: a peer gets "
    "the senders' own values of the destinations it folds itself, where that "
    "sends fewer values (sums only), so its bytes are below the paper's channel"
)


def table5_reqresp(num_workers: int = 8) -> list[dict]:
    """Table V (middle): the request-respond channel on pointer jumping."""
    rows = []
    for dataset in ("tree", "chain"):
        for program in (
            "pregel-basic",
            "pregel-reqresp",
            "channel-basic",
            "channel-reqresp",
        ):
            rows.append(run_cell("pj", program, dataset, False, num_workers))
    return rows


def table5_prop(num_workers: int = 8) -> list[dict]:
    """Table V (bottom): the propagation channel on WCC, raw and
    partitioned inputs, including Blogel."""
    rows = []
    for partitioned in (False, True):
        for program in ("pregel-basic", "blogel-basic", "channel-basic", "channel-prop"):
            rows.append(run_cell("wcc", program, "wikipedia", partitioned, num_workers))
    return rows


def table6(num_workers: int = 8) -> list[dict]:
    """Table VI: S-V with every channel combination."""
    rows = []
    for dataset in ("facebook", "twitter"):
        for program in (
            "pregel-reqresp",
            "channel-basic",
            "channel-reqresp",
            "channel-scatter",
            "channel-both",
        ):
            rows.append(run_cell("sv", program, dataset, False, num_workers))
    return rows


def table7(num_workers: int = 8) -> list[dict]:
    """Table VII: Min-Label SCC, basic vs propagation channel."""
    rows = []
    for partitioned in (False, True):
        for program in ("pregel-basic", "channel-basic", "channel-prop"):
            rows.append(run_cell("scc", program, "wikipedia", partitioned, num_workers))
    return rows


def render_rows(rows: list[dict], title: str = "", cols: list[str] | None = None) -> str:
    """Fixed-width table in the paper's (runtime, message) format; pass
    ``cols`` to render rows with a different shape (e.g. speedup rows)."""
    if not rows:
        return f"{title}\n(no rows)"
    if cols is None:
        cols = ["algorithm", "program", "dataset", "runtime", "message_mb", "supersteps", "wall_s"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(widths[c]) for c in cols))
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    wanted = set(argv) if argv else {"3", "4", "5", "6", "7"}
    from repro.bench.datasets import table3_rows

    if "3" in wanted:
        rows = table3_rows()
        cols = list(rows[0])
        print("Table III: datasets")
        print("  ".join(c.ljust(12) for c in cols))
        for r in rows:
            print("  ".join(str(r[c]).ljust(12) for c in cols))
        print()
    if "4" in wanted:
        print(render_rows(table4(), "Table IV: channel mechanism vs Pregel+ (basic)"))
        print()
    if "5" in wanted:
        print(render_rows(table5_scatter(), "Table V (top): ScatterCombine / PageRank"))
        print(f"  note: {TABLE5_SCATTER_NOTE}")
        print()
        print(render_rows(table5_reqresp(), "Table V (mid): RequestRespond / PJ"))
        print()
        print(render_rows(table5_prop(), "Table V (bottom): Propagation / WCC"))
        print()
    if "6" in wanted:
        print(render_rows(table6(), "Table VI: S-V channel composition"))
        print()
    if "7" in wanted:
        print(render_rows(table7(), "Table VII: Min-Label SCC"))


if __name__ == "__main__":
    main()
