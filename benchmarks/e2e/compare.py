"""``run.py compare A.json B.json``: is B worse than A, within the
benchmark's own bounds?"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from harness import EXACT

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def bounds() -> dict[str, dict]:
    """The bounded end-to-end metrics as BENCHMARK.json declares them."""
    return {m["name"]: m for m in json.loads(MANIFEST.read_text())["end_to_end"]}


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``worse`` when B's median is worse than A's by more than the bound;
    ``unresolved`` when either side's spread is wider than the bound and
    the two ranges overlap, so the medians cannot tell; else ``ok``."""
    if max(spread(a["samples"]), spread(b["samples"])) > bound and (
        a["min"] <= b["max"] and b["min"] <= a["max"]
    ):
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        change = -change
    return "worse" if change > bound else "ok"


def _cell(s: dict) -> str:
    return f"{s['median']:.6g} [{s['min']:.6g}-{s['max']:.6g}]"


def compare(a: dict, b: dict) -> list[tuple]:
    """Rows of (workload, metric, A, B, ratio, bound, verdict)."""
    bounded = {m: d for m, d in bounds().items() if m not in EXACT}
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ea, eb = a["workloads"][name]["end_to_end"], b["workloads"][name]["end_to_end"]
        for metric, decl in bounded.items():
            if metric not in ea or metric not in eb:
                continue  # every repetition of one side failed; failed_frac below says so
            sa, sb = ea[metric], eb[metric]
            ratio = f"{sb['median'] / sa['median']:.3f}x of A={sa['median']:.6g}"
            rows.append((name, metric, _cell(sa), _cell(sb), ratio, f"{decl['bound']:.0%}",
                         verdict(sa, sb, decl["better"], decl["bound"])))
        exact_a = dict(ea["exact"] or {}, failed_frac=ea["failed_frac"])
        exact_b = dict(eb["exact"] or {}, failed_frac=eb["failed_frac"])
        for metric in (*EXACT, "failed_frac"):
            va, vb = exact_a.get(metric), exact_b.get(metric)
            rows.append((name, metric, str(va)[:16], str(vb)[:16], "-", "exact",
                         "ok" if va == vb else "worse"))
    return rows


def main(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same = all(a["info"][k] == b["info"][k] for k in ("seed", "preset"))
    if not same:
        print("the two files were made with different seeds or presets: counts cannot be compared")
        return 2
    rows = compare(a, b)
    header = ("workload", "metric", f"A = {path_a}", f"B = {path_b}", "B/A", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in (header, *rows)) for i in range(len(header))]
    for row in (header, *rows):
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    verdicts = [r[-1] for r in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('worse')} worse")
    return 1 if "worse" in verdicts else 0
