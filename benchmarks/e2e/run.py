"""The repo's end-to-end benchmark: graph on disk -> results in hand.

    python benchmarks/e2e/run.py [--seed 7] [--reps 7] [--workload NAME ...] [--out FILE]
    python benchmarks/e2e/run.py compare A.json B.json
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form prepares the stores, runs every workload, verifies every
result and prints every metric by name with its unit.  The last is the
form BENCHMARK.json declares: one workload for a fixed time, ending in
one JSON line.  README.md defines the metrics and workloads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import compare
import harness
import layers
from workloads import PRESETS, WORKLOADS, workload

ROOT = Path(__file__).resolve().parents[2]
END_TO_END = ("wall_s", "setup_s", "edges_per_s", "peak_rss_mb")
#: repetitions in a ``--seconds`` run, at least.  Such a run has no
#: discarded warm-up repetition, and the first repetition after a pause is
#: slow (the hypervisor backs its pages again).
QUICK_REPS = 3
#: what a ``--seconds`` run reports of its repetitions.  Its machine is a
#: few cores of a shared host, where a busy neighbour slows whole stretches
#: of a run by a third and never speeds one up, so the run's medians move
#: with the neighbour (interquartile range 45 % of the median over 10 runs
#: of unchanged code).  The fastest repetition is the one the neighbour
#: touched least; resident size does not depend on the neighbour.
QUICK_PICK = {"wall_s": "min", "setup_s": "min", "edges_per_s": "max", "peak_rss_mb": "median"}


def provenance(args, preps: dict) -> dict:
    """What produced this file (the ``ScanInfo`` idiom: the output
    describes its own run before any number)."""
    describe = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    )
    git = describe.stdout.strip() if describe.returncode == 0 else None
    return {
        "benchmark": "e2e",
        "git": git,
        "dirty": git.endswith("-dirty") if git else None,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": args.seed,
        "reps": args.reps,
        "preset": args.preset,
        "workloads": {
            name: {
                "generator": p["generator"],
                "V": p["V"],
                "E": p["E"],
                "call": f"run_{p['algo']}",
                "kwargs": p["kwargs"],
                "partition": p["partition"],
                "workers": p["workers"],
                "executor": p["executor"],
            }
            for name, p in preps.items()
        },
    }


def show(name: str, metric: str, value, unit: str, extra: str = "") -> None:
    """One metric by name with its unit; counts print with all their digits."""
    shown = "null" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
    print(f"{name:<18} {metric:<52} {shown:>14} {unit:<8}{extra}")


def show_end_to_end(name: str, e2e: dict, units: dict) -> None:
    for metric in END_TO_END:
        if metric in e2e:
            s = e2e[metric]
            show(name, metric, s["median"], units[metric],
                 f" min {s['min']:.6g} max {s['max']:.6g} n {s['n']}")
    show(name, "net_bytes", e2e["exact"] and e2e["exact"]["net_bytes"], units["net_bytes"])
    show(name, "failed_frac", e2e["failed_frac"], "ratio",
         f" ops_attempted {e2e['ops_attempted']} ops_failed {e2e['ops_failed']}")


def full(args, bench: harness.Bench) -> int:
    units = {m["name"]: m["unit"] for m in compare.bounds().values()}
    names = args.workload or [w["name"] for w in WORKLOADS]
    preps = {name: bench.prepare(name) for name in names}
    out = {"info": provenance(args, preps), "workloads": {}, "derived": {}}
    print(json.dumps(out["info"]))

    probes = bench.probes()
    for name, prep in preps.items():
        t0 = time.monotonic()
        warm = bench.repetition(prep)  # discarded: fills page cache and __pycache__
        timeout = max(harness.MIN_TIMEOUT, 10 * (time.monotonic() - t0))
        reps = [bench.repetition(prep, timeout) for _ in range(args.reps)]
        e2e = harness.end_to_end(prep, reps)
        if not warm["ok"]:
            e2e["errors"].append(f"warm-up: {warm['error']}")
        entry = out["workloads"][name] = {"end_to_end": e2e, "errors": e2e.pop("errors")}
        show_end_to_end(name, e2e, units)
        if "wall_s" not in e2e:
            continue
        # straight after the timed repetitions, so the traced one finds the
        # machine as they did and the two walls can be compared
        per_layer, errors, table = harness.trace(
            bench, prep, e2e["wall_s"]["median"], timeout, probes,
            obs_reps=3 if workload(name).get("obs_probe") else 0,
        )
        entry.update(per_layer=per_layer, spans=table)
        entry["errors"] += errors
        for metric, unit in layers.declared().items():
            show(name, metric, per_layer.get(metric), unit)
        for span, row in table.items():
            print(f"{name:<18} span {span:<34} calls {row['calls']:>6} "
                  f"total {row['total_s']:>10.4f} s  self {row['self_s']:>10.4f} s")

    sim, proc = (out["workloads"].get(n, {}).get("end_to_end") for n in
                 ("pr-rmat19-sim2", "pr-rmat19-proc2"))
    if sim and proc and sim["exact"] and proc["exact"]:
        out["workloads"]["pr-rmat19-proc2"]["errors"] += harness.parity_errors(
            sim["exact"], proc["exact"], "pr-rmat19 sim vs process")
        ratio = proc["wall_s"]["median"] / sim["wall_s"]["median"]
        out["derived"]["proc_over_sim_wall"] = ratio
        print(f"derived proc_over_sim_wall {ratio:.3f}x of sim wall_s={sim['wall_s']['median']:.4f} s")

    failures = 0
    for name, entry in out["workloads"].items():
        failures += bool(entry["end_to_end"]["ops_failed"] or entry["errors"])
        for error in entry["errors"]:
            print(f"FAILED {name}: {error}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 1 if failures else 0


def quick(args, bench: harness.Bench) -> int:
    """BENCHMARK.json's form: one workload, ``--seconds`` of repetitions,
    one JSON object on the last line."""
    name = args.workload[0]
    prep = bench.prepare(name)
    declared = json.loads(compare.MANIFEST.read_text())
    bench.repetition(prep, mode="touch")
    if not args.trace:
        reps, start, longest = [], time.monotonic(), 0.0
        # stop when one more repetition would run past --seconds
        while len(reps) < QUICK_REPS or time.monotonic() - start + longest <= args.seconds:
            began = time.monotonic()
            reps.append(bench.repetition(prep))
            longest = max(longest, time.monotonic() - began)
        e2e = harness.end_to_end(prep, reps)
        errors, attempted, failed = e2e["errors"], e2e["ops_attempted"], e2e["ops_failed"]
        values = {m: e2e[m][QUICK_PICK[m]] for m in END_TO_END if m in e2e}
        for m in values:
            print(f"{name:<18} {m} of {e2e[m]['n']} repetitions:",
                  " ".join(f"{v:.6g}" for v in e2e[m]["samples"]))
        if e2e["exact"]:
            values["net_bytes"] = e2e["exact"]["net_bytes"]
        wanted = declared["end_to_end"]
    else:
        probes = bench.probes()
        reps = [bench.repetition(prep) for _ in range(QUICK_REPS)]
        e2e = harness.end_to_end(prep, reps)
        errors, values = e2e["errors"], {}
        if "wall_s" in e2e:
            values, more, _ = harness.trace(
                bench, prep, e2e["wall_s"]["median"], harness.MIN_TIMEOUT, probes,
                obs_reps=QUICK_REPS if workload(name).get("obs_probe") else 0,
            )
            errors += more
        attempted, failed = len(reps) + 1, e2e["ops_failed"] + (0 if values else 1)
        wanted = declared["per_layer"]
    for error in errors:
        print(f"FAILED {name}: {error}")
    if not values:
        return 1
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        show(name, m["name"], value, m["unit"])
        # the result line takes numbers only: a layer that was not measured reads 0
        metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
    print(json.dumps({
        "correct": not errors and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="feeds the generators and partitioners only")
    parser.add_argument("--reps", type=int, default=7, help="timed repetitions per workload")
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--store-dir", type=Path, default=Path(".bench_build") / "e2e-stores",
                        help="where stores are built once and reused")
    parser.add_argument("--smoke", dest="preset", action="store_const", const="smoke",
                        default="full", help=f"tiny graphs: {PRESETS['smoke']}")
    parser.add_argument("--seconds", type=float, help="measure one --workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds is not None and len(args.workload or ()) != 1:
        parser.error("--seconds takes exactly one --workload")
    with harness.Bench(args.preset, args.seed, args.store_dir) as bench:
        return full(args, bench) if args.seconds is None else quick(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
