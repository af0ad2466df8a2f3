"""CI regression gate for every committed ``BENCH_*.json`` artifact.

Compares a freshly produced benchmark artifact against the committed
baseline of the same kind and fails (exit 1) on anything that should
never regress.  The artifact kind — ``parallel``, ``bulk``,
``recovery``, ``scale`` or ``streaming`` — is auto-detected from the row schema
(or the filename), and each kind gates on its own field set:

* **Parity is environment-independent and always enforced.**  Every
  fresh row must report its parity flags true (``parity_shm`` /
  ``parity_pipe`` for the parallel artifact, ``traffic_identical`` for
  bulk, ``identical`` for recovery and streaming), and on the row
  intersection with the baseline the *work done* must be exactly the
  baseline's — supersteps, bytes, messages, byte ratios.  A CI smoke
  that runs a subset (say ``--workers 2`` against a baseline with
  ``[2, 8]``) checks just the rows it has.
* **Wall-time is environment-dependent and gated on ``speedup_valid``.**
  Wall-clock ratios (fresh / baseline) fail above ``--tolerance`` only
  when *both* artifacts were produced with ``speedup_valid: true`` — a
  1-CPU baseline or a 1-CPU smoke measures protocol overhead, and
  comparing those against multi-core numbers would gate merges on
  noise.  (The bulk / recovery / streaming artifacts don't record the
  flag, so their walls are never ratio-gated.)  The parallel
  artifact's ``speedup_shm_vs_pipe`` is reported, never gated: the two
  transports are byte movers under one protocol and each wins somewhere.
* A fresh artifact flagged ``dirty_tree`` fails outright: its numbers
  are not traceable to any commit.  With ``REPRO_BENCH_REQUIRE_CLEAN=1``
  (CI sets it) a dirty *baseline* fails too — the committed artifact
  itself must be traceable.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py FRESH.json \\
        [--baseline BENCH_<kind>.json] [--kind auto] [--tolerance 1.5]

With no ``--baseline`` the committed ``BENCH_<kind>.json`` at the repo
root is used, so ``check_regression.py BENCH_streaming.json`` self-gates
a committed artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["GateSpec", "SPECS", "detect_kind", "check", "main"]

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class GateSpec:
    """What one artifact kind gates on."""

    kind: str
    #: row fields forming the identity used to match fresh rows to baseline rows
    key: tuple[str, ...]
    #: boolean row fields that must be true on every fresh row
    parity: tuple[str, ...]
    #: row fields that must be *exactly* the baseline's on the intersection
    exact: tuple[str, ...]
    #: row wall-second fields, ratio-gated only when both sides are speedup_valid
    wall: tuple[str, ...]
    #: top-level meta fields that must match for the artifacts to be comparable
    comparable: tuple[str, ...]


SPECS: dict[str, GateSpec] = {
    spec.kind: spec
    for spec in (
        GateSpec(
            kind="parallel",
            key=("workload", "workers"),
            parity=("parity_pipe", "parity_shm"),
            exact=("supersteps", "net_mb"),
            wall=("pipe_wall_s", "shm_wall_s"),
            comparable=("dataset", "seed"),
        ),
        GateSpec(
            kind="bulk",
            key=("algorithm", "dataset"),
            parity=("traffic_identical",),
            exact=("supersteps",),
            wall=("scalar_wall_s", "bulk_wall_s"),
            comparable=("dataset", "seed"),
        ),
        GateSpec(
            kind="recovery",
            key=("workload", "mode", "fail_at"),
            parity=("identical",),
            exact=("supersteps", "checkpoint_bytes", "log_bytes", "recovery_bytes"),
            wall=(),
            comparable=("dataset", "checkpoint_every"),
        ),
        GateSpec(
            kind="scale",
            key=("workload", "workers", "scale"),
            # rss_ok is the out-of-core claim itself: peak per-worker RSS
            # growth stayed well under the full edge-list size
            parity=("parity", "rss_ok"),
            exact=("vertices", "arcs", "supersteps", "net_mb"),
            wall=("build_wall_s", "run_wall_s", "sim_wall_s"),
            comparable=("edge_factor", "seed", "iterations"),
        ),
        GateSpec(
            kind="rebalance",
            key=("workload", "trigger"),
            # fired / no_false_fire / gain_ok are the tentpole claims:
            # planted skew must trigger, converged partitions must not,
            # and the cost-model win must clear the 1.3x bar
            parity=("identical", "fired", "no_false_fire", "gain_ok"),
            exact=("supersteps", "rebalances", "moved_vertices", "moved_arcs"),
            wall=("off_wall_s", "reb_wall_s"),
            comparable=("scale", "edge_factor", "workers", "seed", "epochs"),
        ),
        GateSpec(
            kind="streaming",
            key=("algorithm", "delta_frac"),
            parity=("identical",),
            exact=(
                "batch_edges",
                "inc_supersteps",
                "cold_supersteps",
                "inc_mb",
                "cold_mb",
                "byte_ratio",
            ),
            wall=("inc_wall_s", "cold_wall_s"),
            comparable=("dataset", "seed", "epochs"),
        ),
    )
}


def detect_kind(payload: dict, path: Path | str | None = None) -> str:
    """Artifact kind from the row schema, falling back to the filename."""
    rows = payload.get("rows") or []
    row = rows[0] if rows else {}
    if "parity_shm" in row or "parity_pipe" in row:
        return "parallel"
    if "traffic_identical" in row:
        return "bulk"
    if "fail_at" in row or "recovery_bytes" in row:
        return "recovery"
    if "rss_ok" in row or "peak_rss_growth_mb" in row:
        return "scale"
    if "no_false_fire" in row or "gain_ratio" in row:
        return "rebalance"
    if "delta_frac" in row:
        return "streaming"
    if path is not None:
        name = Path(path).name
        for kind in SPECS:
            if name.startswith(f"BENCH_{kind}"):
                return kind
    raise SystemExit(
        "cannot detect the artifact kind: rows match no known schema"
        + (f" and the filename {Path(path).name!r} is no help" if path else "")
    )


def _rows_by_key(payload: dict, spec: GateSpec) -> dict[tuple, dict]:
    return {tuple(r.get(k) for k in spec.key): r for r in payload["rows"]}


def _cell(key: tuple) -> str:
    return "@".join(str(k) for k in key)


def check(
    fresh: dict,
    baseline: dict,
    tolerance: float = 1.5,
    kind: str | None = None,
    require_clean: bool | None = None,
) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    if kind is None:
        kind = detect_kind(fresh)
    spec = SPECS[kind]
    if require_clean is None:
        require_clean = os.environ.get("REPRO_BENCH_REQUIRE_CLEAN") == "1"
    failures: list[str] = []

    if fresh.get("dirty_tree"):
        failures.append(
            f"fresh artifact was produced from a dirty tree ({fresh.get('git')}) "
            "— numbers are untraceable; rerun from a clean checkout"
        )
    if require_clean and (
        baseline.get("dirty_tree")
        or str(baseline.get("git", "")).endswith("-dirty")
    ):
        failures.append(
            f"baseline was produced from a dirty tree ({baseline.get('git')}) "
            "and REPRO_BENCH_REQUIRE_CLEAN=1 — regenerate the committed "
            "artifact from a clean checkout"
        )

    # -- parity: absolute, environment-independent -------------------------
    for row in fresh["rows"]:
        cell = _cell(tuple(row.get(k) for k in spec.key))
        if kind == "parallel":
            for t in ("pipe", "shm"):
                if not row.get(f"parity_{t}", False):
                    failures.append(f"{cell}: transport {t!r} broke sim parity")
        else:
            for field in spec.parity:
                if not row.get(field, False):
                    failures.append(
                        f"{cell}: {field} is false — the two runs this row "
                        "compares diverged; that is a correctness bug, not a "
                        "performance number"
                    )
    for row in fresh.get("amortization", []):
        if not row.get("identical", False):
            failures.append(
                f"amortization/{row.get('mode')}: per-epoch data diverged"
            )

    # -- work parity vs baseline on the row intersection --------------------
    mismatched = [
        k for k in spec.comparable if fresh.get(k) != baseline.get(k)
    ]
    comparable = not mismatched
    if not comparable:
        detail = ", ".join(
            f"{k}: fresh={fresh.get(k)!r} baseline={baseline.get(k)!r}"
            for k in mismatched
        )
        failures.append(f"artifacts are not comparable ({detail})")
    base_rows = _rows_by_key(baseline, spec)
    shared = [
        (key, row)
        for key, row in _rows_by_key(fresh, spec).items()
        if key in base_rows
    ]
    if not shared and comparable:
        failures.append(
            f"no ({', '.join(spec.key)}) rows in common with the baseline"
        )
    for key, row in shared if comparable else []:
        cell = _cell(key)
        base = base_rows[key]
        for field in spec.exact:
            if row.get(field) != base.get(field):
                failures.append(
                    f"{cell}: {field} changed "
                    f"(baseline {base.get(field)}, fresh {row.get(field)}) — "
                    "the backend is doing different work, not running slower"
                )

    # -- wall time: only when both sides measured real parallelism ----------
    walls_meaningful = fresh.get("speedup_valid") and baseline.get("speedup_valid")
    for key, row in shared if (comparable and walls_meaningful) else []:
        cell = _cell(key)
        base = base_rows[key]
        for field in spec.wall:
            b, f = base.get(field), row.get(field)
            if not b or not f:
                continue
            ratio = f / b
            if ratio > tolerance:
                failures.append(
                    f"{cell}: {field} regressed {ratio:.2f}x "
                    f"(baseline {b}s, fresh {f}s, tolerance {tolerance}x)"
                )

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="just-produced artifact")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed artifact to compare against "
        "(default: BENCH_<kind>.json at the repo root)",
    )
    parser.add_argument(
        "--kind",
        choices=("auto", *SPECS),
        default="auto",
        help="artifact kind (default: detect from the row schema / filename)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="max allowed fresh/baseline wall-time ratio (default 1.5; "
        "only enforced when both artifacts have speedup_valid)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(args.fresh.read_text())
    kind = detect_kind(fresh, args.fresh) if args.kind == "auto" else args.kind
    baseline_path = (
        args.baseline
        if args.baseline is not None
        else REPO_ROOT / f"BENCH_{kind}.json"
    )
    baseline = json.loads(baseline_path.read_text())
    failures = check(fresh, baseline, args.tolerance, kind=kind)
    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        return 1
    walls = (
        "enforced"
        if fresh.get("speedup_valid") and baseline.get("speedup_valid")
        else "skipped (speedup_valid false on at least one side)"
    )
    print(
        f"regression gate passed: {kind} artifact, {len(fresh['rows'])} rows "
        f"checked, parity exact, wall-time {walls}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
