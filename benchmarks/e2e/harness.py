"""Runs repetitions, each in a child process of its own, one at a time.

This process imports only the standard library and stays small on
purpose: a child's ``ru_maxrss`` starts at its parent's resident size at
``exec``, so a harness that had loaded a graph would put a floor under
every ``peak_rss_mb`` it reports.  Store building, references and the
probes therefore run in children too.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
MIN_TIMEOUT = 120.0
#: counts the program keeps itself; they must repeat exactly for a seed
EXACT = ("net_bytes", "supersteps", "rounds", "messages", "checksum")


def stats(values: list[float]) -> dict:
    """Median, min, max and n, with the samples.  No percentile: that
    needs more samples than a run of this benchmark takes."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "samples": values,
    }


def run_child(argv: list, timeout: float, log_path: Path) -> tuple[int | None, float]:
    """Run ``python argv...`` in its own process group and reap it with
    ``wait4``.  Returns (exit code or None on timeout, peak RSS in MiB of
    the largest process in the child's tree)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, *map(str, argv)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            timed_out = True
            os.kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        # workers orphaned by a dead child must not take cores from later repetitions
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return (None if timed_out else proc.returncode), usage.ru_maxrss / 1024


def _call(script: str, args: list, out_path: Path, timeout: float, log_path: Path):
    """Run one of this directory's scripts; its JSON output or an error line."""
    out_path.unlink(missing_ok=True)
    code, rss_mb = run_child([HERE / script, *args, out_path], timeout, log_path)
    if code is None:
        return None, rss_mb, f"timed out after {timeout:.0f} s"
    if code != 0 or not out_path.exists():
        tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
        return None, rss_mb, f"exit code {code}: " + " | ".join(tail)
    return json.loads(out_path.read_text()), rss_mb, None


class Bench:
    """One invocation's settings: where stores and scratch files live."""

    def __init__(self, preset: str, seed: int, store_dir: Path) -> None:
        self.preset = preset
        self.seed = seed
        self.store_dir = Path(store_dir).resolve()
        self.work = self.store_dir / f"work{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.log = self.work / "child.log"

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _script(self, script: str, args: list, timeout: float, what: str) -> dict:
        out, _, error = _call(script, args, self.work / f"{script}.json", timeout, self.log)
        if error:
            raise RuntimeError(f"{what}: {error}")
        return out

    def prepare(self, name: str) -> dict:
        args = [name, self.preset, self.seed, self.store_dir]
        return self._script("prepare.py", args, 600.0, f"preparing {name}")

    def probes(self) -> dict:
        return self._script("probes.py", [self.preset, self.seed], 300.0, "layer probes")

    def repetition(self, prep: dict, timeout: float = MIN_TIMEOUT, **spec) -> dict:
        """One repetition of ``prep``'s call; ``spec`` overrides (mode,
        executor, obs).  ``ok`` is False when it raised, timed out, exited
        non-zero or failed verification."""
        spec = {**prep, "mode": "timed", **spec}
        spec["obs_path"] = str(self.work / "obs-trace.jsonl")
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out, rss_mb, error = _call("child.py", [spec_path], self.work / "out.json", timeout, self.log)
        if error is None and out.get("error"):
            error = f"wrong result: {out['error']}"
        if error:
            return {"ok": False, "error": error}
        out["peak_rss_mb"] = rss_mb
        return out


def end_to_end(prep: dict, reps: list[dict]) -> dict:
    """Aggregate a workload's timed repetitions.  Failed ones add no
    timing sample; counts that differ between repetitions are failures."""
    good = [r for r in reps if r["ok"]]
    errors = [r["error"] for r in reps if not r["ok"]]
    exact = good[0]["exact"] if good else None
    drifted = [r for r in good if r["exact"] != exact]
    if drifted:
        errors.append(f"exact counts differ between repetitions: {exact} vs {drifted[0]['exact']}")
        good = [r for r in good if r["exact"] == exact]
    failed = len(reps) - len(good)
    out = {
        "ops_attempted": len(reps),
        "ops_failed": failed,
        "failed_frac": failed / len(reps),
        "errors": errors,
        "exact": exact,
    }
    if good:
        out["wall_s"] = stats([r["wall_s"] for r in good])
        out["setup_s"] = stats([r["setup_s"] for r in good])
        out["edges_per_s"] = stats([prep["E"] / r["wall_s"] for r in good])
        out["peak_rss_mb"] = stats([r["peak_rss_mb"] for r in good])
    return out


def parity_errors(a: dict, b: dict, what: str) -> list[str]:
    """Executors must agree bit for bit on the result and the counts."""
    return [
        f"{what}: {key} differs ({a[key]} vs {b[key]})" for key in EXACT if a[key] != b[key]
    ]


def trace(bench: Bench, prep: dict, untraced_wall: float, timeout: float,
          probes: dict | None, obs_reps: int) -> tuple[dict, list[str], dict]:
    """The traced repetition (and, on a process workload, its sim twin);
    returns the per-layer metrics, any errors and the span table."""
    traced = bench.repetition(prep, timeout, mode="traced")
    if not traced["ok"]:
        return {}, [f"traced repetition: {traced['error']}"], {}
    twin, errors = traced, []
    if prep["executor"] != "sim":
        twin = bench.repetition(prep, timeout, mode="traced", executor="sim")
        if not twin["ok"]:
            return {}, [f"traced sim twin: {twin['error']}"], {}
        errors += parity_errors(traced["exact"], twin["exact"], "process vs sim twin")
    obs = None
    if obs_reps:
        obs = {}
        for kind in ("trace", "live"):
            reps = [bench.repetition(prep, timeout, obs=kind) for _ in range(obs_reps)]
            errors += [f"obs={kind}: {r['error']}" for r in reps if not r["ok"]]
            walls = [r["wall_s"] for r in reps if r["ok"]]
            if walls:
                obs[f"obs.{kind}.overhead_frac"] = statistics.median(walls) / untraced_wall - 1.0
    table = spans.table(traced["spans"])
    missing = traced["missing_hooks"] + twin["missing_hooks"]
    if missing:
        print(f"  note: no hook for {sorted(set(missing))}; those layers read null", file=sys.stderr)
    return layers.assemble(prep, traced, twin, untraced_wall, probes, obs), errors, table
